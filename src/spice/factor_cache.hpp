// Cross-request shared nominal-factorization cache.
//
// A daemon serving many campaign requests re-factorizes the same nominal
// systems over and over: distinct requests against one netlist share the
// (configuration, ω) systems their envelope and nominal sweeps solve.
// This cache promotes MnaSolveCache's full factorizations to shared state
// content-addressed by the assembled CSR system itself (dimensions,
// sparsity pattern, values — ω and the configuration are baked into the
// values), so the key never goes stale and a hit is exact by construction.
//
// Bit-identity contract: entries are SparseLu snapshots copied immediately
// after construction (pre-factor-program state), so a hit hands the caller
// an object indistinguishable from one it would have constructed itself —
// the subsequent solve replays the identical operation sequence.  A hit
// replaces construction, never a Refactor.
//
// Eviction is refcount-safe: the cache stores shared_ptrs, so an entry
// evicted under capacity pressure stays alive until the last borrower
// releases it.  While any faultpoint is armed the cache bypasses itself
// entirely (every Acquire misses, Publish is dropped): the
// `sparse_lu.factor` injection point lives inside construction, and a hit
// that skipped construction would dodge injected failures a cold run
// absorbs, breaking armed-run determinism.
#pragma once

#include <memory>
#include <string>

#include "linalg/sparse_lu.hpp"
#include "util/lru.hpp"

namespace mcdft::spice {

class SharedFactorCache {
 public:
  /// `capacity_bytes` caps resident factor snapshots (approximate byte
  /// accounting); 0 disables the cache.
  explicit SharedFactorCache(std::size_t capacity_bytes);

  /// Content key of an assembled system: dimensions + sparsity pattern +
  /// values, FNV-1a digested.
  static std::string KeyOf(const linalg::CsrMatrix& m);

  /// Look up a published factor snapshot.  nullptr on miss (or bypass —
  /// see file comment).  The returned pointer stays valid past eviction.
  std::shared_ptr<const linalg::SparseLu> Acquire(const std::string& key);

  /// Publish a snapshot of `lu` under `key`.  Call immediately after
  /// construction, before any Refactor/Solve mutated its program state.
  void Publish(const std::string& key, const linalg::SparseLu& lu);

  util::ShardedLruCache::Stats Stats() const { return cache_.TotalStats(); }
  std::size_t CapacityBytes() const { return cache_.CapacityBytes(); }

 private:
  util::ShardedLruCache cache_;
};

}  // namespace mcdft::spice
