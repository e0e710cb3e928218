// Sharded (striped-lock) LRU cache with byte-size accounting — the
// primitive under the campaign result cache and the shared nominal-factor
// cache.
//
// Keys hash onto `stripes` independent shards, each guarded by its own
// mutex, so concurrent daemon requests touching different keys never
// contend.  Capacity is accounted in bytes (the caller supplies each
// entry's size): every shard owns capacity/stripes bytes and evicts its
// own least-recently-used entries to make room.  A value a Get() handed
// out is never destroyed mid-use: eviction only drops the cache's
// reference — the holder's shared_ptr keeps the value alive until
// released.
//
// A capacity of zero disables the cache entirely (every Put is rejected,
// every Get misses) — the MCDFT_CACHE_MB=0 escape hatch.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace mcdft::util {

class ShardedLruCache {
 public:
  /// Aggregated accounting over all stripes.  `bytes`/`entries` are the
  /// current residency; the counters are monotone over the cache lifetime.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t rejected = 0;  ///< Puts refused (over-cap, cap 0)
    std::size_t bytes = 0;
    std::size_t entries = 0;
  };

  /// `capacity_bytes` is split evenly over `stripes` shards (>= 1).
  explicit ShardedLruCache(std::size_t capacity_bytes,
                           std::size_t stripes = 8);

  ShardedLruCache(const ShardedLruCache&) = delete;
  ShardedLruCache& operator=(const ShardedLruCache&) = delete;

  /// Look up `key`, marking it most-recently-used.  Returns the stored
  /// value, or nullptr on a miss.  The returned shared_ptr keeps the value
  /// alive even if the entry is evicted afterwards.
  std::shared_ptr<void> Get(const std::string& key);

  /// Insert (or overwrite) `key` -> `value` accounted as `bytes`.  An
  /// overwrite drops the old entry first.  Least-recently-used entries of
  /// the key's stripe are evicted until the entry fits; returns false (and
  /// counts a rejection) when it cannot fit — the value is larger than the
  /// stripe's capacity, or the capacity is zero.
  bool Put(const std::string& key, std::shared_ptr<void> value,
           std::size_t bytes);

  std::size_t CapacityBytes() const { return capacity_; }
  Stats TotalStats() const;

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<void> value;
    std::size_t bytes = 0;
  };
  struct Stripe {
    mutable std::mutex m;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
    std::size_t bytes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t rejected = 0;
  };

  Stripe& StripeOf(const std::string& key);

  /// Evict LRU entries of `s` until `need` bytes fit under the per-stripe
  /// capacity.  Returns false when `need` exceeds the stripe capacity.
  bool MakeRoom(Stripe& s, std::size_t need);

  std::size_t capacity_ = 0;
  std::size_t stripe_capacity_ = 0;
  std::vector<std::unique_ptr<Stripe>> stripes_;
};

}  // namespace mcdft::util
