// Content-addressed campaign result cache: the daemon's memoization tier.
//
// Completed run reports are stored under their CampaignContentHash — the
// key already folds in everything that can change results (deck text,
// fault list, configurations, numeric options) and deliberately excludes
// what cannot (thread count, caching flags) — so a hit returns the exact
// bytes a cold run would produce, including quarantine lists and the
// exit-code semantics that ride on them.
//
// Two tiers:
//  * memory — a sharded LRU (util/lru.hpp) capped by MCDFT_CACHE_MB
//    (default 256 MB, 0 disables the whole cache), accounting each entry
//    by its report's byte size;
//  * disk — optional spill directory, one file per key holding a single
//    CRC-sealed record (the "mcdft.shard/2" framing via SealCrcRecord, so
//    a corrupt or truncated spill is detected and dropped — the request
//    recomputes instead of serving damage).  Disk writes go through the
//    atomic tmp+fsync+rename protocol with `cache.write.*` faultpoints;
//    reads honor `cache.read.record`.
//
// Spill failures are tolerated (the store still lands in memory); read
// damage is tolerated (counted, treated as a miss).  The cache never
// throws into a request.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "util/lru.hpp"

namespace mcdft::core {

inline constexpr const char* kCacheRecordSchema = "mcdft.cache/1";

/// One memoized campaign run: the exact serialized run-report bytes plus
/// the process-level outcome the CLI/daemon must reproduce on a hit.
struct CachedRun {
  std::string report_json;           ///< exact bytes of the cold run's report
  int exit_code = 0;                 ///< 0 ok, 3 quarantine (kExitQuarantine)
  std::uint64_t quarantined_cells = 0;
};

struct ResultCacheOptions {
  /// Memory-tier cap in bytes; 0 disables both tiers (every Lookup
  /// misses, every Store is dropped).
  std::size_t capacity_bytes = 256u << 20;
  /// Spill directory for the disk tier; empty = memory-only.  Created by
  /// the caller (the daemon), not by the cache.
  std::string disk_dir;
};

/// Parse MCDFT_CACHE_MB (megabytes; unset or empty -> `fallback_mb`, 0 ->
/// cache disabled).  Any other value that is not a whole integer >= 0
/// throws util::Error naming the variable.
std::size_t CacheCapacityFromEnv(std::size_t fallback_mb = 256);

class ResultCache {
 public:
  explicit ResultCache(ResultCacheOptions options);

  /// Memory tier first, then disk; a disk hit is promoted into memory.
  /// nullopt on miss (or damage, which is counted and treated as a miss).
  /// On a hit, `*tier` (when given) is set to "memory" or "disk".
  std::optional<CachedRun> Lookup(const std::string& key,
                                  std::string* tier = nullptr);

  /// Insert into memory and (when configured) spill to disk.  Spill
  /// failures are tolerated and counted.  No-op when disabled.
  void Store(const std::string& key, const CachedRun& run);

  /// Spill-file path for `key` ("" when no disk tier is configured).
  std::string DiskPathOf(const std::string& key) const;

  bool Enabled() const { return memory_.CapacityBytes() > 0; }
  std::size_t CapacityBytes() const { return memory_.CapacityBytes(); }
  util::ShardedLruCache::Stats MemoryStats() const {
    return memory_.TotalStats();
  }

 private:
  std::optional<CachedRun> LoadFromDisk(const std::string& key);
  void SpillToDisk(const std::string& key, const CachedRun& run);

  ResultCacheOptions options_;
  util::ShardedLruCache memory_;
};

}  // namespace mcdft::core
