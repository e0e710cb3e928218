#include "core/cache/result_cache.hpp"

#include <fstream>
#include <iterator>
#include <memory>

#include "core/checkpoint.hpp"
#include "util/cli.hpp"
#include "util/faultpoint.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"

namespace mcdft::core {

namespace json = util::json;
namespace metrics = util::metrics;
namespace faultpoint = util::faultpoint;

std::size_t CacheCapacityFromEnv(std::size_t fallback_mb) {
  const int mb = util::GetEnvInt("MCDFT_CACHE_MB", -1, 0);  // -1: unset
  return (mb < 0 ? fallback_mb : static_cast<std::size_t>(mb)) << 20;
}

ResultCache::ResultCache(ResultCacheOptions options)
    : options_(std::move(options)),
      memory_(options_.capacity_bytes) {}

std::string ResultCache::DiskPathOf(const std::string& key) const {
  if (options_.disk_dir.empty()) return "";
  return options_.disk_dir + "/run-" + key + ".json";
}

std::optional<CachedRun> ResultCache::Lookup(const std::string& key,
                                             std::string* tier) {
  static metrics::Counter& memory_hit =
      metrics::GetCounter("core.cache.memory_hit");
  static metrics::Counter& disk_hit =
      metrics::GetCounter("core.cache.disk_hit");
  static metrics::Counter& miss = metrics::GetCounter("core.cache.miss");
  if (!Enabled()) {
    miss.Add();
    return std::nullopt;
  }
  if (std::shared_ptr<void> found = memory_.Get(key)) {
    memory_hit.Add();
    if (tier != nullptr) *tier = "memory";
    return *std::static_pointer_cast<CachedRun>(found);
  }
  if (std::optional<CachedRun> restored = LoadFromDisk(key)) {
    disk_hit.Add();
    if (tier != nullptr) *tier = "disk";
    // Promote: later lookups hit memory; a full stripe just misses disk
    // again next time.
    auto entry = std::make_shared<CachedRun>(*restored);
    const std::size_t bytes = sizeof(CachedRun) + key.size() +
                              entry->report_json.size();
    memory_.Put(key, std::static_pointer_cast<void>(std::move(entry)), bytes);
    return restored;
  }
  miss.Add();
  return std::nullopt;
}

void ResultCache::Store(const std::string& key, const CachedRun& run) {
  static metrics::Counter& stored = metrics::GetCounter("core.cache.store");
  static metrics::Counter& rejected =
      metrics::GetCounter("core.cache.store_rejected");
  if (!Enabled()) return;
  auto entry = std::make_shared<CachedRun>(run);
  const std::size_t bytes =
      sizeof(CachedRun) + key.size() + entry->report_json.size();
  if (memory_.Put(key, std::static_pointer_cast<void>(std::move(entry)),
                  bytes)) {
    stored.Add();
  } else {
    rejected.Add();
  }
  SpillToDisk(key, run);
}

std::optional<CachedRun> ResultCache::LoadFromDisk(const std::string& key) {
  static metrics::Counter& corrupt =
      metrics::GetCounter("core.cache.disk_corrupt");
  const std::string path = DiskPathOf(key);
  if (path.empty()) return std::nullopt;
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;  // plain miss: no spill for this key
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (in.bad()) {
    corrupt.Add();
    return std::nullopt;
  }
  if (!text.empty() && text.back() == '\n') text.pop_back();
  try {
    if (faultpoint::AnyArmed() &&
        faultpoint::ShouldFail("cache.read.record")) {
      throw CheckpointError("injected read fault (faultpoint "
                            "cache.read.record)");
    }
    // The CRC-sealed record framing shared with "mcdft.shard/2": damage
    // anywhere in the line fails the check and we recompute.
    json::Value record = OpenCrcRecord(text);
    if (record.Get("schema").AsString() != kCacheRecordSchema ||
        record.Get("key").AsString() != key) {
      corrupt.Add();
      return std::nullopt;
    }
    CachedRun run;
    run.report_json = record.Get("report").AsString();
    run.exit_code = static_cast<int>(record.Get("exit_code").AsDouble());
    run.quarantined_cells = static_cast<std::uint64_t>(
        record.Get("quarantined_cells").AsDouble());
    return run;
  } catch (const util::Error&) {
    corrupt.Add();
    return std::nullopt;
  }
}

void ResultCache::SpillToDisk(const std::string& key, const CachedRun& run) {
  static metrics::Counter& spilled = metrics::GetCounter("core.cache.spill");
  static metrics::Counter& spill_error =
      metrics::GetCounter("core.cache.spill_error");
  const std::string path = DiskPathOf(key);
  if (path.empty()) return;
  json::Value record = json::Value::Object();
  record.Set("schema", json::Value::Str(kCacheRecordSchema));
  record.Set("key", json::Value::Str(key));
  record.Set("exit_code", json::Value::Number(
                              static_cast<std::uint64_t>(run.exit_code)));
  record.Set("quarantined_cells", json::Value::Number(run.quarantined_cells));
  record.Set("report", json::Value::Str(run.report_json));
  try {
    json::WriteTextFileAtomic(SealCrcRecord(record) + "\n", path,
                              "cache.write");
    spilled.Add();
  } catch (const util::Error&) {
    spill_error.Add();  // tolerated: the memory tier already has the entry
  }
}

}  // namespace mcdft::core
