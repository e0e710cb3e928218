#include "support.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <limits>
#include <random>

namespace mcdft::perfbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s", "lower"},
      {"wall_s", "s", "lower"},
      {"peak_rss_mb", "MiB", "lower"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"band.busy_s", "s", "lower"},
      {"envelope.busy_s", "s", "lower"},
      {"envelope.samples", "count", "lower"},
      {"envelope.samples_per_s", "1/s", "higher"},
      {"envelope.cpu_util", "ratio", "higher"},
      {"parallel.worker_idle_s", "s", "lower"},
      {"parallel.join_wait_s", "s", "lower"},
      {"simulate.busy_s", "s", "lower"},
      {"simulate.cells", "count", "lower"},
      {"simulate.cells_per_s", "1/s", "higher"},
      {"simulate.cpu_util", "ratio", "higher"},
      {"simulate.mna_solves", "count", "lower"},
      {"simulate.smw_updates", "count", "lower"},
      {"simulate.exact_fallbacks", "count", "lower"},
      {"simulate.screen_decided_frac", "ratio", "higher"},
      {"simulate.transient_steps", "count", "lower"},
      {"linalg.full_factors", "count", "lower"},
      {"linalg.refactors", "count", "lower"},
      {"score.busy_s", "s", "lower"},
      {"score.cells_per_s", "1/s", "higher"},
      {"optimize.fundamental_s", "s", "lower"},
      {"optimize.config_count_s", "s", "lower"},
      {"optimize.partial_s", "s", "lower"},
      {"optimize.exact_s", "s", "lower"},
      {"optimize.minimal_covers", "count", "lower"},
      {"render.busy_s", "s", "lower"},
      {"render.bytes", "bytes", "lower"},
      {"service.req_per_s", "1/s", "higher"},
      {"service.req_p50_ms", "ms", "lower"},
      {"service.req_p90_ms", "ms", "lower"},
      {"service.compute_ms_p50", "ms", "lower"},
      {"service.hit_ms_p50", "ms", "lower"},
      {"service.queue_wait_ms_p50", "ms", "lower"},
      {"cache.hit_frac", "ratio", "higher"},
      {"cache.dedup_frac", "ratio", "higher"},
      {"service.computed", "count", "lower"},
      {"factor_cache.hit_frac", "ratio", "higher"},
      {"trace.overhead_frac", "ratio", "lower"},
      {"other.busy_s", "s", "lower"},
  };
  return specs;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "analyze-full", "optimize-zoo", "transient-full", "service-mix"};
  return names;
}

std::optional<double> Percentile(std::vector<double> samples, double q) {
  if (samples.empty() || !(q >= 0.0 && q <= 1.0)) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const double h = q * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(h));
  // Samples strictly after the lower interpolation neighbour.
  const std::size_t beyond = samples.size() - 1 - lo;
  if (beyond < kMinSamplesBeyond) return std::nullopt;
  const double frac = h - static_cast<double>(lo);
  return samples[lo] + frac * (samples[lo + 1] - samples[lo]);
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

// Draws use plain modulo on mt19937_64 output, so no library distribution
// (whose algorithms the standard leaves open) enters a sequence.

std::vector<std::size_t> SeededPermutation(std::uint64_t seed, std::size_t n) {
  std::mt19937_64 rng(seed);
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng() % i]);
  return order;
}

std::vector<std::size_t> MakeRequestSequence(std::uint64_t seed,
                                             std::size_t key_count,
                                             std::size_t repeats) {
  const std::vector<std::size_t> fresh = SeededPermutation(seed, key_count);
  std::mt19937_64 rng(~seed);  // interleaving draws, independent of `fresh`
  std::vector<std::size_t> sequence;
  sequence.reserve(key_count + repeats);
  std::size_t next_fresh = 0;
  std::size_t repeats_left = repeats;
  while (next_fresh < key_count || repeats_left > 0) {
    const std::size_t fresh_left = key_count - next_fresh;
    const bool take_fresh =
        next_fresh == 0 || repeats_left == 0 ||
        (fresh_left > 0 && rng() % (fresh_left + repeats_left) < fresh_left);
    if (take_fresh) {
      sequence.push_back(fresh[next_fresh++]);
    } else {
      sequence.push_back(fresh[rng() % next_fresh]);
      --repeats_left;
    }
  }
  return sequence;
}

std::string MatrixDigest(const std::vector<std::vector<bool>>& matrix) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t byte) {
    h ^= byte;
    h *= 0x100000001b3ull;
  };
  mix(matrix.size() & 0xff);
  mix(matrix.empty() ? 0 : matrix.front().size() & 0xff);
  for (const auto& row : matrix) {
    for (bool bit : row) mix(bit ? 1 : 0);
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty()) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
  });
}

double PeakRssMb() {
  // VmHWM honours ResetPeakRss(); getrusage's maximum does not.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmHWM:")) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // KiB
    }
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

bool ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";  // 5 = reset the peak RSS to the current RSS
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace mcdft::perfbench
