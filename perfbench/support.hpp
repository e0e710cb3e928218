// Helpers shared by the benchmark driver and its self-test: order
// statistics with an honest "missing" answer, the seeded service-mix
// request sequence, output digests and process measurements.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mcdft::perfbench {

/// The paper seed (ToleranceModel's default), used when --seed is absent.
inline constexpr std::uint64_t kPaperSeed = 0xdffe1998;

/// One reported metric as BENCHMARK.json declares it.
struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;  ///< "lower" or "higher"
};

/// Metrics of an untraced run (every workload reports all of them) and of
/// a traced run, in output order.  BENCHMARK.json must list the same
/// names and units; the self-test enforces it.
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

/// Workload names accepted by --workload.
const std::vector<std::string>& WorkloadNames();

/// A percentile is only reported when at least this many samples lie
/// beyond it; otherwise it is missing.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Linear-interpolated q-quantile (q in [0, 1]) of `samples`, or nullopt
/// when fewer than kMinSamplesBeyond samples lie beyond the interpolation
/// point — a tail percentile of a short run is missing, never guessed.
std::optional<double> Percentile(std::vector<double> samples, double q);

/// Plain median (no tail requirement); NaN for an empty input.
double Median(std::vector<double> samples);

/// A permutation of 0..n-1 drawn from `seed` (Fisher-Yates over
/// mt19937_64, which the standard specifies bit for bit).
std::vector<std::size_t> SeededPermutation(std::uint64_t seed, std::size_t n);

/// The seeded request order of one service-mix pass over `key_count` keys:
/// every key appears once as a fresh request, in a seeded order, and
/// `repeats` further requests each repeat a uniformly drawn key that was
/// already requested earlier in the sequence.  Fresh and repeat requests
/// are interleaved at random.  Returns key indices; the same seed always
/// yields the same sequence.
std::vector<std::size_t> MakeRequestSequence(std::uint64_t seed,
                                             std::size_t key_count,
                                             std::size_t repeats);

/// FNV-1a digest of a campaign's boolean detectability matrix (row-major,
/// dimensions folded in), printed as 16 hex digits.
std::string MatrixDigest(const std::vector<std::vector<bool>>& matrix);

/// True when `name` is a non-empty string over [A-Za-z0-9_.-].
bool ValidMetricName(std::string_view name);

/// Peak resident set size in MiB since process start or the last
/// successful ResetPeakRss().
double PeakRssMb();

/// Restart the peak-RSS window at the current resident size (Linux
/// /proc/self/clear_refs); false when the kernel does not support it.
bool ResetPeakRss();

/// Monotonic wall clock and process CPU clock, in seconds.
double WallNow();
double CpuNow();

}  // namespace mcdft::perfbench
