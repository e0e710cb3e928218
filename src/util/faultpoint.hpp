// Deterministic fault-injection harness.
//
// Named injection points are compiled into the production code paths
// (factorization, SMW solve, checkpoint I/O) and are no-ops until armed.
// Arming happens programmatically (tests) or through the environment:
//
//   MCDFT_FAULTPOINTS=checkpoint.write.short:0.25:7,smw.solve:0.01:42
//
// i.e. a comma-separated list of `name:rate:seed` triples, parsed on first
// use.  A disarmed process pays one relaxed atomic load per evaluation.
//
// Two firing modes keep injection deterministic:
//
//  * Ordinal (`ShouldFail(name)`): the point counts its evaluations and
//    fires when splitmix64(seed ^ ordinal) falls below rate * 2^64.  The
//    decision sequence is a pure function of (seed, call order) — use this
//    only on serial paths (checkpoint write/read), where call order is
//    itself deterministic.
//
//  * Hashed (`ShouldFail(name, digest)`): the decision is a pure function
//    of (seed, digest) with no internal state, so a point evaluated from a
//    thread pool fires for exactly the same inputs at any thread or shard
//    count.  Use this on solver paths; derive the digest from the solve's
//    inputs (matrix values, fault id, frequency).
//
// The caller decides what "fail" means — typically throwing
// `util::McdftError(ErrorCategory::kInjected, ...)` or returning a short
// write.  Fired points bump the `util.faultpoint.fired` metrics counter.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace mcdft::util::faultpoint {

/// True when at least one point is armed (one relaxed atomic load).  The
/// first call (and the first call of any function below) parses
/// `MCDFT_FAULTPOINTS` from the environment.
bool AnyArmed();

/// Arm `name` to fire with probability `rate` (clamped to [0, 1]; 1 means
/// every evaluation) under the given deterministic seed.  Re-arming an
/// armed point resets its ordinal and fired counters.
void Arm(std::string_view name, double rate, std::uint64_t seed);

/// Parse and apply a `name:rate:seed,...` spec (the MCDFT_FAULTPOINTS
/// format).  Throws util::Error on malformed input.
void ArmFromSpec(std::string_view spec);

/// Disarm one point / every point.  Counters of disarmed points are kept
/// until re-armed, so tests can assert on them after the fact.  Any
/// pending MCDFT_FAULTPOINTS spec is applied (and then disarmed) first,
/// so an explicit disarm always beats the lazy env arming — this is what
/// lets byte-pinning tests opt out of an armed-suite run.
void Disarm(std::string_view name);
void DisarmAll();

/// Ordinal-mode evaluation (serial paths only — see file comment).
bool ShouldFail(std::string_view name);

/// Hashed-mode evaluation: decision depends only on (seed, digest).
bool ShouldFail(std::string_view name, std::uint64_t digest);

struct Stats {
  std::uint64_t evaluations = 0;
  std::uint64_t fired = 0;
};

/// Evaluation/fire counts for `name`; zeros when never armed.
Stats StatsOf(std::string_view name);

/// FNV-1a 64 over raw bytes — the building block for hashed-mode digests.
std::uint64_t DigestBytes(const void* data, std::size_t size);

/// Fold `value` into a running digest (order-sensitive).
std::uint64_t DigestCombine(std::uint64_t digest, std::uint64_t value);

}  // namespace mcdft::util::faultpoint
