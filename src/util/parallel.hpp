// Fixed-size thread pool and deterministic parallel-for helpers.
//
// The fault-simulation campaign is embarrassingly parallel ((config, fault)
// pairs, Monte-Carlo tolerance samples, zoo circuits), so a small static
// pool with index-range partitioning covers every hot loop.  Determinism
// contract: ParallelFor partitions the index space into contiguous static
// ranges, every task writes only its own output slot, and callers perform
// any reduction in index order after the join — results are therefore
// bit-identical for any thread count, including 1.
//
// Thread-count resolution: an explicit request wins; 0 means the
// MCDFT_THREADS environment variable when set, else
// std::thread::hardware_concurrency().
#pragma once

#include <cstddef>
#include <functional>

namespace mcdft::util {

/// Number of hardware threads (>= 1).
std::size_t HardwareThreadCount();

/// Default worker count: MCDFT_THREADS when set to a positive integer,
/// else (unset, empty or 0) HardwareThreadCount().  Any other value throws
/// util::Error naming the variable (util::GetEnvInt's rule, >= 0).
std::size_t DefaultThreadCount();

/// Resolve a requested thread count: 0 -> DefaultThreadCount(), else the
/// request itself (>= 1).
std::size_t ResolveThreadCount(std::size_t requested);

/// True when the calling thread is a pool worker.  Nested ParallelFor
/// calls from inside a worker run serially in the caller (the outer loop
/// already owns the pool), which keeps the pool deadlock-free.
bool InsideParallelWorker();

/// Run `fn(begin, end)` over a static partition of [0, count) into at most
/// `threads` contiguous ranges (0 = auto, see ResolveThreadCount).  The
/// calling thread executes the first range; pool workers execute the rest,
/// except that the caller, once its own range is done, runs every range no
/// worker has started yet — so a section never waits behind another
/// section's tasks in the shared queue.  Blocks until every range is done.
/// The first exception (by range order) is rethrown in the caller.
void ParallelForRange(std::size_t threads, std::size_t count,
                      const std::function<void(std::size_t, std::size_t)>& fn);

/// Run `fn(i)` for every i in [0, count); same partitioning, determinism
/// and exception rules as ParallelForRange.
void ParallelFor(std::size_t threads, std::size_t count,
                 const std::function<void(std::size_t)>& fn);

}  // namespace mcdft::util
