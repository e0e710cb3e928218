// The campaign service: the daemon's brain, transport-free (the socket
// layer lives in server/daemon.hpp; tests drive the service directly).
//
// A Submit() call
//   1. builds the campaign job and its CampaignContentHash key,
//   2. consults the result cache (memory tier, then disk),
//   3. on a miss, joins the single-flight group for the key — identical
//      concurrent requests compute exactly once; followers block until the
//      leader's outcome lands and share its bytes ("dedup" tier),
//   4. the leader enqueues the job on a bounded priority queue served by a
//      fixed worker pool (admission control: a full queue rejects instead
//      of buffering unboundedly) and blocks until its worker finishes.
//
// Workers run the campaign under a CampaignRunRecorder with the shared
// nominal-factor cache hooked into the MNA options, serialize the report,
// derive the quarantine exit code (3, matching the CLI), and memoize the
// *exact* report bytes — a later hit returns them verbatim, which is what
// makes the byte-equality contract trivial to uphold.  Errors are
// reported to every waiter of the flight and never cached.
//
// Request lifecycle: every Submit carries a CancelToken — armed with the
// request's deadline_ms and registered under its request id so the
// `cancel` verb can fire it from another connection.  The token rides the
// job into RunCampaign, which polls it at unit boundaries; an expired or
// cancelled request stops within one unit per worker and reports a typed
// outcome (error_kind "deadline_exceeded" / "cancelled", exit code 4).
// Cancelled runs never reach the result cache, and followers whose
// single-flight leader was cancelled retry from the cache-lookup step
// instead of inheriting the poisoned outcome.  Shutdown() drains: stop
// admitting, let workers finish the queue within a drain budget, then
// cancel whatever is still running.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/cache/result_cache.hpp"
#include "core/server/request.hpp"
#include "spice/factor_cache.hpp"
#include "util/cancel.hpp"
#include "util/json.hpp"

namespace mcdft::core::server {

/// Exit code for campaigns that completed with quarantined cells — the
/// same contract as the `mcdft` CLI.
inline constexpr int kExitQuarantine = 3;

/// Exit code for requests stopped by their deadline or an explicit
/// cancel (error_kind distinguishes which on the wire).
inline constexpr int kExitDeadline = 4;

struct ServiceOptions {
  std::size_t workers = 2;        ///< campaign worker threads
  std::size_t queue_limit = 64;   ///< bounded admission: pending-job cap
  ResultCacheOptions cache;       ///< result-cache tiers
  /// Shared nominal-factor cache cap; 0 disables factor sharing.
  std::size_t factor_cache_bytes = 64u << 20;
  /// Shutdown drain budget: how long Shutdown() lets in-flight and queued
  /// jobs finish before force-cancelling them.  0 = cancel immediately.
  std::int64_t drain_budget_ms = 5'000;
};

/// What one submit produced.  `report_json` holds the exact report bytes
/// (cold-computed or cache-returned; empty when !ok).
struct SubmitOutcome {
  bool ok = false;
  std::string error;        ///< set when !ok
  /// Machine-readable failure class when !ok: "deadline_exceeded",
  /// "cancelled", "queue_full", "shutting_down", "bad_request" or "" for
  /// untyped compute errors.
  std::string error_kind;
  std::string key;          ///< CampaignContentHash ("" if the build failed)
  std::string cache_tier;   ///< "memory" | "disk" | "dedup" | "compute"
  int exit_code = 0;        ///< 0, kExitQuarantine, kExitDeadline, or 1
  std::uint64_t quarantined_cells = 0;
  /// Backoff hint on queue_full rejections: scaled by queue depth so a
  /// retry herd spreads out proportionally to the backlog.  0 otherwise.
  std::int64_t retry_after_ms = 0;
  /// Effective request id: the client's, or the one the service assigned.
  std::string request_id;
  std::string report_json;
};

class CampaignService {
 public:
  explicit CampaignService(ServiceOptions options);
  ~CampaignService();
  CampaignService(const CampaignService&) = delete;
  CampaignService& operator=(const CampaignService&) = delete;

  /// Run one request to completion (blocking).  Thread-safe; any number
  /// of connection/test threads may submit concurrently.
  SubmitOutcome Submit(const CampaignRequest& request);

  /// Fire the CancelToken of the active request with this id (the daemon's
  /// `cancel` verb).  Returns false when no such request is in flight —
  /// already finished, never submitted, or a stale id.
  bool Cancel(const std::string& request_id);

  /// Point-in-time service + cache counters (the daemon's `stats` op).
  util::json::Value StatsJson() const;

  ResultCache& Cache() { return cache_; }
  spice::SharedFactorCache& FactorCache() { return factor_cache_; }

  /// Graceful stop (idempotent; the destructor calls it).  Admission
  /// closes immediately; queued and running jobs get up to
  /// options.drain_budget_ms to finish (the disk cache tier is
  /// write-through, so every job that completes here is durably spilled),
  /// then whatever is left is cancelled / failed.
  void Shutdown();

 private:
  /// One in-flight computation; every identical concurrent request shares
  /// it.  The leader enqueues, a worker fills `outcome`, everyone wakes.
  struct Flight {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    SubmitOutcome outcome;
  };

  struct QueuedJob {
    std::shared_ptr<Flight> flight;
    CampaignJob job;
    /// Keeps the leader's token alive for the worker; job.options.cancel
    /// points at it.
    std::shared_ptr<util::CancelToken> cancel;
    int priority = 0;
    std::uint64_t seq = 0;  ///< FIFO tiebreak within a priority

    /// The queue's heap order: true when `a` runs after `b` — lower
    /// priority, or the same priority submitted later (FIFO).
    static bool RunsAfter(const QueuedJob& a, const QueuedJob& b) {
      if (a.priority != b.priority) return a.priority < b.priority;
      return a.seq > b.seq;
    }
  };

  void WorkerLoop();
  SubmitOutcome ComputeNow(CampaignJob& job);
  SubmitOutcome CancelOutcome(util::CancelKind kind, const std::string& key);
  /// The outcome of a completed run cached under `key` (memory, then disk
  /// tier), counted as a cache hit; nullopt on a miss.
  std::optional<SubmitOutcome> CacheHit(const std::string& key,
                                        const std::string& request_id);
  std::int64_t RetryAfterMsLocked() const;
  static void FinishFlight(const std::shared_ptr<Flight>& flight,
                           SubmitOutcome outcome);

  ServiceOptions options_;
  ResultCache cache_;
  spice::SharedFactorCache factor_cache_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::condition_variable drained_cv_;
  std::vector<QueuedJob> queue_;  // heap ordered by QueuedJob::RunsAfter
  std::uint64_t next_seq_ = 0;
  std::size_t active_jobs_ = 0;   // popped, not yet finished
  bool draining_ = false;         // admission closed; workers still drain
  bool stopping_ = false;         // workers exit once the queue is empty
  std::vector<std::thread> workers_;

  std::mutex flights_mutex_;
  std::map<std::string, std::shared_ptr<Flight>> flights_;

  // Active requests by id — the `cancel` verb's lookup table.  Entries
  // live exactly as long as their Submit call.
  mutable std::mutex requests_mutex_;
  std::map<std::string, std::shared_ptr<util::CancelToken>> active_requests_;
  std::atomic<std::uint64_t> next_request_id_{0};

  // Service-lifetime counters for StatsJson (independent of the global
  // metrics enable state; the metrics counters feed run reports instead).
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> computed_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> dedup_hits_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> deadline_exceeded_{0};
  std::atomic<std::uint64_t> cancelled_{0};
  std::atomic<std::uint64_t> drained_{0};
};

}  // namespace mcdft::core::server
