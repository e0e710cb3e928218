#include "core/server/service.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <optional>

#include "core/run_report.hpp"
#include "util/error.hpp"
#include "util/faultpoint.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace mcdft::core::server {

namespace json = util::json;
namespace metrics = util::metrics;

namespace {

/// How often blocked submitters re-poll their own token while waiting on
/// a flight.  Bounds how stale a fired cancel can look from the waiting
/// side; the computing side reacts at campaign-unit granularity anyway.
constexpr auto kWaitSlice = std::chrono::milliseconds(50);

/// Base of the queue-full backoff hint; scaled by backlog per worker.
constexpr std::int64_t kRetryAfterBaseMs = 100;
constexpr std::int64_t kRetryAfterCapMs = 10'000;

bool IsCancelKind(const std::string& kind) {
  return kind == "deadline_exceeded" || kind == "cancelled";
}

}  // namespace

CampaignService::CampaignService(ServiceOptions options)
    : options_(options),
      cache_(options.cache),
      factor_cache_(options.factor_cache_bytes) {
  const std::size_t n = std::max<std::size_t>(1, options_.workers);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

CampaignService::~CampaignService() { Shutdown(); }

void CampaignService::Shutdown() {
  static metrics::Counter& m_drained = metrics::GetCounter("server.drained");
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (stopping_ || draining_) return;
    draining_ = true;  // close admission; workers keep consuming the queue
  }
  queue_cv_.notify_all();

  // Drain window: finished jobs during this window count as drained (the
  // disk cache tier is write-through, so each one is durably spilled the
  // moment its Store returns — there is no separate flush step).  The
  // faultpoint deterministically forces the budget-expiry path so tests
  // and armed CI runs exercise force-cancellation without real waiting.
  if (!util::faultpoint::ShouldFail("service.drain.timeout")) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(options_.drain_budget_ms);
    std::unique_lock<std::mutex> lock(queue_mutex_);
    drained_cv_.wait_until(lock, deadline, [&] {
      return queue_.empty() && active_jobs_ == 0;
    });
  }

  // Budget spent (or clean drain): force-stop.  Cancel every token still
  // registered so running campaigns bail out at their next unit boundary,
  // and fail jobs that never reached a worker.
  std::vector<QueuedJob> orphaned;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_ = true;
    orphaned.swap(queue_);
  }
  queue_cv_.notify_all();
  {
    std::lock_guard<std::mutex> lock(requests_mutex_);
    for (auto& [id, token] : active_requests_) token->Cancel();
  }
  for (QueuedJob& q : orphaned) {
    SubmitOutcome outcome;
    outcome.error = "service shutting down";
    outcome.error_kind = "shutting_down";
    outcome.exit_code = 1;
    outcome.key = q.job.key;
    {
      std::lock_guard<std::mutex> lock(flights_mutex_);
      flights_.erase(q.job.key);
    }
    FinishFlight(q.flight, std::move(outcome));
  }
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  // Workers are quiescent; the drained tally is final.
  const std::uint64_t drained = drained_.load(std::memory_order_relaxed);
  if (drained > 0) m_drained.Add(drained);
}

void CampaignService::FinishFlight(const std::shared_ptr<Flight>& flight,
                                   SubmitOutcome outcome) {
  {
    std::lock_guard<std::mutex> lock(flight->m);
    flight->outcome = std::move(outcome);
    flight->done = true;
  }
  flight->cv.notify_all();
}

SubmitOutcome CampaignService::CancelOutcome(util::CancelKind kind,
                                             const std::string& key) {
  static metrics::Counter& m_deadline =
      metrics::GetCounter("server.deadline_exceeded");
  static metrics::Counter& m_cancelled =
      metrics::GetCounter("server.cancelled");
  SubmitOutcome outcome;
  outcome.error = kind == util::CancelKind::kDeadline ? "deadline exceeded"
                                                      : "cancelled";
  outcome.error_kind = util::CancelKindName(kind);
  outcome.exit_code = kExitDeadline;
  outcome.key = key;
  if (kind == util::CancelKind::kDeadline) {
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    m_deadline.Add();
  } else {
    cancelled_.fetch_add(1, std::memory_order_relaxed);
    m_cancelled.Add();
  }
  return outcome;
}

std::optional<SubmitOutcome> CampaignService::CacheHit(
    const std::string& key, const std::string& request_id) {
  static metrics::Counter& m_cache_hit =
      metrics::GetCounter("server.cache_hit");
  std::string tier;
  std::optional<CachedRun> hit = cache_.Lookup(key, &tier);
  if (!hit) return std::nullopt;
  cache_hits_.fetch_add(1, std::memory_order_relaxed);
  m_cache_hit.Add();
  SubmitOutcome outcome;
  outcome.ok = true;
  outcome.key = key;
  outcome.cache_tier = tier;
  outcome.exit_code = hit->exit_code;
  outcome.quarantined_cells = hit->quarantined_cells;
  outcome.report_json = std::move(hit->report_json);
  outcome.request_id = request_id;
  return outcome;
}

std::int64_t CampaignService::RetryAfterMsLocked() const {
  // Backlog-proportional hint: an empty queue suggests the base delay,
  // a deep one stretches it by queued-jobs-per-worker.  The client
  // jitters on top (util::BackoffDelayMs), so herds spread out.
  const std::int64_t per_worker =
      static_cast<std::int64_t>(queue_.size() /
                                std::max<std::size_t>(1, workers_.size()));
  const std::int64_t hint = kRetryAfterBaseMs * (1 + per_worker);
  return hint > kRetryAfterCapMs ? kRetryAfterCapMs : hint;
}

bool CampaignService::Cancel(const std::string& request_id) {
  std::lock_guard<std::mutex> lock(requests_mutex_);
  const auto it = active_requests_.find(request_id);
  if (it == active_requests_.end()) return false;
  it->second->Cancel();
  return true;
}

SubmitOutcome CampaignService::Submit(const CampaignRequest& request) {
  static metrics::Counter& m_requests = metrics::GetCounter("server.requests");
  static metrics::Counter& m_errors = metrics::GetCounter("server.errors");
  static metrics::Counter& m_dedup =
      metrics::GetCounter("server.singleflight_dedup");
  static metrics::Counter& m_rejected = metrics::GetCounter("server.rejected");

  requests_.fetch_add(1, std::memory_order_relaxed);
  m_requests.Add();

  // Lifecycle: one token per submit, armed with the request's deadline and
  // registered under the request id so the `cancel` verb can reach it.
  const std::string request_id =
      request.request_id.empty()
          ? "req-" + std::to_string(
                         next_request_id_.fetch_add(1,
                                                    std::memory_order_relaxed) +
                         1)
          : request.request_id;
  auto token = std::make_shared<util::CancelToken>();
  if (request.deadline_ms > 0) token->SetDeadlineAfterMs(request.deadline_ms);
  {
    std::lock_guard<std::mutex> lock(requests_mutex_);
    const auto [it, inserted] = active_requests_.try_emplace(request_id, token);
    if (!inserted) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      m_errors.Add();
      SubmitOutcome outcome;
      outcome.error = "request id '" + request_id + "' is already in flight";
      outcome.error_kind = "bad_request";
      outcome.exit_code = 1;
      outcome.request_id = request_id;
      return outcome;
    }
  }
  struct Unregister {
    CampaignService* s;
    const std::string& id;
    ~Unregister() {
      std::lock_guard<std::mutex> lock(s->requests_mutex_);
      s->active_requests_.erase(id);
    }
  } unregister{this, request_id};

  // CampaignJob is not default-constructible (it owns a DftCircuit), so
  // the build result lives in an optional.  Rebuilt when a retry loop
  // iteration needs it again after a move into the queue.
  std::optional<CampaignJob> built;
  std::string key;
  try {
    built.emplace(BuildCampaignJob(request));
    key = built->key;
  } catch (const std::exception& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    m_errors.Add();
    SubmitOutcome outcome;
    outcome.error = e.what();
    outcome.error_kind = "bad_request";
    outcome.exit_code = 1;
    outcome.request_id = request_id;
    return outcome;
  }

  // The submit loop: normally one pass.  A follower whose single-flight
  // leader was cancelled loops back here — the flight is poisoned with an
  // outcome that says nothing about *this* request's inputs-to-results
  // mapping, so the follower re-checks the cache and re-joins (possibly
  // becoming the new leader and computing cleanly under its own token).
  for (;;) {
    if (const util::CancelKind kind = token->State();
        kind != util::CancelKind::kNone) {
      SubmitOutcome outcome = CancelOutcome(kind, key);
      outcome.request_id = request_id;
      return outcome;
    }

    // Fast path: a completed run under this key (memory, then disk).
    if (std::optional<SubmitOutcome> hit = CacheHit(key, request_id)) {
      return *hit;
    }

    // Single-flight: the first requester of a key leads (enqueues and
    // waits); identical concurrent requests follow its flight instead of
    // computing again.
    std::shared_ptr<Flight> flight;
    bool leader = false;
    {
      std::lock_guard<std::mutex> lock(flights_mutex_);
      auto [it, inserted] =
          flights_.try_emplace(key, std::make_shared<Flight>());
      flight = it->second;
      leader = inserted;
    }

    if (leader) {
      // Double-check the cache before queueing a compute: a previous
      // flight for this key may have finished between our miss above and
      // the flight insertion.  Its Store happens-before our insertion
      // (both worker erase and our try_emplace go through flights_mutex_),
      // so a re-check here makes "duplicates compute exactly once"
      // airtight rather than merely likely.
      if (std::optional<SubmitOutcome> hit = CacheHit(key, request_id)) {
        {
          std::lock_guard<std::mutex> lock(flights_mutex_);
          flights_.erase(key);
        }
        FinishFlight(flight, *hit);  // release any followers that joined
        return *hit;
      }
      if (!built) {
        // The previous loop iteration moved the job into the queue; this
        // request leads a fresh flight, so rebuild (rare path — only after
        // a poisoned-flight retry won the leadership race).
        built.emplace(BuildCampaignJob(request));
      }
      std::string reject_reason;
      std::string reject_kind;
      std::int64_t retry_after_ms = 0;
      {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        if (stopping_ || draining_) {
          reject_reason = "service shutting down";
          reject_kind = "shutting_down";
        } else if (queue_.size() >= options_.queue_limit) {
          reject_reason = "admission queue full";
          reject_kind = "queue_full";
          retry_after_ms = RetryAfterMsLocked();
        } else {
          queue_.push_back(QueuedJob{flight, std::move(*built), token,
                                     request.priority, next_seq_++});
          built.reset();
          std::push_heap(queue_.begin(), queue_.end(), QueuedJob::RunsAfter);
        }
      }
      if (!reject_reason.empty()) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        m_rejected.Add();
        SubmitOutcome outcome;
        outcome.error = reject_reason;
        outcome.error_kind = reject_kind;
        outcome.exit_code = 1;
        outcome.key = key;
        outcome.retry_after_ms = retry_after_ms;
        outcome.request_id = request_id;
        {
          std::lock_guard<std::mutex> lock(flights_mutex_);
          flights_.erase(key);
        }
        FinishFlight(flight, outcome);  // release any followers
        return outcome;
      }
      queue_cv_.notify_one();
    }

    // Wait for the flight in slices so a fired token is noticed promptly.
    SubmitOutcome outcome;
    bool done = false;
    while (!done) {
      {
        std::unique_lock<std::mutex> lock(flight->m);
        if (flight->cv.wait_for(lock, kWaitSlice,
                                [&] { return flight->done; })) {
          outcome = flight->outcome;
          done = true;
          continue;
        }
      }
      const util::CancelKind kind = token->State();
      if (kind == util::CancelKind::kNone) continue;
      if (!leader) {
        // A follower abandons the flight (it keeps computing for the
        // others) and reports its own typed outcome.
        SubmitOutcome own = CancelOutcome(kind, key);
        own.request_id = request_id;
        return own;
      }
      // Leader with a fired token: if the job is still queued, yank it so
      // the response is immediate instead of waiting for a worker slot.
      // Once a worker holds it, the token stops the campaign within one
      // unit and the worker finishes the flight — keep waiting.
      bool removed = false;
      {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        const auto it = std::find_if(
            queue_.begin(), queue_.end(),
            [&](const QueuedJob& q) { return q.flight == flight; });
        if (it != queue_.end()) {
          queue_.erase(it);
          std::make_heap(queue_.begin(), queue_.end(), QueuedJob::RunsAfter);
          removed = true;
        }
      }
      if (removed) {
        drained_cv_.notify_all();  // drain predicate may now hold
        {
          std::lock_guard<std::mutex> lock(flights_mutex_);
          flights_.erase(key);
        }
        FinishFlight(flight, CancelOutcome(kind, key));
      }
    }

    if (!leader) {
      if (!outcome.ok && IsCancelKind(outcome.error_kind)) {
        // Poisoned flight: the leader's cancellation is not ours.  Retry
        // from the top (cache re-check, fresh flight) under our own token.
        continue;
      }
      dedup_hits_.fetch_add(1, std::memory_order_relaxed);
      m_dedup.Add();
      if (outcome.ok) outcome.cache_tier = "dedup";
    }
    outcome.request_id = request_id;
    return outcome;
  }
}

void CampaignService::WorkerLoop() {
  for (;;) {
    std::optional<QueuedJob> q;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) return;
      std::pop_heap(queue_.begin(), queue_.end(), QueuedJob::RunsAfter);
      q.emplace(std::move(queue_.back()));
      queue_.pop_back();
      ++active_jobs_;
    }
    SubmitOutcome outcome;
    // A token that fired while the job sat in the queue skips the compute
    // entirely (the cheapest possible "stops within one unit").
    const util::CancelKind queued_kind =
        q->cancel ? q->cancel->State() : util::CancelKind::kNone;
    if (queued_kind != util::CancelKind::kNone) {
      outcome = CancelOutcome(queued_kind, q->job.key);
    } else {
      q->job.options.cancel = q->cancel.get();
      outcome = ComputeNow(q->job);
    }
    {
      std::lock_guard<std::mutex> lock(flights_mutex_);
      flights_.erase(q->job.key);
    }
    FinishFlight(q->flight, std::move(outcome));
    bool note_drained = false;
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      --active_jobs_;
      note_drained = draining_ && !stopping_;
    }
    if (note_drained) drained_.fetch_add(1, std::memory_order_relaxed);
    drained_cv_.notify_all();
  }
}

SubmitOutcome CampaignService::ComputeNow(CampaignJob& job) {
  static metrics::Counter& m_computed = metrics::GetCounter("server.computed");
  static metrics::Counter& m_errors = metrics::GetCounter("server.errors");
  SubmitOutcome outcome;
  outcome.key = job.key;
  try {
    // The recorder enables metrics for its lifetime and spans only record
    // on End(), so the request span lives recorder-first, end-before-Finish
    // to appear in the report's phase table.
    CampaignRunRecorder recorder;
    util::trace::Span span("server.request");
    job.options.mna.shared_factor_cache =
        factor_cache_.CapacityBytes() > 0 ? &factor_cache_ : nullptr;
    const CampaignResult campaign =
        RunCampaign(job.circuit, job.fault_list, job.configs, job.options);
    span.End();
    RunReportOptions report_options;
    report_options.tool = "mcdftd";
    report_options.circuit = job.circuit_name;
    report_options.threads = job.options.threads;
    const json::Value report = recorder.Finish(campaign, report_options);

    outcome.ok = true;
    outcome.cache_tier = "compute";
    outcome.quarantined_cells = campaign.QuarantinedCellCount();
    outcome.exit_code =
        outcome.quarantined_cells > 0 ? kExitQuarantine : 0;
    outcome.report_json = report.Serialize(2) + "\n";

    CachedRun run;
    run.report_json = outcome.report_json;
    run.exit_code = outcome.exit_code;
    run.quarantined_cells = outcome.quarantined_cells;
    cache_.Store(job.key, run);
    computed_.fetch_add(1, std::memory_order_relaxed);
    m_computed.Add();
  } catch (const util::CancelError& e) {
    // Truncated run: typed outcome, and — crucially — no cache store, so
    // a cancelled request can never plant partial bytes under a key a
    // later complete run would be expected to match.
    outcome = CancelOutcome(e.Kind(), job.key);
  } catch (const std::exception& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    m_errors.Add();
    outcome.ok = false;
    outcome.error = e.what();
    outcome.exit_code = 1;
  }
  return outcome;
}

util::json::Value CampaignService::StatsJson() const {
  json::Value server = json::Value::Object();
  server.Set("requests", json::Value::Number(
                             requests_.load(std::memory_order_relaxed)));
  server.Set("computed", json::Value::Number(
                             computed_.load(std::memory_order_relaxed)));
  server.Set("cache_hits", json::Value::Number(
                               cache_hits_.load(std::memory_order_relaxed)));
  server.Set("dedup_hits", json::Value::Number(
                               dedup_hits_.load(std::memory_order_relaxed)));
  server.Set("rejected", json::Value::Number(
                             rejected_.load(std::memory_order_relaxed)));
  server.Set("errors", json::Value::Number(
                           errors_.load(std::memory_order_relaxed)));
  server.Set("deadline_exceeded",
             json::Value::Number(
                 deadline_exceeded_.load(std::memory_order_relaxed)));
  server.Set("cancelled", json::Value::Number(
                              cancelled_.load(std::memory_order_relaxed)));
  server.Set("drained", json::Value::Number(
                            drained_.load(std::memory_order_relaxed)));
  server.Set("workers", json::Value::Number(
                            static_cast<std::uint64_t>(workers_.size())));
  server.Set("queue_limit", json::Value::Number(static_cast<std::uint64_t>(
                                options_.queue_limit)));

  const util::ShardedLruCache::Stats mem = cache_.MemoryStats();
  json::Value cache = json::Value::Object();
  cache.Set("capacity_bytes", json::Value::Number(static_cast<std::uint64_t>(
                                  cache_.CapacityBytes())));
  cache.Set("bytes", json::Value::Number(
                         static_cast<std::uint64_t>(mem.bytes)));
  cache.Set("entries", json::Value::Number(
                           static_cast<std::uint64_t>(mem.entries)));
  cache.Set("hits", json::Value::Number(mem.hits));
  cache.Set("misses", json::Value::Number(mem.misses));
  cache.Set("evictions", json::Value::Number(mem.evictions));

  const util::ShardedLruCache::Stats factors = factor_cache_.Stats();
  json::Value factor = json::Value::Object();
  factor.Set("bytes", json::Value::Number(
                          static_cast<std::uint64_t>(factors.bytes)));
  factor.Set("entries", json::Value::Number(
                            static_cast<std::uint64_t>(factors.entries)));
  factor.Set("hits", json::Value::Number(factors.hits));
  factor.Set("misses", json::Value::Number(factors.misses));

  json::Value stats = json::Value::Object();
  stats.Set("server", std::move(server));
  stats.Set("cache", std::move(cache));
  stats.Set("factor_cache", std::move(factor));
  return stats;
}

}  // namespace mcdft::core::server
