// Cooperative cancellation for long-running campaign work.
//
// A CancelToken carries two independent stop signals: an explicit
// Cancel() (the daemon's `cancel` verb, drain force-stop) and a deadline
// (the client's end-to-end `deadline_ms` budget).  Compute loops poll the
// token at unit boundaries — RunCampaign's per-configuration loop, the
// shard executor's per-unit loop — and bail out by throwing CancelError,
// so an expired or cancelled request stops within one unit of work per
// worker instead of running the campaign to completion for a client that is
// long gone.
//
// The token is thread-safe: any thread may Cancel() while pool workers
// poll State().  Polling is two relaxed atomic loads plus (when a
// deadline is set) one steady_clock read — cheap enough for per-unit
// granularity, deliberately not per-solve (results must stay a pure
// function of campaign inputs; cancellation only ever truncates work, it
// never changes a completed run's bytes).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "util/error.hpp"

namespace mcdft::util {

/// Why a token says "stop".  kDeadline wins over kCancelled when both
/// apply (the deadline was the client's budget; report it as such).
enum class CancelKind { kNone, kCancelled, kDeadline };

/// Stable lowercase wire/report name: "" / "cancelled" /
/// "deadline_exceeded".
const char* CancelKindName(CancelKind kind);

/// Thrown by compute loops when their token fires.  Derives from
/// util::Error so existing top-level handlers keep working; callers that
/// care (the campaign service) catch this type and map it to the typed
/// protocol error + exit code.
class CancelError : public Error {
 public:
  explicit CancelError(CancelKind kind);
  CancelKind Kind() const noexcept { return kind_; }

 private:
  CancelKind kind_;
};

class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Request explicit cancellation.  Idempotent; visible to every thread
  /// polling State().
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// Arm the deadline `ms` milliseconds from now (<= 0 arms an already
  /// expired deadline).  Call at most once, before the token is shared.
  void SetDeadlineAfterMs(std::int64_t ms);

  /// Absolute steady-clock deadline, if armed.
  bool HasDeadline() const {
    return deadline_ns_.load(std::memory_order_relaxed) != 0;
  }
  std::chrono::steady_clock::time_point Deadline() const;

  /// kNone while neither signal fired; polling is wait-free.
  CancelKind State() const;

  bool Cancelled() const { return State() != CancelKind::kNone; }

  /// Throw CancelError when the token fired; no-op otherwise.  The
  /// compute-loop checkpoint.
  void ThrowIfCancelled() const;

 private:
  std::atomic<bool> cancelled_{false};
  // Steady-clock epoch nanoseconds; 0 = no deadline.
  std::atomic<std::int64_t> deadline_ns_{0};
};

/// Jittered exponential backoff for client retries: delay k is
/// min(base * 2^k, cap) scaled by a deterministic jitter in [0.75, 1.25)
/// derived from (seed, attempt) — splitmix64, so tests can pin the exact
/// sequence.  `base_ms` is typically the server's retry_after_ms hint
/// (floored at a sane minimum by the caller).
std::int64_t BackoffDelayMs(std::size_t attempt, std::int64_t base_ms,
                            std::int64_t cap_ms, std::uint64_t seed);

}  // namespace mcdft::util
