#include "util/parallel.hpp"

#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/cli.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace mcdft::util {

namespace {

thread_local bool g_inside_worker = false;

/// Lazily grown pool of detachable workers sharing one task queue.  The
/// process keeps a single instance alive for its whole lifetime (workers
/// are joined at static destruction).
class ThreadPool {
 public:
  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(m_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (auto& t : workers_) t.join();
  }

  /// Make sure at least `n` workers exist (bounded; workers are cheap but
  /// unbounded growth from repeated oversubscribed requests is not).
  void EnsureWorkers(std::size_t n) {
    constexpr std::size_t kMaxWorkers = 256;
    std::lock_guard<std::mutex> lock(m_);
    while (workers_.size() < n && workers_.size() < kMaxWorkers) {
      workers_.emplace_back([this] { WorkerLoop(); });
      metrics::GetCounter("util.parallel.workers_spawned").Add();
    }
    metrics::GetGauge("util.parallel.workers").Set(
        static_cast<std::int64_t>(workers_.size()));
  }

  void Submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(m_);
      queue_.push_back(std::move(task));
    }
    cv_.notify_one();
  }

 private:
  void WorkerLoop() {
    static metrics::Counter& idle_ns =
        metrics::GetCounter("util.parallel.worker_idle_ns");
    static metrics::Counter& tasks_run =
        metrics::GetCounter("util.parallel.tasks_run");
    g_inside_worker = true;
    for (;;) {
      std::function<void()> task;
      {
        // Idle time = waiting on the queue cv.  Clock reads only when the
        // metrics layer is on, so the disabled path stays untouched.
        const std::uint64_t t0 =
            metrics::Enabled() ? trace::internal::NowWallNs() : 0;
        std::unique_lock<std::mutex> lock(m_);
        cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (t0 != 0) idle_ns.Add(trace::internal::NowWallNs() - t0);
        if (queue_.empty()) return;  // stopping_ and drained
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      tasks_run.Add();
      task();
    }
  }

  std::mutex m_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

ThreadPool& GlobalPool() {
  static ThreadPool pool;
  return pool;
}

/// Shared state of one ParallelForRange call.  Each range runs on whoever
/// claims it first: the pool worker that dequeues its task, or the caller
/// once its own range is done.  The caller therefore never waits on a task
/// that has not started — such a task may sit in the queue behind another
/// section's long tasks (another job's whole campaign) — only on ranges a
/// worker is already running.  A task dequeued after the caller took its
/// range touches nothing but this state, which it co-owns.
struct ForSection {
  explicit ForSection(std::size_t ways) : claimed(ways, false) {}
  std::mutex m;
  std::condition_variable cv;
  std::vector<bool> claimed;  ///< per range, guarded by m
  std::size_t running = 0;    ///< ranges claimed by workers, not yet done
};

}  // namespace

std::size_t HardwareThreadCount() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<std::size_t>(hc);
}

std::size_t DefaultThreadCount() {
  // A throwing initializer leaves `resolved` unset, so a malformed value
  // fails every call, never just the first.
  static const std::size_t resolved = [] {
    const int v = GetEnvInt("MCDFT_THREADS", 0, 0);
    return v > 0 ? static_cast<std::size_t>(v) : HardwareThreadCount();
  }();
  return resolved;
}

std::size_t ResolveThreadCount(std::size_t requested) {
  return requested == 0 ? DefaultThreadCount() : requested;
}

bool InsideParallelWorker() { return g_inside_worker; }

void ParallelForRange(
    std::size_t threads, std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (count == 0) return;
  std::size_t ways = ResolveThreadCount(threads);
  if (ways > count) ways = count;
  // Serial fast path; also taken from inside a pool worker so nested
  // parallel sections never wait on the queue they are blocking.
  if (ways <= 1 || g_inside_worker) {
    static metrics::Counter& serial_sections =
        metrics::GetCounter("util.parallel.serial_sections");
    serial_sections.Add();
    fn(0, count);
    return;
  }

  static metrics::Counter& parallel_sections =
      metrics::GetCounter("util.parallel.sections");
  static metrics::Counter& tasks_submitted =
      metrics::GetCounter("util.parallel.tasks_submitted");
  static metrics::Counter& join_wait_ns =
      metrics::GetCounter("util.parallel.join_wait_ns");
  parallel_sections.Add();
  tasks_submitted.Add(ways - 1);

  GlobalPool().EnsureWorkers(ways - 1);
  std::vector<std::exception_ptr> errors(ways);
  const auto section = std::make_shared<ForSection>(ways);
  section->claimed[0] = true;

  const auto run_range = [&](std::size_t w) {
    try {
      fn(w * count / ways, (w + 1) * count / ways);
    } catch (...) {
      errors[w] = std::current_exception();
    }
  };
  for (std::size_t w = 1; w < ways; ++w) {
    GlobalPool().Submit([section, w, &run_range] {
      {
        std::lock_guard<std::mutex> lock(section->m);
        if (section->claimed[w]) return;  // the caller ran it
        section->claimed[w] = true;
        ++section->running;
      }
      run_range(w);
      std::lock_guard<std::mutex> lock(section->m);
      --section->running;
      section->cv.notify_one();
    });
  }
  run_range(0);
  // Take over every range no worker has started, last first (workers
  // dequeue from the front).
  for (std::size_t w = ways - 1; w >= 1; --w) {
    {
      std::lock_guard<std::mutex> lock(section->m);
      if (section->claimed[w]) continue;
      section->claimed[w] = true;
    }
    run_range(w);
  }
  {
    // Caller-side load-imbalance signal: time spent waiting for the slowest
    // worker range after the caller finished its own.
    const std::uint64_t t0 =
        metrics::Enabled() ? trace::internal::NowWallNs() : 0;
    std::unique_lock<std::mutex> lock(section->m);
    section->cv.wait(lock, [&section] { return section->running == 0; });
    if (t0 != 0) join_wait_ns.Add(trace::internal::NowWallNs() - t0);
  }
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

void ParallelFor(std::size_t threads, std::size_t count,
                 const std::function<void(std::size_t)>& fn) {
  ParallelForRange(threads, count, [&fn](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

}  // namespace mcdft::util
