#include "core/server/daemon.hpp"

#include <exception>

#include "util/error.hpp"
#include "util/metrics.hpp"

namespace mcdft::core::server {

namespace json = util::json;
namespace metrics = util::metrics;

namespace {

/// Best-effort one-line typed protocol error (the peer may be gone).
std::string ProtocolErrorLine(const std::string& error,
                              const std::string& kind) {
  json::Value v = json::Value::Object();
  v.Set("ok", json::Value::Bool(false));
  v.Set("error", json::Value::Str(error));
  v.Set("error_kind", json::Value::Str(kind));
  return v.Serialize(0) + "\n";
}

}  // namespace

Daemon::Daemon(util::Listener listener, DaemonOptions options)
    : listener_(std::move(listener)),
      options_(options),
      service_(options.service) {
  // Connection threads apply the budget; refuse a bad one here, not there.
  if (options_.io_timeout_ms < 0) {
    throw util::Error("io timeout must be >= 0 ms, got " +
                      std::to_string(options_.io_timeout_ms));
  }
}

Daemon::~Daemon() { Stop(); }

void Daemon::Run() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    std::unique_ptr<util::Conn> conn = listener_.Accept();
    if (!conn) break;  // listener closed (Stop) or fatal accept error
    std::shared_ptr<util::Conn> shared(std::move(conn));
    std::vector<std::thread> done;
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      ReapLocked(done);
      conns_.push_back(shared);
      conn_threads_.emplace_back([this, shared] {
        HandleConnection(shared);
        std::lock_guard<std::mutex> lock(conn_mutex_);
        finished_ids_.push_back(std::this_thread::get_id());
      });
    }
    // Join outside the lock: a thread is only in `done` once it has
    // published its id, i.e. past its last conn_mutex_ acquisition.
    for (std::thread& t : done) t.join();
  }
}

void Daemon::ReapLocked(std::vector<std::thread>& done) {
  for (const std::thread::id id : finished_ids_) {
    for (auto it = conn_threads_.begin(); it != conn_threads_.end(); ++it) {
      if (it->get_id() == id) {
        done.push_back(std::move(*it));
        conn_threads_.erase(it);
        break;
      }
    }
  }
  finished_ids_.clear();
  std::erase_if(conns_, [](const std::weak_ptr<util::Conn>& w) {
    return w.expired();
  });
}

void Daemon::Start() {
  accept_thread_ = std::thread([this] { Run(); });
}

void Daemon::Stop() {
  // Shutdown ordering is the whole trick:
  //   1. close admission (no new connections),
  //   2. drain the service — queued and running jobs finish or get
  //      cancelled within the drain budget while their handler threads
  //      are still alive to write the responses,
  //   3. only then wake and join the connection threads.
  // Tearing connections down before the drain (the old order) abandoned
  // the pool mid-job: workers kept computing for sockets that no longer
  // existed and their responses went nowhere.
  stopping_.store(true, std::memory_order_relaxed);
  listener_.Close();
  if (accept_thread_.joinable() &&
      accept_thread_.get_id() != std::this_thread::get_id()) {
    accept_thread_.join();
  }
  service_.Shutdown();
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    // Wake any handler blocked in ReadLine so its thread can be joined.
    for (const std::weak_ptr<util::Conn>& w : conns_) {
      if (std::shared_ptr<util::Conn> c = w.lock()) c->ShutdownBoth();
    }
    conns_.clear();
    threads.swap(conn_threads_);
    finished_ids_.clear();
  }
  for (std::thread& t : threads) {
    if (t.joinable() && t.get_id() != std::this_thread::get_id()) {
      t.join();
    } else if (t.joinable()) {
      t.detach();  // a handler called Stop(); it cannot join itself
    }
  }
}

void Daemon::HandleConnection(const std::shared_ptr<util::Conn>& conn) {
  static metrics::Counter& m_conns = metrics::GetCounter("server.connections");
  static metrics::Counter& m_timeout =
      metrics::GetCounter("server.conn_timeout");
  static metrics::Counter& m_overlong =
      metrics::GetCounter("server.overlong_line");
  m_conns.Add();
  conn->SetReadTimeoutMs(options_.io_timeout_ms);
  conn->SetWriteTimeoutMs(options_.io_timeout_ms);
  conn->SetMaxLineBytes(options_.max_line_bytes);
  std::string line;
  while (!stopping_.load(std::memory_order_relaxed)) {
    const util::ReadStatus status = conn->ReadLineBounded(line);
    if (status == util::ReadStatus::kTimeout) {
      // Stalled or idle peer: reap the connection with a best-effort
      // typed error so well-behaved-but-slow clients know why.
      m_timeout.Add();
      conn_timeouts_.fetch_add(1, std::memory_order_relaxed);
      conn->WriteAll(ProtocolErrorLine("read timed out", "timeout"));
      break;
    }
    if (status == util::ReadStatus::kOverlong) {
      m_overlong.Add();
      overlong_lines_.fetch_add(1, std::memory_order_relaxed);
      conn->WriteAll(ProtocolErrorLine(
          "line exceeds " + std::to_string(options_.max_line_bytes) +
              " bytes",
          "overlong_line"));
      break;
    }
    if (status != util::ReadStatus::kOk) break;  // EOF / reset
    if (line.empty()) continue;
    bool shutdown_requested = false;
    const std::string response = HandleLine(line, shutdown_requested);
    const bool wrote = conn->WriteAll(response);
    if (shutdown_requested) {
      // Ack first, stop after: closing the listener before the response
      // left this socket would race the client out of its confirmation.
      stopping_.store(true, std::memory_order_relaxed);
      listener_.Close();  // wakes the accept loop
      break;
    }
    if (!wrote) break;
  }
}

std::string Daemon::HandleLine(const std::string& line,
                               bool& shutdown_requested) {
  static metrics::Counter& m_bad = metrics::GetCounter("server.bad_requests");
  json::Value response = json::Value::Object();
  try {
    const json::Value request = json::Parse(line);
    const std::string op = request.Get("op").AsString();
    response.Set("ok", json::Value::Bool(true));
    response.Set("op", json::Value::Str(op));
    if (op == "ping") {
      // nothing more
    } else if (op == "stats") {
      json::Value stats = service_.StatsJson();
      json::Value server = stats.Get("server");
      server.Set("conn_timeouts",
                 json::Value::Number(
                     conn_timeouts_.load(std::memory_order_relaxed)));
      server.Set("overlong_lines",
                 json::Value::Number(
                     overlong_lines_.load(std::memory_order_relaxed)));
      stats.Set("server", std::move(server));
      response.Set("stats", std::move(stats));
    } else if (op == "shutdown") {
      shutdown_requested = true;
    } else if (op == "cancel") {
      const std::string id = request.Get("request_id").AsString();
      response.Set("cancelled", json::Value::Bool(service_.Cancel(id)));
    } else if (op == "submit") {
      const SubmitOutcome outcome =
          service_.Submit(RequestFromJson(request));
      response.Set("request_id", json::Value::Str(outcome.request_id));
      if (!outcome.ok) {
        response.Set("ok", json::Value::Bool(false));
        response.Set("error", json::Value::Str(outcome.error));
        if (!outcome.error_kind.empty()) {
          response.Set("error_kind", json::Value::Str(outcome.error_kind));
        }
        if (outcome.retry_after_ms > 0) {
          response.Set("retry_after_ms",
                       json::Value::Number(outcome.retry_after_ms));
        }
        response.Set("exit_code", json::Value::Number(static_cast<std::int64_t>(
                                      outcome.exit_code)));
      } else {
        response.Set("key", json::Value::Str(outcome.key));
        response.Set("cache", json::Value::Str(outcome.cache_tier));
        response.Set("exit_code", json::Value::Number(static_cast<std::int64_t>(
                                      outcome.exit_code)));
        response.Set("quarantined_cells",
                     json::Value::Number(outcome.quarantined_cells));
        response.Set("report", json::Value::Str(outcome.report_json));
      }
    } else {
      m_bad.Add();
      response.Set("ok", json::Value::Bool(false));
      response.Set("error", json::Value::Str("unknown op '" + op + "'"));
    }
  } catch (const std::exception& e) {
    m_bad.Add();
    response = json::Value::Object();
    response.Set("ok", json::Value::Bool(false));
    response.Set("error", json::Value::Str(e.what()));
  }
  return response.Serialize(0) + "\n";
}

}  // namespace mcdft::core::server
