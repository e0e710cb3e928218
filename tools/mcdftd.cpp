// mcdftd — the long-running campaign service.
//
//   mcdftd --socket /run/mcdft.sock [--workers N] [--queue N]
//          [--cache-mb N] [--cache-dir DIR] [--factor-cache-mb N]
//          [--io-timeout-ms N] [--drain-ms N]
//   mcdftd --tcp PORT              (loopback only; 0 = ephemeral port)
//
// Serves the NDJSON protocol documented in core/server/daemon.hpp: clients
// (`mcdft submit`, or anything that can write one JSON object per line)
// submit campaign requests; completed run reports are memoized in a
// content-addressed cache (memory LRU + optional disk spill under
// --cache-dir) so a repeated request returns byte-identical results
// without recomputing.  MCDFT_CACHE_MB overrides --cache-mb; 0 disables
// the result cache entirely.  A malformed MCDFT_CACHE_MB, MCDFT_THREADS or
// MCDFT_IO_TIMEOUT_MS stops the daemon before it binds, like a bad flag.
//
// Stops cleanly on SIGINT/SIGTERM or a client's {"op":"shutdown"}.
//
// Exit codes: 0 = clean shutdown, 2 = usage/bind error.
#include <csignal>
#include <cstdio>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <string>
#include <thread>

#include "core/server/daemon.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"

int main(int argc, char** argv) {
  using namespace mcdft;
  util::CliArgs args(argc, argv);
  const std::string socket_path = args.GetString("socket", "");
  const bool tcp = args.Has("tcp");
  if (socket_path.empty() && !tcp) {
    std::fprintf(stderr,
                 "usage: mcdftd --socket PATH | --tcp PORT\n"
                 "              [--workers N] [--queue N] [--cache-mb N]\n"
                 "              [--cache-dir DIR] [--factor-cache-mb N]\n"
                 "              [--io-timeout-ms N] [--drain-ms N]\n"
                 "%s",
                 util::EnvOverridesHelp());
    return 2;
  }

  core::server::ServiceOptions options;
  core::server::DaemonOptions daemon_options;
  int tcp_port = 0;
  try {
    // Sizes and counts: a whole integer >= 0, so a negative value stops
    // here instead of wrapping into a huge std::size_t.
    const auto size_flag = [&args](const char* name, int fallback) {
      return static_cast<std::size_t>(args.GetInt(name, fallback, 0));
    };
    options.workers = size_flag("workers", 2);
    options.queue_limit = size_flag("queue", 64);
    // MCDFT_CACHE_MB wins over --cache-mb so operators can disable the cache
    // without editing service files; both express megabytes.
    options.cache.capacity_bytes =
        core::CacheCapacityFromEnv(size_flag("cache-mb", 256));
    options.factor_cache_bytes = size_flag("factor-cache-mb", 64) << 20;
    options.cache.disk_dir = args.GetString("cache-dir", "");
    if (!options.cache.disk_dir.empty()) {
      ::mkdir(options.cache.disk_dir.c_str(), 0777);  // EEXIST is fine
    }
    // Shutdown drain budget: in-flight and queued jobs get this long to
    // finish before being cancelled.
    options.drain_budget_ms = args.GetInt("drain-ms", 5'000, 0);
    // Per-connection I/O budget (read + write); MCDFT_IO_TIMEOUT_MS wins
    // over --io-timeout-ms, 0 disables the timeouts.
    daemon_options.io_timeout_ms = util::GetEnvInt(
        "MCDFT_IO_TIMEOUT_MS", args.GetInt("io-timeout-ms", 30'000, 0), 0);
    tcp_port = args.GetInt("tcp", 0, 0, 65535);
    // Latch MCDFT_THREADS now: a malformed value must stop the daemon
    // here, not inside its first campaign.
    util::DefaultThreadCount();
  } catch (const util::Error& e) {
    std::fprintf(stderr, "mcdftd: %s\n", e.what());
    return 2;
  }
  daemon_options.service = options;

  // Dead clients must not kill the daemon mid-write; socket sends also pass
  // MSG_NOSIGNAL, this covers any platform without it.
  std::signal(SIGPIPE, SIG_IGN);
  // SIGINT/SIGTERM are consumed by a dedicated sigwait thread (calling
  // Daemon::Stop from a signal handler would not be async-signal-safe);
  // block them here, before any thread is spawned, so every thread
  // inherits the mask and only the waiter sees them.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGINT);
  sigaddset(&stop_signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);

  util::Listener listener = socket_path.empty()
                                ? util::Listener::Tcp(tcp_port)
                                : util::Listener::Unix(socket_path);
  if (!listener.Valid()) {
    std::fprintf(stderr, "mcdftd: %s\n", listener.Error().c_str());
    return 2;
  }
  if (socket_path.empty()) {
    std::printf("mcdftd: listening on 127.0.0.1:%d\n", listener.BoundPort());
  } else {
    std::printf("mcdftd: listening on %s\n", socket_path.c_str());
  }
  std::printf(
      "mcdftd: workers=%zu queue=%zu cache=%zuMB%s disk=%s factor=%zuMB "
      "io-timeout=%dms drain=%lldms\n",
      options.workers, options.queue_limit,
      options.cache.capacity_bytes >> 20,
      options.cache.capacity_bytes == 0 ? " (disabled)" : "",
      options.cache.disk_dir.empty() ? "(none)"
                                     : options.cache.disk_dir.c_str(),
      options.factor_cache_bytes >> 20, daemon_options.io_timeout_ms,
      static_cast<long long>(options.drain_budget_ms));
  std::fflush(stdout);  // scripts wait for the "listening on" line

  core::server::Daemon daemon(std::move(listener), daemon_options);
  std::thread signal_waiter([&daemon, &stop_signals] {
    int sig = 0;
    sigwait(&stop_signals, &sig);
    std::fprintf(stderr, "mcdftd: caught signal %d, shutting down\n", sig);
    daemon.Stop();
  });

  daemon.Run();  // returns on Stop() or a client's shutdown op

  // Wake the signal waiter if the shutdown came over the wire; the signal
  // is process-directed, so the sigwait thread (the only one with the
  // signals unblocked via sigwait) consumes it.  Stop() is idempotent.
  ::kill(::getpid(), SIGTERM);
  signal_waiter.join();
  daemon.Stop();
  std::printf("mcdftd: stopped\n");
  return 0;
}
