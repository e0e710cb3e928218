// Minimal blocking socket primitives for the campaign daemon: a listener
// (Unix-domain or TCP loopback) handing out connections, and a connection
// wrapper with buffered newline-delimited reads — the transport under the
// NDJSON request/response protocol.  POSIX only; no external deps.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>

namespace mcdft::util {

/// Outcome of one bounded line read.  kOk is the only success; everything
/// else means the caller should stop serving this connection (after an
/// optional error reply for kTimeout/kOverlong).
enum class ReadStatus {
  kOk,        ///< a complete line was delivered
  kEof,       ///< clean peer close with no buffered bytes
  kTimeout,   ///< the read timeout elapsed before a newline arrived
  kOverlong,  ///< the line exceeded the byte bound without a newline
  kError,     ///< recv failed (connection reset, bad fd, ...)
};

/// One accepted (or dialed) connection.  Owns the fd; closes on destruct.
/// ReadLine buffers internally, so interleave ReadLine/WriteAll freely but
/// do not share one Conn across threads.
class Conn {
 public:
  /// Default per-line byte bound (buffered bytes without a newline): a
  /// legitimate request — even one embedding a large SPICE deck — stays
  /// far below this; an unframed or hostile stream hits it and gets a
  /// typed protocol error instead of growing the buffer unboundedly.
  static constexpr std::size_t kDefaultMaxLineBytes = 4u << 20;  // 4 MiB

  explicit Conn(int fd) : fd_(fd) {}
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// Read up to (and including) the next '\n'.  The newline is stripped
  /// from `line`.  Returns false on clean EOF with no buffered bytes, on
  /// a read error, on timeout and on an overlong line — the boolean
  /// convenience wrapper over ReadLineBounded for callers that do not
  /// distinguish the failure modes.
  bool ReadLine(std::string& line);

  /// Bounded, timeout-aware line read.  Honors SetReadTimeoutMs (the
  /// budget applies per line, not per recv: a peer trickling bytes
  /// forever still times out) and SetMaxLineBytes.  Interrupted poll/recv
  /// calls (EINTR) are retried with the remaining budget recomputed.
  ReadStatus ReadLineBounded(std::string& line);

  /// Write all of `data`, retrying short writes and EINTR.  Returns false
  /// on error (including a peer that hung up — SIGPIPE is suppressed —
  /// and a send that exceeds the write timeout).
  bool WriteAll(const std::string& data);

  /// Per-line read budget in milliseconds; 0 (default) blocks forever.
  /// Throws util::Error on a negative budget.
  void SetReadTimeoutMs(int ms);

  /// Per-send write budget (SO_SNDTIMEO); 0 (default) blocks forever.
  /// Throws util::Error on a negative budget.
  void SetWriteTimeoutMs(int ms);

  /// Cap on buffered bytes awaiting a newline (see kDefaultMaxLineBytes).
  void SetMaxLineBytes(std::size_t bytes) { max_line_bytes_ = bytes; }

  bool Valid() const { return fd_ >= 0; }
  void Close();

  /// Half-close both directions without releasing the fd: a thread blocked
  /// in ReadLine() sees EOF and returns.  Safe to call from another thread
  /// (the daemon's shutdown path); Close() itself is not.
  void ShutdownBoth();

 private:
  int fd_ = -1;
  int read_timeout_ms_ = 0;
  std::size_t max_line_bytes_ = kDefaultMaxLineBytes;
  std::string buffer_;
};

/// A listening socket.  Factories return an invalid Listener (Valid() ==
/// false, Error() set) instead of throwing so callers can report cleanly.
class Listener {
 public:
  Listener() = default;
  ~Listener();
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Listen on a Unix-domain socket at `path` (an existing socket file is
  /// removed first so daemon restarts do not fail on EADDRINUSE).
  static Listener Unix(const std::string& path);

  /// Listen on TCP loopback (127.0.0.1).  `port` 0 picks an ephemeral
  /// port; BoundPort() reports the actual one.
  static Listener Tcp(int port);

  /// Block until a client connects.  Returns nullptr on error (including
  /// Close() from another thread, the shutdown path).
  std::unique_ptr<Conn> Accept();

  bool Valid() const { return fd_ >= 0; }
  const std::string& Error() const { return error_; }
  int BoundPort() const { return port_; }

  /// Shut the listener down; an Accept() blocked in another thread returns
  /// nullptr.  Removes the Unix socket file, if any.  Safe to call
  /// concurrently with Accept() (fd handoff is atomic).
  void Close();

 private:
  std::atomic<int> fd_{-1};
  int port_ = 0;
  std::string path_;   // unix socket file to unlink on Close
  std::string error_;
};

/// Dial a Unix-domain socket.  Returns nullptr on failure.
std::unique_ptr<Conn> ConnectUnix(const std::string& path);

/// Dial TCP loopback.  Returns nullptr on failure.
std::unique_ptr<Conn> ConnectTcp(int port);

}  // namespace mcdft::util
