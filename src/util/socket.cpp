#include "util/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>

#include "util/error.hpp"
#include "util/faultpoint.hpp"

namespace mcdft::util {

namespace {

std::int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Linux has MSG_NOSIGNAL; fall back to 0 elsewhere (callers would need
// SIG_IGN on SIGPIPE there, which the daemon installs anyway).
#ifdef MSG_NOSIGNAL
constexpr int kSendFlags = MSG_NOSIGNAL;
#else
constexpr int kSendFlags = 0;
#endif

}  // namespace

Conn::~Conn() { Close(); }

void Conn::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Conn::ShutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

bool Conn::ReadLine(std::string& line) {
  return ReadLineBounded(line) == ReadStatus::kOk;
}

ReadStatus Conn::ReadLineBounded(std::string& line) {
  line.clear();
  // The timeout is a per-line budget on a monotonic clock: every poll gets
  // the *remaining* time, so a peer trickling one byte per interval still
  // runs out instead of resetting the clock on each recv.
  const bool timed = read_timeout_ms_ > 0;
  const std::int64_t deadline_ms = timed ? NowMs() + read_timeout_ms_ : 0;
  for (;;) {
    const auto nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      line.assign(buffer_, 0, nl);
      buffer_.erase(0, nl + 1);
      return ReadStatus::kOk;
    }
    if (buffer_.size() > max_line_bytes_) return ReadStatus::kOverlong;
    if (fd_ < 0) return ReadStatus::kError;
    // Deterministic stalled-peer injection: behave exactly as if the
    // timeout elapsed with no bytes, covering the reap path in armed runs
    // without real waiting.
    if (faultpoint::ShouldFail("socket.read.stall")) {
      return ReadStatus::kTimeout;
    }
    if (timed) {
      const std::int64_t remaining = deadline_ms - NowMs();
      if (remaining <= 0) return ReadStatus::kTimeout;
      pollfd pfd{fd_, POLLIN, 0};
      const int ready =
          ::poll(&pfd, 1, static_cast<int>(
                              remaining > 2'000'000'000 ? 2'000'000'000
                                                        : remaining));
      if (ready < 0) {
        if (errno == EINTR) continue;  // budget recomputed above
        return ReadStatus::kError;
      }
      if (ready == 0) return ReadStatus::kTimeout;
    }
    char chunk[4096];
    ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0) {
      // EINTR: retry with the remaining budget.  EAGAIN/EWOULDBLOCK can
      // surface despite a positive poll (spurious wakeup); treat it like
      // EINTR rather than a fatal error.
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      return ReadStatus::kError;
    }
    if (n == 0) {
      // Clean EOF: surface a trailing unterminated line once, then stop.
      if (buffer_.empty()) return ReadStatus::kEof;
      line.swap(buffer_);
      buffer_.clear();
      return ReadStatus::kOk;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

namespace {

/// A negative budget would reach setsockopt as a negative timeval (which
/// fails, leaving the socket without a timeout) or make every read time out.
void CheckTimeout(const char* what, int ms) {
  if (ms < 0) {
    throw Error(std::string(what) + " timeout must be >= 0 ms, got " +
                std::to_string(ms));
  }
}

}  // namespace

void Conn::SetReadTimeoutMs(int ms) {
  CheckTimeout("read", ms);
  read_timeout_ms_ = ms;
}

void Conn::SetWriteTimeoutMs(int ms) {
  CheckTimeout("write", ms);
  if (fd_ < 0) return;
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

bool Conn::WriteAll(const std::string& data) {
  if (fd_ < 0) return false;
  std::size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd_, data.data() + off, data.size() - off, kSendFlags);
    if (n < 0) {
      if (errno == EINTR) continue;
      // With SO_SNDTIMEO armed, a peer that stops draining its socket
      // surfaces as EAGAIN after the timeout — a failed write, so the
      // daemon drops the connection instead of blocking a handler thread
      // forever.
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

Listener::~Listener() { Close(); }

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_.exchange(-1)), port_(other.port_),
      path_(std::move(other.path_)), error_(std::move(other.error_)) {
  other.path_.clear();
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_.store(other.fd_.exchange(-1));
    port_ = other.port_;
    path_ = std::move(other.path_);
    error_ = std::move(other.error_);
    other.path_.clear();
  }
  return *this;
}

void Listener::Close() {
  const int fd = fd_.exchange(-1);
  if (fd < 0) return;  // already closed (possibly by a concurrent Close)
  // shutdown() wakes a concurrent Accept(); close() alone may not.
  ::shutdown(fd, SHUT_RDWR);
  ::close(fd);
  if (!path_.empty()) {
    ::unlink(path_.c_str());
    path_.clear();
  }
}

Listener Listener::Unix(const std::string& path) {
  Listener l;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    l.error_ = "socket path too long: " + path;
    return l;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    l.error_ = std::string("socket: ") + std::strerror(errno);
    return l;
  }
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    l.error_ = std::string("bind/listen ") + path + ": " +
               std::strerror(errno);
    ::close(fd);
    return l;
  }
  l.fd_ = fd;
  l.path_ = path;
  return l;
}

Listener Listener::Tcp(int port) {
  Listener l;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    l.error_ = std::string("socket: ") + std::strerror(errno);
    return l;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    l.error_ = std::string("bind/listen 127.0.0.1:") + std::to_string(port) +
               ": " + std::strerror(errno);
    ::close(fd);
    return l;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    l.port_ = static_cast<int>(ntohs(addr.sin_port));
  }
  l.fd_ = fd;
  return l;
}

std::unique_ptr<Conn> Listener::Accept() {
  const int fd = fd_.load();
  if (fd < 0) return nullptr;
  for (;;) {
    int cfd = ::accept(fd, nullptr, nullptr);
    if (cfd >= 0) return std::make_unique<Conn>(cfd);
    if (errno == EINTR && fd_.load() >= 0) continue;
    return nullptr;
  }
}

std::unique_ptr<Conn> ConnectUnix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) return nullptr;
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return nullptr;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return nullptr;
  }
  return std::make_unique<Conn>(fd);
}

std::unique_ptr<Conn> ConnectTcp(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return nullptr;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return nullptr;
  }
  return std::make_unique<Conn>(fd);
}

}  // namespace mcdft::util
