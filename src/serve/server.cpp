#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "obs/obs.hpp"

namespace pimsched::serve {

namespace {

constexpr int kPollMs = 100;
/// Socket read size. A large inline-trace frame arrives in a few reads
/// rather than one poll+read pair per 4 KiB.
constexpr std::size_t kReadBytes = 64 * 1024;

/// write() the whole buffer, riding out EINTR and partial writes. Returns
/// false when the peer is gone (EPIPE etc.) — the caller just drops the
/// connection.
bool writeAll(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

SocketServer::SocketServer(JobService& service, Options options)
    : service_(&service), options_(std::move(options)) {}

SocketServer::~SocketServer() {
  if (listenFd_ >= 0) {
    ::close(listenFd_);
    ::unlink(options_.socketPath.c_str());
  }
  if (tcpListenFd_ >= 0) ::close(tcpListenFd_);
  // run() joins the pool; this covers start()-then-destroy without run.
  {
    std::lock_guard<std::mutex> lock(connMutex_);
    handlersExit_ = true;
    for (const int fd : connQueue_) ::close(fd);
    connQueue_.clear();
  }
  connCv_.notify_all();
  for (std::thread& t : handlers_) {
    if (t.joinable()) t.join();
  }
}

void SocketServer::startUnix() {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socketPath.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("SocketServer: socket path longer than "
                             "sockaddr_un allows: " + options_.socketPath);
  }
  std::memcpy(addr.sun_path, options_.socketPath.c_str(),
              options_.socketPath.size() + 1);

  // A stale socket file from a crashed daemon would fail bind(); remove it
  // only when nothing is listening there. POSIX leaves a socket in an
  // unspecified state after a failed connect(), so the probe uses a
  // throwaway fd and the listener gets a fresh one below.
  {
    const int probe = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (probe < 0) {
      throw std::runtime_error(std::string("SocketServer: socket(): ") +
                               std::strerror(errno));
    }
    const bool live =
        ::connect(probe, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0;
    ::close(probe);
    if (live) {
      throw std::runtime_error("SocketServer: another daemon is already "
                               "listening on " + options_.socketPath);
    }
  }
  ::unlink(options_.socketPath.c_str());

  listenFd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listenFd_ < 0) {
    throw std::runtime_error(std::string("SocketServer: socket(): ") +
                             std::strerror(errno));
  }
  if (::bind(listenFd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listenFd_, options_.backlog) != 0) {
    const std::string what = std::strerror(errno);
    ::close(listenFd_);
    listenFd_ = -1;
    throw std::runtime_error("SocketServer: cannot listen on " +
                             options_.socketPath + ": " + what);
  }
}

void SocketServer::startTcp() {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.tcpPort));
  if (::inet_pton(AF_INET, options_.tcpBindAddress.c_str(),
                  &addr.sin_addr) != 1) {
    throw std::runtime_error("SocketServer: bad TCP bind address: " +
                             options_.tcpBindAddress);
  }

  tcpListenFd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (tcpListenFd_ < 0) {
    throw std::runtime_error(std::string("SocketServer: socket(): ") +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(tcpListenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(tcpListenFd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(tcpListenFd_, options_.backlog) != 0) {
    const std::string what = std::strerror(errno);
    ::close(tcpListenFd_);
    tcpListenFd_ = -1;
    throw std::runtime_error("SocketServer: cannot listen on " +
                             options_.tcpBindAddress + ":" +
                             std::to_string(options_.tcpPort) + ": " + what);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(tcpListenFd_,
                    reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    boundTcpPort_ = static_cast<int>(ntohs(bound.sin_port));
  } else {
    boundTcpPort_ = options_.tcpPort;
  }
}

void SocketServer::start() {
  if (options_.socketPath.empty() && options_.tcpPort < 0) {
    throw std::runtime_error(
        "SocketServer: no endpoint configured (need a socket path and/or "
        "a TCP port)");
  }
  if (!options_.socketPath.empty()) startUnix();
  if (options_.tcpPort >= 0) {
    try {
      startTcp();
    } catch (...) {
      if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        ::unlink(options_.socketPath.c_str());
      }
      throw;
    }
  }
  // Replies to vanished clients must surface as write() errors, not kill
  // the daemon with SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);
}

int SocketServer::run() {
  if (listenFd_ < 0 && tcpListenFd_ < 0) start();
  PIMSCHED_COUNTER_ADD("serve.server.started", 1);

  if (options_.ioThreads == 0) options_.ioThreads = 1;
  handlers_.reserve(options_.ioThreads);
  for (unsigned i = 0; i < options_.ioThreads; ++i) {
    handlers_.emplace_back([this] { handlerLoop(); });
  }

  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd pfds[2];
    nfds_t nfds = 0;
    if (listenFd_ >= 0) pfds[nfds++] = {listenFd_, POLLIN, 0};
    if (tcpListenFd_ >= 0) pfds[nfds++] = {tcpListenFd_, POLLIN, 0};
    const int ready = ::poll(pfds, nfds, kPollMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    for (nfds_t i = 0; i < nfds; ++i) {
      if ((pfds[i].revents & POLLIN) == 0) continue;
      const int fd = ::accept(pfds[i].fd, nullptr, nullptr);
      if (fd < 0) continue;
      PIMSCHED_COUNTER_ADD("serve.server.connections", 1);
      if (pfds[i].fd == tcpListenFd_) {
        PIMSCHED_COUNTER_ADD("serve.server.tcp_connections", 1);
        // The protocol is one small request line per reply; don't let
        // Nagle delay them.
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      }
      {
        std::lock_guard<std::mutex> lock(connMutex_);
        connQueue_.push_back(fd);
      }
      connCv_.notify_one();
    }
  }

  // Graceful drain: stop accepting, finish every accepted job (this also
  // releases connections blocked in result-waits), then let connection
  // handlers close out and stop the pool. A fleet service keeps
  // dispatching while draining, so jobs a mid-drain fault drift requeued
  // onto another array (serve.drain.requeued) still complete instead of
  // being stranded by the shutdown.
  if (listenFd_ >= 0) {
    ::close(listenFd_);
    listenFd_ = -1;
    ::unlink(options_.socketPath.c_str());
  }
  if (tcpListenFd_ >= 0) {
    ::close(tcpListenFd_);
    tcpListenFd_ = -1;
  }
  service_->drain();
  closing_.store(true, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(connMutex_);
    handlersExit_ = true;
  }
  connCv_.notify_all();
  for (std::thread& t : handlers_) {
    if (t.joinable()) t.join();
  }
  handlers_.clear();
  return 0;
}

void SocketServer::handlerLoop() {
  while (true) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(connMutex_);
      connCv_.wait(lock,
                   [&] { return !connQueue_.empty() || handlersExit_; });
      if (connQueue_.empty()) return;  // handlersExit_ and nothing left
      fd = connQueue_.front();
      connQueue_.pop_front();
    }
    // During teardown handleConnection sees closing_ and closes the fd
    // without reading, so queued-but-unserved connections still drain.
    handleConnection(fd);
  }
}

void SocketServer::handleConnection(int fd) {
  ProtocolHandler handler(*service_, options_.protocol);
  std::string buffer;
  // Bytes of `buffer` already searched for '\n': a frame spread over many
  // reads is scanned once, not once per read.
  std::size_t scanned = 0;
  std::vector<char> chunk(kReadBytes);
  bool open = true;

  const auto respond = [&](std::string_view line) {
    bool shutdownRequested = false;
    std::string reply = handler.handleLine(line, &shutdownRequested);
    reply.push_back('\n');
    PIMSCHED_COUNTER_ADD("serve.server.requests", 1);
    if (!writeAll(fd, reply)) open = false;
    if (shutdownRequested) {
      stop_.store(true, std::memory_order_relaxed);
      open = false;
    }
  };

  while (open && !closing_.load(std::memory_order_relaxed)) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    const ssize_t n = ::read(fd, chunk.data(), chunk.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) {
      // EOF. A non-empty remainder is a truncated frame — still answer it
      // (half-closed clients read the reply) before dropping out.
      if (!buffer.empty()) respond(buffer);
      break;
    }
    buffer.append(chunk.data(), static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', scanned);
         nl != std::string::npos && open;
         nl = buffer.find('\n', start)) {
      std::string_view line(buffer.data() + start, nl - start);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (!line.empty()) respond(line);
      start = nl + 1;
    }
    buffer.erase(0, start);
    scanned = buffer.size();
    if (buffer.size() > options_.protocol.maxFrameBytes) {
      // An unterminated over-long frame can never complete: hand it to the
      // handler (whose size check produces the structured "frame too
      // large" reply) and close — there is no line boundary to resync on.
      respond(buffer);
      break;
    }
  }
  ::close(fd);
}

}  // namespace pimsched::serve
