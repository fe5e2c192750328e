#include "serve/client.hpp"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

namespace pimsched::serve {

namespace {

/// Pause between connect attempts while the endpoint is not listening.
constexpr std::chrono::milliseconds kConnectRetryInterval{10};

/// One connect to `addr`: the connected fd, or -1 with the errno in *err.
int connectTo(int family, const sockaddr* addr, socklen_t len, int* err) {
  const int fd = ::socket(family, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *err = errno;
    return -1;
  }
  if (::connect(fd, addr, len) == 0) return fd;
  *err = errno;
  ::close(fd);
  return -1;
}

/// One connect attempt to the endpoint (every resolved address for TCP):
/// the connected fd, or -1 with the last connect errno in *err.
int connectOnce(const Endpoint& endpoint, int* err) {
  if (endpoint.tcpHost.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (endpoint.socketPath.empty() ||
        endpoint.socketPath.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("socket path empty or too long: " +
                               endpoint.socketPath);
    }
    std::memcpy(addr.sun_path, endpoint.socketPath.c_str(),
                endpoint.socketPath.size() + 1);
    return connectTo(AF_UNIX, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr), err);
  }
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* list = nullptr;
  const int rc = ::getaddrinfo(endpoint.tcpHost.c_str(),
                               std::to_string(endpoint.tcpPort).c_str(),
                               &hints, &list);
  if (rc != 0) {
    throw std::runtime_error("cannot resolve " + endpoint.tcpHost + ": " +
                             ::gai_strerror(rc));
  }
  int fd = -1;
  for (const addrinfo* ai = list; ai != nullptr && fd < 0; ai = ai->ai_next) {
    fd = connectTo(ai->ai_family, ai->ai_addr, ai->ai_addrlen, err);
  }
  ::freeaddrinfo(list);
  if (fd >= 0) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return fd;
}

}  // namespace

std::string Endpoint::name() const {
  return tcpHost.empty() ? socketPath
                         : tcpHost + ":" + std::to_string(tcpPort);
}

bool parseEndpointFlag(std::string_view flag, std::string_view value,
                       Endpoint* endpoint) {
  if (flag == "--socket") {
    if (value.empty()) throw std::invalid_argument("--socket needs a PATH");
    *endpoint = Endpoint{std::string(value), "", 0};
    return true;
  }
  if (flag != "--tcp") return false;
  const auto bad = [&] {
    return std::invalid_argument(
        "--tcp needs HOST:PORT with a port in 1..65535, got '" +
        std::string(value) + "'");
  };
  const std::size_t colon = value.rfind(':');
  if (colon == std::string_view::npos || colon == 0) throw bad();
  const std::string_view digits = value.substr(colon + 1);
  int port = 0;
  const auto [end, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), port);
  if (digits.empty() || ec != std::errc() ||
      end != digits.data() + digits.size() || port < 1 || port > 65535) {
    throw bad();
  }
  *endpoint = Endpoint{"", std::string(value.substr(0, colon)), port};
  return true;
}

Connection::Connection(const Endpoint& endpoint,
                       std::chrono::milliseconds wait) {
  const auto deadline = std::chrono::steady_clock::now() + wait;
  for (;;) {
    int err = 0;
    fd_ = connectOnce(endpoint, &err);
    if (fd_ >= 0) return;
    const bool notListening = err == ENOENT || err == ECONNREFUSED;
    if (!notListening || std::chrono::steady_clock::now() >= deadline) {
      throw std::runtime_error("cannot connect to " + endpoint.name() +
                               ": " + std::strerror(err));
    }
    std::this_thread::sleep_for(kConnectRetryInterval);
  }
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

void Connection::write(std::string_view bytes) {
  while (!bytes.empty()) {
    // send(MSG_NOSIGNAL): a daemon that hung up is a write error, not a
    // SIGPIPE that kills the client.
    const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("write failed: ") +
                               std::strerror(errno));
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
}

std::optional<std::string> Connection::readLine() {
  std::size_t nl;
  while ((nl = buffer_.find('\n')) == std::string::npos) {
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("read failed: ") +
                               std::strerror(errno));
    }
    if (n == 0) return std::nullopt;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
  std::string line = buffer_.substr(0, nl);
  buffer_.erase(0, nl + 1);
  return line;
}

std::string Connection::roundTrip(std::string_view request) {
  std::string frame(request);
  frame.push_back('\n');
  write(frame);
  std::optional<std::string> reply = readLine();
  if (!reply) {
    throw std::runtime_error("daemon closed the connection without a reply");
  }
  return std::move(*reply);
}

}  // namespace pimsched::serve
