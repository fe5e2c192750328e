#pragma once

#include <chrono>
#include <optional>
#include <string>
#include <string_view>

namespace pimsched::serve {

/// Where a client reaches the daemon: a Unix socket path, or TCP
/// HOST:PORT with a non-empty host and a port in 1..65535. (The daemon's
/// own `--tcp [HOST:]PORT` listen grammar is a different rule: it allows
/// an empty host and the ephemeral port 0.)
struct Endpoint {
  std::string socketPath;  ///< non-empty for a Unix socket
  std::string tcpHost;     ///< non-empty for TCP
  int tcpPort = 0;

  /// "PATH" or "HOST:PORT", as error messages name the endpoint.
  [[nodiscard]] std::string name() const;
};

/// The clients' endpoint flags: `--socket PATH` or `--tcp HOST:PORT`.
/// Stores `value` into *endpoint and returns true when `flag` is one of
/// them, returns false for any other flag, and throws
/// std::invalid_argument on an empty path or a malformed HOST:PORT.
bool parseEndpointFlag(std::string_view flag, std::string_view value,
                       Endpoint* endpoint);

/// One blocking NDJSON connection to the daemon: whole writes that ride
/// out EINTR and a buffered line reader. Owns its fd.
class Connection {
 public:
  /// Connects (TCP_NODELAY on TCP). While the endpoint is not listening
  /// yet (ENOENT or ECONNREFUSED) the connect is retried until `wait` has
  /// passed; every other error, and the deadline, throws
  /// std::runtime_error("cannot connect to <endpoint>: <reason>"). A wait
  /// of zero makes exactly one attempt.
  explicit Connection(const Endpoint& endpoint,
                      std::chrono::milliseconds wait = {});
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Writes every byte of `bytes`; throws std::runtime_error on failure.
  void write(std::string_view bytes);

  /// The next line without its newline; nullopt when the daemon closed
  /// the stream before a full line arrived.
  std::optional<std::string> readLine();

  /// Sends `request` as one line and returns the reply line; throws
  /// std::runtime_error when the daemon closes without replying.
  std::string roundTrip(std::string_view request);

  /// The socket, for raw half-closes (`shutdown(fd, SHUT_WR)`).
  [[nodiscard]] int fd() const { return fd_; }

 private:
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace pimsched::serve
