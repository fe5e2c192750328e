#include "serve/server.hpp"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "fleet/fleet_service.hpp"
#include "serve/json.hpp"
#include "trace/trace_io.hpp"

namespace pimsched::serve {
namespace {

/// The daemon's default engine: one healthy any-shape array.
using Engine = fleet::FleetService;

std::string uniqueSocketPath(const std::string& tag) {
  // Keep it short: sockaddr_un caps the path at ~107 bytes.
  return ::testing::TempDir() + "pimsched_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

/// A blocking test client on an already-connected fd.
class Client {
 public:
  explicit Client(const std::string& socketPath) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socketPath.c_str(), socketPath.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    connectWithRetry(reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  }

  /// TCP variant: connects to 127.0.0.1:port.
  explicit Client(int tcpPort) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(tcpPort));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    connectWithRetry(reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  void sendRaw(const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::write(fd_, data.data() + off, data.size() - off);
      ASSERT_GE(n, 0) << std::strerror(errno);
      off += static_cast<std::size_t>(n);
    }
  }

  /// Half-closes the write side, leaving the read side open for a reply.
  void endOfInput() { ::shutdown(fd_, SHUT_WR); }

  /// Reads one newline-terminated reply; empty string on EOF first.
  std::string readLine() {
    while (buffer_.find('\n') == std::string::npos) {
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
    const std::size_t nl = buffer_.find('\n');
    std::string line = buffer_.substr(0, nl);
    buffer_.erase(0, nl + 1);
    return line;
  }

  Json request(const std::string& line) {
    sendRaw(line + "\n");
    const std::string reply = readLine();
    EXPECT_FALSE(reply.empty()) << "no reply to: " << line;
    return Json::parse(reply);
  }

 private:
  // The server may still be between start() and the accept loop; retry
  // briefly instead of flaking.
  void connectWithRetry(const sockaddr* addr, socklen_t len) {
    for (int attempt = 0;; ++attempt) {
      if (::connect(fd_, addr, len) == 0) return;
      if (attempt > 100) {
        ::close(fd_);
        throw std::runtime_error(std::string("connect() failed: ") +
                                 std::strerror(errno));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  int fd_ = -1;
  std::string buffer_;
};

/// Live OS threads of this process, via /proc/self/task.
int liveThreadCount() {
  int count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++count;
  }
  return count;
}

std::string submitLine(int steps = 4, int side = 3) {
  ReferenceTrace trace(DataSpace::singleSquare(side));
  const int data = side * side;
  for (int s = 0; s < steps; ++s) {
    for (int d = 0; d < data; ++d) trace.add(s, (d + s) % 9, d);
  }
  trace.finalize();
  std::ostringstream os;
  saveTrace(trace, os);
  Json request;
  request.set("verb", "submit")
      .set("trace", std::move(os).str())
      .set("grid", "3x3")
      .set("windows", 2)
      .set("wait", true);
  return request.dump();
}

/// Runs the server on a background thread for the duration of one test.
class ServerFixture {
 public:
  explicit ServerFixture(const std::string& tag,
                         ProtocolOptions protocol = {},
                         bool withTcp = false) {
    SocketServer::Options options;
    options.socketPath = uniqueSocketPath(tag);
    options.protocol = protocol;
    if (withTcp) options.tcpPort = 0;  // ephemeral
    server = std::make_unique<SocketServer>(service, options);
    server->start();
    runner = std::thread([this] { exitCode = server->run(); });
  }

  ~ServerFixture() {
    if (runner.joinable()) {
      server->requestStop();
      runner.join();
    }
  }

  int join() {
    runner.join();
    return exitCode;
  }

  Engine service{Engine::Config{}};
  std::unique_ptr<SocketServer> server;
  std::thread runner;
  int exitCode = -1;
};

TEST(SocketServer, SubmitsResolveAndResubmitsHitTheCache) {
  ServerFixture fixture("e2e");
  Client client(fixture.server->socketPath());

  const Json first = client.request(submitLine());
  ASSERT_TRUE(first.find("ok")->asBool()) << submitLine();
  EXPECT_FALSE(first.find("cached")->asBool());
  EXPECT_EQ(first.find("state")->asString(), "done");
  const std::int64_t total = first.find("total")->asInt64();

  // Same connection, same job: answered from the result cache.
  const Json second = client.request(submitLine());
  ASSERT_TRUE(second.find("ok")->asBool());
  EXPECT_TRUE(second.find("cached")->asBool());
  EXPECT_EQ(second.find("total")->asInt64(), total);

  const Json stats = client.request(R"({"verb":"stats"})");
  EXPECT_EQ(stats.find("cache_hits")->asInt64(), 1);

  // The shutdown verb drains the server; run() returns the clean exit 0.
  const Json bye = client.request(R"({"verb":"shutdown"})");
  EXPECT_TRUE(bye.find("ok")->asBool());
  EXPECT_EQ(fixture.join(), 0);
}

TEST(SocketServer, MalformedRequestsGetRepliesAndTheConnectionSurvives) {
  ServerFixture fixture("malformed");
  Client client(fixture.server->socketPath());

  const Json garbage = client.request("not json at all");
  EXPECT_FALSE(garbage.find("ok")->asBool());
  EXPECT_FALSE(garbage.find("error")->asString().empty());

  const Json unknown = client.request(R"({"verb":"frobnicate"})");
  EXPECT_FALSE(unknown.find("ok")->asBool());

  // The same connection still serves well-formed requests afterwards.
  const Json stats = client.request(R"({"verb":"stats"})");
  EXPECT_TRUE(stats.find("ok")->asBool());
  EXPECT_EQ(stats.find("accepted")->asInt64(), 0);
}

TEST(SocketServer, TruncatedFinalLineStillGetsAStructuredReply) {
  ServerFixture fixture("truncated");
  Client client(fixture.server->socketPath());
  // A half-written frame with no newline, then EOF: the server answers the
  // remainder as a request so the client sees a structured error.
  client.sendRaw(R"({"verb":"stat)");
  client.endOfInput();
  const std::string reply = client.readLine();
  ASSERT_FALSE(reply.empty());
  const Json parsed = Json::parse(reply);
  EXPECT_FALSE(parsed.find("ok")->asBool());
  EXPECT_FALSE(parsed.find("error")->asString().empty());
}

TEST(SocketServer, OversizedFrameIsRejectedAndTheConnectionClosed) {
  ProtocolOptions protocol;
  protocol.maxFrameBytes = 128;
  ServerFixture fixture("oversize", protocol);
  Client client(fixture.server->socketPath());
  // No newline: the buffer outgrows the frame limit and cannot resync.
  client.sendRaw(std::string(1024, 'x'));
  const std::string reply = client.readLine();
  ASSERT_FALSE(reply.empty());
  const Json parsed = Json::parse(reply);
  EXPECT_FALSE(parsed.find("ok")->asBool());
  EXPECT_NE(parsed.find("error")->asString().find("frame too large"),
            std::string::npos);
  EXPECT_EQ(client.readLine(), "");  // server closed the stream

  // The daemon is not wedged: a fresh connection works.
  Client next(fixture.server->socketPath());
  EXPECT_TRUE(next.request(R"({"verb":"stats"})").find("ok")->asBool());
}

TEST(SocketServer, SplitAndBatchedFramesGetTheSameReplies) {
  ServerFixture fixture("framing");
  // A ~300 KiB submit frame: a 24x24 trace over 30 steps.
  const std::string big = submitLine(30, 24) + "\n";
  ASSERT_GT(big.size(), 300u * 1024u);
  const std::string small = std::string(R"({"verb":"stats"})") + "\n";

  Client whole(fixture.server->socketPath());
  const Json reference = whole.request(big.substr(0, big.size() - 1));
  ASSERT_TRUE(reference.find("ok")->asBool()) << reference.dump();

  // The same frame written in 1 KiB pieces.
  Client pieces(fixture.server->socketPath());
  for (std::size_t off = 0; off < big.size(); off += 1024) {
    pieces.sendRaw(big.substr(off, 1024));
  }
  const Json split = Json::parse(pieces.readLine());
  EXPECT_TRUE(split.find("ok")->asBool()) << split.dump();
  EXPECT_TRUE(split.find("cached")->asBool());
  EXPECT_EQ(split.find("total")->asInt64(), reference.find("total")->asInt64());

  // Two frames in one write: the big one, then a stats request.
  Client batched(fixture.server->socketPath());
  batched.sendRaw(big + small);
  const Json first = Json::parse(batched.readLine());
  EXPECT_TRUE(first.find("cached")->asBool()) << first.dump();
  EXPECT_EQ(first.find("total")->asInt64(), reference.find("total")->asInt64());
  const Json second = Json::parse(batched.readLine());
  EXPECT_TRUE(second.find("ok")->asBool()) << second.dump();
  EXPECT_EQ(second.find("accepted")->asInt64(), 3);
}

TEST(SocketServer, RequestStopDrainsAndReturnsZero) {
  ServerFixture fixture("stop");
  Client client(fixture.server->socketPath());
  const Json reply = client.request(submitLine());
  ASSERT_TRUE(reply.find("ok")->asBool());
  fixture.server->requestStop();  // what the SIGTERM handler calls
  EXPECT_EQ(fixture.join(), 0);
  // The socket file is unlinked on the way out.
  EXPECT_NE(::access(fixture.server->socketPath().c_str(), F_OK), 0);
}

TEST(SocketServer, RefusesToStartOnALiveSocket) {
  ServerFixture fixture("claimed");
  SocketServer::Options options;
  options.socketPath = fixture.server->socketPath();
  Engine other{Engine::Config{}};
  SocketServer second(other, options);
  EXPECT_THROW(second.start(), std::runtime_error);
}

TEST(SocketServer, TcpAndUnixEndpointsServeTheSameService) {
  ServerFixture fixture("dual", {}, /*withTcp=*/true);
  ASSERT_GT(fixture.server->tcpPort(), 0);  // ephemeral port was bound
  Client unixClient(fixture.server->socketPath());
  Client tcpClient(fixture.server->tcpPort());

  // Same request over both transports: byte-identical protocol, and one
  // shared service behind them — the TCP submit is answered from the
  // cache the Unix-socket submit warmed.
  const Json viaUnix = unixClient.request(submitLine());
  ASSERT_TRUE(viaUnix.find("ok")->asBool());
  const Json viaTcp = tcpClient.request(submitLine());
  ASSERT_TRUE(viaTcp.find("ok")->asBool());
  EXPECT_EQ(viaTcp.find("digest")->asString(),
            viaUnix.find("digest")->asString());
  EXPECT_EQ(viaTcp.find("total")->asInt64(),
            viaUnix.find("total")->asInt64());
  EXPECT_EQ(viaTcp.find("state")->asString(),
            viaUnix.find("state")->asString());
  EXPECT_TRUE(viaTcp.find("cached")->asBool());

  const Json stats = tcpClient.request(R"({"verb":"stats"})");
  EXPECT_EQ(stats.find("cache_hits")->asInt64(), 1);
  EXPECT_EQ(stats.find("completed")->asInt64(), 2);

  // Malformed input over TCP gets the same structured error as Unix.
  const Json bad = tcpClient.request("not json");
  EXPECT_FALSE(bad.find("ok")->asBool());
  EXPECT_FALSE(bad.find("error")->asString().empty());
}

TEST(SocketServer, TcpOnlyServerNeedsNoSocketFile) {
  Engine service{Engine::Config{}};
  SocketServer::Options options;
  options.socketPath.clear();
  options.tcpPort = 0;
  SocketServer server(service, options);
  server.start();
  ASSERT_GT(server.tcpPort(), 0);
  std::thread runner([&] { server.run(); });
  Client client(server.tcpPort());
  EXPECT_TRUE(client.request(R"({"verb":"stats"})").find("ok")->asBool());
  server.requestStop();
  runner.join();
}

TEST(SocketServer, SequentialConnectionsDoNotGrowTheThreadCount) {
  // Regression for the unjoined thread-per-connection leak: the fixed
  // handler pool means N connections never add a single live thread.
  ServerFixture fixture("threads");
  {
    // Warm up: handler pool spawned, one connection served and closed.
    Client warm(fixture.server->socketPath());
    EXPECT_TRUE(warm.request(R"({"verb":"stats"})").find("ok")->asBool());
  }
  const int before = liveThreadCount();
  ASSERT_GT(before, 0);
  for (int i = 0; i < 20; ++i) {
    Client client(fixture.server->socketPath());
    EXPECT_TRUE(
        client.request(R"({"verb":"stats"})").find("ok")->asBool());
  }
  EXPECT_LE(liveThreadCount(), before);
}

TEST(SocketServer, StartReplacesAStaleSocketFile) {
  const std::string path = uniqueSocketPath("stale");
  {
    // Bind and exit without unlinking, as a crashed daemon would.
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    ::close(fd);
  }
  ASSERT_EQ(::access(path.c_str(), F_OK), 0);
  Engine service{Engine::Config{}};
  SocketServer::Options options;
  options.socketPath = path;
  SocketServer server(service, options);
  EXPECT_NO_THROW(server.start());
  std::thread runner([&] { server.run(); });
  Client client(path);
  EXPECT_TRUE(client.request(R"({"verb":"stats"})").find("ok")->asBool());
  server.requestStop();
  runner.join();
}

}  // namespace
}  // namespace pimsched::serve
