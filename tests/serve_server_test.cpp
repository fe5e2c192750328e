#include "serve/server.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "fleet/fleet_service.hpp"
#include "serve/client.hpp"
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

/// How long a test client waits for its server to start listening.
constexpr std::chrono::seconds kConnectWait{1};

/// A test client of the Unix endpoint at `socketPath`.
Connection clientOf(const std::string& socketPath) {
  return Connection(Endpoint{socketPath, "", 0}, kConnectWait);
}

/// A test client of the TCP endpoint 127.0.0.1:`tcpPort`.
Connection clientOf(int tcpPort) {
  return Connection(Endpoint{"", "127.0.0.1", tcpPort}, kConnectWait);
}

Json request(Connection& client, const std::string& line) {
  return Json::parse(client.roundTrip(line));
}

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
  Connection client = clientOf(fixture.server->socketPath());

  const Json first = request(client, submitLine());
  ASSERT_TRUE(first.find("ok")->asBool()) << submitLine();
  EXPECT_FALSE(first.find("cached")->asBool());
  EXPECT_EQ(first.find("state")->asString(), "done");
  const std::int64_t total = first.find("total")->asInt64();

  // Same connection, same job: answered from the result cache.
  const Json second = request(client, submitLine());
  ASSERT_TRUE(second.find("ok")->asBool());
  EXPECT_TRUE(second.find("cached")->asBool());
  EXPECT_EQ(second.find("total")->asInt64(), total);

  const Json stats = request(client, R"({"verb":"stats"})");
  EXPECT_EQ(stats.find("cache_hits")->asInt64(), 1);

  // The shutdown verb drains the server; run() returns the clean exit 0.
  const Json bye = request(client, R"({"verb":"shutdown"})");
  EXPECT_TRUE(bye.find("ok")->asBool());
  EXPECT_EQ(fixture.join(), 0);
}

TEST(SocketServer, MalformedRequestsGetRepliesAndTheConnectionSurvives) {
  ServerFixture fixture("malformed");
  Connection client = clientOf(fixture.server->socketPath());

  const Json garbage = request(client, "not json at all");
  EXPECT_FALSE(garbage.find("ok")->asBool());
  EXPECT_FALSE(garbage.find("error")->asString().empty());

  const Json unknown = request(client, R"({"verb":"frobnicate"})");
  EXPECT_FALSE(unknown.find("ok")->asBool());

  // The same connection still serves well-formed requests afterwards.
  const Json stats = request(client, R"({"verb":"stats"})");
  EXPECT_TRUE(stats.find("ok")->asBool());
  EXPECT_EQ(stats.find("accepted")->asInt64(), 0);
}

TEST(SocketServer, TruncatedFinalLineStillGetsAStructuredReply) {
  ServerFixture fixture("truncated");
  Connection client = clientOf(fixture.server->socketPath());
  // A half-written frame with no newline, then EOF: the server answers the
  // remainder as a request so the client sees a structured error.
  client.write(R"({"verb":"stat)");
  ::shutdown(client.fd(), SHUT_WR);
  const std::string reply = client.readLine().value_or("");
  ASSERT_FALSE(reply.empty());
  const Json parsed = Json::parse(reply);
  EXPECT_FALSE(parsed.find("ok")->asBool());
  EXPECT_FALSE(parsed.find("error")->asString().empty());
}

TEST(SocketServer, OversizedFrameIsRejectedAndTheConnectionClosed) {
  ProtocolOptions protocol;
  protocol.maxFrameBytes = 128;
  ServerFixture fixture("oversize", protocol);
  Connection client = clientOf(fixture.server->socketPath());
  // No newline: the buffer outgrows the frame limit and cannot resync.
  client.write(std::string(1024, 'x'));
  const std::string reply = client.readLine().value_or("");
  ASSERT_FALSE(reply.empty());
  const Json parsed = Json::parse(reply);
  EXPECT_FALSE(parsed.find("ok")->asBool());
  EXPECT_NE(parsed.find("error")->asString().find("frame too large"),
            std::string::npos);
  EXPECT_EQ(client.readLine(), std::nullopt);  // server closed the stream

  // The daemon is not wedged: a fresh connection works.
  Connection next = clientOf(fixture.server->socketPath());
  EXPECT_TRUE(request(next, R"({"verb":"stats"})").find("ok")->asBool());
}

TEST(SocketServer, SplitAndBatchedFramesGetTheSameReplies) {
  ServerFixture fixture("framing");
  // A ~300 KiB submit frame: a 24x24 trace over 30 steps.
  const std::string big = submitLine(30, 24) + "\n";
  ASSERT_GT(big.size(), 300u * 1024u);
  const std::string small = std::string(R"({"verb":"stats"})") + "\n";

  Connection whole = clientOf(fixture.server->socketPath());
  const Json reference = request(whole, big.substr(0, big.size() - 1));
  ASSERT_TRUE(reference.find("ok")->asBool()) << reference.dump();

  // The same frame written in 1 KiB pieces.
  Connection pieces = clientOf(fixture.server->socketPath());
  for (std::size_t off = 0; off < big.size(); off += 1024) {
    pieces.write(big.substr(off, 1024));
  }
  const Json split = Json::parse(pieces.readLine().value());
  EXPECT_TRUE(split.find("ok")->asBool()) << split.dump();
  EXPECT_TRUE(split.find("cached")->asBool());
  EXPECT_EQ(split.find("total")->asInt64(), reference.find("total")->asInt64());

  // Two frames in one write: the big one, then a stats request.
  Connection batched = clientOf(fixture.server->socketPath());
  batched.write(big + small);
  const Json first = Json::parse(batched.readLine().value());
  EXPECT_TRUE(first.find("cached")->asBool()) << first.dump();
  EXPECT_EQ(first.find("total")->asInt64(), reference.find("total")->asInt64());
  const Json second = Json::parse(batched.readLine().value());
  EXPECT_TRUE(second.find("ok")->asBool()) << second.dump();
  EXPECT_EQ(second.find("accepted")->asInt64(), 3);
}

TEST(SocketServer, RequestStopDrainsAndReturnsZero) {
  ServerFixture fixture("stop");
  Connection client = clientOf(fixture.server->socketPath());
  const Json reply = request(client, submitLine());
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
  Connection unixClient = clientOf(fixture.server->socketPath());
  Connection tcpClient = clientOf(fixture.server->tcpPort());

  // Same request over both transports: byte-identical protocol, and one
  // shared service behind them — the TCP submit is answered from the
  // cache the Unix-socket submit warmed.
  const Json viaUnix = request(unixClient, submitLine());
  ASSERT_TRUE(viaUnix.find("ok")->asBool());
  const Json viaTcp = request(tcpClient, submitLine());
  ASSERT_TRUE(viaTcp.find("ok")->asBool());
  EXPECT_EQ(viaTcp.find("digest")->asString(),
            viaUnix.find("digest")->asString());
  EXPECT_EQ(viaTcp.find("total")->asInt64(),
            viaUnix.find("total")->asInt64());
  EXPECT_EQ(viaTcp.find("state")->asString(),
            viaUnix.find("state")->asString());
  EXPECT_TRUE(viaTcp.find("cached")->asBool());

  const Json stats = request(tcpClient, R"({"verb":"stats"})");
  EXPECT_EQ(stats.find("cache_hits")->asInt64(), 1);
  EXPECT_EQ(stats.find("completed")->asInt64(), 2);

  // Malformed input over TCP gets the same structured error as Unix.
  const Json bad = request(tcpClient, "not json");
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
  Connection client = clientOf(server.tcpPort());
  EXPECT_TRUE(request(client, R"({"verb":"stats"})").find("ok")->asBool());
  server.requestStop();
  runner.join();
}

TEST(SocketServer, SequentialConnectionsDoNotGrowTheThreadCount) {
  // Regression for the unjoined thread-per-connection leak: the fixed
  // handler pool means N connections never add a single live thread.
  ServerFixture fixture("threads");
  {
    // Warm up: handler pool spawned, one connection served and closed.
    Connection warm = clientOf(fixture.server->socketPath());
    EXPECT_TRUE(request(warm, R"({"verb":"stats"})").find("ok")->asBool());
  }
  const int before = liveThreadCount();
  ASSERT_GT(before, 0);
  for (int i = 0; i < 20; ++i) {
    Connection client = clientOf(fixture.server->socketPath());
    EXPECT_TRUE(
        request(client, R"({"verb":"stats"})").find("ok")->asBool());
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
  Connection client = clientOf(path);
  EXPECT_TRUE(request(client, R"({"verb":"stats"})").find("ok")->asBool());
  server.requestStop();
  runner.join();
}

// -------------------------------------------------------- the client --

TEST(SocketClient, TcpFlagNeedsHostAndAPortIn1To65535) {
  for (const char* bad : {":7077", "127.0.0.1:", "127.0.0.1", "127.0.0.1:0",
                          "127.0.0.1:65536", "127.0.0.1:abc", "h:7077x",
                          "h:-1"}) {
    Endpoint endpoint;
    EXPECT_THROW(parseEndpointFlag("--tcp", bad, &endpoint),
                 std::invalid_argument)
        << bad;
  }
  Endpoint endpoint;
  ASSERT_TRUE(parseEndpointFlag("--tcp", "127.0.0.1:7077", &endpoint));
  EXPECT_EQ(endpoint.tcpHost, "127.0.0.1");
  EXPECT_EQ(endpoint.tcpPort, 7077);
  EXPECT_TRUE(endpoint.socketPath.empty());
  EXPECT_EQ(endpoint.name(), "127.0.0.1:7077");

  ASSERT_TRUE(parseEndpointFlag("--socket", "/tmp/d.sock", &endpoint));
  EXPECT_EQ(endpoint.name(), "/tmp/d.sock");
  EXPECT_TRUE(endpoint.tcpHost.empty());
  EXPECT_THROW(parseEndpointFlag("--socket", "", &endpoint),
               std::invalid_argument);
  EXPECT_FALSE(parseEndpointFlag("--clients", "4", &endpoint));
}

TEST(SocketClient, ConnectWaitsForASocketBoundLater) {
  const std::string path = uniqueSocketPath("late");
  Engine service{Engine::Config{}};
  SocketServer::Options options;
  options.socketPath = path;
  SocketServer server(service, options);
  std::thread runner([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    server.start();
    server.run();
  });
  try {
    Connection client = clientOf(path);
    EXPECT_TRUE(request(client, R"({"verb":"stats"})").find("ok")->asBool());
  } catch (const std::exception& e) {
    ADD_FAILURE() << e.what();
  }
  server.requestStop();
  runner.join();
}

TEST(SocketClient, ConnectToAnUnboundPathFailsAtTheDeadline) {
  const std::string path = uniqueSocketPath("unbound");
  const Endpoint endpoint{path, "", 0};
  for (const auto wait : {std::chrono::milliseconds(300),
                          std::chrono::milliseconds(0)}) {
    const auto begin = std::chrono::steady_clock::now();
    try {
      Connection client(endpoint, wait);
      ADD_FAILURE() << "connected to an unbound path";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("cannot connect to " + path),
                std::string::npos)
          << e.what();
    }
    const auto elapsed = std::chrono::steady_clock::now() - begin;
    if (wait.count() > 0) {
      EXPECT_GE(elapsed, wait);
    } else {
      EXPECT_LT(elapsed, std::chrono::milliseconds(100));  // one attempt
    }
  }
}

}  // namespace
}  // namespace pimsched::serve
