#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "fleet/fleet_service.hpp"
#include "serve/json.hpp"
#include "trace/trace_io.hpp"

namespace pimsched::serve {
namespace {

/// The daemon's default engine: one healthy any-shape array.
using Engine = fleet::FleetService;

// ---------------------------------------------------------------- Json --

TEST(Json, ParsesScalarsExactly) {
  EXPECT_TRUE(Json::parse("null").isNull());
  EXPECT_EQ(Json::parse("true").asBool(), true);
  EXPECT_EQ(Json::parse("false").asBool(), false);
  EXPECT_EQ(Json::parse("42").asInt64(), 42);
  EXPECT_EQ(Json::parse("-7").asInt64(), -7);
  // Large ids stay exact instead of being squeezed through a double.
  EXPECT_EQ(Json::parse("9007199254740993").asInt64(), 9007199254740993LL);
  EXPECT_DOUBLE_EQ(Json::parse("2.5").asDouble(), 2.5);
  EXPECT_DOUBLE_EQ(Json::parse("1e3").asDouble(), 1000.0);
  EXPECT_EQ(Json::parse("\"hi\"").asString(), "hi");
}

TEST(Json, ParsesEscapesIncludingSurrogatePairs) {
  EXPECT_EQ(Json::parse(R"("a\nb\t\"\\")").asString(), "a\nb\t\"\\");
  EXPECT_EQ(Json::parse(R"("A")").asString(), "A");
  EXPECT_EQ(Json::parse(R"("é")").asString(), "\xc3\xa9");
  // U+1F600 as a surrogate pair -> 4-byte UTF-8.
  EXPECT_EQ(Json::parse(R"("😀")").asString(),
            "\xf0\x9f\x98\x80");
  EXPECT_THROW((void)Json::parse(R"("\ud83d")"), JsonError);  // lone high
}

TEST(Json, ParsesNestedStructures) {
  const Json v = Json::parse(R"({"a": [1, {"b": true}], "c": "x"})");
  ASSERT_TRUE(v.isObject());
  const Json* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->isArray());
  EXPECT_EQ(a->asArray().at(0).asInt64(), 1);
  EXPECT_EQ(a->asArray().at(1).find("b")->asBool(), true);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW((void)Json::parse(""), JsonError);
  EXPECT_THROW((void)Json::parse("{"), JsonError);
  EXPECT_THROW((void)Json::parse("{\"a\":}"), JsonError);
  EXPECT_THROW((void)Json::parse("[1,]"), JsonError);
  EXPECT_THROW((void)Json::parse("nul"), JsonError);
  EXPECT_THROW((void)Json::parse("\"unterminated"), JsonError);
  EXPECT_THROW((void)Json::parse("{} trailing"), JsonError);
  EXPECT_THROW((void)Json::parse("\xff\xfe"), JsonError);
}

TEST(Json, DepthLimitStopsHostileNesting) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  for (int i = 0; i < 100; ++i) deep += ']';
  EXPECT_THROW((void)Json::parse(deep, /*maxDepth=*/64), JsonError);
  EXPECT_NO_THROW((void)Json::parse(deep, /*maxDepth=*/128));
}

TEST(Json, AccessorsRejectKindMismatches) {
  const Json v = Json::parse("\"text\"");
  EXPECT_THROW((void)v.asInt64(), JsonError);
  EXPECT_THROW((void)v.asBool(), JsonError);
  EXPECT_THROW((void)v.asObject(), JsonError);
  // A fractional double has no exact integer value.
  EXPECT_THROW((void)Json::parse("2.5").asInt64(), JsonError);
  EXPECT_EQ(Json::parse("2").asDouble(), 2.0);  // int widens fine
}

TEST(Json, DumpIsOneLineAndRoundTrips) {
  Json v;
  v.set("b", 1).set("a", "two\nlines").set("c", Json::Array{Json(true)});
  const std::string text = v.dump();
  EXPECT_EQ(text.find('\n'), std::string::npos);  // NDJSON-safe
  EXPECT_EQ(text, Json::parse(text).dump());      // stable round trip
  // Ordered map => deterministic member order.
  EXPECT_LT(text.find("\"a\""), text.find("\"b\""));
}

// ------------------------------------------------------------ protocol --

std::string sampleTraceText() {
  ReferenceTrace trace(DataSpace::singleSquare(3));
  for (int s = 0; s < 4; ++s) {
    for (int d = 0; d < 9; ++d) trace.add(s, (d + s) % 9, d);
  }
  trace.finalize();
  std::ostringstream os;
  saveTrace(trace, os);
  return std::move(os).str();
}

Json submitRequest() {
  Json request;
  request.set("verb", "submit")
      .set("trace", sampleTraceText())
      .set("grid", "3x3")
      .set("method", "gomcds")
      .set("windows", 2)
      .set("wait", true);
  return request;
}

/// Sends one request line and parses the reply, asserting it is an object.
Json call(ProtocolHandler& handler, const std::string& line,
          bool* shutdown = nullptr) {
  const std::string reply = handler.handleLine(line, shutdown);
  const Json parsed = Json::parse(reply);
  EXPECT_TRUE(parsed.isObject()) << reply;
  return parsed;
}

/// Asserts the reply is {ok:false, error:...} and returns the error text.
std::string expectError(ProtocolHandler& handler, const std::string& line) {
  const Json reply = call(handler, line);
  const Json* ok = reply.find("ok");
  EXPECT_TRUE(ok != nullptr && ok->isBool() && !ok->asBool())
      << reply.dump();
  const Json* error = reply.find("error");
  EXPECT_TRUE(error != nullptr && error->isString());
  EXPECT_FALSE(error->asString().empty());
  return error->asString();
}

TEST(Protocol, SubmitStatusResultCancelStatsWork) {
  Engine service{Engine::Config{}};
  ProtocolHandler handler(service);

  const Json reply = call(handler, submitRequest().dump());
  EXPECT_TRUE(reply.find("ok")->asBool());
  EXPECT_FALSE(reply.find("cached")->asBool());
  EXPECT_EQ(reply.find("state")->asString(), "done");  // wait:true
  EXPECT_GT(reply.find("total")->asInt64(), 0);
  EXPECT_EQ(reply.find("digest")->asString().size(), 32u);
  const std::int64_t id = reply.find("id")->asInt64();

  Json statusRequest;
  statusRequest.set("verb", "status").set("id", id);
  const Json status = call(handler, statusRequest.dump());
  EXPECT_TRUE(status.find("ok")->asBool());
  EXPECT_EQ(status.find("state")->asString(), "done");

  Json resultRequest;
  resultRequest.set("verb", "result").set("id", id).set("schedule", true);
  const Json result = call(handler, resultRequest.dump());
  EXPECT_TRUE(result.find("ok")->asBool());
  EXPECT_EQ(result.find("total")->asInt64(), reply.find("total")->asInt64());
  ASSERT_NE(result.find("schedule"), nullptr);
  EXPECT_NE(result.find("schedule")->asString().find("pimsched v1"),
            std::string::npos);

  // A finished job can no longer be cancelled, but the verb still replies.
  Json cancelRequest;
  cancelRequest.set("verb", "cancel").set("id", id);
  const Json cancel = call(handler, cancelRequest.dump());
  EXPECT_TRUE(cancel.find("ok")->asBool());
  EXPECT_FALSE(cancel.find("cancelled")->asBool());

  const Json stats = call(handler, R"({"verb":"stats"})");
  EXPECT_TRUE(stats.find("ok")->asBool());
  EXPECT_EQ(stats.find("accepted")->asInt64(), 1);
  EXPECT_EQ(stats.find("completed")->asInt64(), 1);
}

TEST(Protocol, ResubmitReportsTheCacheHit) {
  Engine service{Engine::Config{}};
  ProtocolHandler handler(service);
  (void)call(handler, submitRequest().dump());
  const Json second = call(handler, submitRequest().dump());
  EXPECT_TRUE(second.find("ok")->asBool());
  EXPECT_TRUE(second.find("cached")->asBool());
  EXPECT_TRUE(second.find("cache_hit")->asBool());
  const Json stats = call(handler, R"({"verb":"stats"})");
  EXPECT_EQ(stats.find("cache_hits")->asInt64(), 1);
}

TEST(Protocol, MalformedJsonGetsAStructuredErrorReply) {
  Engine service{Engine::Config{}};
  ProtocolHandler handler(service);
  EXPECT_NE(expectError(handler, "this is not json").find("parse error"),
            std::string::npos);
  (void)expectError(handler, "{\"verb\": \"stats\"");   // truncated frame
  (void)expectError(handler, "");                        // empty line
  (void)expectError(handler, std::string("\xff\xfe bad bytes"));
  // The handler survives garbage: the next well-formed request succeeds.
  EXPECT_TRUE(call(handler, R"({"verb":"stats"})").find("ok")->asBool());
}

TEST(Protocol, NonObjectRequestsAreRejected) {
  Engine service{Engine::Config{}};
  ProtocolHandler handler(service);
  EXPECT_NE(expectError(handler, "42").find("object"), std::string::npos);
  (void)expectError(handler, "[1,2]");
  (void)expectError(handler, "\"stats\"");
}

TEST(Protocol, OversizedFramesAreRejectedWithTheLimit) {
  Engine service{Engine::Config{}};
  ProtocolOptions options;
  options.maxFrameBytes = 64;
  ProtocolHandler handler(service, options);
  const std::string big(65, 'x');
  const std::string error = expectError(handler, big);
  EXPECT_NE(error.find("frame too large"), std::string::npos) << error;
  EXPECT_NE(error.find("64"), std::string::npos) << error;
  // At exactly the limit the frame is parsed (and fails as JSON, not size).
  const std::string atLimit(64, 'x');
  EXPECT_EQ(expectError(handler, atLimit).find("frame too large"),
            std::string::npos);
}

TEST(Protocol, UnknownVerbsAndMissingFieldsAreRejected) {
  Engine service{Engine::Config{}};
  ProtocolHandler handler(service);
  EXPECT_NE(expectError(handler, R"({"verb":"frobnicate"})")
                .find("unknown verb"),
            std::string::npos);
  (void)expectError(handler, R"({})");                      // no verb
  (void)expectError(handler, R"({"verb":"status"})");       // no id
  (void)expectError(handler, R"({"verb":"status","id":"x"})");
  (void)expectError(handler, R"({"verb":"status","id":999})");  // unknown
  (void)expectError(handler, R"({"verb":"result","id":999})");
  (void)expectError(handler, R"({"verb":"cancel","id":999})");
}

TEST(Protocol, SubmitValidationNamesTheBadField) {
  Engine service{Engine::Config{}};
  ProtocolHandler handler(service);
  const std::string trace = sampleTraceText();

  // Exactly one trace source.
  (void)expectError(handler, R"({"verb":"submit"})");
  Json both = submitRequest();
  both.set("trace_file", "/tmp/x.pimtrace");
  (void)expectError(handler, both.dump());

  Json badGrid = submitRequest();
  badGrid.set("grid", "4y4");
  EXPECT_NE(expectError(handler, badGrid.dump()).find("grid"),
            std::string::npos);
  Json numericGrid = submitRequest();
  numericGrid.set("grid", 4);
  EXPECT_NE(expectError(handler, numericGrid.dump()).find("grid"),
            std::string::npos);
  Json zeroGrid = submitRequest();
  zeroGrid.set("grid", "0x4");
  (void)expectError(handler, zeroGrid.dump());

  Json badMethod = submitRequest();
  badMethod.set("method", "quantum");
  EXPECT_NE(expectError(handler, badMethod.dump()).find("unknown method"),
            std::string::npos);

  Json badWindows = submitRequest();
  badWindows.set("windows", 0);
  EXPECT_NE(expectError(handler, badWindows.dump()).find("windows"),
            std::string::npos);

  Json badCapacity = submitRequest();
  badCapacity.set("capacity", "infinite");
  EXPECT_NE(expectError(handler, badCapacity.dump()).find("capacity"),
            std::string::npos);
  Json negativeCapacity = submitRequest();
  negativeCapacity.set("capacity", -3);
  (void)expectError(handler, negativeCapacity.dump());

  Json badTrace = submitRequest();
  badTrace.set("trace", "bogus v9");
  EXPECT_NE(expectError(handler, badTrace.dump()).find("cannot load trace"),
            std::string::npos);

  Json badThreads = submitRequest();
  badThreads.set("threads", -1);
  (void)expectError(handler, badThreads.dump());

  // None of the rejects reached the service.
  EXPECT_EQ(service.stats().accepted, 0);
  (void)trace;
}

TEST(Protocol, OverflowingTraceIdsGetTheTraceLoadError) {
  Engine service{Engine::Config{}};
  ProtocolHandler handler(service);
  // A step whose step count overflows, and an array whose element ids do.
  for (const char* text :
       {"pimtrace v1\narray A 2 2\naccess 2147483647 0 0 1\n",
        "pimtrace v1\narray A 65536 65536\n"}) {
    Json request = submitRequest();
    request.set("trace", text);
    const std::string error = expectError(handler, request.dump());
    EXPECT_NE(error.find("cannot load trace"), std::string::npos) << error;
  }
  EXPECT_EQ(service.stats().accepted, 0);
  // The handler still serves well-formed work afterwards.
  EXPECT_TRUE(call(handler, submitRequest().dump()).find("ok")->asBool());
}

TEST(Protocol, WindowsBeyondIntRangeIsAProtocolError) {
  Engine service{Engine::Config{}};
  ProtocolHandler handler(service);
  // 2^32 + 1 and 2^32 used to narrow to 1 and 0 windows; every integer
  // field that does not fit its C++ type is rejected by name instead.
  const struct {
    const char* field;
    std::int64_t value;
  } cases[] = {{"windows", 4294967297LL},   {"windows", 4294967296LL},
               {"windows", 2147483648LL},   {"threads", 4294967296LL},
               {"priority", 2147483648LL},  {"priority", -2147483649LL}};
  for (const auto& c : cases) {
    Json request = submitRequest();
    request.set(c.field, c.value);
    const Json reply = call(handler, request.dump());
    EXPECT_FALSE(reply.find("ok")->asBool()) << reply.dump();
    EXPECT_EQ(reply.find("error_kind")->asString(), "invalid");
    EXPECT_NE(reply.find("error")->asString().find(
                  std::string("field '") + c.field + "' must be"),
              std::string::npos)
        << reply.dump();
  }
  EXPECT_EQ(service.stats().accepted, 0);
}

TEST(Protocol, OversizedTracesAreAProtocolErrorNotAnAllocation) {
  Engine service{Engine::Config{}};
  ProtocolHandler handler(service);
  // 46340^2 data ids fit 32 bits, so this three-line trace loads; one
  // window over it would still be ~2.1e9 (datum, window) cells.
  const char* text = "pimtrace v1\narray A 46340 46340\naccess 0 0 0 1\n";
  for (const char* verb : {"submit", "submit-stream"}) {
    Json request = submitRequest();
    request.set("verb", verb).set("session", "s").set("trace", text);
    const Json reply = call(handler, request.dump());
    EXPECT_FALSE(reply.find("ok")->asBool()) << reply.dump();
    EXPECT_EQ(reply.find("error_kind")->asString(), "invalid");
    EXPECT_NE(reply.find("error")->asString().find("trace too large"),
              std::string::npos)
        << reply.dump();
  }
  EXPECT_EQ(service.stats().accepted, 0);
  // The handler still serves well-formed work afterwards.
  EXPECT_TRUE(call(handler, submitRequest().dump()).find("ok")->asBool());
}

TEST(Protocol, TenantFieldIsValidatedAndFoldedIntoTheDigest) {
  Engine service{Engine::Config{}};
  ProtocolHandler handler(service);

  Json plain = submitRequest();
  const Json anonymous = call(handler, plain.dump());
  EXPECT_TRUE(anonymous.find("ok")->asBool());

  Json tenantA = submitRequest();
  tenantA.set("tenant", "team-a.prod_1");
  const Json a = call(handler, tenantA.dump());
  EXPECT_TRUE(a.find("ok")->asBool());
  // Same work, different tenant: the digest differs, so neither the
  // anonymous nor the other tenant's cache entry is served.
  EXPECT_FALSE(a.find("cached")->asBool());
  EXPECT_NE(a.find("digest")->asString(),
            anonymous.find("digest")->asString());

  Json tenantARepeat = submitRequest();
  tenantARepeat.set("tenant", "team-a.prod_1");
  const Json repeat = call(handler, tenantARepeat.dump());
  EXPECT_TRUE(repeat.find("cached")->asBool());
  EXPECT_EQ(repeat.find("digest")->asString(), a.find("digest")->asString());

  Json badChars = submitRequest();
  badChars.set("tenant", "team a");
  EXPECT_NE(expectError(handler, badChars.dump()).find("tenant"),
            std::string::npos);
  Json tooLong = submitRequest();
  tooLong.set("tenant", std::string(65, 'x'));
  EXPECT_NE(expectError(handler, tooLong.dump()).find("tenant"),
            std::string::npos);
  Json numericTenant = submitRequest();
  numericTenant.set("tenant", 7);
  EXPECT_NE(expectError(handler, numericTenant.dump()).find("tenant"),
            std::string::npos);
}

TEST(Protocol, BatchFlagIsAcceptedAndDoesNotChangeTheDigest) {
  Engine service{Engine::Config{}};
  ProtocolHandler handler(service);

  Json plain = submitRequest();
  const Json first = call(handler, plain.dump());
  EXPECT_TRUE(first.find("ok")->asBool());

  // Batch marks a dispatch class, not different work: the cached answer
  // still matches.
  Json batched = submitRequest();
  batched.set("batch", true);
  const Json second = call(handler, batched.dump());
  EXPECT_TRUE(second.find("ok")->asBool());
  EXPECT_TRUE(second.find("cached")->asBool());
  EXPECT_EQ(second.find("digest")->asString(),
            first.find("digest")->asString());

  Json badBatch = submitRequest();
  badBatch.set("batch", "yes");
  EXPECT_NE(expectError(handler, badBatch.dump()).find("batch"),
            std::string::npos);
}

TEST(Protocol, OversizedGridsAreAProtocolErrorNotAnAllocation) {
  Engine service{Engine::Config{}};
  ProtocolHandler handler(service);

  Json hugeProduct = submitRequest();
  hugeProduct.set("grid", "100000x100000");
  EXPECT_NE(expectError(handler, hugeProduct.dump()).find("grid"),
            std::string::npos);
  Json hugeSide = submitRequest();
  hugeSide.set("grid", "5000x1");  // side above 4096
  EXPECT_NE(expectError(handler, hugeSide.dump()).find("too large"),
            std::string::npos);
  Json tooManyProcs = submitRequest();
  tooManyProcs.set("grid", "2048x1024");  // 2^21 > the 2^20 processor bound
  EXPECT_NE(expectError(handler, tooManyProcs.dump()).find("too large"),
            std::string::npos);
  // Nothing reached the service.
  EXPECT_EQ(service.stats().accepted, 0);
}

TEST(Protocol, FaultSpecsAreValidatedAtSubmitTime) {
  Engine service{Engine::Config{}};
  ProtocolHandler handler(service);

  // A valid fault list is accepted and the faulted job completes.
  Json faulted = submitRequest();
  faulted.set("faults", Json(Json::Array{Json("proc:0"), Json("link:1-2")}));
  const Json reply = call(handler, faulted.dump());
  EXPECT_TRUE(reply.find("ok")->asBool()) << reply.dump();
  EXPECT_EQ(reply.find("state")->asString(), "done");

  // Bad specs are submit-time errors naming the offending spec.
  Json badSpec = submitRequest();
  badSpec.set("faults", Json(Json::Array{Json("proc:99")}));
  EXPECT_NE(expectError(handler, badSpec.dump()).find("proc:99"),
            std::string::npos);
  Json badVerb = submitRequest();
  badVerb.set("faults", Json(Json::Array{Json("banana:1")}));
  EXPECT_NE(expectError(handler, badVerb.dump()).find("banana"),
            std::string::npos);
  Json notArray = submitRequest();
  notArray.set("faults", "proc:0");
  EXPECT_NE(expectError(handler, notArray.dump()).find("faults"),
            std::string::npos);
  Json notStrings = submitRequest();
  notStrings.set("faults", Json(Json::Array{Json(7)}));
  (void)expectError(handler, notStrings.dump());

  // Only the clean submission reached the service.
  EXPECT_EQ(service.stats().accepted, 1);
}

TEST(Protocol, UnreachableJobsReportTheErrorKind) {
  Engine service{Engine::Config{}};
  ProtocolHandler handler(service);
  // killing the middle row of the 3x3 grid partitions the sample trace's
  // references, so the job fails as unreachable rather than crashing.
  Json doomed = submitRequest();
  doomed.set("faults", Json(Json::Array{Json("row:1")}));
  const Json reply = call(handler, doomed.dump());
  EXPECT_TRUE(reply.find("ok")->asBool()) << reply.dump();
  EXPECT_EQ(reply.find("state")->asString(), "failed");
  ASSERT_NE(reply.find("error_kind"), nullptr);
  EXPECT_EQ(reply.find("error_kind")->asString(), "unreachable");
  ASSERT_NE(reply.find("error_detail"), nullptr);

  const std::int64_t id = reply.find("id")->asInt64();
  Json statusRequest;
  statusRequest.set("verb", "status").set("id", id);
  const Json status = call(handler, statusRequest.dump());
  EXPECT_EQ(status.find("state")->asString(), "failed");
  EXPECT_EQ(status.find("error_kind")->asString(), "unreachable");
  EXPECT_EQ(status.find("attempts")->asInt64(), 1);
}

TEST(Protocol, BadFaultSpecsPointAtTheOffendingToken) {
  Engine service{Engine::Config{}};
  ProtocolHandler handler(service);
  // The parse error names the bad token and its character offset, so a
  // client staring at a long spec learns which operand is wrong.
  Json bad = submitRequest();
  bad.set("faults", Json(Json::Array{Json("region:0,0,x,3")}));
  const std::string error = expectError(handler, bad.dump());
  EXPECT_NE(error.find("\"x\""), std::string::npos) << error;
  EXPECT_NE(error.find("offset 11"), std::string::npos) << error;
  // Unknown verbs point at offset 0, where the verb sits.
  Json badVerb = submitRequest();
  badVerb.set("faults", Json(Json::Array{Json("banana:1")}));
  const std::string verbError = expectError(handler, badVerb.dump());
  EXPECT_NE(verbError.find("unknown fault verb"), std::string::npos);
  EXPECT_NE(verbError.find("offset 0"), std::string::npos) << verbError;
}

TEST(Protocol, FaultDriftVerbsValidateTheirFields) {
  Engine service{Engine::Config{}};
  ProtocolHandler handler(service);

  Json noArray;
  noArray.set("verb", "fault-inject");
  EXPECT_NE(expectError(handler, noArray.dump()).find("array"),
            std::string::npos);

  Json noFaults;
  noFaults.set("verb", "fault-inject").set("array", "a0");
  EXPECT_NE(expectError(handler, noFaults.dump()).find("faults"),
            std::string::npos);

  Json notStrings;
  notStrings.set("verb", "fault-inject")
      .set("array", "a0")
      .set("faults", Json(Json::Array{Json(7)}));
  EXPECT_NE(expectError(handler, notStrings.dump()).find("spec strings"),
            std::string::npos);

  // The any-shape array reports drift as unsupported — structured, not a
  // crash, and retrying verbatim cannot succeed.
  Json inject;
  inject.set("verb", "fault-inject")
      .set("array", "a0")
      .set("faults", Json(Json::Array{Json("proc:0")}));
  Json reply = call(handler, inject.dump());
  EXPECT_FALSE(reply.find("ok")->asBool());
  EXPECT_EQ(reply.find("error_kind")->asString(), "invalid");
  EXPECT_NE(reply.find("error")->asString().find("fleet"),
            std::string::npos);
  Json healRequest;
  healRequest.set("verb", "heal").set("array", "a0");
  reply = call(handler, healRequest.dump());
  EXPECT_FALSE(reply.find("ok")->asBool());
  EXPECT_EQ(reply.find("error_kind")->asString(), "invalid");
}

TEST(Protocol, FaultDriftVerbsCanBeDisabled) {
  Engine service{Engine::Config{}};
  ProtocolOptions options;
  options.allowFaultInject = false;
  ProtocolHandler handler(service, options);
  Json inject;
  inject.set("verb", "fault-inject")
      .set("array", "a0")
      .set("faults", Json(Json::Array{Json("proc:0")}));
  EXPECT_NE(expectError(handler, inject.dump()).find("disabled"),
            std::string::npos);
  Json healRequest;
  healRequest.set("verb", "heal").set("array", "a0");
  EXPECT_NE(expectError(handler, healRequest.dump()).find("disabled"),
            std::string::npos);
}

TEST(Protocol, TraceFileSubmissionsCanBeDisabled) {
  Engine service{Engine::Config{}};
  ProtocolOptions options;
  options.allowTraceFiles = false;
  ProtocolHandler handler(service, options);
  Json request;
  request.set("verb", "submit").set("trace_file", "examples/fig1.pimtrace");
  EXPECT_NE(expectError(handler, request.dump()).find("disabled"),
            std::string::npos);
}

TEST(Protocol, ShutdownSetsTheFlagOnlyWhenAllowed) {
  Engine service{Engine::Config{}};
  ProtocolHandler handler(service);
  bool shutdown = false;
  const Json reply = call(handler, R"({"verb":"shutdown"})", &shutdown);
  EXPECT_TRUE(reply.find("ok")->asBool());
  EXPECT_TRUE(reply.find("draining")->asBool());
  EXPECT_TRUE(shutdown);

  // The flag is reset per call.
  (void)call(handler, R"({"verb":"stats"})", &shutdown);
  EXPECT_FALSE(shutdown);

  ProtocolOptions locked;
  locked.allowShutdown = false;
  ProtocolHandler lockedHandler(service, locked);
  shutdown = false;
  const std::string error =
      lockedHandler.handleLine(R"({"verb":"shutdown"})", &shutdown);
  EXPECT_FALSE(shutdown);
  EXPECT_NE(error.find("disabled"), std::string::npos) << error;
}

}  // namespace
}  // namespace pimsched::serve
