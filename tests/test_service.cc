/**
 * @file
 * Batch evaluation service tests: the JSON value model, the shared
 * flag parser, the study registry, the fault-keyed runner pool, the
 * wire protocol, and an in-process EvalServer exercised end to end
 * (byte-identity with the direct path, warm-request memoization,
 * coalescing, admission control, graceful drain, jobs-invariance).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <pthread.h>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/experiment.hh"
#include "core/study_registry.hh"
#include "service/client.hh"
#include "service/server.hh"
#include "store/result_store.hh"
#include "util/args.hh"
#include "util/json.hh"
#include "util/metrics.hh"
#include "util/trace_events.hh"
#include "workload/suite.hh"

using namespace nvmcache;

namespace {

/** Small-but-real compare request; scale keeps runs sub-second. */
StudyRequest
compareRequest(const std::string &scale,
               const std::string &workload = "lbm")
{
    StudyRequest req;
    req.kind = "compare";
    req.params["workload"] = workload;
    req.params["scale"] = scale;
    return req;
}

} // namespace

// --- JsonValue ------------------------------------------------------

TEST(Json, DumpIsCompactSortedAndDeterministic)
{
    JsonValue v = JsonValue::makeObject();
    v.set("zeta", JsonValue::makeNumber(1.5));
    v.set("alpha", JsonValue::makeString("x"));
    JsonValue arr = JsonValue::makeArray();
    arr.push(JsonValue::makeBool(true));
    arr.push(JsonValue::makeNull());
    v.set("list", std::move(arr));
    EXPECT_EQ(v.dump(),
              "{\"alpha\":\"x\",\"list\":[true,null],\"zeta\":1.5}");
    // Insertion order must not matter.
    JsonValue w = JsonValue::makeObject();
    JsonValue arr2 = JsonValue::makeArray();
    arr2.push(JsonValue::makeBool(true));
    arr2.push(JsonValue::makeNull());
    w.set("list", std::move(arr2));
    w.set("alpha", JsonValue::makeString("x"));
    w.set("zeta", JsonValue::makeNumber(1.5));
    EXPECT_EQ(v.dump(), w.dump());
}

TEST(Json, NumbersUseShortestRoundTrip)
{
    EXPECT_EQ(JsonValue::makeNumber(0.25).dump(), "0.25");
    EXPECT_EQ(JsonValue::makeNumber(3).dump(), "3");
    EXPECT_EQ(JsonValue::makeNumber(1e21).dump(), "1e+21");
    // Non-finite numbers are not representable in JSON.
    EXPECT_EQ(JsonValue::makeNumber(0.0 / 0.0).dump(), "null");
}

TEST(Json, ParseRoundTripsDump)
{
    const std::string text =
        "{\"a\":[1,2.5,\"s\"],\"b\":{\"c\":false,\"d\":null},"
        "\"e\":\"q\\\"uo\\nte\"}";
    const JsonValue v = JsonValue::parse(text);
    EXPECT_EQ(v.dump(), text);
    EXPECT_EQ(JsonValue::parse(v.dump()), v);
}

TEST(Json, ParseHandlesUnicodeEscapes)
{
    const JsonValue v = JsonValue::parse("\"\\u00e9\\u20ac\"");
    EXPECT_EQ(v.asString(), "\xc3\xa9\xe2\x82\xac"); // é €
}

TEST(Json, ParseErrorsCarryByteOffset)
{
    try {
        JsonValue::parse("{\"a\":}");
        FAIL() << "expected parse error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("byte"),
                  std::string::npos);
    }
    EXPECT_THROW(JsonValue::parse("{\"a\":1} trailing"),
                 std::runtime_error);
    EXPECT_THROW(JsonValue::parse(""), std::runtime_error);
}

TEST(Json, DumpNeverContainsNewline)
{
    JsonValue v = JsonValue::makeObject();
    v.set("s", JsonValue::makeString("line1\nline2\r\ttab"));
    EXPECT_EQ(v.dump().find('\n'), std::string::npos);
    EXPECT_EQ(JsonValue::parse(v.dump()).at("s").asString(),
              "line1\nline2\r\ttab");
}

// --- ArgParser ------------------------------------------------------

TEST(Args, TypedFlagsAndPositionals)
{
    ArgParser p({"lbm", "--jobs", "4", "--fixed-area", "Oh",
                 "--scale", "0.5"});
    EXPECT_TRUE(p.flag("--fixed-area"));
    EXPECT_FALSE(p.flag("--fixed-area")); // consumed
    EXPECT_EQ(p.u32("--jobs", 0), 4u);
    EXPECT_DOUBLE_EQ(p.num("--scale", 1.0), 0.5);
    EXPECT_EQ(p.u32("--threads", 7), 7u); // absent -> fallback
    const auto pos = p.positionals();
    ASSERT_EQ(pos.size(), 2u);
    EXPECT_EQ(pos[0], "lbm");
    EXPECT_EQ(pos[1], "Oh");
    EXPECT_NO_THROW(p.rejectUnknown("test"));
}

TEST(Args, ListsAndStrings)
{
    ArgParser p({"--ber-scale", "1,8,64", "--techs", "Jan,Xue",
                 "--stats-out", "out.json"});
    const auto nums = p.numList("--ber-scale", {});
    ASSERT_EQ(nums.size(), 3u);
    EXPECT_DOUBLE_EQ(nums[1], 8.0);
    const auto strs = p.strList("--techs", {});
    ASSERT_EQ(strs.size(), 2u);
    EXPECT_EQ(strs[0], "Jan");
    EXPECT_EQ(p.str("--stats-out", ""), "out.json");
}

TEST(Args, DiagnosticsNameFlagAndToken)
{
    ArgParser bad({"--jobs", "many"});
    try {
        bad.u32("--jobs", 0);
        FAIL() << "expected parse error";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("--jobs"), std::string::npos);
        EXPECT_NE(msg.find("many"), std::string::npos);
    }
    ArgParser dangling({"--scale"});
    EXPECT_THROW(dangling.num("--scale", 1.0), std::runtime_error);
    ArgParser unknown({"--no-such-flag"});
    try {
        unknown.rejectUnknown("simulate");
        FAIL() << "expected rejection";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("--no-such-flag"), std::string::npos);
        EXPECT_NE(msg.find("simulate"), std::string::npos);
    }
}

// --- study registry -------------------------------------------------

TEST(Registry, GlobalCarriesTheSixStudies)
{
    const StudyRegistry &r = StudyRegistry::global();
    for (const char *name : {"figure", "core-sweep", "correlation",
                             "reliability", "server-suite",
                             "compare"}) {
        EXPECT_TRUE(r.contains(name)) << name;
        EXPECT_NE(r.helpText().find(name), std::string::npos);
    }
    EXPECT_EQ(r.names().size(), 6u);
}

TEST(Registry, UnknownStudyListsValidNames)
{
    try {
        StudyRegistry::global().create("nope");
        FAIL() << "expected error";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("nope"), std::string::npos);
        EXPECT_NE(msg.find("compare"), std::string::npos);
    }
}

TEST(Registry, UnknownParameterListsValidKeys)
{
    auto study = StudyRegistry::global().create("compare");
    try {
        study->parse({{"wrkload", "lbm"}});
        FAIL() << "expected error";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("wrkload"), std::string::npos);
        EXPECT_NE(msg.find("workload"), std::string::npos);
        EXPECT_NE(msg.find("compare"), std::string::npos);
    }

    // Full dispatch applies the same check: a "shards" execution
    // knob, which no study accepts, is refused rather than dropped.
    StudyRequest req = compareRequest("0.01");
    req.params["shards"] = "2";
    try {
        runStudyRequest(req);
        FAIL() << "expected error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("shards"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Registry, BadParameterValueNamesKey)
{
    auto study = StudyRegistry::global().create("figure");
    EXPECT_THROW(study->parse({{"mode", "sideways"}}),
                 std::runtime_error);
}

TEST(Registry, RequestJsonRoundTrip)
{
    const StudyRequest req = compareRequest("0.25");
    const StudyRequest back = StudyRequest::fromJson(req.toJson());
    EXPECT_EQ(back.kind, req.kind);
    EXPECT_EQ(back.params, req.params);
    EXPECT_EQ(back.canonicalKey(), req.canonicalKey());
}

TEST(Registry, RequestAcceptsNumericAndBoolParams)
{
    const StudyRequest req = StudyRequest::fromJson(JsonValue::parse(
        "{\"study\":\"figure\",\"params\":{\"scale\":0.25}}"));
    EXPECT_EQ(req.params.at("scale"), "0.25");
    const StudyRequest b = StudyRequest::fromJson(JsonValue::parse(
        "{\"study\":\"correlation\",\"params\":{\"ai\":true}}"));
    EXPECT_EQ(b.params.at("ai"), "true");
}

TEST(Registry, CanonicalKeySeparatesKinds)
{
    EXPECT_NE(compareRequest("0.25").canonicalKey(),
              compareRequest("0.5").canonicalKey());
    StudyRequest a = compareRequest("0.25");
    StudyRequest b;
    b.kind = "figure";
    b.params = a.params;
    EXPECT_NE(a.canonicalKey(), b.canonicalKey());
}

// --- runner pool ----------------------------------------------------

TEST(RunnerPoolT, KeysRunnersByFaultConfig)
{
    RunnerPool pool;
    (void)pool.acquire();
    (void)pool.acquire();
    EXPECT_EQ(pool.size(), 1u);

    SystemConfig faulty;
    faulty.llc.faults.enabled = true;
    faulty.llc.faults.berScale = 8.0;
    (void)pool.acquire(faulty);
    EXPECT_EQ(pool.size(), 2u);
    (void)pool.acquire(faulty);
    EXPECT_EQ(pool.size(), 2u);
}

TEST(RunnerPoolT, AcquiredRunnersShareMemo)
{
    BenchmarkSpec spec = benchmark("lbm");
    spec.gen.totalAccesses = 50'000;
    const LlcModel llc =
        publishedLlcModel("Oh", CapacityMode::FixedCapacity);

    RunnerPool pool;
    ExperimentRunner first = pool.acquire();
    const SimStats cold = first.runOne(spec, llc);

    Counter &sims =
        MetricsRegistry::global().counter("runner.memo.simulations");
    const std::uint64_t before = sims.get();
    ExperimentRunner second = pool.acquire();
    const SimStats warm = second.runOne(spec, llc);
    EXPECT_EQ(sims.get(), before); // pure memo hit
    EXPECT_EQ(warm.detail, cold.detail);
}

// --- protocol -------------------------------------------------------

TEST(Protocol, OpDefaultsToRunWhenStudyPresent)
{
    const ServiceRequest req = parseServiceRequest(
        "{\"id\":\"r1\",\"study\":\"compare\","
        "\"params\":{\"scale\":\"0.1\"}}");
    EXPECT_EQ(req.op, "run");
    EXPECT_EQ(req.id, "r1");
    EXPECT_EQ(req.study.kind, "compare");
    EXPECT_EQ(req.study.params.at("scale"), "0.1");
}

TEST(Protocol, MalformedRequestsThrow)
{
    EXPECT_THROW(parseServiceRequest("not json"), std::runtime_error);
    EXPECT_THROW(parseServiceRequest("[1,2]"), std::runtime_error);
    EXPECT_THROW(parseServiceRequest("{\"id\":\"x\"}"),
                 std::runtime_error); // no op, no study
}

TEST(Protocol, TraceIdAcceptsEchoedStringAndNumber)
{
    EXPECT_EQ(parseServiceRequest("{\"op\":\"trace\"}").traceId, 0u);
    EXPECT_EQ(parseServiceRequest(
                  "{\"op\":\"trace\",\"traceId\":\"t7\"}")
                  .traceId,
              7u);
    EXPECT_EQ(parseServiceRequest(
                  "{\"op\":\"trace\",\"traceId\":\"12\"}")
                  .traceId,
              12u);
    EXPECT_EQ(parseServiceRequest("{\"op\":\"trace\",\"traceId\":3}")
                  .traceId,
              3u);
    EXPECT_THROW(
        parseServiceRequest("{\"op\":\"trace\",\"traceId\":\"x9\"}"),
        std::runtime_error);
    EXPECT_THROW(
        parseServiceRequest("{\"op\":\"trace\",\"traceId\":\"t\"}"),
        std::runtime_error);
    EXPECT_THROW(
        parseServiceRequest("{\"op\":\"trace\",\"traceId\":true}"),
        std::runtime_error);
}

TEST(Protocol, ErrorResponseShape)
{
    const JsonValue v = errorResponse("r9", "boom", true);
    EXPECT_EQ(v.at("id").asString(), "r9");
    EXPECT_FALSE(v.at("ok").asBool());
    EXPECT_EQ(v.at("error").asString(), "boom");
    EXPECT_TRUE(v.boolOr("rejected", false));
    EXPECT_FALSE(errorResponse("", "e").find("rejected"));
}

TEST(Protocol, SnapshotToJsonFlattensAndFilters)
{
    StatsSnapshot snap;
    snap.setCounter("runner.memo.hits", 3);
    snap.setGauge("service.queueDepth", 2.0);
    Distribution d;
    d.add(1.0);
    d.add(3.0);
    snap.set("service.runSeconds", d.value());

    const JsonValue all = snapshotToJson(snap);
    EXPECT_DOUBLE_EQ(all.at("runner.memo.hits").asNumber(), 3.0);
    EXPECT_DOUBLE_EQ(all.at("service.queueDepth").asNumber(), 2.0);
    EXPECT_DOUBLE_EQ(all.at("service.runSeconds").at("count")
                         .asNumber(),
                     2.0);
    EXPECT_DOUBLE_EQ(all.at("service.runSeconds").at("sum").asNumber(),
                     4.0);

    const JsonValue runner = snapshotToJson(snap, "runner.");
    EXPECT_TRUE(runner.find("runner.memo.hits"));
    EXPECT_FALSE(runner.find("service.queueDepth"));
}

// --- the server, end to end -----------------------------------------

namespace {

/**
 * ServiceClient wrapper that matches responses to requests by id, so
 * tests can hold several requests in flight on one connection.
 */
struct TestClient
{
    ServiceClient client;
    std::map<std::string, JsonValue> pending;

    explicit TestClient(const std::string &socket) : client(socket) {}

    void
    sendRun(const StudyRequest &study, const std::string &id)
    {
        JsonValue req = study.toJson();
        req.set("op", JsonValue::makeString("run"));
        req.set("id", JsonValue::makeString(id));
        client.send(req);
    }

    void
    sendOp(const std::string &op, const std::string &id)
    {
        JsonValue req = JsonValue::makeObject();
        req.set("op", JsonValue::makeString(op));
        req.set("id", JsonValue::makeString(id));
        client.send(req);
    }

    JsonValue
    waitFor(const std::string &id)
    {
        auto it = pending.find(id);
        if (it != pending.end()) {
            JsonValue v = it->second;
            pending.erase(it);
            return v;
        }
        for (;;) {
            JsonValue v = client.receive();
            if (v.stringOr("id", "") == id)
                return v;
            pending.emplace(v.stringOr("id", ""), std::move(v));
        }
    }

    /** Engine/service metric via the "metrics" op. */
    double
    metric(const std::string &path, int seq)
    {
        const std::string id = "metric-" + std::to_string(seq);
        sendOp("metrics", id);
        const JsonValue v = waitFor(id);
        return v.at("metrics").numberOr(path, 0.0);
    }
};

std::string
socketPathFor(const std::string &name)
{
    return ::testing::TempDir() + "nvmcache_" + name + ".sock";
}

/** Sub-second compare blocker: long enough to hold a 1-worker queue. */
StudyRequest
blockerRequest(const std::string &scale)
{
    return compareRequest(scale);
}

} // namespace

TEST(Service, PingStudiesAndMetricsOps)
{
    ServeConfig cfg;
    cfg.socketPath = socketPathFor("ops");
    cfg.execThreads = 1;
    EvalServer server(cfg);
    server.start();
    {
        ServiceClient client(cfg.socketPath);
        EXPECT_TRUE(client.ping());

        const JsonValue studies = client.studies();
        EXPECT_TRUE(studies.at("ok").asBool());
        EXPECT_EQ(studies.at("studies").items.size(), 6u);
        bool sawCompare = false, sawServerSuite = false;
        for (const JsonValue &s : studies.at("studies").items) {
            if (s.at("name").asString() == "compare") {
                sawCompare = true;
                EXPECT_EQ(s.at("defaults").at("workload").asString(),
                          "lbm");
            }
            sawServerSuite = sawServerSuite ||
                             s.at("name").asString() == "server-suite";
        }
        EXPECT_TRUE(sawCompare);
        EXPECT_TRUE(sawServerSuite);

        // The workload-registry listing mirrors "studies": every
        // kind, with the parameter schema for the server families.
        const JsonValue workloads = client.request(
            JsonValue::parse("{\"op\":\"workloads\"}"));
        EXPECT_TRUE(workloads.at("ok").asBool());
        bool sawKv = false, sawFixed = false;
        for (const JsonValue &w : workloads.at("workloads").items) {
            if (w.at("name").asString() == "kv") {
                sawKv = true;
                EXPECT_EQ(w.at("suite").asString(), "server");
                bool sawSkew = false;
                for (const JsonValue &p : w.at("params").items)
                    if (p.at("key").asString() == "skew") {
                        sawSkew = true;
                        EXPECT_EQ(p.at("default").asString(), "0.99");
                        EXPECT_EQ(p.at("type").asString(), "num");
                    }
                EXPECT_TRUE(sawSkew);
            }
            if (w.at("name").asString() == "lbm") {
                sawFixed = true;
                EXPECT_TRUE(w.at("params").items.empty());
            }
        }
        EXPECT_TRUE(sawKv);
        EXPECT_TRUE(sawFixed);

        const JsonValue metrics = client.metrics();
        EXPECT_TRUE(metrics.at("ok").asBool());
        EXPECT_TRUE(metrics.at("metrics").isObject());

        const JsonValue bad = client.request(JsonValue::parse(
            "{\"op\":\"run\",\"study\":\"compare\","
            "\"params\":{\"wrkload\":\"lbm\"}}"));
        EXPECT_FALSE(bad.at("ok").asBool());
        EXPECT_NE(bad.at("error").asString().find("wrkload"),
                  std::string::npos);
    }
    server.requestStop();
    server.wait();
}

TEST(Service, WarmRepeatIsMemoizedAndByteIdentical)
{
    const StudyRequest req = compareRequest("0.02");
    // The reference result through the direct (CLI `study`) path.
    const std::string direct = runStudyRequest(req).resultJson();

    ServeConfig cfg;
    cfg.socketPath = socketPathFor("warm");
    cfg.execThreads = 1;
    EvalServer server(cfg);
    server.start();
    {
        TestClient tc(cfg.socketPath);
        tc.sendRun(req, "cold");
        const JsonValue cold = tc.waitFor("cold");
        ASSERT_TRUE(cold.at("ok").asBool()) << cold.dump();
        EXPECT_FALSE(cold.at("coalesced").asBool());
        // First execution actually simulates (NVM + SRAM baseline).
        EXPECT_GE(cold.at("metrics")
                      .numberOr("runner.memo.simulations", 0.0),
                  2.0);
        // Server result is byte-identical to the direct path.
        EXPECT_EQ(cold.at("result").dump(), direct);

        tc.sendRun(req, "hot");
        const JsonValue hot = tc.waitFor("hot");
        ASSERT_TRUE(hot.at("ok").asBool()) << hot.dump();
        // The warm request replays entirely from the pooled runner's
        // memo: zero fresh simulations, only hits.
        EXPECT_DOUBLE_EQ(hot.at("metrics")
                             .numberOr("runner.memo.simulations", 0.0),
                         0.0);
        EXPECT_GE(hot.at("metrics").numberOr("runner.memo.hits", 0.0),
                  2.0);
        EXPECT_EQ(hot.at("result").dump(), direct);
    }
    server.requestStop();
    server.wait();
}

TEST(Service, CoalescesIdenticalInflightRequests)
{
    ServeConfig cfg;
    cfg.socketPath = socketPathFor("coalesce");
    cfg.execThreads = 1;
    EvalServer server(cfg);
    server.start();
    {
        TestClient tc(cfg.socketPath);
        // Occupy the single worker, then make sure it has dequeued.
        tc.sendRun(blockerRequest("0.1"), "blocker");
        for (int i = 0; i < 2000; ++i) {
            if (tc.metric("service.enqueued", i) >= 1.0 &&
                tc.metric("service.queueDepth", i + 10000) == 0.0)
                break;
        }
        // Two identical requests: the first queues, the second must
        // attach to it instead of occupying another slot.
        const StudyRequest req = compareRequest("0.02");
        tc.sendRun(req, "first");
        tc.sendRun(req, "second");

        const JsonValue first = tc.waitFor("first");
        const JsonValue second = tc.waitFor("second");
        ASSERT_TRUE(first.at("ok").asBool()) << first.dump();
        ASSERT_TRUE(second.at("ok").asBool()) << second.dump();
        EXPECT_FALSE(first.at("coalesced").asBool());
        EXPECT_TRUE(second.at("coalesced").asBool());
        EXPECT_EQ(first.at("result").dump(),
                  second.at("result").dump());
        // One shared execution: both responses carry the same
        // simulation count (the single cold run's), and the service
        // counted exactly one coalesce.
        EXPECT_EQ(first.at("metrics").dump(),
                  second.at("metrics").dump());
        EXPECT_GE(tc.metric("service.coalesced", 99001), 1.0);
        (void)tc.waitFor("blocker");
    }
    server.requestStop();
    server.wait();
}

TEST(Service, RejectsWhenQueueIsFull)
{
    ServeConfig cfg;
    cfg.socketPath = socketPathFor("full");
    cfg.execThreads = 1;
    cfg.queueDepth = 1;
    EvalServer server(cfg);
    server.start();
    {
        TestClient tc(cfg.socketPath);
        tc.sendRun(blockerRequest("0.1"), "blocker");
        for (int i = 0; i < 2000; ++i) {
            if (tc.metric("service.enqueued", i) >= 1.0 &&
                tc.metric("service.queueDepth", i + 10000) == 0.0)
                break;
        }
        // Distinct requests so coalescing cannot absorb them: one
        // fills the single queue slot, the next must be rejected.
        tc.sendRun(compareRequest("0.02"), "queued");
        tc.sendRun(compareRequest("0.03"), "rejected");

        const JsonValue rejected = tc.waitFor("rejected");
        EXPECT_FALSE(rejected.at("ok").asBool());
        EXPECT_TRUE(rejected.boolOr("rejected", false));
        EXPECT_NE(rejected.at("error").asString().find("queue full"),
                  std::string::npos);
        // Load shedding: the refusal tells the client how long a
        // polite retry should wait.
        EXPECT_GE(rejected.numberOr("retryAfterMs", -1.0), 50.0);

        const JsonValue queued = tc.waitFor("queued");
        EXPECT_TRUE(queued.at("ok").asBool()) << queued.dump();
        (void)tc.waitFor("blocker");
        EXPECT_GE(tc.metric("service.rejectedQueueFull", 99002), 1.0);
    }
    server.requestStop();
    server.wait();
}

TEST(Service, ShutdownDrainsQueuedWorkThenExits)
{
    ServeConfig cfg;
    cfg.socketPath = socketPathFor("drain");
    cfg.execThreads = 1;
    EvalServer server(cfg);
    server.start();
    {
        TestClient tc(cfg.socketPath);
        tc.sendRun(compareRequest("0.04"), "a");
        tc.sendRun(compareRequest("0.05"), "b");
        tc.sendOp("shutdown", "bye");
        // The acknowledgement comes immediately; both queued studies
        // must still complete and respond before the server exits.
        EXPECT_TRUE(tc.waitFor("bye").at("ok").asBool());
        EXPECT_TRUE(tc.waitFor("a").at("ok").asBool());
        EXPECT_TRUE(tc.waitFor("b").at("ok").asBool());

        server.wait();
        EXPECT_FALSE(server.running());
        // The socket node is gone; new connections must fail.
        EXPECT_THROW(ServiceClient{cfg.socketPath},
                     std::runtime_error);
        // A request sent while draining is rejected with a reason.
        // (Connection is already torn down here, so just check the
        // counters saw both studies complete.)
        EXPECT_GE(MetricsRegistry::global()
                      .counter("service.completed")
                      .get(),
                  2u);
    }
}

TEST(Service, HealthAndStatsVerbsExposeLiveState)
{
    ServeConfig cfg;
    cfg.socketPath = socketPathFor("health");
    cfg.execThreads = 1;
    EvalServer server(cfg);
    server.start();
    {
        TestClient tc(cfg.socketPath);
        tc.sendOp("ping", "p1");
        EXPECT_TRUE(tc.waitFor("p1").at("ok").asBool());

        tc.sendOp("health", "h1");
        const JsonValue h = tc.waitFor("h1");
        ASSERT_TRUE(h.at("ok").asBool()) << h.dump();
        const JsonValue &health = h.at("health");
        EXPECT_GE(health.at("uptimeSeconds").asNumber(), 0.0);
        EXPECT_EQ(health.at("queueDepth").asNumber(), 0.0);
        EXPECT_EQ(health.at("queueCapacity").asNumber(), 16.0);
        EXPECT_EQ(health.at("workers").asNumber(), 0.0);
        EXPECT_EQ(health.at("execThreads").asNumber(), 1.0);
        EXPECT_FALSE(health.at("draining").asBool());
        EXPECT_FALSE(health.at("tracing").asBool()); // default off
        // Per-verb request counters: the ping above and this health
        // request itself have both been counted.
        const JsonValue &reqs = health.at("requests");
        EXPECT_GE(reqs.numberOr("service.requests.ping", 0.0), 1.0);
        EXPECT_GE(reqs.numberOr("service.requests.health", 0.0), 1.0);

        tc.sendOp("stats", "s1");
        const JsonValue s = tc.waitFor("s1");
        ASSERT_TRUE(s.at("ok").asBool()) << s.dump();
        EXPECT_NE(s.at("contentType").asString().find("text/plain"),
                  std::string::npos);
        const std::string text = s.at("stats").asString();
        EXPECT_NE(text.find("# TYPE nvmcache_service_requests_ping "
                            "counter"),
                  std::string::npos);
        EXPECT_NE(text.find("nvmcache_service_uptimeSeconds"),
                  std::string::npos);

        // Unknown verbs are counted in their own bucket and fail.
        tc.sendOp("frobnicate", "u1");
        EXPECT_FALSE(tc.waitFor("u1").at("ok").asBool());
        tc.sendOp("health", "h2");
        EXPECT_GE(tc.waitFor("h2")
                      .at("health")
                      .at("requests")
                      .numberOr("service.requests.unknown", 0.0),
                  1.0);
    }
    server.requestStop();
    server.wait();
}

TEST(Service, TracedRunEchoesIdAndServesFilteredTrace)
{
    ServeConfig cfg;
    cfg.socketPath = socketPathFor("trace");
    cfg.execThreads = 1;
    cfg.trace = true;
    EvalServer server(cfg);
    server.start();
    {
        TestClient tc(cfg.socketPath);
        tc.sendRun(compareRequest("0.02"), "r1");
        const JsonValue run = tc.waitFor("r1");
        ASSERT_TRUE(run.at("ok").asBool()) << run.dump();
        const std::string tag = run.at("traceId").asString();
        ASSERT_GT(tag.size(), 1u);
        EXPECT_EQ(tag[0], 't');

        // Filtered dump: only this request's events, which must
        // include its service.run span and the engine work under it.
        JsonValue req = JsonValue::makeObject();
        req.set("op", JsonValue::makeString("trace"));
        req.set("id", JsonValue::makeString("t1"));
        req.set("traceId", JsonValue::makeString(tag));
        tc.client.send(req);
        const JsonValue traced = tc.waitFor("t1");
        ASSERT_TRUE(traced.at("ok").asBool()) << traced.dump();
        EXPECT_TRUE(traced.at("tracing").asBool());
        const JsonValue &evs = traced.at("trace").at("traceEvents");
        bool sawServiceRun = false, sawSimulate = false;
        for (const JsonValue &e : evs.items) {
            if (e.stringOr("name", "") == "service.run")
                sawServiceRun = true;
            if (e.stringOr("name", "") == "runner.simulate")
                sawSimulate = true;
            if (e.stringOr("ph", "") != "M")
                EXPECT_EQ(e.at("args").stringOr("trace", ""), tag)
                    << e.dump();
        }
        EXPECT_TRUE(sawServiceRun);
        EXPECT_TRUE(sawSimulate);

        // The unfiltered dump is a superset.
        tc.sendOp("trace", "t2");
        const JsonValue all = tc.waitFor("t2");
        EXPECT_GE(all.at("trace").at("traceEvents").items.size(),
                  evs.items.size());
    }
    server.requestStop();
    server.wait();
    setTracingEnabled(false);
    clearTraceEvents();
}

TEST(Service, ResultsAreByteIdenticalAcrossJobCounts)
{
    const StudyRequest req = compareRequest("0.02", "tonto");
    std::string results[2];
    const unsigned jobCounts[2] = {1, 8};
    for (int i = 0; i < 2; ++i) {
        ServeConfig cfg;
        cfg.socketPath = socketPathFor("jobs" +
                                       std::to_string(jobCounts[i]));
        cfg.execThreads = 1;
        cfg.jobs = jobCounts[i];
        EvalServer server(cfg);
        server.start();
        {
            ServiceClient client(cfg.socketPath);
            const JsonValue response = client.run(req, "r");
            ASSERT_TRUE(response.at("ok").asBool())
                << response.dump();
            results[i] = response.at("result").dump();
        }
        server.requestStop();
        server.wait();
    }
    EXPECT_EQ(results[0], results[1]);
    EXPECT_FALSE(results[0].empty());
}

// --- multi-worker shard dispatch ------------------------------------

namespace {

/** Fresh (wiped) store directory under the test tempdir. */
std::string
freshStoreDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "nvmcache_" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/**
 * @p count in-process worker servers over a fresh shared store. All
 * servers live in this process, so they share the MetricsRegistry and
 * the global ResultStore exactly like forked workers share the store
 * directory. Declare a front after this so the front stops first.
 */
struct WorkerDaemons
{
    std::vector<std::unique_ptr<EvalServer>> servers;
    std::vector<std::string> sockets;

    WorkerDaemons(unsigned count, unsigned execThreads, unsigned jobs,
                  const std::string &tag)
    {
        ResultStore::setGlobal(freshStoreDir("store_" + tag));
        for (unsigned i = 0; i < count; ++i) {
            ServeConfig wcfg;
            wcfg.socketPath =
                socketPathFor(tag + "_w" + std::to_string(i));
            wcfg.execThreads = execThreads;
            wcfg.jobs = jobs;
            sockets.push_back(wcfg.socketPath);
            servers.push_back(std::make_unique<EvalServer>(wcfg));
            servers.back()->start();
        }
    }

    ~WorkerDaemons()
    {
        for (auto &w : servers) {
            w->requestStop();
            w->wait();
        }
        ResultStore::setGlobal("");
    }
};

/** Config of a front server dispatching to @p daemons. */
ServeConfig
frontConfig(const WorkerDaemons &daemons, unsigned execThreads,
            unsigned jobs, const std::string &tag)
{
    ServeConfig cfg;
    cfg.socketPath = socketPathFor(tag + "_front");
    cfg.execThreads = execThreads;
    cfg.jobs = jobs;
    cfg.workerSockets = daemons.sockets;
    return cfg;
}

/**
 * Run @p req through a front server dispatching to @p workers
 * in-process worker servers over a fresh shared store, and return
 * the front's full response.
 */
JsonValue
runThroughFleet(const StudyRequest &req, unsigned workers,
                unsigned jobs, const std::string &tag)
{
    WorkerDaemons daemons(workers, 1, jobs, tag);
    const ServeConfig cfg = frontConfig(daemons, 1, jobs, tag);
    EvalServer front(cfg);
    front.start();

    ServiceClient client(cfg.socketPath);
    return client.run(req, "r");
}

std::uint64_t
counterValue(const std::string &path)
{
    return MetricsRegistry::global().counter(path).get();
}

} // namespace

TEST(WorkerShard, MergedCompareIsByteIdenticalAtAnyFleetShape)
{
    const StudyRequest req = compareRequest("0.02");
    const std::string reference = runStudyRequest(req).resultJson();

    for (unsigned workers : {1u, 2u}) {
        for (unsigned jobs : {1u, 2u}) {
            const std::string tag = "ws" + std::to_string(workers) +
                                    "j" + std::to_string(jobs);
            const JsonValue response =
                runThroughFleet(req, workers, jobs, tag);
            ASSERT_TRUE(response.boolOr("ok", false))
                << response.dump();
            EXPECT_EQ(response.at("result").dump(), reference)
                << "workers=" << workers << " jobs=" << jobs;
            // The front's local pass replayed entirely from the
            // worker-primed store: zero fresh simulations, only
            // disk hits.
            const JsonValue &metrics = response.at("metrics");
            EXPECT_DOUBLE_EQ(
                metrics.numberOr("runner.memo.simulations", 0.0), 0.0)
                << metrics.dump();
            EXPECT_GE(metrics.numberOr("runner.store.hits", 0.0), 2.0)
                << metrics.dump();
            // The fleet actually carried the shards.
            EXPECT_GE(MetricsRegistry::global()
                          .counter("service.worker.completed")
                          .get(),
                      1u);
        }
    }
}

TEST(WorkerShard, ReliabilityGridShardsAcrossWorkers)
{
    StudyRequest req;
    req.kind = "reliability";
    req.params["workload"] = "lbm";
    req.params["scale"] = "0.02";
    req.params["ber-scale"] = "1,4";
    req.params["wear-leveling"] = "1";

    const std::string reference = runStudyRequest(req).resultJson();
    const JsonValue response =
        runThroughFleet(req, 2, 1, "wsrel");
    ASSERT_TRUE(response.boolOr("ok", false)) << response.dump();
    EXPECT_EQ(response.at("result").dump(), reference);
    EXPECT_DOUBLE_EQ(response.at("metrics")
                         .numberOr("runner.memo.simulations", 0.0),
                     0.0);
}

TEST(WorkerShard, ConcurrentComparesOfTwoWorkloadsUseBothWorkers)
{
    // fnv1a64("lbm") % 2 == 0 and fnv1a64("tonto") % 2 == 1: each
    // one-shard compare starts at its own workload's lane.
    const StudyRequest lbm = compareRequest("0.02", "lbm");
    const StudyRequest tonto = compareRequest("0.02", "tonto");
    const std::string lbmRef = runStudyRequest(lbm).resultJson();
    const std::string tontoRef = runStudyRequest(tonto).resultJson();

    WorkerDaemons daemons(2, 2, 1, "wsaff");
    const ServeConfig cfg = frontConfig(daemons, 2, 1, "wsaff");
    EvalServer front(cfg);
    front.start();

    const std::uint64_t w0 = counterValue("service.worker.w0.dispatched");
    const std::uint64_t w1 = counterValue("service.worker.w1.dispatched");
    TestClient client(cfg.socketPath);
    client.sendRun(lbm, "lbm");
    client.sendRun(tonto, "tonto");
    const JsonValue lbmResp = client.waitFor("lbm");
    const JsonValue tontoResp = client.waitFor("tonto");
    ASSERT_TRUE(lbmResp.boolOr("ok", false)) << lbmResp.dump();
    ASSERT_TRUE(tontoResp.boolOr("ok", false)) << tontoResp.dump();
    EXPECT_EQ(lbmResp.at("result").dump(), lbmRef);
    EXPECT_EQ(tontoResp.at("result").dump(), tontoRef);
    EXPECT_EQ(counterValue("service.worker.w0.dispatched"), w0 + 1);
    EXPECT_EQ(counterValue("service.worker.w1.dispatched"), w1 + 1);
    // Nothing is executing on either worker once both replies are in.
    MetricsRegistry &metrics = MetricsRegistry::global();
    EXPECT_DOUBLE_EQ(metrics.gauge("service.worker.w0.inflight").get(),
                     0.0);
    EXPECT_DOUBLE_EQ(metrics.gauge("service.worker.w1.inflight").get(),
                     0.0);
}

TEST(WorkerShard, OneWorkloadStaysOnOneWorkerAndBuildsItsTraceOnce)
{
    const std::vector<std::string> techs = {"Oh", "Chung", "Zhang"};
    WorkerDaemons daemons(2, 2, 1, "wsone");
    const ServeConfig cfg = frontConfig(daemons, 2, 1, "wsone");
    EvalServer front(cfg);
    front.start();

    const std::uint64_t w0 = counterValue("service.worker.w0.dispatched");
    const std::uint64_t w1 = counterValue("service.worker.w1.dispatched");
    const std::uint64_t builds = counterValue("runner.traceStore.builds");
    TestClient client(cfg.socketPath);
    for (const std::string &tech : techs) {
        StudyRequest req = compareRequest("0.02", "lbm");
        req.params["tech"] = tech;
        client.sendRun(req, tech);
    }
    for (const std::string &tech : techs) {
        const JsonValue resp = client.waitFor(tech);
        ASSERT_TRUE(resp.boolOr("ok", false)) << resp.dump();
    }
    // Every lbm shard went to lbm's lane, where concurrent shards
    // shared one exactly-once trace build.
    EXPECT_EQ(counterValue("service.worker.w0.dispatched"),
              w0 + techs.size());
    EXPECT_EQ(counterValue("service.worker.w1.dispatched"), w1);
    EXPECT_EQ(counterValue("runner.traceStore.builds"), builds + 1);
}

TEST(WorkerShard, ConcurrentPrimeCallsCountTheirOwnFailures)
{
    WorkerDaemons daemons(2, 2, 1, "wslatch");
    WorkerFleetConfig fcfg;
    fcfg.sockets = daemons.sockets;
    fcfg.slotsPerWorker = 2;
    WorkerFleet fleet(fcfg);

    // Every worker refuses the unknown parameter, so that call's only
    // shard fails on both lanes while the other call's shard succeeds.
    StudyRequest refused = compareRequest("0.02", "lbm");
    refused.params["no-such-param"] = "1";
    std::size_t validFailures = 99;
    std::size_t refusedFailures = 99;
    std::thread valid([&] {
        validFailures = fleet.primeAll({compareRequest("0.02", "lbm")});
    });
    std::thread bad([&] { refusedFailures = fleet.primeAll({refused}); });
    valid.join();
    bad.join();
    EXPECT_EQ(validFailures, 0u);
    EXPECT_EQ(refusedFailures, 1u);
}

// --- failure handling: deadlines, timeouts, retries, recovery --------

TEST(Protocol, RunRequestsCarryRelativeDeadlines)
{
    const ServiceRequest req = parseServiceRequest(
        "{\"op\":\"run\",\"study\":\"compare\",\"deadlineMs\":250}");
    EXPECT_DOUBLE_EQ(req.deadlineMs, 250.0);

    // Absent means none.
    EXPECT_DOUBLE_EQ(parseServiceRequest(
                         "{\"op\":\"run\",\"study\":\"compare\"}")
                         .deadlineMs,
                     0.0);

    // Negative or non-numeric deadlines are malformed, not ignored.
    EXPECT_THROW(parseServiceRequest("{\"op\":\"run\",\"study\":"
                                     "\"compare\",\"deadlineMs\":-5}"),
                 std::runtime_error);
    EXPECT_THROW(
        parseServiceRequest("{\"op\":\"run\",\"study\":\"compare\","
                            "\"deadlineMs\":\"soon\"}"),
        std::runtime_error);
}

TEST(Protocol, ErrorResponsesCarryOptionalRetryHint)
{
    const JsonValue hinted = errorResponse("r1", "queue full", true, 250);
    EXPECT_TRUE(hinted.boolOr("rejected", false));
    EXPECT_DOUBLE_EQ(hinted.numberOr("retryAfterMs", -1.0), 250.0);
    // A negative hint is omitted entirely, not serialized as -1.
    EXPECT_FALSE(errorResponse("r1", "bad study").find("retryAfterMs"));
}

TEST(Protocol, LineReaderDistinguishesTimeoutFromEof)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    LineReader reader(fds[1]);
    std::string line;

    // Silent peer: expiry, flagged as a timeout.
    EXPECT_FALSE(reader.readLine(line, 50));
    EXPECT_TRUE(reader.timedOut());

    // Data arrives: the same reader recovers.
    ASSERT_TRUE(writeLine(fds[0], "hello"));
    ASSERT_TRUE(reader.readLine(line, 1000));
    EXPECT_EQ(line, "hello");
    EXPECT_FALSE(reader.timedOut());

    // Peer closes: EOF, explicitly not a timeout.
    ::close(fds[0]);
    EXPECT_FALSE(reader.readLine(line, 1000));
    EXPECT_FALSE(reader.timedOut());
    ::close(fds[1]);
}

namespace {
void
ignoreSignal(int)
{
}
} // namespace

TEST(Protocol, SignalDuringBlockedReadIsNotEof)
{
    // Regression for the EINTR audit: a signal delivered to a thread
    // blocked in readLine must restart the read, not report EOF.
    struct sigaction sa = {};
    sa.sa_handler = ignoreSignal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0; // deliberately no SA_RESTART
    struct sigaction old = {};
    ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);

    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    std::string line;
    bool got = false;
    std::thread blocked([&] {
        LineReader reader(fds[1]);
        got = reader.readLine(line);
    });

    // Let the reader block, interrupt it twice, then deliver a line.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ASSERT_EQ(pthread_kill(blocked.native_handle(), SIGUSR1), 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ASSERT_EQ(pthread_kill(blocked.native_handle(), SIGUSR1), 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_TRUE(writeLine(fds[0], "survived"));
    blocked.join();

    EXPECT_TRUE(got);
    EXPECT_EQ(line, "survived");
    ::close(fds[0]);
    ::close(fds[1]);
    ASSERT_EQ(::sigaction(SIGUSR1, &old, nullptr), 0);
}

TEST(Service, QueuedRunPastItsDeadlineIsRejectedNotRun)
{
    ServeConfig cfg;
    cfg.socketPath = socketPathFor("deadline");
    cfg.execThreads = 1;
    EvalServer server(cfg);
    server.start();
    {
        TestClient tc(cfg.socketPath);
        tc.sendRun(blockerRequest("0.1"), "blocker");
        for (int i = 0; i < 2000; ++i) {
            if (tc.metric("service.enqueued", i) >= 1.0 &&
                tc.metric("service.queueDepth", i + 10000) == 0.0)
                break;
        }
        // A distinct request with a 1 ms deadline: it expires while
        // the blocker holds the only exec thread, so the server must
        // reject it at dequeue instead of running stale work.
        JsonValue doomed = compareRequest("0.03").toJson();
        doomed.set("op", JsonValue::makeString("run"));
        doomed.set("id", JsonValue::makeString("doomed"));
        doomed.set("deadlineMs", JsonValue::makeNumber(1));
        tc.client.send(doomed);

        const JsonValue rejected = tc.waitFor("doomed");
        EXPECT_FALSE(rejected.at("ok").asBool()) << rejected.dump();
        EXPECT_TRUE(rejected.boolOr("rejected", false));
        EXPECT_NE(rejected.at("error").asString().find(
                      "deadlineMs expired"),
                  std::string::npos)
            << rejected.dump();

        EXPECT_TRUE(tc.waitFor("blocker").at("ok").asBool());
        EXPECT_GE(tc.metric("service.deadlineExpired", 99100), 1.0);
        // The expired run never executed: it was skipped wholesale.
        EXPECT_GE(tc.metric("service.deadlineSkipped", 99101), 1.0);
    }
    server.requestStop();
    server.wait();
}

TEST(Service, ClientTimeoutNamesTheKnobThatFired)
{
    // A bound-and-listening socket whose owner never accepts or
    // responds: connect() succeeds via the backlog, then the daemon
    // stays silent forever.
    const std::string path = socketPathFor("mute");
    ::unlink(path.c_str());
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                  path.c_str());
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(fd, 4), 0);

    ClientConfig ccfg;
    ccfg.timeoutMs = 100;
    ServiceClient client(path, ccfg);
    try {
        client.ping();
        FAIL() << "expected a timeout";
    } catch (const std::runtime_error &e) {
        // The diagnostic names the CLI knob and the socket.
        EXPECT_NE(std::string(e.what()).find("--timeout-ms"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
            << e.what();
    }
    ::close(fd);
    ::unlink(path.c_str());
}

TEST(Service, RunWithRetrySurvivesLateDaemonAndExhaustsHonestly)
{
    const std::string path = socketPathFor("late");
    ::unlink(path.c_str());

    // Exhaustion first: no daemon, small budget. The error summarizes
    // every attempt and names --retries.
    ClientConfig ccfg;
    ccfg.timeoutMs = 200;
    ccfg.retries = 1;
    ccfg.backoffBaseMs = 10;
    ccfg.backoffMaxMs = 20;
    try {
        runWithRetry(path, compareRequest("0.02"), ccfg, "nobody");
        FAIL() << "expected exhaustion";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("--retries"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("2 attempt"),
                  std::string::npos)
            << e.what();
    }

    // Now the daemon appears mid-retry: the budgeted client wins.
    const double retriesBefore =
        MetricsRegistry::global().counter("client.retries").get();
    ServeConfig cfg;
    cfg.socketPath = path;
    cfg.execThreads = 1;
    EvalServer server(cfg);
    std::thread late([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        server.start();
    });
    ccfg.retries = 20;
    ccfg.timeoutMs = 10000;
    ccfg.backoffBaseMs = 50;
    ccfg.backoffMaxMs = 200;
    const JsonValue response =
        runWithRetry(path, compareRequest("0.02"), ccfg, "patient");
    late.join();
    ASSERT_TRUE(response.boolOr("ok", false)) << response.dump();
    EXPECT_GT(
        MetricsRegistry::global().counter("client.retries").get(),
        retriesBefore);
    server.requestStop();
    server.wait();
}

TEST(Service, HealthStateTracksLoadAndDrain)
{
    ServeConfig cfg;
    cfg.socketPath = socketPathFor("hstate");
    cfg.execThreads = 1;
    cfg.queueDepth = 1;
    EvalServer server(cfg);
    server.start();
    {
        TestClient tc(cfg.socketPath);
        tc.sendOp("health", "h-idle");
        EXPECT_EQ(tc.waitFor("h-idle").at("health").at("state")
                      .asString(),
                  "ok");

        // Saturate: one running, one filling the only queue slot.
        tc.sendRun(blockerRequest("0.1"), "blocker");
        for (int i = 0; i < 2000; ++i) {
            if (tc.metric("service.enqueued", i) >= 1.0 &&
                tc.metric("service.queueDepth", i + 10000) == 0.0)
                break;
        }
        tc.sendRun(compareRequest("0.05"), "queued");
        tc.sendOp("health", "h-busy");
        EXPECT_EQ(tc.waitFor("h-busy").at("health").at("state")
                      .asString(),
                  "degraded");

        // Probe the draining state while the blocker still holds the
        // exec thread, so the connection outlives the probe.
        tc.sendOp("shutdown", "bye");
        EXPECT_TRUE(tc.waitFor("bye").at("ok").asBool());
        tc.sendOp("health", "h-drain");
        EXPECT_EQ(tc.waitFor("h-drain").at("health").at("state")
                      .asString(),
                  "draining");

        EXPECT_TRUE(tc.waitFor("queued").at("ok").asBool());
        EXPECT_TRUE(tc.waitFor("blocker").at("ok").asBool());
    }
    server.wait();
}

TEST(Service, ResumesJournaledInflightRunsAfterRestart)
{
    // Simulate a front daemon that died with a run in flight: its
    // journal survives, and the next daemon finishes the work without
    // being asked again.
    const std::string dir =
        ::testing::TempDir() + "nvmcache_journal_test";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string journal = dir + "/inflight.v1.json";
    {
        JsonValue doc = JsonValue::makeObject();
        doc.set("version", JsonValue::makeNumber(1));
        JsonValue inflight = JsonValue::makeArray();
        inflight.items.push_back(compareRequest("0.02").toJson());
        doc.set("inflight", inflight);
        std::ofstream out(journal);
        out << doc.dump() << "\n";
    }

    const double resumedBefore =
        MetricsRegistry::global().counter("service.resumed").get();
    const double completedBefore =
        MetricsRegistry::global().counter("service.completed").get();

    ServeConfig cfg;
    cfg.socketPath = socketPathFor("resume");
    cfg.execThreads = 1;
    cfg.journalPath = journal;
    EvalServer server(cfg);
    server.start();

    EXPECT_EQ(MetricsRegistry::global()
                      .counter("service.resumed")
                      .get() -
                  resumedBefore,
              1.0);
    // The resumed run completes with no client attached...
    for (int i = 0; i < 500; ++i) {
        if (MetricsRegistry::global()
                .counter("service.completed")
                .get() > completedBefore)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_GT(
        MetricsRegistry::global().counter("service.completed").get(),
        completedBefore);
    // ...and the journal is rewritten empty: nothing left to resume.
    for (int i = 0; i < 100; ++i) {
        std::ifstream in(journal);
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        if (text.find("\"inflight\":[]") != std::string::npos)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    {
        std::ifstream in(journal);
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        EXPECT_NE(text.find("\"inflight\":[]"), std::string::npos)
            << text;
    }
    server.requestStop();
    server.wait();
}
