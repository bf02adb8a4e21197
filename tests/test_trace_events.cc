/**
 * @file
 * The tracing subsystem: disabled-by-default no-op behavior, context
 * scoping, event collection and the Chrome-trace-event export schema,
 * request-id filtering, parent-directory creation on write, and the
 * headline determinism contract — a run's trace has byte-identical
 * semantic content (modulo wall-clock ts/dur/tid) at any --jobs
 * count.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/study.hh"
#include "util/json.hh"
#include "util/parallel.hh"
#include "util/trace_events.hh"

using namespace nvmcache;

namespace {

/** RAII: clean collector + tracing on for one test, off after. */
struct TracingOn
{
    TracingOn()
    {
        clearTraceEvents();
        setTracingEnabled(true);
    }
    ~TracingOn()
    {
        setTracingEnabled(false);
        clearTraceEvents();
    }
};

/**
 * The export with every nondeterministic field removed: "tid" always
 * (thread registration order depends on scheduling), "ts"/"dur" on
 * wall-clock events (pid 1). Simulated-time events (pid 2) keep their
 * ts — simulated cycles are part of the determinism contract.
 */
JsonValue
normalizedTrace(std::uint64_t traceId = 0)
{
    JsonValue doc = traceEventsToJson(traceId);
    for (JsonValue &e : doc.members.at("traceEvents").items) {
        e.members.erase("tid");
        if (e.numberOr("pid", 0) == 1.0) {
            e.members.erase("ts");
            e.members.erase("dur");
        }
    }
    return doc;
}

/** Count of events in @p doc with name == @p name. */
std::size_t
countNamed(const JsonValue &doc, const std::string &name)
{
    std::size_t n = 0;
    for (const JsonValue &e : doc.members.at("traceEvents").items)
        if (e.stringOr("name", "") == name)
            ++n;
    return n;
}

} // namespace

// --- enable/disable --------------------------------------------------

TEST(TraceEvents, DisabledByDefaultCollectsNothing)
{
    clearTraceEvents();
    ASSERT_FALSE(tracingEnabled());
    {
        TraceSpan span("x", "study", "id");
    }
    traceInstant("y", "engine", "id2");
    traceCounter("z", "engine", "id3", 1.0);
    traceSimCounter("w", "id4", 100, 2.0);
    EXPECT_EQ(traceEventCount(), 0u);
    EXPECT_EQ(traceDroppedCount(), 0u);
}

TEST(TraceEvents, CollectsAllThreeKindsWhenEnabled)
{
    TracingOn on;
    {
        TraceSpan span("phase.a", "study", "a");
    }
    traceInstant("hit", "engine", "a/hit");
    traceSimCounter("llc.misses", "a/llc", 4096, 17.0);
    ASSERT_EQ(traceEventCount(), 3u);

    const std::vector<TraceEvent> evs = snapshotTraceEvents();
    ASSERT_EQ(evs.size(), 3u);
    // Content sort: cat "engine" < "sim" < "study".
    EXPECT_EQ(evs[0].kind, TraceEventKind::Instant);
    EXPECT_EQ(evs[0].name, "hit");
    EXPECT_EQ(evs[0].id, "a/hit");
    EXPECT_EQ(evs[1].kind, TraceEventKind::Counter);
    EXPECT_TRUE(evs[1].simTime);
    EXPECT_EQ(evs[1].ts, 4096);
    EXPECT_EQ(evs[1].value, 17.0);
    EXPECT_EQ(evs[2].kind, TraceEventKind::Span);
    EXPECT_EQ(evs[2].name, "phase.a");
    EXPECT_GE(evs[2].dur, 0);
}

// --- context ---------------------------------------------------------

TEST(TraceEvents, ScopesInstallAndRestoreContext)
{
    TracingOn on;
    EXPECT_EQ(TraceContext::current().path, "");
    {
        TraceScope outer(TraceContext{"study/figure", 7});
        EXPECT_EQ(TraceContext::current().path, "study/figure");
        EXPECT_EQ(TraceContext::current().traceId, 7u);
        EXPECT_EQ(TraceContext::current().child("job0").path,
                  "study/figure/job0");
        {
            TraceScope inner(TraceContext{"run/lbm", 7});
            EXPECT_EQ(TraceContext::current().path, "run/lbm");
        }
        EXPECT_EQ(TraceContext::current().path, "study/figure");
    }
    EXPECT_EQ(TraceContext::current().path, "");
}

TEST(TraceEvents, ParallelMapEmitsIdenticalJobSpansAtAnyJobCount)
{
    const std::vector<int> items{1, 2, 3, 4, 5};
    auto square = [](const int &x) { return x * x; };

    std::string serial, pooled;
    {
        TracingOn on;
        TraceScope scope(TraceContext{"p", 0});
        parallelMap(1, items, square);
        serial = normalizedTrace().dump();
    }
    {
        TracingOn on;
        TraceScope scope(TraceContext{"p", 0});
        parallelMap(4, items, square);
        pooled = normalizedTrace().dump();
    }
    EXPECT_EQ(serial, pooled);
    EXPECT_NE(serial.find("\"p/job0\""), std::string::npos);
    EXPECT_NE(serial.find("\"p/job4\""), std::string::npos);
}

// --- export schema ---------------------------------------------------

TEST(TraceEvents, ExportMatchesChromeTraceEventSchema)
{
    TracingOn on;
    {
        TraceScope scope(TraceContext{"req", 3});
        TraceSpan span("service.run", "service", "req");
        traceInstant("hit", "engine", "req/hit");
    }
    traceSimCounter("llc.misses", "run/llc", 10, 2.0);

    const JsonValue doc =
        JsonValue::parse(exportTraceJson()); // round-trips
    const JsonValue &evs = doc.at("traceEvents");
    ASSERT_TRUE(evs.isArray());
    ASSERT_GE(evs.items.size(), 5u); // 2 metadata + 3 events

    std::set<std::string> phases;
    for (const JsonValue &e : evs.items) {
        ASSERT_TRUE(e.isObject());
        const std::string ph = e.at("ph").asString();
        phases.insert(ph);
        EXPECT_TRUE(ph == "X" || ph == "i" || ph == "C" || ph == "M")
            << ph;
        EXPECT_TRUE(e.at("name").isString());
        const double pid = e.at("pid").asNumber();
        EXPECT_TRUE(pid == 1.0 || pid == 2.0);
        if (ph == "M") { // process_name metadata
            EXPECT_EQ(e.at("name").asString(), "process_name");
            EXPECT_TRUE(e.at("args").at("name").isString());
            continue;
        }
        EXPECT_TRUE(e.at("cat").isString());
        EXPECT_TRUE(e.at("ts").isNumber());
        EXPECT_TRUE(e.at("tid").isNumber());
        if (ph == "X") {
            EXPECT_GE(e.at("dur").asNumber(), 0.0);
            EXPECT_EQ(pid, 1.0);
            EXPECT_TRUE(e.at("args").at("id").isString());
        }
        if (ph == "i") {
            EXPECT_EQ(e.at("s").asString(), "t");
            EXPECT_TRUE(e.at("args").at("id").isString());
        }
        if (ph == "C") {
            EXPECT_EQ(pid, 2.0); // only sim counters in this test
            EXPECT_TRUE(e.at("id").isString());
            EXPECT_TRUE(e.at("args").at("value").isNumber());
        }
    }
    EXPECT_TRUE(phases.count("M"));
    EXPECT_TRUE(phases.count("X"));
    EXPECT_TRUE(phases.count("i"));
    EXPECT_TRUE(phases.count("C"));
}

TEST(TraceEvents, SnapshotFiltersByTraceId)
{
    TracingOn on;
    {
        TraceScope a(TraceContext{"req/t5", 5});
        traceInstant("a", "service", "req/t5");
    }
    {
        TraceScope b(TraceContext{"req/t9", 9});
        traceInstant("b", "service", "req/t9");
    }
    EXPECT_EQ(snapshotTraceEvents().size(), 2u);
    const std::vector<TraceEvent> only5 = snapshotTraceEvents(5);
    ASSERT_EQ(only5.size(), 1u);
    EXPECT_EQ(only5[0].name, "a");

    const JsonValue doc = traceEventsToJson(9);
    // 2 process_name metadata events + the one matching event.
    EXPECT_EQ(doc.at("traceEvents").items.size(), 3u);
}

TEST(TraceEvents, HashAndTraceIdHelpers)
{
    EXPECT_EQ(traceHashId("abc"), traceHashId("abc"));
    EXPECT_NE(traceHashId("abc"), traceHashId("abd"));
    EXPECT_EQ(traceHashId("x").size(), 16u);
    for (char c : traceHashId("x"))
        EXPECT_TRUE(std::isxdigit((unsigned char)c));

    const std::uint64_t a = newTraceId();
    const std::uint64_t b = newTraceId();
    EXPECT_NE(a, 0u);
    EXPECT_GT(b, a);
}

TEST(TraceEvents, WriteTraceFileCreatesMissingParents)
{
    namespace fs = std::filesystem;
    TracingOn on;
    traceInstant("x", "engine", "x");

    const fs::path root =
        fs::temp_directory_path() / "nvmcache_test_tracedir";
    fs::remove_all(root);
    const fs::path out = root / "deep" / "run.trace.json";
    writeTraceFile(out.string());

    std::ifstream in(out);
    ASSERT_TRUE(in.good()) << out;
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const JsonValue doc = JsonValue::parse(text);
    EXPECT_TRUE(doc.at("traceEvents").isArray());
    fs::remove_all(root);
}

// --- determinism -----------------------------------------------------

TEST(TraceDeterminism, StudyTraceIsByteIdenticalAcrossJobCounts)
{
    // The tentpole contract: running the same study serially and with
    // a saturated pool must export the same trace document after
    // wall-clock normalization — span ids derive from the experiment
    // structure, never from scheduling.
    std::string serial, parallel;
    {
        TracingOn on;
        ExperimentRunner runner;
        runner.setJobs(1);
        runFigureStudy(FigureConfig{CapacityMode::FixedCapacity, 0.01},
                       runner);
        serial = normalizedTrace().dump();
    }
    {
        TracingOn on;
        ExperimentRunner runner;
        runner.setJobs(8);
        runFigureStudy(FigureConfig{CapacityMode::FixedCapacity, 0.01},
                       runner);
        parallel = normalizedTrace().dump();
    }
    EXPECT_EQ(serial, parallel);

    // And the trace actually covers the advertised layers.
    EXPECT_NE(serial.find("runner.simulate"), std::string::npos);
    EXPECT_NE(serial.find("parallel.job"), std::string::npos);
    EXPECT_NE(serial.find("llc.demandMisses"), std::string::npos);
}

TEST(TraceDeterminism, MemoHitsAreCountStableAcrossJobs)
{
    // N identical runs = 1 owner simulation + N-1 memo-hit instants,
    // regardless of which job wins the owner race.
    auto runTwice = [](unsigned jobs) {
        CompareConfig cfg;
        cfg.workload = "lbm";
        cfg.tech = "Oh";
        cfg.traceScale = 0.05;
        ExperimentRunner runner;
        runner.setJobs(jobs);
        runCompare(cfg, runner);
        runCompare(cfg, runner); // warm: every run memo-hits
        return normalizedTrace();
    };

    JsonValue serial, parallel;
    {
        TracingOn on;
        serial = runTwice(1);
    }
    {
        TracingOn on;
        parallel = runTwice(8);
    }
    EXPECT_GT(countNamed(serial, "runner.memoHit"), 0u);
    EXPECT_EQ(countNamed(serial, "runner.memoHit"),
              countNamed(parallel, "runner.memoHit"));
    EXPECT_EQ(countNamed(serial, "runner.simulate"),
              countNamed(parallel, "runner.simulate"));
    EXPECT_EQ(serial.dump(), parallel.dump());
}
