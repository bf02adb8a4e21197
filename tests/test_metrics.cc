/**
 * @file
 * The hierarchical stats registry: path hierarchy and reference
 * stability, snapshot/diff exactness (including the inverted Chan
 * combination for distributions), JSON escaping and a round-trip
 * parse of the exported tree, log-2 bucket edges, thread safety of
 * concurrent updates, and the report-level determinism contract — a
 * figure study's aggregated sim.* detail is identical at any
 * experiment-engine concurrency.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/study.hh"
#include "util/metrics.hh"

using namespace nvmcache;

namespace {

/** Heavily multi-threaded even on a 1-core CI machine. */
unsigned
parallelJobs()
{
    return std::max(8u, std::thread::hardware_concurrency());
}

// --- minimal JSON reader (objects / numbers only) --------------------
//
// Just enough to round-trip what toJson() emits: nested objects,
// arrays, numbers, and strings. Numbers are parsed with strtod, so a
// shortest-round-trip exporter must come back bit-identical.

struct JsonValue
{
    enum Kind { Object, Array, Number, String } kind = Number;
    double num = 0.0;
    std::string str;
    std::map<std::string, JsonValue> object;
    std::vector<JsonValue> array;
};

struct JsonParser
{
    const std::string &s;
    std::size_t i = 0;

    void ws()
    {
        while (i < s.size() && std::isspace((unsigned char)s[i]))
            ++i;
    }

    char peek()
    {
        ws();
        EXPECT_LT(i, s.size());
        return s[i];
    }

    void expect(char c)
    {
        ASSERT_EQ(peek(), c) << "at offset " << i;
        ++i;
    }

    std::string parseString()
    {
        expect('"');
        std::string out;
        while (i < s.size() && s[i] != '"') {
            if (s[i] == '\\') {
                ++i;
                EXPECT_LT(i, s.size());
                if (i >= s.size())
                    break;
                switch (s[i]) {
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'r': out += '\r'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'u': {
                      // exporter only emits \u00xx control escapes
                      const int hi = std::stoi(s.substr(i + 1, 4),
                                               nullptr, 16);
                      out += char(hi);
                      i += 4;
                      break;
                  }
                  default: out += s[i]; break;
                }
                ++i;
            } else {
                out += s[i++];
            }
        }
        expect('"');
        return out;
    }

    JsonValue parse()
    {
        JsonValue v;
        const char c = peek();
        if (c == '{') {
            v.kind = JsonValue::Object;
            expect('{');
            if (peek() == '}') {
                expect('}');
                return v;
            }
            while (true) {
                const std::string key = parseString();
                expect(':');
                v.object[key] = parse();
                if (peek() == ',') {
                    expect(',');
                    continue;
                }
                break;
            }
            expect('}');
        } else if (c == '[') {
            v.kind = JsonValue::Array;
            expect('[');
            if (peek() == ']') {
                expect(']');
                return v;
            }
            while (true) {
                v.array.push_back(parse());
                if (peek() == ',') {
                    expect(',');
                    continue;
                }
                break;
            }
            expect(']');
        } else if (c == '"') {
            v.kind = JsonValue::String;
            v.str = parseString();
        } else {
            v.kind = JsonValue::Number;
            std::size_t used = 0;
            v.num = std::stod(s.substr(i), &used);
            EXPECT_GT(used, 0u);
            i += used;
        }
        return v;
    }
};

JsonValue
parseJson(const std::string &text)
{
    JsonParser p{text};
    JsonValue v = p.parse();
    p.ws();
    EXPECT_EQ(p.i, text.size()) << "trailing JSON garbage";
    return v;
}

const JsonValue &
at(const JsonValue &v, const std::string &path)
{
    const JsonValue *cur = &v;
    std::size_t start = 0;
    while (start <= path.size()) {
        const std::size_t dot = path.find('.', start);
        const std::string key =
            path.substr(start, dot == std::string::npos
                                   ? std::string::npos
                                   : dot - start);
        auto it = cur->object.find(key);
        EXPECT_NE(it, cur->object.end()) << "missing key " << key;
        cur = &it->second;
        if (dot == std::string::npos)
            break;
        start = dot + 1;
    }
    return *cur;
}

} // namespace

// --- registry --------------------------------------------------------

TEST(MetricsRegistry, CreatesAndReusesStatsByPath)
{
    MetricsRegistry reg;
    Counter &c = reg.counter("sim.llc.hits");
    c.inc(3);
    EXPECT_EQ(&reg.counter("sim.llc.hits"), &c); // stable address
    EXPECT_EQ(reg.counter("sim.llc.hits").get(), 3u);

    reg.gauge("sim.mpki").set(17.5);
    reg.distribution("sim.dram.queueDepth").add(2.0);
    EXPECT_EQ(reg.size(), 3u);

    StatsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.entries.size(), 3u);
    EXPECT_EQ(snap.entries.at("sim.llc.hits").kind, StatKind::Counter);
    EXPECT_EQ(snap.entries.at("sim.llc.hits").scalar, 3.0);
    EXPECT_EQ(snap.entries.at("sim.mpki").scalar, 17.5);
    EXPECT_EQ(snap.entries.at("sim.dram.queueDepth").dist.count, 1u);
}

TEST(MetricsRegistry, GlobalRegistryIsASingleton)
{
    EXPECT_EQ(&MetricsRegistry::global(), &MetricsRegistry::global());
}

TEST(MetricsRegistry, PhaseTimerRecordsIntoDistribution)
{
    MetricsRegistry reg;
    {
        PhaseTimer t("phase.test", reg);
        EXPECT_GE(t.elapsedSeconds(), 0.0);
    }
    const DistributionSnapshot d =
        reg.distribution("phase.test").snapshot();
    EXPECT_EQ(d.count, 1u);
    EXPECT_GE(d.sum, 0.0);
}

// --- distribution ----------------------------------------------------

TEST(MetricsDistribution, BucketEdges)
{
    // Bucket 0: everything below 1. Bucket k >= 1: [2^(k-1), 2^k).
    EXPECT_EQ(Distribution::bucketOf(0.0), 0);
    EXPECT_EQ(Distribution::bucketOf(0.5), 0);
    EXPECT_EQ(Distribution::bucketOf(-3.0), 0);
    EXPECT_EQ(Distribution::bucketOf(1.0), 1);
    EXPECT_EQ(Distribution::bucketOf(1.999), 1);
    EXPECT_EQ(Distribution::bucketOf(2.0), 2);
    EXPECT_EQ(Distribution::bucketOf(3.0), 2);
    EXPECT_EQ(Distribution::bucketOf(4.0), 3);
    EXPECT_EQ(Distribution::bucketOf(1024.0), 11);

    EXPECT_EQ(Distribution::bucketLow(0), 0.0);
    EXPECT_EQ(Distribution::bucketHigh(0), 1.0);
    EXPECT_EQ(Distribution::bucketLow(3), 4.0);
    EXPECT_EQ(Distribution::bucketHigh(3), 8.0);

    for (double x : {0.25, 1.0, 3.0, 100.0, 1e12}) {
        const int b = Distribution::bucketOf(x);
        EXPECT_GE(x, Distribution::bucketLow(b)) << x;
        EXPECT_LT(x, Distribution::bucketHigh(b)) << x;
    }
}

TEST(MetricsDistribution, MomentsMatchWelford)
{
    Distribution d;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        d.add(x);
    const DistributionSnapshot s = d.snapshot();
    EXPECT_EQ(s.count, 8u);
    EXPECT_DOUBLE_EQ(s.sum, 40.0);
    EXPECT_DOUBLE_EQ(s.mean, 5.0);
    EXPECT_DOUBLE_EQ(s.stdev(), 2.0); // population stdev
    EXPECT_EQ(s.minimum, 2.0);
    EXPECT_EQ(s.maximum, 9.0);
}

TEST(MetricsDistribution, MergeMatchesSingleStream)
{
    Distribution a, b, all;
    for (int i = 0; i < 100; ++i) {
        const double x = double(i * i % 37);
        (i % 2 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    const DistributionSnapshot merged = a.snapshot();
    const DistributionSnapshot direct = all.snapshot();
    EXPECT_EQ(merged.count, direct.count);
    EXPECT_DOUBLE_EQ(merged.sum, direct.sum);
    EXPECT_NEAR(merged.mean, direct.mean, 1e-12);
    EXPECT_NEAR(merged.m2, direct.m2, 1e-9);
    EXPECT_EQ(merged.minimum, direct.minimum);
    EXPECT_EQ(merged.maximum, direct.maximum);
    EXPECT_EQ(merged.buckets, direct.buckets);
}

TEST(MetricsDistribution, ConcurrentAddsLoseNothing)
{
    MetricsRegistry reg;
    Distribution &d = reg.distribution("contended");
    Counter &c = reg.counter("contended.count");
    constexpr int kThreads = 8, kPer = 1000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (int i = 0; i < kPer; ++i) {
                d.add(double(t));
                c.inc();
            }
        });
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(d.snapshot().count, std::uint64_t(kThreads * kPer));
    EXPECT_EQ(c.get(), std::uint64_t(kThreads * kPer));
}

// --- snapshots -------------------------------------------------------

TEST(MetricsSnapshot, DiffIsExactForCountersAndDistributions)
{
    MetricsRegistry reg;
    Counter &c = reg.counter("runner.memo.hits");
    Distribution &d = reg.distribution("runner.simulateSeconds");
    c.inc(10);
    d.add(1.0);
    d.add(3.0);
    const StatsSnapshot before = reg.snapshot();

    c.inc(5);
    d.add(7.0);
    d.add(9.0);
    const StatsSnapshot delta = reg.snapshot().diff(before);

    EXPECT_EQ(delta.entries.at("runner.memo.hits").scalar, 5.0);
    const DistributionSnapshot &dd =
        delta.entries.at("runner.simulateSeconds").dist;
    EXPECT_EQ(dd.count, 2u);
    EXPECT_DOUBLE_EQ(dd.sum, 16.0);
    EXPECT_NEAR(dd.mean, 8.0, 1e-12);
    EXPECT_NEAR(dd.m2, 2.0, 1e-9); // var of {7,9} * 2
}

TEST(MetricsSnapshot, MergeSumAccumulates)
{
    StatsSnapshot a, b;
    a.setCounter("x.hits", 3);
    b.setCounter("x.hits", 4);
    a.setGauge("x.energy", 1.5);
    b.setGauge("x.energy", 2.5);
    a.mergeSum(b);
    EXPECT_EQ(a.entries.at("x.hits").scalar, 7.0);
    EXPECT_DOUBLE_EQ(a.entries.at("x.energy").scalar, 4.0);
}

TEST(MetricsSnapshot, WithPrefixRewritesEveryPath)
{
    StatsSnapshot s;
    s.setCounter("llc.hits", 1);
    s.setGauge("mpki", 2.0);
    const StatsSnapshot p = s.withPrefix("baseline");
    EXPECT_EQ(p.entries.count("baseline.llc.hits"), 1u);
    EXPECT_EQ(p.entries.count("baseline.mpki"), 1u);
    EXPECT_EQ(p.entries.size(), 2u);
}

// --- percentiles -----------------------------------------------------

TEST(MetricsPercentile, ExactForUniformStream)
{
    Distribution d;
    for (int i = 1; i <= 1000; ++i)
        d.add(double(i));
    const DistributionSnapshot s = d.snapshot();
    // Log-2 bucket interpolation: the estimate lands inside the
    // bucket holding the true rank, i.e. within a factor of 2.
    const double p50 = s.percentile(0.50);
    const double p95 = s.percentile(0.95);
    const double p99 = s.percentile(0.99);
    EXPECT_GE(p50, 256.0);
    EXPECT_LE(p50, 1024.0);
    EXPECT_GE(p95, 512.0);
    EXPECT_LE(p95, 1000.0);
    EXPECT_GE(p99, p95);
    EXPECT_LE(p99, s.maximum);
    EXPECT_LE(p50, p95);
}

TEST(MetricsPercentile, ClampedToObservedRange)
{
    Distribution d;
    d.add(5.0);
    d.add(6.0);
    d.add(7.0);
    const DistributionSnapshot s = d.snapshot();
    // All three fall in bucket [4,8); interpolation must never
    // escape [min, max].
    for (double q : {0.0, 0.01, 0.5, 0.95, 0.99, 1.0}) {
        EXPECT_GE(s.percentile(q), 5.0) << q;
        EXPECT_LE(s.percentile(q), 7.0) << q;
    }
    EXPECT_EQ(s.percentile(0.0), 5.0);
    EXPECT_EQ(s.percentile(1.0), 7.0);
}

TEST(MetricsPercentile, EmptyDistributionIsZero)
{
    const DistributionSnapshot s = Distribution().snapshot();
    EXPECT_EQ(s.percentile(0.5), 0.0);
}

TEST(MetricsPercentile, SingleValueIsThatValue)
{
    Distribution d;
    d.add(42.0);
    const DistributionSnapshot s = d.snapshot();
    EXPECT_EQ(s.percentile(0.5), 42.0);
    EXPECT_EQ(s.percentile(0.99), 42.0);
}

// --- exporters -------------------------------------------------------

TEST(MetricsJson, EscapesControlAndQuoteCharacters)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(jsonEscape(std::string("a\x01z")), "a\\u0001z");
}

TEST(MetricsJson, ExportRoundTripsThroughAParser)
{
    MetricsRegistry reg;
    reg.counter("sim.llc.hits").inc(12345);
    reg.gauge("sim.mpki").set(16.4625);
    reg.gauge("sim.tiny").set(1.2345678901234567e-300);
    Distribution &d = reg.distribution("sim.dram.queueDepth");
    for (int i = 0; i < 10; ++i)
        d.add(double(i));

    const StatsSnapshot snap = reg.snapshot();
    const JsonValue root = parseJson(snap.toJson());

    EXPECT_EQ(at(root, "sim.llc.hits").num, 12345.0);
    EXPECT_EQ(at(root, "sim.mpki").num, 16.4625); // bit-identical
    EXPECT_EQ(at(root, "sim.tiny").num, 1.2345678901234567e-300);
    const JsonValue &dist = at(root, "sim.dram.queueDepth");
    EXPECT_EQ(at(dist, "count").num, 10.0);
    EXPECT_EQ(at(dist, "sum").num, 45.0);
    std::uint64_t bucket_total = 0;
    for (const JsonValue &b : at(dist, "buckets").array)
        bucket_total += std::uint64_t(at(b, "count").num);
    EXPECT_EQ(bucket_total, 10u);
}

TEST(MetricsJson, LeafAndSubtreeCollisionUsesSelfKey)
{
    StatsSnapshot s;
    s.setCounter("sim.llc", 7);        // leaf ...
    s.setCounter("sim.llc.hits", 3);   // ... and subtree
    const JsonValue root = parseJson(s.toJson());
    EXPECT_EQ(at(root, "sim.llc._self").num, 7.0);
    EXPECT_EQ(at(root, "sim.llc.hits").num, 3.0);
}

TEST(MetricsCsv, OneRowPerPathWithHeader)
{
    MetricsRegistry reg;
    reg.counter("a.hits").inc(2);
    reg.distribution("b.lat").add(4.0);
    const std::string csv = reg.snapshot().toCsv();
    EXPECT_NE(csv.find("path,kind,value,count,sum,min,max,mean,"
                       "stdev,p50,p95,p99"),
              std::string::npos);
    EXPECT_NE(csv.find("a.hits,counter,2"), std::string::npos);
    EXPECT_NE(csv.find("b.lat,distribution"), std::string::npos);
    // A single-value distribution's percentile columns are that value.
    EXPECT_NE(csv.find(",4,4,4\n"), std::string::npos);
}

TEST(MetricsJson, DistributionsCarryPercentiles)
{
    MetricsRegistry reg;
    Distribution &d = reg.distribution("sim.lat");
    for (int i = 1; i <= 100; ++i)
        d.add(double(i));
    const JsonValue root = parseJson(reg.snapshot().toJson());
    const JsonValue &dist = at(root, "sim.lat");
    const double p50 = at(dist, "p50").num;
    const double p95 = at(dist, "p95").num;
    const double p99 = at(dist, "p99").num;
    EXPECT_GT(p50, 0.0);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    EXPECT_LE(p99, 100.0);
}

TEST(MetricsPrometheus, ExposesCountersGaugesAndSummaries)
{
    MetricsRegistry reg;
    reg.counter("service.requests.run").inc(3);
    reg.gauge("service.uptimeSeconds").set(12.5);
    Distribution &d = reg.distribution("service.runSeconds");
    d.add(1.0);
    d.add(3.0);
    const std::string text = reg.snapshot().toPrometheus();

    EXPECT_NE(text.find("# TYPE nvmcache_service_requests_run "
                        "counter"),
              std::string::npos);
    EXPECT_NE(text.find("nvmcache_service_requests_run 3"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE nvmcache_service_uptimeSeconds gauge"),
              std::string::npos);
    EXPECT_NE(text.find("nvmcache_service_uptimeSeconds 12.5"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE nvmcache_service_runSeconds summary"),
              std::string::npos);
    EXPECT_NE(
        text.find("nvmcache_service_runSeconds{quantile=\"0.5\"}"),
        std::string::npos);
    EXPECT_NE(text.find("nvmcache_service_runSeconds_sum 4"),
              std::string::npos);
    EXPECT_NE(text.find("nvmcache_service_runSeconds_count 2"),
              std::string::npos);
    // Exposition format: every line ends in '\n', no blank lines.
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(text.back(), '\n');
    EXPECT_EQ(text.find("\n\n"), std::string::npos);
}

TEST(MetricsStatsFile, CreatesMissingParentDirectories)
{
    namespace fs = std::filesystem;
    const fs::path root =
        fs::temp_directory_path() / "nvmcache_test_statsdir";
    fs::remove_all(root);
    const fs::path out = root / "a" / "b" / "stats.json";

    StatsSnapshot snap;
    snap.setCounter("x.hits", 1);
    writeStatsFile(out.string(), snap, StatsFormat::Json);

    std::ifstream in(out);
    ASSERT_TRUE(in.good()) << out;
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("x"), std::string::npos);
    fs::remove_all(root);
}

// --- determinism -----------------------------------------------------

TEST(MetricsDeterminism, FigureStudyDetailAgreesAcrossJobCounts)
{
    // Mirrors test_parallel.cc's headline contract, extended to the
    // structured report: every simulation-derived entry (counters,
    // gauges, distributions) must be bit-identical between a serial
    // and a parallel study. Wall-clock phase.*/runner.* timings live
    // in the global registry, not in the per-run details, so they
    // cannot contaminate this comparison.
    const FigureConfig cfg{CapacityMode::FixedCapacity, 0.01};
    ExperimentRunner serial;
    serial.setJobs(1);
    const StatsSnapshot a =
        aggregateSimStats(runFigureStudy(cfg, serial));

    ExperimentRunner parallel;
    parallel.setJobs(parallelJobs());
    const StatsSnapshot b =
        aggregateSimStats(runFigureStudy(cfg, parallel));

    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.entries.size(), b.entries.size());
    for (const auto &[path, value] : a.entries) {
        ASSERT_EQ(b.entries.count(path), 1u) << path;
        EXPECT_TRUE(value == b.entries.at(path)) << path;
    }

    // And the report carries the advertised subsystems.
    EXPECT_EQ(a.entries.count("sim.llc.demandReads"), 1u);
    EXPECT_EQ(a.entries.count("sim.dram.queueDelay"), 1u);
    EXPECT_EQ(a.entries.count("sim.cores.cycleImbalance"), 1u);
}
