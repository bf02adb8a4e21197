/**
 * @file
 * Tests for the WorkloadRegistry redesign: spec-string resolution and
 * canonicalization, parameterized server families (kv / phased /
 * tenants), runKey sensitivity to every workload parameter, warm-up
 * exclusion, per-tenant statistics, and bit-identity of the new
 * families across job counts.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "nvsim/published.hh"
#include "prism/metrics.hh"
#include "workload/generators.hh"
#include "workload/suite.hh"
#include "workload/workload_registry.hh"

using namespace nvmcache;

namespace {

const LlcModel &
sram()
{
    return publishedLlcModel("SRAM", CapacityMode::FixedCapacity);
}

void
expectSameStats(const SimStats &a, const SimStats &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.llc.demandReads, b.llc.demandReads);
    EXPECT_EQ(a.llc.demandMisses, b.llc.demandMisses);
    EXPECT_EQ(a.dramReads, b.dramReads);
    EXPECT_EQ(a.dramWrites, b.dramWrites);
    EXPECT_EQ(a.llcLeakageEnergy, b.llcLeakageEnergy);
    EXPECT_EQ(a.llcDynamicEnergy, b.llcDynamicEnergy);
    EXPECT_TRUE(a.detail == b.detail);
}

std::uint64_t
detailCounter(const StatsSnapshot &snap, const std::string &path)
{
    for (const auto &[p, v] : snap.entries)
        if (p == path)
            return std::uint64_t(v.scalar);
    ADD_FAILURE() << "missing stats entry " << path;
    return 0;
}

bool
hasEntryWithPrefix(const StatsSnapshot &snap, const std::string &prefix)
{
    for (const auto &[p, v] : snap.entries) {
        (void)v;
        if (p.compare(0, prefix.size(), prefix) == 0)
            return true;
    }
    return false;
}

} // namespace

// --- resolution and canonicalization --------------------------------

TEST(WorkloadRegistry, EveryTableVWorkloadIsRegistered)
{
    const WorkloadRegistry &reg = WorkloadRegistry::global();
    for (const BenchmarkSpec &b : benchmarkSuite()) {
        ASSERT_TRUE(reg.contains(b.name)) << b.name;
        // A fixed kind resolves to the suite's spec unchanged.
        const BenchmarkSpec &r = reg.resolve(b.name);
        EXPECT_EQ(r.name, b.name);
        EXPECT_EQ(r.suite, b.suite);
        EXPECT_EQ(r.defaultThreads, b.defaultThreads);
    }
    for (const BenchmarkSpec &b : extraBenchmarks())
        EXPECT_TRUE(reg.contains(b.name)) << b.name;
}

TEST(WorkloadRegistry, ServerFamiliesAreRegistered)
{
    const WorkloadRegistry &reg = WorkloadRegistry::global();
    for (const char *kind : {"kv", "phased", "tenants"}) {
        ASSERT_TRUE(reg.contains(kind)) << kind;
        EXPECT_EQ(reg.kind(kind).suite, "server");
        EXPECT_FALSE(reg.kind(kind).params.empty());
    }
}

TEST(WorkloadRegistry, EquivalentSpellingsInternIdentically)
{
    const WorkloadRegistry &reg = WorkloadRegistry::global();
    // "64M" and its digit spelling are the same canonical value, so
    // both resolve to the identical interned spec object.
    const BenchmarkSpec &a = reg.resolve("kv:keys=64M");
    const BenchmarkSpec &b = reg.resolve("kv:keys=67108864");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(a.name, "kv:keys=64M");

    // Overrides equal to the default canonicalize away entirely.
    const BenchmarkSpec &c = reg.resolve("kv");
    const BenchmarkSpec &d = reg.resolve("kv:skew=0.99,readRatio=0.95");
    EXPECT_EQ(&c, &d);
    EXPECT_EQ(c.name, "kv");
}

TEST(WorkloadRegistry, CanonicalNameSortsAndNormalizes)
{
    const WorkloadRegistry &reg = WorkloadRegistry::global();
    EXPECT_EQ(reg.canonicalName("kv", {{"skew", "1.20"},
                                       {"keys", "1024"}}),
              "kv:keys=1K,skew=1.2");
    EXPECT_EQ(reg.canonicalName("tenants", {{"n", "2"}}),
              "tenants:n=2");
}

TEST(WorkloadRegistry, ListValuedParamsKeepTheirCommas)
{
    const WorkloadRegistry &reg = WorkloadRegistry::global();
    // A comma-token without '=' continues the previous value, so
    // list-typed parameters parse inside the flat spec string.
    const BenchmarkSpec &a =
        reg.resolve("phased:readRatios=0.9,0.6,warm=0.1");
    EXPECT_EQ(a.name, "phased:readRatios=0.9,0.6,warm=0.1");
    ASSERT_EQ(a.gen.phases.size(), 2u);
    EXPECT_DOUBLE_EQ(a.gen.phases[0].loadFraction, 0.9);
    EXPECT_DOUBLE_EQ(a.gen.phases[1].loadFraction, 0.6);
    EXPECT_DOUBLE_EQ(a.gen.warmupFraction, 0.1);
}

TEST(WorkloadRegistry, UnknownTokensThrowNamedErrors)
{
    const WorkloadRegistry &reg = WorkloadRegistry::global();
    try {
        reg.resolve("nosuch");
        FAIL() << "expected runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("unknown workload"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("valid kinds"),
                  std::string::npos);
    }
    try {
        reg.resolve("kv:bogus=1");
        FAIL() << "expected runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("unknown parameter "
                                             "'bogus'"),
                  std::string::npos);
    }
    // Fixed Table V kinds accept no parameter section.
    EXPECT_THROW(reg.resolve("lbm:foo=1"), std::runtime_error);
    // Semantic range errors are named too.
    EXPECT_THROW(reg.resolve("kv:readRatio=1.5"), std::runtime_error);
    EXPECT_THROW(reg.resolve("kv:skew=0"), std::runtime_error);
    EXPECT_THROW(reg.resolve("kv:warm=1"), std::runtime_error);
    EXPECT_THROW(reg.resolve("kv:keys=0"), std::runtime_error);
    EXPECT_THROW(reg.resolve("tenants:n=0"), std::runtime_error);
    EXPECT_THROW(reg.resolve("tenants:n=3,readRatios=0.9,0.5"),
                 std::runtime_error);
}

TEST(WorkloadRegistry, CountParsingRoundTrips)
{
    EXPECT_EQ(parseCount("t", "64"), 64u);
    EXPECT_EQ(parseCount("t", "4K"), 4096u);
    EXPECT_EQ(parseCount("t", "64M"), 67108864u);
    EXPECT_EQ(parseCount("t", "2G"), 2147483648u);
    EXPECT_THROW(parseCount("t", "12Q"), std::runtime_error);
    EXPECT_THROW(parseCount("t", ""), std::runtime_error);
    EXPECT_EQ(renderCount(4096), "4K");
    EXPECT_EQ(renderCount(67108864), "64M");
    EXPECT_EQ(renderCount(100), "100");
}

TEST(WorkloadRegistryDeath, BenchmarkWrapperStillDiesOnUnknownNames)
{
    // The deprecated free function must keep its historical contract:
    // process exit with a diagnostic, now listing registry kinds.
    EXPECT_DEATH(benchmark("nosuch"), "unknown benchmark");
    EXPECT_DEATH(benchmark("kv:bogus=1"), "unknown benchmark");
}

TEST(WorkloadRegistryDeath, StreamConfigValidationNamesTheStream)
{
    GeneratorConfig cfg;
    cfg.totalAccesses = 1000;

    StreamConfig bad;
    bad.kind = StreamConfig::Kind::Zipf;
    bad.regionBytes = 1 << 20;
    bad.zipfSkew = 0.0;
    cfg.loads.streams = {bad};
    EXPECT_DEATH(SyntheticTrace(cfg, 0, 1),
                 "loads\\[0\\].*zipfSkew must be > 0");

    bad.zipfSkew = 0.9;
    bad.weight = 0.0;
    cfg.loads.streams = {bad};
    EXPECT_DEATH(SyntheticTrace(cfg, 0, 1),
                 "loads\\[0\\].*weight must be > 0");

    bad.weight = 1.0;
    bad.regionBytes = 32;
    cfg.loads.streams = {bad};
    EXPECT_DEATH(SyntheticTrace(cfg, 0, 1),
                 "loads\\[0\\].*regionBytes must be >= 64");
}

// --- warm-up phase ---------------------------------------------------

TEST(WorkloadRegistry, WarmupSplitCountsLeadingAccesses)
{
    const BenchmarkSpec &spec =
        WorkloadRegistry::global().resolve("kv:keys=1K,ops=40K,"
                                           "warm=0.5");
    // ops=40K is binary: 40960 accesses, half of them warm-up.
    const std::vector<std::uint64_t> split =
        warmupSplit(spec.gen, 1);
    ASSERT_EQ(split.size(), 1u);
    EXPECT_EQ(split[0], 20480u);

    SyntheticTrace t(spec.gen, 0, 1);
    EXPECT_EQ(t.warmupAccesses(), 20480u);

    // Multi-thread split follows the generator's length split.
    const std::vector<std::uint64_t> four =
        warmupSplit(spec.gen, 4);
    ASSERT_EQ(four.size(), 4u);
    EXPECT_EQ(four[0], 5120u);
    EXPECT_EQ(four[1], 5120u);
}

TEST(WorkloadRegistry, WarmupIsExcludedFromFeaturesOnly)
{
    const BenchmarkSpec &spec =
        WorkloadRegistry::global().resolve("kv:keys=1K,ops=40K,"
                                           "warm=0.5");
    SyntheticTrace t(spec.gen, 0, 1);
    std::vector<TraceSource *> threads{&t};

    WorkloadFeatures all = characterize(threads);
    WorkloadFeatures tail =
        characterize(threads, 10, warmupSplit(spec.gen, 1));
    EXPECT_EQ(all.reads.total + all.writes.total, 40960u);
    EXPECT_EQ(tail.reads.total + tail.writes.total, 20480u);
    EXPECT_LE(tail.reads.unique, all.reads.unique);

    // The simulation, by contrast, sees every access: warm-up shapes
    // cache state and must stay inside the run.
    ExperimentRunner runner;
    runner.setJobs(1);
    SimStats s = runner.runOne(spec, sram());
    EXPECT_GT(s.llc.demandReads, 0u);
}

// --- runKey / memo sensitivity ---------------------------------------

TEST(WorkloadRegistry, EveryParamChangesTheRunKey)
{
    // Each spec differs from the base in exactly one parameter; if
    // any were missing from the engine's genKey folding, the memo
    // would serve a stale result and `simulations` would fall short.
    const std::vector<std::string> specs = {
        "kv:keys=1K,ops=30K",
        "kv:keys=2K,ops=30K",
        "kv:keys=1K,ops=36K",
        "kv:keys=1K,ops=30K,readRatio=0.5",
        "kv:keys=1K,ops=30K,skew=0.7",
        "kv:keys=1K,ops=30K,seed=7",
        "kv:keys=1K,ops=30K,warm=0.4",
        "phased:keys=1K,ops=30K",
        "phased:keys=1K,ops=30K,readRatios=0.9,0.6",
        "phased:keys=1K,ops=30K,skews=1,0.5",
        "tenants:n=2,keys=1K,ops=30K",
        "tenants:n=2,keys=1K,ops=30K,readRatios=0.9",
        "tenants:n=2,keys=1K,ops=30K,skews=0.7",
        "tenants:n=3,keys=1K,ops=30K",
    };
    ExperimentRunner runner;
    runner.setJobs(1);
    const WorkloadRegistry &reg = WorkloadRegistry::global();
    for (const std::string &s : specs)
        runner.runOne(reg.resolve(s), sram());
    EXPECT_EQ(runner.runnerStats().simulations, specs.size());
    EXPECT_EQ(runner.runnerStats().memoHits, 0u);

    // Identical parameterization (different spelling) IS a memo hit.
    runner.runOne(reg.resolve("kv:keys=1024,ops=30720"), sram());
    EXPECT_EQ(runner.runnerStats().simulations, specs.size());
    EXPECT_EQ(runner.runnerStats().memoHits, 1u);
}

TEST(WorkloadRegistry, PerThreadStatsFlagChangesTheRunKey)
{
    BenchmarkSpec spec =
        WorkloadRegistry::global().resolve("tenants:n=2,keys=1K,"
                                           "ops=30K");
    ExperimentRunner runner;
    runner.setJobs(1);
    SimStats with = runner.runOne(spec, sram());
    spec.gen.perThreadStats = false;
    spec.name += "#noTenantStats";
    SimStats without = runner.runOne(spec, sram());
    EXPECT_EQ(runner.runnerStats().simulations, 2u);
    EXPECT_EQ(runner.runnerStats().memoHits, 0u);
    EXPECT_TRUE(hasEntryWithPrefix(with.detail, "sim.tenant0."));
    EXPECT_FALSE(hasEntryWithPrefix(without.detail, "sim.tenant0."));
    // The flag only adds reporting; the simulation is unchanged.
    EXPECT_EQ(with.llc.demandReads, without.llc.demandReads);
    EXPECT_EQ(with.seconds, without.seconds);
}

// --- per-tenant statistics -------------------------------------------

TEST(WorkloadRegistry, TenantStatsSumToGlobalLlcTraffic)
{
    const BenchmarkSpec &spec =
        WorkloadRegistry::global().resolve("tenants:n=3,keys=1K,"
                                           "ops=45K");
    ExperimentRunner runner;
    runner.setJobs(1);
    SimStats s = runner.runOne(spec, sram());

    std::uint64_t reads = 0, hits = 0, misses = 0;
    for (int i = 0; i < 3; ++i) {
        const std::string p = "sim.tenant" + std::to_string(i) + ".";
        ASSERT_TRUE(hasEntryWithPrefix(s.detail, p)) << p;
        reads += detailCounter(s.detail, p + "llc.demandReads");
        hits += detailCounter(s.detail, p + "llc.demandHits");
        misses += detailCounter(s.detail, p + "llc.demandMisses");
    }
    EXPECT_FALSE(hasEntryWithPrefix(s.detail, "sim.tenant3."));
    EXPECT_EQ(reads, s.llc.demandReads);
    EXPECT_EQ(hits, s.llc.demandHits);
    EXPECT_EQ(misses, s.llc.demandMisses);
    EXPECT_EQ(hits + misses, reads);
}

// --- determinism ------------------------------------------------------

TEST(WorkloadRegistry, ServerFamiliesBitIdenticalAcrossJobs)
{
    const WorkloadRegistry &reg = WorkloadRegistry::global();
    for (const char *s : {"kv:keys=1K,ops=30K",
                          "phased:keys=1K,ops=30K",
                          "tenants:n=2,keys=1K,ops=30K"}) {
        const BenchmarkSpec &spec = reg.resolve(s);
        ExperimentRunner serial;
        serial.setJobs(1);
        ExperimentRunner parallel;
        parallel.setJobs(8);
        TechSweep a =
            serial.sweepTechs(spec, CapacityMode::FixedCapacity);
        TechSweep b =
            parallel.sweepTechs(spec, CapacityMode::FixedCapacity);
        ASSERT_EQ(a.results.size(), b.results.size()) << s;
        for (std::size_t i = 0; i < a.results.size(); ++i) {
            EXPECT_EQ(a.results[i].tech, b.results[i].tech);
            EXPECT_EQ(a.results[i].speedup, b.results[i].speedup);
            EXPECT_EQ(a.results[i].normEnergy,
                      b.results[i].normEnergy);
            expectSameStats(a.results[i].stats, b.results[i].stats);
        }
    }
}

// --- generator structure ----------------------------------------------

TEST(WorkloadRegistry, TenantsInterleaveDeterministically)
{
    // All tenants walk the same arena layout, so two builds of the
    // same thread are identical, and different tenants with distinct
    // regionIds never alias each other's key space.
    const BenchmarkSpec &spec =
        WorkloadRegistry::global().resolve("tenants:n=2,keys=1K,"
                                           "ops=20K");
    SyntheticTrace a0(spec.gen, 0, 2), b0(spec.gen, 0, 2);
    SyntheticTrace a1(spec.gen, 1, 2);
    MemAccess x, y;
    std::set<std::uint64_t> t0, t1;
    while (a0.next(x)) {
        ASSERT_TRUE(b0.next(y));
        EXPECT_EQ(x.addr, y.addr);
        EXPECT_EQ(int(x.kind), int(y.kind));
        t0.insert(x.addr);
    }
    EXPECT_FALSE(b0.next(y));
    while (a1.next(x))
        t1.insert(x.addr);
    for (std::uint64_t addr : t0)
        EXPECT_EQ(t1.count(addr), 0u) << std::hex << addr;
}
