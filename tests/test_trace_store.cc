/**
 * @file
 * Tests of the record-once/replay-many stores: RecordedTrace replay
 * fidelity, PrivateTrace-backed simulation bit-identity against
 * on-the-fly generation, concurrency independence, and the
 * exactly-once build discipline across whole studies, including the
 * PRISM feature store above the traces.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <thread>
#include <vector>

#include "core/study.hh"
#include "nvsim/published.hh"
#include "workload/recorded_trace.hh"

using namespace nvmcache;

namespace {

/** A trimmed copy of a suite workload to keep runs fast. */
BenchmarkSpec
trimmed(const std::string &name, std::uint64_t accesses = 150'000)
{
    BenchmarkSpec spec = benchmark(name);
    spec.gen.totalAccesses = accesses;
    return spec;
}

GeneratorConfig
oneStreamConfig(StreamConfig::Kind kind)
{
    GeneratorConfig cfg;
    cfg.totalAccesses = 30'000;
    cfg.loadFraction = 0.5;
    cfg.storeFraction = 0.3;
    cfg.meanGap = 2.0;
    StreamConfig s;
    s.kind = kind;
    s.regionBytes = 1 << 20;
    if (kind == StreamConfig::Kind::Zipf)
        s.zipfSkew = 0.9;
    cfg.loads.streams = {s};
    cfg.stores.streams = {s};
    cfg.ifetches.streams = {s};
    cfg.seed = 11;
    return cfg;
}

std::vector<MemAccess>
drainSource(TraceSource &trace)
{
    std::vector<MemAccess> out;
    MemAccess a;
    while (trace.next(a))
        out.push_back(a);
    return out;
}

std::vector<MemAccess>
drainCursor(TraceCursor cur)
{
    std::vector<MemAccess> out;
    std::array<MemAccess, 100> batch;
    std::size_t n;
    while ((n = cur.fill(batch)) != 0)
        out.insert(out.end(), batch.begin(), batch.begin() + n);
    return out;
}

void
expectSameAccesses(const std::vector<MemAccess> &a,
                   const std::vector<MemAccess> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].addr, b[i].addr) << "access " << i;
        ASSERT_EQ(a[i].kind, b[i].kind) << "access " << i;
        ASSERT_EQ(a[i].nonMemInstrs, b[i].nonMemInstrs)
            << "access " << i;
    }
}

/**
 * Every field of both SimStats exactly equal — floating-point fields
 * compared with ==, i.e. bit-identity for non-NaN values, including
 * the full hierarchical detail report.
 */
void
expectSimStatsIdentical(const SimStats &a, const SimStats &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.llc.demandReads, b.llc.demandReads);
    EXPECT_EQ(a.llc.demandHits, b.llc.demandHits);
    EXPECT_EQ(a.llc.demandMisses, b.llc.demandMisses);
    EXPECT_EQ(a.llc.fills, b.llc.fills);
    EXPECT_EQ(a.llc.writebacksIn, b.llc.writebacksIn);
    EXPECT_EQ(a.llc.dirtyEvictions, b.llc.dirtyEvictions);
    EXPECT_EQ(a.llc.writeBypasses, b.llc.writeBypasses);
    EXPECT_EQ(a.llc.readWaitCycles, b.llc.readWaitCycles);
    EXPECT_EQ(a.llc.writeStallCycles, b.llc.writeStallCycles);
    EXPECT_EQ(a.llc.hitEnergy, b.llc.hitEnergy);
    EXPECT_EQ(a.llc.missEnergy, b.llc.missEnergy);
    EXPECT_EQ(a.llc.writeEnergy, b.llc.writeEnergy);
    EXPECT_EQ(a.dramReads, b.dramReads);
    EXPECT_EQ(a.dramWrites, b.dramWrites);
    EXPECT_EQ(a.dramQueueCycles, b.dramQueueCycles);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.coreCycles, b.coreCycles);
    EXPECT_EQ(a.llcLeakageEnergy, b.llcLeakageEnergy);
    EXPECT_EQ(a.llcDynamicEnergy, b.llcDynamicEnergy);
    EXPECT_TRUE(a.detail == b.detail);
}

} // namespace

TEST(TraceStore, ReplayMatchesGeneratorForEveryStreamKind)
{
    for (StreamConfig::Kind kind :
         {StreamConfig::Kind::Zipf, StreamConfig::Kind::Uniform,
          StreamConfig::Kind::Sequential, StreamConfig::Kind::Chase}) {
        const GeneratorConfig cfg = oneStreamConfig(kind);
        SyntheticTrace gen(cfg, 0, 1);
        auto trace = RecordedTrace::record(cfg, 1);
        EXPECT_EQ(trace->totalAccesses(), cfg.totalAccesses);
        expectSameAccesses(drainCursor(trace->cursor(0)),
                           drainSource(gen));
    }
}

TEST(TraceStore, ReplayMatchesGeneratorPerThread)
{
    const GeneratorConfig cfg =
        oneStreamConfig(StreamConfig::Kind::Zipf);
    const std::uint32_t threads = 3;
    auto trace = RecordedTrace::record(cfg, threads);
    ASSERT_EQ(trace->threads(), threads);
    for (std::uint32_t t = 0; t < threads; ++t) {
        SyntheticTrace gen(cfg, t, threads);
        expectSameAccesses(drainCursor(trace->cursor(t)),
                           drainSource(gen));
    }
}

TEST(TraceStore, CursorResetRewindsToTheBeginning)
{
    const GeneratorConfig cfg =
        oneStreamConfig(StreamConfig::Kind::Uniform);
    auto trace = RecordedTrace::record(cfg, 1);
    TraceCursor cur = trace->cursor(0);
    const auto first = drainCursor(cur);

    // Full drain, reset, drain again.
    cur.reset();
    std::vector<MemAccess> second;
    std::array<MemAccess, 100> batch;
    std::size_t n;
    while ((n = cur.fill(batch)) != 0)
        second.insert(second.end(), batch.begin(),
                      batch.begin() + n);
    expectSameAccesses(first, second);

    // Partial drain, reset: replay starts over, not mid-stream.
    cur.reset();
    (void)cur.fill(batch);
    cur.reset();
    EXPECT_EQ(cur.remaining(), trace->totalAccesses());
    std::vector<MemAccess> third;
    while ((n = cur.fill(batch)) != 0)
        third.insert(third.end(), batch.begin(), batch.begin() + n);
    expectSameAccesses(first, third);
}

TEST(TraceStore, ReplayedSimStatsBitIdenticalToOnTheFly)
{
    // The replay path skips generator and L1/L2 work entirely; its
    // SimStats — every scalar, every per-core cycle, the whole
    // exported detail tree — must still match a live simulation bit
    // for bit.
    for (const char *name : {"tonto", "vips"}) {
        const BenchmarkSpec spec = trimmed(name);
        const std::uint32_t threads = spec.defaultThreads;
        const LlcModel &llc =
            publishedLlcModel("Jan", CapacityMode::FixedCapacity);

        ExperimentRunner runner;
        runner.setJobs(1);
        const SimStats replayed = runner.runOne(spec, llc);

        SystemConfig cfg = runner.baseConfig();
        cfg.numCores = threads;
        System system(cfg, llc);
        auto traces = buildThreadTraces(spec.gen, threads);
        std::vector<TraceSource *> ptrs;
        for (auto &t : traces)
            ptrs.push_back(t.get());
        const SimStats live = system.run(ptrs);

        expectSimStatsIdentical(replayed, live);
    }
}

TEST(TraceStore, SweepBitIdenticalAtAnyJobCount)
{
    const BenchmarkSpec spec = trimmed("tonto");
    ExperimentRunner serial;
    serial.setJobs(1);
    ExperimentRunner parallel;
    parallel.setJobs(8);
    const TechSweep a =
        serial.sweepTechs(spec, CapacityMode::FixedCapacity);
    const TechSweep b =
        parallel.sweepTechs(spec, CapacityMode::FixedCapacity);
    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        EXPECT_EQ(a.results[i].tech, b.results[i].tech);
        EXPECT_EQ(a.results[i].speedup, b.results[i].speedup);
        EXPECT_EQ(a.results[i].normEnergy, b.results[i].normEnergy);
        EXPECT_EQ(a.results[i].normEd2p, b.results[i].normEd2p);
        expectSimStatsIdentical(a.results[i].stats,
                                b.results[i].stats);
    }
}

TEST(TraceStore, SweepRecordsOnceAndReplaysElevenTimes)
{
    const BenchmarkSpec spec = trimmed("tonto");
    ExperimentRunner runner;
    runner.setJobs(1);
    (void)runner.sweepTechs(spec, CapacityMode::FixedCapacity);
    const RunnerStats rs = runner.runnerStats();
    // One recording each; every one of the 11 models replays. The
    // private-level recording itself replays the recorded trace,
    // which accounts for the extra trace-store hit.
    EXPECT_EQ(rs.traceBuilds, 1u);
    EXPECT_EQ(rs.traceHits, 11u);
    EXPECT_EQ(rs.privateBuilds, 1u);
    EXPECT_EQ(rs.privateHits, 10u);
    EXPECT_GT(rs.traceBytes, 0u);
    EXPECT_GT(rs.privateBytes, 0u);
}

TEST(TraceStore, FigureAndCorrelationStudiesRecordEachTraceOnce)
{
    // A figure study touches every workload once per (generator,
    // threads) pair; the correlation study re-uses the same scaled
    // specs, so the union of both studies still builds each trace
    // exactly once.
    const double scale = 0.02;
    ExperimentRunner runner;
    const FigureStudy fig = runFigureStudy(
        FigureConfig{CapacityMode::FixedCapacity, scale}, runner);
    const std::size_t workloads =
        fig.singleThreaded.size() + fig.multiThreaded.size();
    RunnerStats rs = runner.runnerStats();
    EXPECT_EQ(rs.traceBuilds, workloads);
    EXPECT_EQ(rs.privateBuilds, workloads);
    EXPECT_GE(rs.traceHits, 10 * rs.traceBuilds);

    CorrelationConfig corr;
    corr.aiOnly = true;
    corr.techs = {"Jan"};
    corr.modes = {CapacityMode::FixedCapacity};
    corr.traceScale = scale;
    (void)runCorrelationStudy(corr, runner);
    rs = runner.runnerStats();
    EXPECT_EQ(rs.traceBuilds, workloads); // no re-recording
    EXPECT_EQ(rs.privateBuilds, workloads);
}

// --- feature store ----------------------------------------------------

namespace {

/** True when two feature rows agree bit for bit. */
bool
sameBits(const WorkloadFeatures &a, const WorkloadFeatures &b)
{
    const std::vector<double> x = a.featureVector();
    const std::vector<double> y = b.featureVector();
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) ==
               0;
}

/** A two-spec server suite small enough for a unit test. */
ServerSuiteConfig
smallSuite()
{
    ServerSuiteConfig cfg;
    cfg.tenantCounts = {1, 2};
    cfg.readRatios = {0.95};
    cfg.skews = {0.99};
    cfg.keys = "8K";
    cfg.ops = "60K";
    return cfg;
}

} // namespace

TEST(FeatureStore, ExactlyOnceUnderConcurrency)
{
    // Two tenants, so the warm-up split is per thread.
    const BenchmarkSpec &spec = benchmark("tenants:n=2,keys=8K,ops=60K");
    ExperimentRunner runner;
    std::vector<WorkloadFeatures> got(8);
    {
        std::vector<std::thread> callers;
        for (std::size_t i = 0; i < got.size(); ++i)
            callers.emplace_back(
                [&, i] { got[i] = runner.features(spec); });
        for (std::thread &t : callers)
            t.join();
    }
    const RunnerStats rs = runner.runnerStats();
    EXPECT_EQ(rs.featureBuilds, 1u);
    EXPECT_EQ(rs.featureHits, 7u);

    const WorkloadFeatures direct = characterize(
        *runner.recordedTrace(spec.gen, spec.defaultThreads), 10,
        warmupSplit(spec.gen, spec.defaultThreads));
    for (const WorkloadFeatures &f : got)
        EXPECT_TRUE(sameBits(f, direct));
}

TEST(FeatureStore, WarmStudyCharacterizesNothing)
{
    ExperimentRunner runner;
    const CorrelationStudy cold = runServerSuite(smallSuite(), runner);
    const RunnerStats c = runner.runnerStats();
    EXPECT_EQ(c.featureBuilds, cold.workloads.size());
    EXPECT_EQ(c.featureHits, 0u);

    const CorrelationStudy warm = runServerSuite(smallSuite(), runner);
    const RunnerStats w = runner.runnerStats();
    EXPECT_EQ(w.featureBuilds, c.featureBuilds);
    EXPECT_EQ(w.traceBuilds, c.traceBuilds);
    EXPECT_EQ(w.simulations, c.simulations);
    EXPECT_EQ(w.featureHits - c.featureHits, cold.workloads.size());

    ASSERT_EQ(warm.features.size(), cold.features.size());
    for (std::size_t i = 0; i < cold.features.size(); ++i)
        EXPECT_TRUE(sameBits(warm.features[i], cold.features[i]));
    ASSERT_EQ(warm.perTech.size(), cold.perTech.size());
    for (std::size_t i = 0; i < cold.perTech.size(); ++i) {
        EXPECT_EQ(warm.perTech[i].result.energyCorr,
                  cold.perTech[i].result.energyCorr);
        EXPECT_EQ(warm.perTech[i].result.speedupCorr,
                  cold.perTech[i].result.speedupCorr);
    }
}
