/**
 * @file
 * Integration tests: experiment orchestration, normalization, the
 * core-sweep study, and the correlation study end to end. These use
 * shortened workloads where possible to stay fast.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "core/study.hh"

using namespace nvmcache;

namespace {

/** A trimmed copy of a suite workload to keep integration runs fast. */
BenchmarkSpec
trimmed(const std::string &name, std::uint64_t accesses = 200'000)
{
    BenchmarkSpec spec = benchmark(name);
    spec.gen.totalAccesses = accesses;
    return spec;
}

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

} // namespace

TEST(Experiment, SramRowIsExactlyUnity)
{
    ExperimentRunner runner;
    TechSweep sweep = runner.sweepTechs(trimmed("tonto"),
                                        CapacityMode::FixedCapacity);
    const RunResult &sram = sweep.byTech("SRAM");
    EXPECT_DOUBLE_EQ(sram.speedup, 1.0);
    EXPECT_DOUBLE_EQ(sram.normEnergy, 1.0);
    EXPECT_DOUBLE_EQ(sram.normEd2p, 1.0);
}

TEST(Experiment, SweepCoversAllElevenTechs)
{
    ExperimentRunner runner;
    TechSweep sweep = runner.sweepTechs(trimmed("tonto"),
                                        CapacityMode::FixedCapacity);
    EXPECT_EQ(sweep.results.size(), 11u);
    EXPECT_EQ(sweep.results.back().tech, "SRAM");
}

TEST(Experiment, NormalizationIdentity)
{
    ExperimentRunner runner;
    TechSweep sweep = runner.sweepTechs(trimmed("tonto"),
                                        CapacityMode::FixedCapacity);
    const RunResult &sram = sweep.byTech("SRAM");
    for (const RunResult &r : sweep.results) {
        EXPECT_NEAR(r.speedup,
                    sram.stats.seconds / r.stats.seconds, 1e-12);
        EXPECT_NEAR(r.normEnergy,
                    r.stats.llcEnergy() / sram.stats.llcEnergy(),
                    1e-12);
        EXPECT_NEAR(r.normEd2p, r.stats.ed2p() / sram.stats.ed2p(),
                    1e-12);
    }
}

TEST(Experiment, NvmEnergyBeatsSramForSttram)
{
    // The paper's headline: NVM LLC energy is up to an order of
    // magnitude below SRAM (driven by SRAM leakage).
    ExperimentRunner runner;
    TechSweep sweep = runner.sweepTechs(trimmed("tonto", 400'000),
                                        CapacityMode::FixedCapacity);
    EXPECT_LT(sweep.byTech("Jan").normEnergy, 0.3);
    EXPECT_LT(sweep.byTech("Chung").normEnergy, 0.3);
    EXPECT_LT(sweep.byTech("Hayakawa").normEnergy, 0.3);
}

TEST(Experiment, PcramWriteEnergyHurts)
{
    // Kang_P / Oh_P exhibit the worst-case LLC energy in the paper.
    ExperimentRunner runner;
    TechSweep sweep = runner.sweepTechs(trimmed("bzip2", 400'000),
                                        CapacityMode::FixedCapacity);
    EXPECT_GT(sweep.byTech("Kang").normEnergy,
              sweep.byTech("Chung").normEnergy * 5.0);
    EXPECT_GT(sweep.byTech("Oh").normEnergy, 1.0);
}

TEST(Experiment, FixedCapacitySpeedupNearUnity)
{
    // Paper SV-A: fixed-capacity performance stays within a few
    // percent of SRAM.
    ExperimentRunner runner;
    TechSweep sweep = runner.sweepTechs(trimmed("tonto", 400'000),
                                        CapacityMode::FixedCapacity);
    for (const RunResult &r : sweep.results) {
        EXPECT_GT(r.speedup, 0.90) << r.tech;
        EXPECT_LT(r.speedup, 1.10) << r.tech;
    }
}

TEST(Experiment, FixedAreaCapacityHelpsCapacityStarvedWorkload)
{
    // gobmk's working set exceeds 2 MB; Hayakawa's 32 MB fixed-area
    // LLC must cut misses and lift speedup above fixed-capacity.
    ExperimentRunner runner;
    BenchmarkSpec spec = trimmed("gobmk", 600'000);
    TechSweep cap =
        runner.sweepTechs(spec, CapacityMode::FixedCapacity);
    TechSweep area = runner.sweepTechs(spec, CapacityMode::FixedArea);
    const RunResult &h_cap = cap.byTech("Hayakawa");
    const RunResult &h_area = area.byTech("Hayakawa");
    EXPECT_LT(h_area.stats.llc.demandMisses,
              h_cap.stats.llc.demandMisses);
    EXPECT_GT(h_area.speedup, h_cap.speedup);
    EXPECT_GT(h_area.speedup, 1.05);
}

TEST(Experiment, RunOneRespectsThreadOverride)
{
    ExperimentRunner runner;
    const LlcModel &sram =
        publishedLlcModel("SRAM", CapacityMode::FixedCapacity);
    BenchmarkSpec spec = trimmed("cg", 200'000);
    SimStats one = runner.runOne(spec, sram, 1);
    SimStats four = runner.runOne(spec, sram, 4);
    EXPECT_EQ(one.coreCycles.size(), 1u);
    EXPECT_EQ(four.coreCycles.size(), 4u);
    EXPECT_LT(four.cycles, one.cycles);
}

TEST(CoreSweep, PointsAndBaselines)
{
    ExperimentRunner runner;
    // Shrink the workload via a local suite copy: use runner directly
    // over the study API with small core counts.
    CoreSweepStudy study = runCoreSweep(
        CoreSweepConfig{{"ft"}, {"SRAM", "Hayakawa"}, {1, 2, 4}},
        runner);
    EXPECT_EQ(study.points.size(), 6u);
    const CoreSweepPoint &p1 = study.at("ft", "SRAM", 1);
    EXPECT_DOUBLE_EQ(p1.speedupVsBaseline, 1.0);
    const CoreSweepPoint &p4 = study.at("ft", "SRAM", 4);
    EXPECT_GT(p4.speedupVsBaseline, 1.2); // parallel scaling
    EXPECT_DEATH(study.at("ft", "SRAM", 32), "missing point");
}

TEST(CoreSweep, SingleThreadedWorkloadsSkipMulticore)
{
    ExperimentRunner runner;
    CoreSweepStudy study = runCoreSweep(
        CoreSweepConfig{{"exchange2"}, {"SRAM"}, {1, 2}}, runner);
    EXPECT_EQ(study.points.size(), 1u); // only 1-core point
}

TEST(CorrelationStudy, AiStudyShapes)
{
    ExperimentRunner runner;
    CorrelationConfig cfg;
    cfg.aiOnly = true;
    cfg.techs = {"Jan", "Xue", "Hayakawa"};
    cfg.modes = {CapacityMode::FixedCapacity, CapacityMode::FixedArea};
    cfg.traceScale = 0.1;
    CorrelationStudy study = runCorrelationStudy(cfg, runner);
    EXPECT_EQ(study.workloads.size(), 3u);
    EXPECT_EQ(study.features.size(), 3u);
    // 3 techs x 2 modes.
    EXPECT_EQ(study.perTech.size(), 6u);
    for (const TechCorrelation &tc : study.perTech) {
        EXPECT_EQ(tc.dataset.workloads.size(), 3u);
        EXPECT_EQ(tc.result.featureNames.size(), 10u);
        for (double r : tc.result.energyCorr) {
            EXPECT_GE(r, -1.0);
            EXPECT_LE(r, 1.0);
        }
    }
}

TEST(CorrelationStudy, FeaturesMatchDirectCharacterization)
{
    ExperimentRunner runner;
    CorrelationConfig cfg;
    cfg.aiOnly = true;
    cfg.techs = {"Jan"};
    cfg.modes = {CapacityMode::FixedCapacity};
    cfg.traceScale = 0.1;
    CorrelationStudy study = runCorrelationStudy(cfg, runner);
    // deepsjeng's feature row must match characterizing it directly
    // at the same scale.
    BenchmarkSpec deepsjeng = benchmark("deepsjeng");
    deepsjeng.gen.totalAccesses /= 10;
    auto traces = buildTraces(deepsjeng);
    std::vector<TraceSource *> ptrs;
    for (auto &t : traces)
        ptrs.push_back(t.get());
    WorkloadFeatures direct = characterize(ptrs);
    ASSERT_EQ(study.workloads.front(), "deepsjeng");
    EXPECT_DOUBLE_EQ(study.features.front().reads.globalEntropy,
                     direct.reads.globalEntropy);
    EXPECT_EQ(study.features.front().writes.unique,
              direct.writes.unique);

    // A server workload's row excludes its warm-up (kv defaults to
    // warm=0.25 of 2^21 ops). The server-suite row, a fresh runner's
    // feature store and a live characterization agree bit for bit.
    ServerSuiteConfig suite;
    suite.tenantCounts = {1};
    suite.readRatios = {0.95};
    suite.skews = {0.7, 0.99};
    const CorrelationStudy server = runServerSuite(suite, runner);
    const BenchmarkSpec &kv =
        benchmark(serverSuiteWorkloads(suite).front());
    const WorkloadFeatures stored = ExperimentRunner().features(kv);
    auto kvTraces = buildTraces(kv);
    std::vector<TraceSource *> kvPtrs;
    for (auto &t : kvTraces)
        kvPtrs.push_back(t.get());
    const WorkloadFeatures live = characterize(
        kvPtrs, 10, warmupSplit(kv.gen, kv.defaultThreads));
    EXPECT_TRUE(sameBits(stored, server.features.front()));
    EXPECT_TRUE(sameBits(stored, live));
    EXPECT_EQ(stored.reads.total + stored.writes.total, 1572864u);
}
