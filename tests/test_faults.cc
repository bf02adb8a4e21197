/**
 * @file
 * The fault-injection layer (sim/faults.hh) end to end: SECDED
 * probability math, retry-pulse cost arithmetic, the injector's
 * counter-based determinism contract, wear-driven retirement, the tag
 * array's dead-way handling, the LLC integration's cost accounting
 * and graceful capacity degradation, and bit-identity of every fault
 * statistic across experiment-engine job counts and between live and
 * replayed runs.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/study.hh"
#include "nvm/endurance.hh"
#include "nvsim/published.hh"
#include "sim/cache.hh"
#include "sim/faults.hh"
#include "sim/system.hh"
#include "workload/generators.hh"

using namespace nvmcache;

// --- SECDED probability math ----------------------------------------

TEST(FaultMath, ZeroRateIsAlwaysClean)
{
    const LineErrorProbs p = lineErrorProbs(0.0, 512);
    EXPECT_DOUBLE_EQ(p.pNone, 1.0);
}

TEST(FaultMath, CertainErrorClassifiesBySize)
{
    // Every bit flips: a 1-bit line is always correctable, a wider
    // line is always a multi-bit (uncorrectable) event.
    const LineErrorProbs one = lineErrorProbs(1.0, 1);
    EXPECT_DOUBLE_EQ(one.pNone, 0.0);
    EXPECT_DOUBLE_EQ(one.pSingleGivenError, 1.0);
    const LineErrorProbs wide = lineErrorProbs(1.0, 512);
    EXPECT_DOUBLE_EQ(wide.pNone, 0.0);
    EXPECT_DOUBLE_EQ(wide.pSingleGivenError, 0.0);
}

TEST(FaultMath, MatchesBinomialClosedForm)
{
    const double p = 0.01;
    const std::uint32_t bits = 8;
    const LineErrorProbs lp = lineErrorProbs(p, bits);
    const double pNone = std::pow(1.0 - p, double(bits));
    EXPECT_DOUBLE_EQ(lp.pNone, pNone);
    const double pSingle =
        double(bits) * p * std::pow(1.0 - p, double(bits - 1));
    EXPECT_DOUBLE_EQ(lp.pSingleGivenError, pSingle / (1.0 - pNone));
}

TEST(FaultMath, SingleBitDominatesAtRealisticRates)
{
    // At device-realistic rates, an erroneous 512-bit line almost
    // surely has exactly one flipped bit — SECDED is the right code.
    const LineErrorProbs p = lineErrorProbs(1e-7, 512);
    EXPECT_GT(p.pNone, 0.9999);
    EXPECT_GT(p.pSingleGivenError, 0.99);
}

TEST(FaultMath, RetryCostDoublesPerPulse)
{
    EXPECT_EQ(retryCostMultiplier(0), 1u);  // base pulse only
    EXPECT_EQ(retryCostMultiplier(1), 3u);  // 1 + 2
    EXPECT_EQ(retryCostMultiplier(2), 7u);  // 1 + 2 + 4
    EXPECT_EQ(retryCostMultiplier(3), 15u);
    EXPECT_EQ(retryCostMultiplier(10), 2047u);
}

// --- FaultInjector ---------------------------------------------------

namespace {

FaultConfig
injectorConfig(double berScale, double wearScale = 0.0,
               double wearLeveling = 1.0, std::uint32_t retries = 3)
{
    FaultConfig cfg;
    cfg.enabled = true;
    cfg.berScale = berScale;
    cfg.wearScale = wearScale;
    cfg.wearLevelingFactor = wearLeveling;
    cfg.maxWriteRetries = retries;
    return cfg;
}

bool
sameOutcome(const FaultInjector::WriteOutcome &a,
            const FaultInjector::WriteOutcome &b)
{
    return a.retries == b.retries && a.scrubbed == b.scrubbed &&
           a.eccRetired == b.eccRetired &&
           a.wearRetired == b.wearRetired;
}

} // namespace

TEST(FaultInjector, IdenticalHistoriesGiveIdenticalOutcomes)
{
    FaultInjector a(injectorConfig(64.0), NvmClass::STTRAM, 1024, 64);
    FaultInjector b(injectorConfig(64.0), NvmClass::STTRAM, 1024, 64);
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t line = std::uint64_t(i * 7) % 1024;
        EXPECT_TRUE(sameOutcome(a.onArrayWrite(line),
                                b.onArrayWrite(line)));
    }
    EXPECT_EQ(a.stats().writeRetries, b.stats().writeRetries);
    EXPECT_EQ(a.stats().writeScrubs, b.stats().writeScrubs);
    EXPECT_EQ(a.stats().uncorrectable, b.stats().uncorrectable);
    EXPECT_GT(a.stats().writeRetries, 0u); // the knob actually bites
}

TEST(FaultInjector, PerLineStreamsAreOrderIndependent)
{
    // A line's k-th event must draw the same verdict no matter how
    // accesses to other lines interleave — the property that makes
    // the whole layer schedule-independent.
    FaultInjector grouped(injectorConfig(64.0), NvmClass::STTRAM, 16,
                          64);
    FaultInjector interleaved(injectorConfig(64.0), NvmClass::STTRAM,
                              16, 64);

    std::vector<FaultInjector::WriteOutcome> g0, g1, i0, i1;
    for (int k = 0; k < 200; ++k)
        g0.push_back(grouped.onArrayWrite(0));
    for (int k = 0; k < 200; ++k)
        g1.push_back(grouped.onArrayWrite(1));
    for (int k = 0; k < 200; ++k) {
        i0.push_back(interleaved.onArrayWrite(0));
        i1.push_back(interleaved.onArrayWrite(1));
    }
    for (int k = 0; k < 200; ++k) {
        EXPECT_TRUE(sameOutcome(g0[std::size_t(k)], i0[std::size_t(k)]));
        EXPECT_TRUE(sameOutcome(g1[std::size_t(k)], i1[std::size_t(k)]));
    }
    EXPECT_DOUBLE_EQ(grouped.lineWear(0), interleaved.lineWear(0));
    EXPECT_DOUBLE_EQ(grouped.lineWear(1), interleaved.lineWear(1));
}

TEST(FaultInjector, SramControlNeverFaults)
{
    // SRAM's raw error rates are zero; no berScale can manufacture
    // faults for the control rows.
    FaultInjector inj(injectorConfig(1e9), NvmClass::SRAM, 64, 64);
    for (int i = 0; i < 5000; ++i) {
        const FaultInjector::WriteOutcome w =
            inj.onArrayWrite(std::uint64_t(i) % 64);
        EXPECT_EQ(w.retries, 0u);
        EXPECT_FALSE(w.scrubbed);
        EXPECT_FALSE(w.retired());
        const FaultInjector::ReadOutcome r =
            inj.onRead(std::uint64_t(i) % 64);
        EXPECT_FALSE(r.scrubbed);
        EXPECT_FALSE(r.retired);
    }
    EXPECT_EQ(inj.stats().writeRetries, 0u);
    EXPECT_EQ(inj.stats().uncorrectable, 0u);
}

TEST(FaultInjector, WearRetiresAtTheEnduranceBound)
{
    // One attempt charges wearScale * wearLevelingFactor units, so a
    // wearScale equal to the class budget retires on the first write
    // and halving the leveling factor doubles the writes to failure.
    const double budget = writeEndurance(NvmClass::PCRAM);
    FaultInjector fast(injectorConfig(0.0, budget, 1.0),
                       NvmClass::PCRAM, 8, 64);
    EXPECT_DOUBLE_EQ(fast.lineWearBudget(), budget);
    EXPECT_TRUE(fast.onArrayWrite(3).wearRetired);
    EXPECT_EQ(fast.stats().wearRetirements, 1u);

    FaultInjector slow(injectorConfig(0.0, budget, 0.5),
                       NvmClass::PCRAM, 8, 64);
    EXPECT_FALSE(slow.onArrayWrite(3).wearRetired);
    EXPECT_DOUBLE_EQ(slow.lineWear(3), budget * 0.5);
    EXPECT_TRUE(slow.onArrayWrite(3).wearRetired);
    EXPECT_DOUBLE_EQ(slow.lineWear(5), 0.0); // untouched line
}

TEST(FaultInjector, ExhaustedRetriesClassifyTheResidue)
{
    // berScale pushed to per-bit certainty: every attempt fails, the
    // retry budget is spent exactly, and the residual 512-bit error is
    // always multi-bit, so the line is ECC-retired (and charged no
    // wear: it is leaving service).
    FaultConfig cfg = injectorConfig(1e6, 1e3, 1.0, 2);
    FaultInjector inj(cfg, NvmClass::STTRAM, 8, 64);
    const FaultInjector::WriteOutcome w = inj.onArrayWrite(2);
    EXPECT_EQ(w.retries, 2u);
    EXPECT_TRUE(w.eccRetired);
    EXPECT_FALSE(w.scrubbed);
    EXPECT_EQ(inj.stats().uncorrectable, 1u);
    EXPECT_EQ(inj.stats().eccRetirements, 1u);
    EXPECT_DOUBLE_EQ(inj.lineWear(2), 0.0);

    // Reads at certainty are likewise always uncorrectable.
    EXPECT_TRUE(inj.onRead(4).retired);
}

// --- tag-array retirement -------------------------------------------

namespace {

CacheGeometry
tinyGeometry()
{
    CacheGeometry g;
    g.capacityBytes = 1024; // 4 sets x 4 ways x 64 B
    g.associativity = 4;
    g.blockBytes = 64;
    return g;
}

/** Address of @p way -th distinct block mapping to @p set. */
std::uint64_t
setAddr(std::uint64_t set, std::uint64_t i)
{
    return (i * 4 + set) * 64; // 4 sets => stride 256 per tag
}

} // namespace

TEST(CacheRetirement, RetireReportsDirtinessOnce)
{
    SetAssocCache cache(tinyGeometry());
    const CacheAccessResult r = cache.access(setAddr(1, 0), true);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(cache.liveLines(), 16u);

    EXPECT_TRUE(cache.retireLine(r.lineIndex)); // dirty line
    EXPECT_EQ(cache.retiredLines(), 1u);
    EXPECT_EQ(cache.liveLines(), 15u);
    EXPECT_FALSE(cache.retireLine(r.lineIndex)); // idempotent
    EXPECT_EQ(cache.retiredLines(), 1u);

    // A clean line retires without a writeback obligation.
    const CacheAccessResult c = cache.access(setAddr(2, 0), false);
    EXPECT_FALSE(cache.retireLine(c.lineIndex));
    EXPECT_EQ(cache.retiredLines(), 2u);
}

TEST(CacheRetirement, RetiredWayIsNeverRefilled)
{
    SetAssocCache cache(tinyGeometry());
    const CacheAccessResult first = cache.access(setAddr(0, 0), false);
    cache.retireLine(first.lineIndex);

    // The retired line's block must not hit, and no future fill may
    // land on the dead way, even under heavy conflict pressure.
    EXPECT_FALSE(cache.access(setAddr(0, 0), false).hit);
    for (std::uint64_t i = 1; i < 40; ++i) {
        const CacheAccessResult r = cache.access(setAddr(0, i), true);
        EXPECT_FALSE(r.noWay);
        EXPECT_NE(r.lineIndex, first.lineIndex);
    }
    EXPECT_EQ(cache.liveLines(), 15u);
}

TEST(CacheRetirement, FullyRetiredSetDegeneratesToProbe)
{
    SetAssocCache cache(tinyGeometry());
    for (std::uint64_t way = 0; way < 4; ++way)
        EXPECT_FALSE(cache.retireLine(2 * 4 + way)); // set 2, invalid

    const CacheAccessResult r = cache.access(setAddr(2, 0), true);
    EXPECT_TRUE(r.noWay);
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(r.evictedValid);
    EXPECT_EQ(cache.liveLines(), 12u);

    // Other sets are unaffected.
    const CacheAccessResult ok = cache.access(setAddr(3, 0), true);
    EXPECT_FALSE(ok.noWay);
    EXPECT_TRUE(cache.probe(setAddr(3, 0)));
}

TEST(CacheRetirement, LiveLinesNeverIncrease)
{
    SetAssocCache cache(tinyGeometry());
    std::uint64_t prev = cache.liveLines();
    for (std::uint64_t i = 0; i < 16; ++i) {
        cache.retireLine(i);
        // Accesses between retirements must not resurrect capacity.
        cache.access(setAddr(i % 4, i), i % 2 == 0);
        const std::uint64_t now = cache.liveLines();
        EXPECT_LE(now, prev);
        prev = now;
    }
    EXPECT_EQ(cache.liveLines(), 0u);
    EXPECT_TRUE(cache.access(setAddr(0, 7), false).noWay);
}

// --- LLC integration ------------------------------------------------

namespace {

GeneratorConfig
faultWorkload(std::uint64_t accesses = 60'000)
{
    GeneratorConfig cfg;
    cfg.totalAccesses = accesses;
    cfg.loadFraction = 0.55;
    cfg.storeFraction = 0.4; // write-heavy: exercises the write path
    cfg.meanGap = 2.0;
    StreamConfig hot;
    hot.kind = StreamConfig::Kind::Zipf;
    hot.regionBytes = 1 << 20;
    hot.zipfSkew = 0.9;
    hot.weight = 0.7;
    StreamConfig cold;
    cold.kind = StreamConfig::Kind::Uniform;
    cold.regionBytes = 16 << 20;
    cold.weight = 0.3;
    cfg.loads.streams = {hot, cold};
    cfg.stores.streams = {hot, cold};
    cfg.seed = 123;
    return cfg;
}

SimStats
runFaulty(const FaultConfig &faults, const LlcModel &model,
          std::uint64_t accesses = 60'000)
{
    SystemConfig cfg;
    cfg.numCores = 1;
    cfg.llc.faults = faults;
    System system(cfg, model);
    auto traces = buildThreadTraces(faultWorkload(accesses), 1);
    std::vector<TraceSource *> ptrs;
    for (auto &t : traces)
        ptrs.push_back(t.get());
    return system.run(ptrs);
}

double
detail(const SimStats &s, const std::string &path)
{
    auto it = s.detail.entries.find(path);
    return it == s.detail.entries.end() ? -1.0 : it->second.scalar;
}

} // namespace

TEST(LlcFaults, DisabledRunsExportNoFaultSection)
{
    const LlcModel &jan =
        publishedLlcModel("Jan", CapacityMode::FixedCapacity);
    const SimStats off = runFaulty(FaultConfig{}, jan);
    for (const auto &entry : off.detail.entries)
        EXPECT_EQ(entry.first.find("sim.llc.faults"),
                  std::string::npos)
            << entry.first;

    FaultConfig on;
    on.enabled = true;
    const SimStats with = runFaulty(on, jan);
    EXPECT_GE(detail(with, "sim.llc.faults.injectedWrites"), 1.0);
    EXPECT_DOUBLE_EQ(
        detail(with, "sim.llc.faults.effectiveCapacityFraction"), 1.0);
}

TEST(LlcFaults, RetryAndScrubCostsAreAccounted)
{
    const LlcModel &jan =
        publishedLlcModel("Jan", CapacityMode::FixedCapacity);
    FaultConfig faults;
    faults.enabled = true;
    faults.berScale = 8.0; // STTRAM p_w = 8e-4: frequent retries

    const SimStats clean = runFaulty(FaultConfig{}, jan);
    const SimStats faulty = runFaulty(faults, jan);

    EXPECT_GT(detail(faulty, "sim.llc.faults.writeRetries"), 0.0);
    EXPECT_GT(detail(faulty, "sim.llc.faults.retryCycles"), 0.0);
    // Escalated pulses and scrub rewrites cost real energy.
    EXPECT_GT(faulty.llc.writeEnergy, clean.llc.writeEnergy);

    // Scrub cycle accounting: every scrub charges exactly
    // cfg.scrubCycles, nothing else touches that counter.
    const double scrubs = detail(faulty, "sim.llc.faults.writeScrubs") +
                          detail(faulty, "sim.llc.faults.readScrubs");
    EXPECT_DOUBLE_EQ(detail(faulty, "sim.llc.faults.scrubCycles"),
                     scrubs * double(faults.scrubCycles));
}

TEST(LlcFaults, WearRetirementDegradesCapacityGracefully)
{
    // PCRAM with aggressively accelerated aging: lines wear out
    // mid-run, capacity shrinks, and the simulation still completes
    // with coherent statistics.
    const LlcModel &oh =
        publishedLlcModel("Oh", CapacityMode::FixedCapacity);
    FaultConfig faults;
    faults.enabled = true;
    faults.wearScale = 1e7; // ~3 writes to the PCRAM budget

    const SimStats s = runFaulty(faults, oh, 80'000);
    EXPECT_GT(detail(s, "sim.llc.faults.wearRetirements"), 0.0);
    const double frac =
        detail(s, "sim.llc.faults.effectiveCapacityFraction");
    EXPECT_GT(frac, 0.0);
    EXPECT_LT(frac, 1.0);
    const double total = double(oh.capacityBytes / 64);
    EXPECT_DOUBLE_EQ(detail(s, "sim.llc.faults.retiredLines"),
                     total - detail(s, "sim.llc.faults.effectiveLines"));
    EXPECT_GT(s.cycles, 0.0);
    EXPECT_GT(s.llc.demandReads, 0u);

    // More wear per write strictly accelerates retirement.
    faults.wearScale = 3e7;
    const SimStats worse = runFaulty(faults, oh, 80'000);
    EXPECT_GE(detail(worse, "sim.llc.faults.wearRetirements"),
              detail(s, "sim.llc.faults.wearRetirements"));
}

// --- determinism contract -------------------------------------------

namespace {

ReliabilityConfig
smallReliabilityConfig()
{
    ReliabilityConfig cfg;
    cfg.workload = "lbm";
    cfg.traceScale = 0.02;
    cfg.berScales = {64.0};
    cfg.wearLevelingFactors = {0.5};
    cfg.wearScale = 1e6;
    return cfg;
}

} // namespace

TEST(FaultDeterminism, ReliabilityStudyBitIdenticalAcrossJobCounts)
{
    ExperimentRunner serial;
    serial.setJobs(1);
    ExperimentRunner parallel;
    parallel.setJobs(8);

    const ReliabilityStudy a =
        runReliabilityStudy(smallReliabilityConfig(), serial);
    const ReliabilityStudy b =
        runReliabilityStudy(smallReliabilityConfig(), parallel);

    ASSERT_EQ(a.points.size(), b.points.size());
    bool sawFaults = false;
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        const ReliabilityPoint &pa = a.points[i];
        const ReliabilityPoint &pb = b.points[i];
        EXPECT_EQ(pa.tech, pb.tech);
        EXPECT_EQ(pa.writeRetries, pb.writeRetries);
        EXPECT_EQ(pa.writeScrubs, pb.writeScrubs);
        EXPECT_EQ(pa.readScrubs, pb.readScrubs);
        EXPECT_EQ(pa.uncorrectable, pb.uncorrectable);
        EXPECT_EQ(pa.retiredLines, pb.retiredLines);
        EXPECT_EQ(pa.effectiveCapacityFraction,
                  pb.effectiveCapacityFraction);
        EXPECT_EQ(pa.speedup, pb.speedup);
        EXPECT_EQ(pa.normEnergy, pb.normEnergy);
        EXPECT_EQ(pa.stats.cycles, pb.stats.cycles);
        // The whole hierarchical report — every llc.faults.* counter
        // and distribution — bit for bit.
        EXPECT_TRUE(pa.stats.detail == pb.stats.detail) << pa.tech;
        sawFaults = sawFaults || pa.writeRetries > 0;
    }
    EXPECT_TRUE(sawFaults); // the grid point actually injected faults
    EXPECT_TRUE(aggregateSimStats(a) == aggregateSimStats(b));
}

TEST(FaultDeterminism, ReplayedRunMatchesLiveRun)
{
    // runOne goes through the PrivateTrace replay path; a live
    // System::run of the same sources with the same fault config must
    // produce the identical fault history.
    BenchmarkSpec spec = benchmark("lbm");
    spec.gen.totalAccesses = 120'000;
    const std::uint32_t threads = spec.defaultThreads;
    const LlcModel &jan =
        publishedLlcModel("Jan", CapacityMode::FixedCapacity);

    FaultConfig faults;
    faults.enabled = true;
    faults.berScale = 8.0;
    faults.wearScale = 1e6;

    ExperimentRunner runner;
    runner.setJobs(1);
    const SimStats replayed = runner.runOne(spec, jan, 0, faults);

    SystemConfig cfg = runner.baseConfig();
    cfg.numCores = threads;
    cfg.llc.faults = faults;
    System system(cfg, jan);
    auto traces = buildThreadTraces(spec.gen, threads);
    std::vector<TraceSource *> ptrs;
    for (auto &t : traces)
        ptrs.push_back(t.get());
    const SimStats live = system.run(ptrs);

    EXPECT_EQ(replayed.cycles, live.cycles);
    EXPECT_EQ(replayed.llc.writeEnergy, live.llc.writeEnergy);
    EXPECT_GT(detail(replayed, "sim.llc.faults.writeRetries"), 0.0);
    EXPECT_TRUE(replayed.detail == live.detail);
}

TEST(FaultDeterminism, ReliabilityStudyShapeAndControls)
{
    ReliabilityConfig cfg = smallReliabilityConfig();
    cfg.wearLevelingFactors = {1.0, 0.25};
    ExperimentRunner runner;
    const ReliabilityStudy study = runReliabilityStudy(cfg, runner);

    // 1 BER x 2 wear levels x (10 NVM + SRAM).
    ASSERT_EQ(study.points.size(), 22u);
    // Fault settings are per-run inputs: both grid points share one
    // recorded trace and one private-level recording.
    const RunnerStats rs = runner.runnerStats();
    EXPECT_EQ(rs.simulations, 22u);
    EXPECT_EQ(rs.traceBuilds, 1u);
    EXPECT_EQ(rs.privateBuilds, 1u);
    const ReliabilityPoint &sram = study.at("SRAM", 64.0, 1.0);
    EXPECT_EQ(sram.writeRetries, 0u);
    EXPECT_EQ(sram.uncorrectable, 0u);
    EXPECT_DOUBLE_EQ(sram.effectiveCapacityFraction, 1.0);
    EXPECT_DOUBLE_EQ(sram.speedup, 1.0);

    const ReliabilityPoint &tight = study.at("Oh", 64.0, 1.0);
    const ReliabilityPoint &leveled = study.at("Oh", 64.0, 0.25);
    EXPECT_EQ(tight.klass, NvmClass::PCRAM);
    EXPECT_GT(tight.lifetime.lifetimeYears, 0.0);
    // Better wear-leveling never shortens the projected lifetime.
    EXPECT_GE(leveled.lifetime.lifetimeYears,
              tight.lifetime.lifetimeYears);
}

TEST(FaultDeathTest, RunnerBaseWithFaultsIsFatal)
{
    // Faults have one channel, the per-run setting; a base config
    // that enables them would reach runs its memo keys do not name.
    SystemConfig base;
    base.llc.faults.enabled = true;
    EXPECT_DEATH(ExperimentRunner{base}, "RunJob::faults");
}
