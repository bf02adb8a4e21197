/**
 * @file
 * The parallel experiment engine: thread-pool/parallelMap semantics
 * (order stability, exception propagation, NVMCACHE_JOBS), run
 * memoization with its exactly-once baseline guarantee, estimator
 * memoization, and the headline determinism contract — a figure study
 * produces bit-identical SimStats at any concurrency level.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "core/study.hh"
#include "nvm/model_library.hh"
#include "nvsim/estimator.hh"
#include "util/parallel.hh"
#include "util/rng.hh"

using namespace nvmcache;

namespace {

/** Concurrency used by the "parallel" side of the determinism tests:
 *  always multi-threaded, even on a single-core CI machine. */
unsigned
parallelJobs()
{
    return std::max(4u, std::thread::hardware_concurrency());
}

void
expectSameStats(const SimStats &a, const SimStats &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);       // bit-identical doubles
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
}

void
expectSameSweeps(const std::vector<TechSweep> &a,
                 const std::vector<TechSweep> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].workload, b[i].workload);
        EXPECT_EQ(a[i].cores, b[i].cores);
        ASSERT_EQ(a[i].results.size(), b[i].results.size());
        for (std::size_t j = 0; j < a[i].results.size(); ++j) {
            const RunResult &ra = a[i].results[j];
            const RunResult &rb = b[i].results[j];
            EXPECT_EQ(ra.tech, rb.tech);
            EXPECT_EQ(ra.speedup, rb.speedup);
            EXPECT_EQ(ra.normEnergy, rb.normEnergy);
            EXPECT_EQ(ra.normEd2p, rb.normEd2p);
            expectSameStats(ra.stats, rb.stats);
        }
    }
}

} // namespace

// --- parallelMap / ThreadPool ---------------------------------------

TEST(ParallelMap, OrderStableUnderConcurrency)
{
    std::vector<int> items;
    for (int i = 0; i < 200; ++i)
        items.push_back(i);
    auto results = parallelMap(8, items, [](const int &i) {
        return i * i;
    });
    ASSERT_EQ(results.size(), items.size());
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(results[std::size_t(i)], i * i);
}

TEST(ParallelMap, SerialAndParallelAgree)
{
    std::vector<int> items{5, 4, 3, 2, 1};
    auto serial = parallelMap(1, items, [](const int &i) {
        return i + 100;
    });
    auto parallel = parallelMap(4, items, [](const int &i) {
        return i + 100;
    });
    EXPECT_EQ(serial, parallel);
}

TEST(ParallelMap, PropagatesExceptions)
{
    std::vector<int> items{0, 1, 2, 3, 4, 5, 6, 7};
    std::atomic<int> ran{0};
    EXPECT_THROW(
        parallelMap(4, items,
                    [&](const int &i) {
                        ++ran;
                        if (i == 3)
                            throw std::runtime_error("job failed");
                        return i;
                    }),
        std::runtime_error);
    // Every job still ran (no abandoned futures).
    EXPECT_EQ(ran.load(), 8);
}

TEST(ParallelMap, SingleFailureRethrowsOriginalType)
{
    // One failed job must surface its original exception, not the
    // aggregated runtime_error wrapper.
    std::vector<int> items{0, 1, 2, 3};
    EXPECT_THROW(parallelMap(4, items,
                             [](const int &i) {
                                 if (i == 2)
                                     throw std::out_of_range("lone");
                                 return i;
                             }),
                 std::out_of_range);
}

TEST(ParallelMap, AggregatesEveryFailure)
{
    std::vector<int> items{0, 1, 2, 3, 4, 5, 6, 7};
    std::atomic<int> ran{0};
    std::string what;
    try {
        parallelMap(4, items, [&](const int &i) {
            ++ran;
            if (i == 1 || i == 4 || i == 6)
                throw std::runtime_error("job " + std::to_string(i) +
                                         " exploded");
            return i;
        });
        FAIL() << "parallelMap did not throw";
    } catch (const std::runtime_error &e) {
        what = e.what();
    }
    EXPECT_EQ(ran.load(), 8); // no abandoned futures
    EXPECT_NE(what.find("3 of 8 jobs failed"), std::string::npos);
    // Every failure's message survives, in input order.
    const std::size_t p1 = what.find("job 1 exploded");
    const std::size_t p4 = what.find("job 4 exploded");
    const std::size_t p6 = what.find("job 6 exploded");
    ASSERT_NE(p1, std::string::npos);
    ASSERT_NE(p4, std::string::npos);
    ASSERT_NE(p6, std::string::npos);
    EXPECT_LT(p1, p4);
    EXPECT_LT(p4, p6);
}

TEST(ParallelMap, CapsAggregatedMessages)
{
    // A mass failure reports the count plus the first few messages
    // and summarizes the rest instead of printing all of them.
    std::vector<int> items;
    for (int i = 0; i < 12; ++i)
        items.push_back(i);
    std::string what;
    try {
        parallelMap(4, items, [](const int &i) -> int {
            throw std::runtime_error("boom " + std::to_string(i));
        });
        FAIL() << "parallelMap did not throw";
    } catch (const std::runtime_error &e) {
        what = e.what();
    }
    EXPECT_NE(what.find("12 of 12 jobs failed"), std::string::npos);
    EXPECT_NE(what.find("boom 0"), std::string::npos);
    EXPECT_NE(what.find("boom 3"), std::string::npos);
    EXPECT_EQ(what.find("boom 4"), std::string::npos);
    EXPECT_NE(what.find("... and 8 more"), std::string::npos);
}

TEST(ParallelMap, RunsEveryItemExactlyOnce)
{
    std::vector<int> items(100, 1);
    std::atomic<int> ran{0};
    parallelMap(8, items, [&](const int &) { return ++ran; });
    EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, SubmitReturnsFutures)
{
    ThreadPool pool(3);
    EXPECT_EQ(pool.jobs(), 3u);
    auto f1 = pool.submit([]() { return 41 + 1; });
    auto f2 = pool.submit([]() { return std::string("ok"); });
    EXPECT_EQ(f1.get(), 42);
    EXPECT_EQ(f2.get(), "ok");
}

TEST(DefaultJobs, RespectsEnvironment)
{
    ::setenv("NVMCACHE_JOBS", "7", 1);
    EXPECT_EQ(defaultJobs(), 7u);
    ::setenv("NVMCACHE_JOBS", "garbage", 1);
    EXPECT_GE(defaultJobs(), 1u); // falls back, never 0
    ::unsetenv("NVMCACHE_JOBS");
    EXPECT_GE(defaultJobs(), 1u);
}

// --- deterministic per-job seeding ----------------------------------

TEST(DeriveSeed, DeterministicAndStreamSeparated)
{
    EXPECT_EQ(deriveSeed(1, 0), deriveSeed(1, 0));
    EXPECT_NE(deriveSeed(1, 0), deriveSeed(1, 1));
    EXPECT_NE(deriveSeed(1, 0), deriveSeed(2, 0));
    // Derived seeds drive independent deterministic generators.
    Rng a(deriveSeed(99, 3)), b(deriveSeed(99, 3));
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a(), b());
}

// --- run memoization -------------------------------------------------

TEST(RunnerMemo, RepeatedRunIsServedFromCache)
{
    ExperimentRunner runner;
    BenchmarkSpec spec = benchmark("tonto");
    spec.gen.totalAccesses = 50'000;
    const LlcModel &sram = sramBaselineLlc();

    SimStats first = runner.runOne(spec, sram, 1);
    RunnerStats after_one = runner.runnerStats();
    EXPECT_EQ(after_one.simulations, 1u);
    EXPECT_EQ(after_one.baselineSimulations, 1u);
    EXPECT_EQ(after_one.memoHits, 0u);

    SimStats second = runner.runOne(spec, sram, 1);
    RunnerStats after_two = runner.runnerStats();
    EXPECT_EQ(after_two.simulations, 1u); // no new simulation
    EXPECT_EQ(after_two.memoHits, 1u);
    expectSameStats(first, second);
}

TEST(RunnerMemo, DistinctInputsAreDistinctRuns)
{
    ExperimentRunner runner;
    BenchmarkSpec spec = benchmark("tonto");
    spec.gen.totalAccesses = 50'000;
    runner.runOne(spec, sramBaselineLlc(), 1);
    // Different technology, different trace length, different thread
    // count: all three must simulate anew.
    runner.runOne(spec,
                  publishedLlcModel("Chung",
                                    CapacityMode::FixedCapacity),
                  1);
    spec.gen.totalAccesses = 60'000;
    runner.runOne(spec, sramBaselineLlc(), 1);
    EXPECT_EQ(runner.runnerStats().simulations, 3u);
    EXPECT_EQ(runner.runnerStats().memoHits, 0u);
}

TEST(RunnerMemo, SweepSimulatesSramExactlyOnce)
{
    ExperimentRunner runner;
    BenchmarkSpec spec = benchmark("tonto");
    spec.gen.totalAccesses = 50'000;

    runner.sweepTechs(spec, CapacityMode::FixedCapacity);
    RunnerStats stats = runner.runnerStats();
    EXPECT_EQ(stats.simulations, 11u); // 10 NVMs + 1 SRAM
    EXPECT_EQ(stats.baselineSimulations, 1u);

    // Re-sweeping costs nothing new; the SRAM row is also shared
    // with the fixed-area sweep (identical published model).
    runner.sweepTechs(spec, CapacityMode::FixedCapacity);
    EXPECT_EQ(runner.runnerStats().simulations, 11u);
    runner.sweepTechs(spec, CapacityMode::FixedArea);
    EXPECT_EQ(runner.runnerStats().baselineSimulations, 1u);
}

TEST(RunnerMemo, FigureStudyBaselinePerWorkloadIsOne)
{
    ExperimentRunner runner;
    runner.setJobs(parallelJobs());
    runFigureStudy(FigureConfig{CapacityMode::FixedCapacity, 0.01},
                   runner);
    RunnerStats stats = runner.runnerStats();
    // Exactly one SRAM baseline per workload, despite ten NVM rows
    // normalizing against it; the study reads each run once, from
    // its one fan-out, so nothing is a memo hit.
    EXPECT_EQ(stats.baselineSimulations, benchmarkSuite().size());
    EXPECT_EQ(stats.simulations,
              benchmarkSuite().size() * 11u);
    EXPECT_EQ(stats.memoHits, 0u);
}

// --- estimator memoization ------------------------------------------

TEST(EstimatorMemo, RepeatedEstimateIsServedFromCache)
{
    Estimator est;
    CacheOrgConfig org;
    LlcModel first = est.estimate(publishedCell("Chung"), org);
    LlcModel second = est.estimate(publishedCell("Chung"), org);
    EXPECT_EQ(est.estimatesComputed(), 1u);
    EXPECT_EQ(est.estimateCacheHits(), 1u);
    EXPECT_EQ(first.readLatency, second.readLatency);
    EXPECT_EQ(first.eWrite, second.eWrite);
    EXPECT_EQ(first.leakage, second.leakage);

    org.capacityBytes *= 2; // a new point computes
    est.estimate(publishedCell("Chung"), org);
    EXPECT_EQ(est.estimatesComputed(), 2u);
}

// --- the determinism contract ---------------------------------------

TEST(ParallelDeterminism, FigureStudyBitIdenticalAcrossJobCounts)
{
    ExperimentRunner serial;
    serial.setJobs(1);
    const FigureConfig cfg{CapacityMode::FixedCapacity, 0.01};
    FigureStudy s1 = runFigureStudy(cfg, serial);

    ExperimentRunner parallel;
    parallel.setJobs(parallelJobs());
    FigureStudy sN = runFigureStudy(cfg, parallel);

    expectSameSweeps(s1.singleThreaded, sN.singleThreaded);
    expectSameSweeps(s1.multiThreaded, sN.multiThreaded);
}

TEST(ParallelDeterminism, CoreSweepBitIdenticalAcrossJobCounts)
{
    ExperimentRunner serial;
    serial.setJobs(1);
    ExperimentRunner parallel;
    parallel.setJobs(parallelJobs());

    const CoreSweepConfig cfg{{"ft"}, {"SRAM", "Hayakawa"}, {1, 2, 4}};
    CoreSweepStudy a = runCoreSweep(cfg, serial);
    CoreSweepStudy b = runCoreSweep(cfg, parallel);

    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        EXPECT_EQ(a.points[i].workload, b.points[i].workload);
        EXPECT_EQ(a.points[i].tech, b.points[i].tech);
        EXPECT_EQ(a.points[i].cores, b.points[i].cores);
        EXPECT_EQ(a.points[i].speedupVsBaseline,
                  b.points[i].speedupVsBaseline);
        EXPECT_EQ(a.points[i].normEnergy, b.points[i].normEnergy);
        expectSameStats(a.points[i].stats, b.points[i].stats);
    }
}

TEST(ParallelDeterminism, CorrelationStudyBitIdenticalAcrossJobCounts)
{
    ExperimentRunner serial;
    serial.setJobs(1);
    ExperimentRunner parallel;
    parallel.setJobs(parallelJobs());

    CorrelationConfig cfg;
    cfg.aiOnly = true;
    cfg.techs = {"Jan", "Hayakawa"};
    cfg.modes = {CapacityMode::FixedCapacity};
    cfg.traceScale = 0.05;
    CorrelationStudy a = runCorrelationStudy(cfg, serial);
    CorrelationStudy b = runCorrelationStudy(cfg, parallel);

    ASSERT_EQ(a.perTech.size(), b.perTech.size());
    EXPECT_EQ(a.workloads, b.workloads);
    for (std::size_t i = 0; i < a.features.size(); ++i)
        EXPECT_EQ(a.features[i].featureVector(),
                  b.features[i].featureVector());
    for (std::size_t i = 0; i < a.perTech.size(); ++i) {
        EXPECT_EQ(a.perTech[i].tech, b.perTech[i].tech);
        EXPECT_EQ(a.perTech[i].dataset.energy,
                  b.perTech[i].dataset.energy);
        EXPECT_EQ(a.perTech[i].dataset.speedup,
                  b.perTech[i].dataset.speedup);
        EXPECT_EQ(a.perTech[i].result.energyCorr,
                  b.perTech[i].result.energyCorr);
        EXPECT_EQ(a.perTech[i].result.speedupCorr,
                  b.perTech[i].result.speedupCorr);
    }
}
