/**
 * @file
 * Tests of the vectorized batch-replay kernel (sim/replay.cc):
 * bit-identity against the per-access scheduler with and without
 * fault injection, across write-timing policies and workload
 * families, and the multi-source fallback. The ShardedReplay suite
 * name predates the removal of set-sharded replay; it is kept so
 * those tests keep their names.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "nvsim/published.hh"
#include "sim/system.hh"
#include "util/metrics.hh"
#include "workload/recorded_trace.hh"
#include "workload/suite.hh"
#include "workload/workload_registry.hh"

using namespace nvmcache;

namespace {

/** A trimmed copy of a suite workload to keep runs fast. */
BenchmarkSpec
trimmed(const std::string &name, std::uint64_t accesses)
{
    BenchmarkSpec spec = benchmark(name);
    spec.gen.totalAccesses = accesses;
    return spec;
}

/** Every field of both SimStats exactly equal (== on doubles). */
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

/** Shared per-suite recording: trace + private outcomes. */
struct Recording
{
    std::shared_ptr<const RecordedTrace> trace;
    std::shared_ptr<const PrivateTrace> priv;
};

Recording
makeRecording(const BenchmarkSpec &spec, const SystemConfig &base)
{
    Recording r;
    r.trace = RecordedTrace::record(spec.gen, spec.defaultThreads);
    auto cursors = r.trace->cursors();
    std::vector<BatchSource *> srcs;
    for (TraceCursor &c : cursors)
        srcs.push_back(&c);
    r.priv = PrivateTrace::record(srcs, base.core);
    return r;
}

/** One replay run through System::runReplay (the engine it picks). */
SimStats
viaRunReplay(const Recording &rec, const SystemConfig &base,
             const LlcModel &llc)
{
    SystemConfig cfg = base;
    cfg.numCores = rec.trace->threads();
    System system(cfg, llc);
    auto cursors = rec.trace->cursors();
    std::vector<ReplaySource *> ptrs;
    for (TraceCursor &c : cursors)
        ptrs.push_back(&c);
    return system.runReplay(ptrs, rec.priv.get());
}

/** The same run through the per-access scheduler (the oracle). */
SimStats
viaScheduler(const Recording &rec, const SystemConfig &base,
             const LlcModel &llc)
{
    SystemConfig cfg = base;
    cfg.numCores = rec.trace->threads();
    System system(cfg, llc);
    auto cursors = rec.trace->cursors();
    std::vector<BatchSource *> ptrs;
    for (TraceCursor &c : cursors)
        ptrs.push_back(&c);
    return system.run(ptrs, rec.priv.get());
}

double
globalCounter(const std::string &name)
{
    return double(MetricsRegistry::global().counter(name).get());
}

double
detailScalar(const SimStats &s, const std::string &path)
{
    auto it = s.detail.entries.find(path);
    return it == s.detail.entries.end() ? -1.0 : it->second.scalar;
}

/**
 * Record @p spec under @p base and expect the batch kernel
 * (System::runReplay, which must pick it) to reproduce the
 * per-access scheduler (System::run on the same recording) in every
 * SimStats field, including the full detail tree, bit for bit.
 * Returns the scheduler's stats for case-specific checks.
 */
SimStats
expectKernelMatchesScheduler(const BenchmarkSpec &spec,
                             const SystemConfig &base,
                             const std::string &tech)
{
    const Recording rec = makeRecording(spec, base);
    EXPECT_EQ(rec.trace->threads(), 1u); // the kernel's input
    const LlcModel &llc =
        publishedLlcModel(tech, CapacityMode::FixedCapacity);

    const SimStats scheduler = viaScheduler(rec, base, llc);
    const double kernelRuns = globalCounter("sim.replay.runs.serial");
    const SimStats kernel = viaRunReplay(rec, base, llc);
    EXPECT_EQ(globalCounter("sim.replay.runs.serial"), kernelRuns + 1.0);
    expectSimStatsIdentical(scheduler, kernel);
    return scheduler;
}

} // namespace

TEST(ShardedReplay, KernelMatchesLegacyScheduler)
{
    // The batch kernel against the per-access min-local-time
    // scheduler on a SPEC workload.
    expectKernelMatchesScheduler(trimmed("tonto", 120'000),
                                 SystemConfig{}, "Jan");
}

TEST(ShardedReplay, FaultSweepBitIdentical)
{
    // With the fault layer injecting aggressively (retries, scrubs,
    // wear retirements), every llc.faults.* counter and distribution
    // rides in the detail tree and must match.
    SystemConfig base;
    base.llc.faults.enabled = true;
    base.llc.faults.berScale = 64.0;
    base.llc.faults.wearScale = 1e6;
    const SimStats scheduler = expectKernelMatchesScheduler(
        trimmed("lbm", 120'000), base, "Jan");
    EXPECT_GT(detailScalar(scheduler, "sim.llc.faults.writeRetries"),
              0.0); // the config actually injects
}

TEST(ShardedReplay, WritePoliciesAndBypassBitIdentical)
{
    // The non-default write-timing policies exercise accountWrite's
    // order-sensitive bank state, and bypassWritebackMiss exercises
    // the probe-miss forwarding path.
    SystemConfig bank;
    bank.llc.writePolicy = WritePolicy::BankContention;
    SystemConfig blocking;
    blocking.llc.writePolicy = WritePolicy::Blocking;
    SystemConfig bypass;
    bypass.llc.bypassWritebackMiss = true;

    const BenchmarkSpec spec = trimmed("lbm", 80'000);
    for (const SystemConfig &base : {bank, blocking, bypass})
        expectKernelMatchesScheduler(spec, base, "Jan");
}

TEST(ReplayKernel, MatchesSchedulerBitForBit)
{
    // A server-family workload on an SRAM LLC through both engines.
    expectKernelMatchesScheduler(
        WorkloadRegistry::global().resolve("kv:keys=1K,ops=30K"),
        SystemConfig{}, "SRAM");
}

TEST(ReplayKernel, MultiThreadTraceFallsBack)
{
    // A multi-source replay interleaves cores by local time, which
    // the single-core kernel does not model; runReplay must route it
    // through the scheduler (counting the fallback) with identical
    // results.
    const BenchmarkSpec spec = trimmed("vips", 120'000);
    const SystemConfig base;
    const Recording rec = makeRecording(spec, base);
    ASSERT_GT(rec.trace->threads(), 1u);
    const LlcModel &jan =
        publishedLlcModel("Jan", CapacityMode::FixedCapacity);

    const SimStats viaRun = viaScheduler(rec, base, jan);
    const double fallbackBefore =
        globalCounter("sim.replay.runs.fallback");
    const SimStats viaReplay = viaRunReplay(rec, base, jan);
    EXPECT_EQ(globalCounter("sim.replay.runs.fallback"),
              fallbackBefore + 1.0);
    expectSimStatsIdentical(viaRun, viaReplay);
}
