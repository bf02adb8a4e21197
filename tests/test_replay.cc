/**
 * @file
 * Tests of the N-lane batch-replay kernel (System::runReplay):
 * bit-identity against the live System::run, which walks the real
 * L1/L2 caches one access at a time, with and without fault
 * injection, across write-timing policies, workload families and lane
 * counts, and its rejection of a missing or mismatched recording. The
 * ShardedReplay suite name predates the removal of set-sharded
 * replay; it is kept so those tests keep their names.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "nvsim/published.hh"
#include "sim/system.hh"
#include "util/metrics.hh"
#include "workload/generators.hh"
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

/** @p base as @p spec's runs use it on @p threads cores. */
SystemConfig
configFor(const BenchmarkSpec &spec, std::uint32_t threads,
          const SystemConfig &base)
{
    SystemConfig cfg = base;
    cfg.numCores = threads;
    cfg.perCoreLlcStats = spec.gen.perThreadStats;
    return cfg;
}

/** One replay run through the batch kernel (System::runReplay). */
SimStats
viaRunReplay(const BenchmarkSpec &spec, const Recording &rec,
             const SystemConfig &base, const LlcModel &llc)
{
    System system(configFor(spec, rec.trace->threads(), base), llc);
    auto cursors = rec.trace->cursors();
    std::vector<ReplaySource *> ptrs;
    for (TraceCursor &c : cursors)
        ptrs.push_back(&c);
    return system.runReplay(ptrs, rec.priv.get());
}

/**
 * The same workload simulated live from its generators (the
 * reference): real L1/L2 walks, one access at a time.
 */
SimStats
viaLive(const BenchmarkSpec &spec, const SystemConfig &base,
        const LlcModel &llc)
{
    const std::uint32_t threads = spec.defaultThreads;
    System system(configFor(spec, threads, base), llc);
    auto traces = buildThreadTraces(spec.gen, threads);
    std::vector<TraceSource *> ptrs;
    for (auto &t : traces)
        ptrs.push_back(t.get());
    return system.run(ptrs);
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
 * (System::runReplay) to reproduce a live run of the same workload
 * (System::run on fresh generators) in every SimStats field,
 * including the full detail tree, bit for bit. Returns the live
 * run's stats for case-specific checks.
 */
SimStats
expectKernelMatchesLive(const BenchmarkSpec &spec,
                        const SystemConfig &base,
                        const std::string &tech)
{
    const Recording rec = makeRecording(spec, base);
    const LlcModel &llc =
        publishedLlcModel(tech, CapacityMode::FixedCapacity);

    const SimStats live = viaLive(spec, base, llc);
    const double kernelRuns = globalCounter("sim.replay.runs");
    const SimStats kernel = viaRunReplay(spec, rec, base, llc);
    EXPECT_EQ(globalCounter("sim.replay.runs"), kernelRuns + 1.0);
    expectSimStatsIdentical(live, kernel);
    return live;
}

} // namespace

TEST(ShardedReplay, KernelMatchesLegacyScheduler)
{
    // The batch kernel against a live run of a SPEC workload.
    expectKernelMatchesLive(trimmed("tonto", 120'000),
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
    const SimStats live = expectKernelMatchesLive(
        trimmed("lbm", 120'000), base, "Jan");
    EXPECT_GT(detailScalar(live, "sim.llc.faults.writeRetries"),
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
        expectKernelMatchesLive(spec, base, "Jan");
}

TEST(ReplayKernel, MatchesSchedulerBitForBit)
{
    // A server-family workload on an SRAM LLC through both engines.
    expectKernelMatchesLive(
        WorkloadRegistry::global().resolve("kv:keys=1K,ops=30K"),
        SystemConfig{}, "SRAM");
}

TEST(ReplayKernel, MultiLaneMatchesLive)
{
    // Multi-source replays interleave their lanes by local time, in
    // the live heap's order. A 4-thread Table V workload:
    const BenchmarkSpec vips = trimmed("vips", 120'000);
    ASSERT_EQ(vips.defaultThreads, 4u);
    expectKernelMatchesLive(vips, SystemConfig{}, "Jan");

    // Four co-scheduled tenants, whose per-core LLC split rides in
    // the detail tree:
    const SimStats tenants = expectKernelMatchesLive(
        WorkloadRegistry::global().resolve(
            "tenants:n=4,keys=4K,ops=60K"),
        SystemConfig{}, "Kang");
    EXPECT_GT(detailScalar(tenants, "sim.tenant3.llc.demandReads"), 0.0);

    // And the fault layer's per-line draws under four lanes:
    SystemConfig faulty;
    faulty.llc.faults.enabled = true;
    faulty.llc.faults.berScale = 64.0;
    faulty.llc.faults.wearScale = 1e6;
    const SimStats faults = expectKernelMatchesLive(vips, faulty, "Jan");
    EXPECT_GT(detailScalar(faults, "sim.llc.faults.writeRetries"), 0.0);
}

TEST(ReplayKernel, RejectsMissingOrMismatchedRecording)
{
    // A replay without the sources' own recording has nothing to take
    // the private levels from; it must stop, naming both counts.
    const BenchmarkSpec spec = trimmed("vips", 20'000);
    const Recording rec = makeRecording(spec, SystemConfig{});
    const Recording single =
        makeRecording(trimmed("tonto", 20'000), SystemConfig{});
    const LlcModel &jan =
        publishedLlcModel("Jan", CapacityMode::FixedCapacity);
    const Recording missing{rec.trace, nullptr};
    const Recording mismatched{rec.trace, single.priv};
    EXPECT_DEATH(viaRunReplay(spec, missing, SystemConfig{}, jan),
                 "private trace has 0 lanes for 4");
    EXPECT_DEATH(viaRunReplay(spec, mismatched, SystemConfig{}, jan),
                 "private trace has 1 lanes for 4");
}
