/**
 * @file
 * Vectorized batch-replay kernel.
 *
 * A single-source replay run with a private-level recording needs no
 * scheduler: there is one core, and the recording already fixes every
 * private-level outcome. The kernel expands the packed trace and the
 * recording into SoA blocks (no per-access virtual dispatch or varint
 * pointer chasing) and drives the shared LLC and DRAM straight off
 * the decoded arrays, prefetching the tag sets of demand addresses
 * and recorded L2 victims ahead of their walks.
 *
 * Per access it issues exactly what System::replayStep does — the
 * recorded L2 victims as writebacks, then (on a private miss) the
 * demand read — with the same cycle arithmetic in the same order, so
 * its SimStats are bit-identical to the min-local-time scheduler's.
 *
 * Multi-source runs interleave cores by local time, and runs without
 * a recording must simulate the private levels; both go to the
 * scheduler (System::run).
 */

#include "sim/system.hh"

#include "util/logging.hh"
#include "util/trace_events.hh"

namespace nvmcache {

namespace {

/**
 * Lookaheads: demand addresses far enough ahead to cover a full
 * access's simulation cost (matches the per-access scheduler's tuned
 * distance), recorded L2 victims a few writebacks ahead.
 */
constexpr std::size_t kDemandPrefetch = 24;
constexpr std::size_t kWbPrefetch = 6;

} // namespace

SimStats
System::runReplay(const std::vector<ReplaySource *> &sources,
                  const PrivateTrace *privateTrace)
{
    if (sources.empty())
        fatal("System::runReplay: no threads");
    MetricsRegistry &greg = MetricsRegistry::global();

    if (sources.size() != 1 || privateTrace == nullptr ||
        privateTrace->threads() != sources.size()) {
        // The scheduler interleaves multiple sources by local time
        // (and reports any source/recording mismatch).
        greg.counter("sim.replay.runs.fallback").inc(1);
        if (tracingEnabled())
            traceInstant("replay.fallback", "engine",
                         TraceContext::current().path + "/replay");
        std::vector<BatchSource *> batch(sources.begin(),
                                         sources.end());
        return run(batch, privateTrace);
    }

    Phase phase("replay.run", "engine",
                TraceContext::current().path + "/replay");

    PrivateCore &core = cores_[0];
    PrivateCursor pcur = privateTrace->cursor(0);
    ReplaySource *src = sources[0];

    TraceBlock tb;
    PrivateBlock pb;
    std::uint64_t totalAccesses = 0;
    std::uint64_t blocks = 0;

    std::uint32_t n;
    while ((n = src->fillBlock(tb)) != 0) {
        ++blocks;
        totalAccesses += n;
        pcur.fillBlock(n, pb);

        std::uint32_t w = 0;
        for (std::uint32_t i = 0; i < n; ++i) {
            if (i + kDemandPrefetch < n)
                llc_->prefetchTag(tb.addr[i + kDemandPrefetch]);
            // The recorded L2-victim stream is known too; pull its
            // tag sets ahead of the writeback walks (the per-access
            // scheduler can't — it learns victims one access at a
            // time).
            if (w + kWbPrefetch < pb.wbTotal)
                llc_->prefetchTag(pb.wbAddr[w + kWbPrefetch]);
            core.advanceIssue(tb.gap[i]);
            const std::uint8_t outcome = pb.outcome[i];
            const std::uint8_t nwb = pb.wbCount[i];
            if (outcome == PrivateEvent::kL1Hit && nwb == 0)
                continue; // private hit, nothing reaches the LLC
            const std::uint64_t now = std::uint64_t(core.cycle());
            if (outcome != PrivateEvent::kL1Hit)
                ++l1Misses_;

            for (std::uint8_t j = 0; j < nwb; ++j) {
                const std::uint64_t addr = pb.wbAddr[w++];
                const LlcWritebackOutcome wbo =
                    llc_->writeback(addr, now);
                if (wbo.stallCycles)
                    core.applyRawStall(wbo.stallCycles);
                if (wbo.forwardedToDram)
                    dram_->write(addr, now);
                if (wbo.victimDirty)
                    dram_->write(wbo.victimAddr, now);
            }

            if (outcome == PrivateEvent::kL1Hit)
                continue;
            if (outcome == PrivateEvent::kL2Hit) {
                core.applyStall(AccessKind(tb.kind[i]),
                                cfg_.core.l2Cycles);
                continue;
            }

            ++l2Misses_;
            std::uint64_t latency = cfg_.core.l2Cycles;
            const LlcReadOutcome rd =
                llc_->demandRead(tb.addr[i], now + latency);
            latency += rd.latencyCycles;
            if (!rd.hit) {
                latency += dram_->read(tb.addr[i], now + latency);
                if (rd.victimDirty)
                    dram_->write(rd.victimAddr, now + latency);
            }
            core.applyStall(AccessKind(tb.kind[i]), latency);
        }
    }
    greg.counter("sim.replay.runs.serial").inc(1);

    const double seconds = phase.elapsedSeconds();
    greg.counter("sim.replay.accesses").inc(totalAccesses);
    if (seconds > 0.0)
        greg.gauge("sim.replay.accessesPerSecond")
            .set(double(totalAccesses) / seconds);
    if (blocks > 0)
        greg.gauge("sim.replay.blockFillRatio")
            .set(double(totalAccesses) /
                 double(blocks * TraceBlock::kCapacity));

    return collectStats(1, privateTrace);
}

} // namespace nvmcache
