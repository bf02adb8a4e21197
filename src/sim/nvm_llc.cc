#include "sim/nvm_llc.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"
#include "util/trace_events.hh"

namespace nvmcache {

namespace {

std::uint64_t
toCycles(double seconds, double freq)
{
    return std::uint64_t(std::max(1.0, std::ceil(seconds * freq)));
}

/**
 * Simulated cycles between sim-channel counter samples: coarse
 * enough that traces of multi-million-cycle runs stay small, fine
 * enough to show wear/retirement progression within one run.
 */
constexpr std::uint64_t kSimSampleInterval = std::uint64_t(1) << 18;

} // namespace

SharedLlc::SharedLlc(const LlcModel &model, const Config &cfg,
                     double coreFrequency)
    : model_(model), cfg_(cfg),
      tags_(CacheGeometry{model.capacityBytes, cfg.associativity,
                          cfg.blockBytes})
{
    if (coreFrequency <= 0.0)
        fatal("SharedLlc: bad core frequency");
    if (cfg_.numBanks == 0 ||
        (cfg_.numBanks & (cfg_.numBanks - 1)) != 0)
        fatal("SharedLlc: bank count must be a power of two");
    tagCycles_ = toCycles(model_.tagLatency, coreFrequency);
    readCycles_ = toCycles(model_.readLatency, coreFrequency);
    writeCycles_ = toCycles(model_.writeLatency(), coreFrequency);
    bankFreeAt_.assign(cfg_.numBanks, 0);
    if (cfg_.faults.enabled)
        injector_ = std::make_unique<FaultInjector>(
            cfg_.faults, model_.klass, tags_.geometry().numLines(),
            cfg_.blockBytes);
    if (tracingEnabled()) {
        simChan_ = std::make_unique<SimChannel>();
        // The constructing thread runs under the owning run's scope
        // (ExperimentRunner installs it before simulating), so the
        // ambient context names this LLC's counter tracks.
        simChan_->runId = TraceContext::current().path + "/llc";
        simChan_->traceId = TraceContext::current().traceId;
    }
}

std::uint32_t
SharedLlc::bankOf(std::uint64_t addr) const
{
    return std::uint32_t((addr / cfg_.blockBytes) % cfg_.numBanks);
}

std::uint64_t
SharedLlc::reserveRead(std::uint32_t bank, std::uint64_t now)
{
    const std::uint64_t start = std::max(now, bankFreeAt_[bank]);
    bankFreeAt_[bank] = start + readCycles_;
    return start - now;
}

std::uint64_t
SharedLlc::accountWrite(std::uint32_t bank, std::uint64_t now,
                        std::uint64_t cycles)
{
    switch (cfg_.writePolicy) {
      case WritePolicy::Posted:
        // Array write absorbed by the write buffer; serviced during
        // idle bank cycles, never visible to the system.
        return 0;
      case WritePolicy::BankContention: {
        const std::uint64_t start = std::max(now, bankFreeAt_[bank]);
        bankFreeAt_[bank] = start + cycles;
        // The requester only stalls once the backlog exceeds the
        // write queue: it must wait for the backlog to drain down to
        // queue depth (sized in base write pulses — retry pulses
        // consume queue slots' worth of bank time like any others).
        const std::uint64_t backlog = bankFreeAt_[bank] - now;
        const std::uint64_t budget =
            std::uint64_t(cfg_.writeQueueDepth) * writeCycles_;
        return backlog > budget ? backlog - budget : 0;
      }
      case WritePolicy::Blocking: {
        const std::uint64_t start = std::max(now, bankFreeAt_[bank]);
        bankFreeAt_[bank] = start + cycles;
        return (start - now) + cycles;
      }
    }
    panic("bad WritePolicy");
}

std::uint64_t
SharedLlc::finishArrayWrite(const LlcDecision &d)
{
    FaultStats &st = injector_->stats();
    std::uint64_t extra = 0;
    if (d.retries > 0) {
        // Escalated pulses: total cost 2^(retries+1)-1 base pulses,
        // of which one is already charged by the caller.
        const std::uint64_t mult = retryCostMultiplier(d.retries);
        const std::uint64_t cycles = (mult - 1) * writeCycles_;
        extra += cycles;
        st.retryCycles += cycles;
        stats_.writeEnergy += model_.eWrite * double(mult - 1);
    }
    if (d.writeScrubbed) {
        // SECDED corrected the residual single-bit error; the scrub
        // rewrites the corrected line.
        extra += cfg_.faults.scrubCycles;
        st.scrubCycles += cfg_.faults.scrubCycles;
        stats_.writeEnergy += model_.eWrite;
    }
    injector_->noteRetries(d.retries);
    return extra;
}

LlcDecision
SharedLlc::classifyRead(std::uint64_t addr)
{
    LlcDecision d;
    ++stats_.demandReads;

    CacheAccessResult res = tags_.access(addr, false);
    d.hit = res.hit;

    if (res.hit) {
        if (injector_) {
            const FaultInjector::ReadOutcome ro =
                injector_->onRead(res.lineIndex);
            if (ro.scrubbed) {
                // SECDED corrected a single-bit error under the
                // read; the scrub rewrites the corrected line.
                d.readScrubbed = true;
            } else if (ro.retired) {
                // Multi-bit error: the line's data is gone and its
                // way is withdrawn; the request falls through to
                // DRAM with no refill (there is nowhere to put it).
                tags_.retireLine(res.lineIndex);
                ++d.retirements;
                d.lineLost = true;
            }
        }
        if (!d.lineLost)
            ++stats_.demandHits;
        else
            ++stats_.demandMisses;
        return d;
    }

    ++stats_.demandMisses;
    if (res.noWay) {
        // Every way of the set is retired: the read is serviced by
        // DRAM and nothing is installed. noWay is only reachable
        // through retirements, so injector_ is live here.
        injector_->noteNoWay();
        d.noWay = true;
        return d;
    }

    ++stats_.fills;
    if (injector_) {
        const FaultInjector::WriteOutcome wo =
            injector_->classifyArrayWrite(res.lineIndex);
        d.retries = std::uint8_t(wo.retries);
        d.writeScrubbed = wo.scrubbed;
        if (wo.retired()) {
            // The freshly filled line is clean; dropping it costs
            // nothing beyond the lost way.
            tags_.retireLine(res.lineIndex);
            ++d.retirements;
            d.retiredOnWrite = true;
        }
    }
    if (res.evictedValid && res.evictedDirty) {
        ++stats_.dirtyEvictions;
        d.victimDirty = true;
        d.victimAddr = res.evictedAddr;
    }
    return d;
}

LlcReadOutcome
SharedLlc::finishRead(const LlcDecision &d, std::uint64_t addr,
                      std::uint64_t now)
{
    if (simChan_)
        simChannelRead(d, now);
    LlcReadOutcome out;
    const std::uint32_t bank = bankOf(addr);

    if (d.hit) {
        std::uint64_t scrubExtra = 0;
        if (d.readScrubbed) {
            scrubExtra = cfg_.faults.scrubCycles;
            injector_->stats().scrubCycles += scrubExtra;
            stats_.writeEnergy += model_.eWrite;
        }
        if (!d.lineLost) {
            out.hit = true;
            stats_.hitEnergy += model_.eHit;
            const std::uint64_t wait = reserveRead(bank, now);
            stats_.readWaitCycles += wait;
            readWaitDist_.add(double(wait));
            out.latencyCycles = wait + cfg_.controllerCycles +
                                tagCycles_ + readCycles_ + scrubExtra;
            return out;
        }
        stats_.missEnergy += model_.eMiss;
        out.latencyCycles = cfg_.controllerCycles + tagCycles_;
        return out;
    }

    stats_.missEnergy += model_.eMiss;
    // Miss detection costs the tag probe; the fill happens when DRAM
    // returns (state updated at classify time, timing accounted via
    // accountWrite).
    out.latencyCycles = cfg_.controllerCycles + tagCycles_;

    if (d.noWay)
        return out;

    stats_.writeEnergy += model_.eWrite;
    std::uint64_t writeBusy = writeCycles_;
    if (injector_)
        writeBusy += finishArrayWrite(d);
    out.latencyCycles += accountWrite(bank, now, writeBusy);
    if (d.victimDirty) {
        out.victimDirty = true;
        out.victimAddr = d.victimAddr;
    }
    return out;
}

LlcReadOutcome
SharedLlc::demandRead(std::uint64_t addr, std::uint64_t now)
{
    if (injector_)
        injector_->tick(tags_.liveLines());
    const LlcDecision d = classifyRead(addr);
    return finishRead(d, addr, now);
}

LlcDecision
SharedLlc::classifyWriteback(std::uint64_t addr)
{
    LlcDecision d;
    ++stats_.writebacksIn;

    if (cfg_.bypassWritebackMiss && !tags_.probe(addr)) {
        // Bypass: pay only the tag probe, never touch the NVM array.
        ++stats_.writeBypasses;
        d.bypassed = true;
        return d;
    }

    CacheAccessResult res = tags_.installWriteback(addr);
    if (res.noWay) {
        // Every way of the set is retired: the dirty line continues
        // to DRAM unmodified, paying only the tag probe.
        injector_->noteNoWay();
        ++stats_.writeBypasses;
        d.noWay = true;
        return d;
    }

    if (injector_) {
        const FaultInjector::WriteOutcome wo =
            injector_->classifyArrayWrite(res.lineIndex);
        d.retries = std::uint8_t(wo.retries);
        d.writeScrubbed = wo.scrubbed;
        if (wo.retired()) {
            // The just-installed dirty line is lost with its way;
            // its data carries on to DRAM.
            tags_.retireLine(res.lineIndex);
            ++d.retirements;
            d.retiredOnWrite = true;
        }
    }
    if (res.evictedValid && res.evictedDirty) {
        ++stats_.dirtyEvictions;
        d.victimDirty = true;
        d.victimAddr = res.evictedAddr;
    }
    return d;
}

LlcWritebackOutcome
SharedLlc::finishWriteback(const LlcDecision &d, std::uint64_t addr,
                           std::uint64_t now)
{
    if (simChan_)
        simChannelWriteback(d, now);
    LlcWritebackOutcome out;
    if (d.bypassed || d.noWay) {
        stats_.missEnergy += model_.eMiss;
        out.forwardedToDram = true;
        return out;
    }

    const std::uint32_t bank = bankOf(addr);
    stats_.writeEnergy += model_.eWrite;
    std::uint64_t writeBusy = writeCycles_;
    if (injector_)
        writeBusy += finishArrayWrite(d);
    if (d.retiredOnWrite)
        out.forwardedToDram = true;
    out.stallCycles = accountWrite(bank, now, writeBusy);
    stats_.writeStallCycles += out.stallCycles;
    writeStallDist_.add(double(out.stallCycles));
    if (d.victimDirty) {
        out.victimDirty = true;
        out.victimAddr = d.victimAddr;
    }
    return out;
}

LlcWritebackOutcome
SharedLlc::writeback(std::uint64_t addr, std::uint64_t now)
{
    if (injector_)
        injector_->tick(tags_.liveLines());
    const LlcDecision d = classifyWriteback(addr);
    return finishWriteback(d, addr, now);
}

// --- simulated-time trace channel ------------------------------------

void
SharedLlc::simChannelRead(const LlcDecision &d, std::uint64_t now)
{
    SimChannel &ch = *simChan_;
    ++ch.reads;
    if (!d.hit || d.lineLost)
        ++ch.misses;
    ch.retries += d.retries;
    ch.scrubs += (d.writeScrubbed ? 1u : 0u) +
                 (d.readScrubbed ? 1u : 0u);
    ch.retirements += d.retirements;
    if (!d.hit && !d.noWay)
        ++ch.arrayWrites; // miss fill
    if (now >= ch.nextSample)
        simChannelSample(now);
}

void
SharedLlc::simChannelWriteback(const LlcDecision &d, std::uint64_t now)
{
    SimChannel &ch = *simChan_;
    ++ch.writebacks;
    ch.retries += d.retries;
    ch.scrubs += d.writeScrubbed ? 1u : 0u;
    ch.retirements += d.retirements;
    if (!d.bypassed && !d.noWay)
        ++ch.arrayWrites;
    if (now >= ch.nextSample)
        simChannelSample(now);
}

void
SharedLlc::simChannelSample(std::uint64_t now)
{
    SimChannel &ch = *simChan_;
    traceSimCounter("llc.demandMisses", ch.runId, now,
                    double(ch.misses));
    traceSimCounter("llc.writebacks", ch.runId, now,
                    double(ch.writebacks));
    traceSimCounter("llc.writeRetries", ch.runId, now,
                    double(ch.retries));
    traceSimCounter("llc.scrubs", ch.runId, now, double(ch.scrubs));
    traceSimCounter("llc.retiredLines", ch.runId, now,
                    double(ch.retirements));
    traceSimCounter("llc.wearWritesPerLine", ch.runId, now,
                    double(ch.arrayWrites) /
                        double(tags_.geometry().numLines()));
    ch.nextSample = now + kSimSampleInterval;
}

void
SharedLlc::traceSimFinal(std::uint64_t now)
{
    if (simChan_)
        simChannelSample(now);
}

double
SharedLlc::missRate() const
{
    if (stats_.demandReads == 0)
        return 0.0;
    return double(stats_.demandMisses) / double(stats_.demandReads);
}

void
SharedLlc::exportStats(MetricsRegistry &reg,
                       const std::string &prefix) const
{
    reg.counter(prefix + ".demandReads").inc(stats_.demandReads);
    reg.counter(prefix + ".readHits").inc(stats_.demandHits);
    reg.counter(prefix + ".readMisses").inc(stats_.demandMisses);
    reg.counter(prefix + ".fills").inc(stats_.fills);
    reg.counter(prefix + ".writeHits")
        .inc(stats_.writebacksIn - stats_.writeBypasses);
    reg.counter(prefix + ".writebacksIn").inc(stats_.writebacksIn);
    reg.counter(prefix + ".dirtyEvictions").inc(stats_.dirtyEvictions);
    reg.counter(prefix + ".writeBypasses").inc(stats_.writeBypasses);
    reg.counter(prefix + ".readWaitCycles").inc(stats_.readWaitCycles);
    reg.counter(prefix + ".writeStallCycles")
        .inc(stats_.writeStallCycles);
    reg.gauge(prefix + ".hitEnergy").add(stats_.hitEnergy);
    reg.gauge(prefix + ".missEnergy").add(stats_.missEnergy);
    reg.gauge(prefix + ".writeEnergy").add(stats_.writeEnergy);
    reg.gauge(prefix + ".missRate").set(missRate());

    reg.distribution(prefix + ".writeStall").merge(writeStallDist_.snapshot());
    reg.distribution(prefix + ".readWait").merge(readWaitDist_.snapshot());
    reg.gauge(prefix + ".maxLineWrites")
        .set(double(tags_.maxLineWrites()));
    tags_.exportStats(reg, prefix + ".tags");

    // The faults section exists only when injection is enabled, so a
    // faults-off run's snapshot stays byte-identical to the
    // pre-fault-layer simulator's.
    if (injector_)
        injector_->exportStats(reg, prefix + ".faults",
                               tags_.liveLines(),
                               tags_.geometry().numLines());
}

} // namespace nvmcache
