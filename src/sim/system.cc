/**
 * @file
 * The system's two engines and the shared-level step they share.
 *
 * System::run is the live reference: it walks every reference through
 * the real private L1/L2 caches and interleaves cores with an
 * index-min heap. System::runReplay is the engine of every recorded
 * simulation: each source is one lane that expands its packed trace
 * and its private-level recording into SoA blocks (no per-access
 * virtual dispatch or varint pointer chasing) and prefetches the LLC
 * tag sets of its demand addresses and recorded L2 victims ahead of
 * their walks. Both engines hand each reference's LLC/DRAM half to
 * System::sharedLevels, in the same core order, so their SimStats are
 * bit-identical.
 */

#include "sim/system.hh"

#include <algorithm>
#include <array>
#include <limits>

#include "util/logging.hh"
#include "util/trace_events.hh"

namespace nvmcache {

namespace {

/** References a live core pulls from its source at a time. */
constexpr std::size_t kBatch = 128;

/**
 * Tag-prefetch lookaheads: demand addresses far enough ahead to cover
 * the full simulation cost of the accesses in between (shorter ones
 * leave part of the tag-walk host-cache miss exposed), recorded L2
 * victims a few writebacks ahead.
 */
constexpr std::size_t kDemandPrefetch = 24;
constexpr std::size_t kWbPrefetch = 6;

/**
 * The order both engines step cores in. Min-local-time scheduling
 * keeps shared-resource timestamps approximately globally ordered:
 * the running cores sit in a binary min-heap keyed on (local cycle,
 * core index), the same pick order as a linear scan taking the first
 * strict minimum, at O(log cores) per step. A core's key only grows,
 * so after each step the root is re-sunk in place.
 */
class CoreOrder
{
  public:
    struct Key
    {
        double cycle;
        std::uint32_t core;
    };

    static bool
    before(const Key &a, const Key &b)
    {
        return a.cycle < b.cycle ||
               (a.cycle == b.cycle && a.core < b.core);
    }

    explicit CoreOrder(std::size_t cores) : heap_(cores)
    {
        // Equal keys in index order: a valid heap.
        for (std::uint32_t i = 0; i < cores; ++i)
            heap_[i] = {0.0, i};
    }

    bool empty() const { return heap_.empty(); }

    /** The core to step next. */
    std::uint32_t top() const { return heap_[0].core; }

    /**
     * The least key among the other cores (a child of the root): the
     * top core is picked again while its key stays before this one.
     */
    Key
    runnerUp() const
    {
        Key k{std::numeric_limits<double>::infinity(),
              ~std::uint32_t(0)};
        for (std::size_t c = 1; c < 3 && c < heap_.size(); ++c)
            if (before(heap_[c], k))
                k = heap_[c];
        return k;
    }

    /** The top core stepped to @p cycle. */
    void
    advanceTop(double cycle)
    {
        heap_[0].cycle = cycle;
        siftDown();
    }

    /** The top core's trace is drained. */
    void
    retireTop()
    {
        heap_[0] = heap_.back();
        heap_.pop_back();
        if (!heap_.empty())
            siftDown();
    }

  private:
    void
    siftDown()
    {
        std::size_t i = 0;
        const std::size_t n = heap_.size();
        const Key e = heap_[0];
        while (true) {
            std::size_t child = 2 * i + 1;
            if (child >= n)
                break;
            if (child + 1 < n && before(heap_[child + 1], heap_[child]))
                ++child;
            if (!before(heap_[child], e))
                break;
            heap_[i] = heap_[child];
            i = child;
        }
        heap_[i] = e;
    }

    std::vector<Key> heap_;
};

void
checkThreads(const char *who, std::size_t threads, std::size_t cores)
{
    if (threads == 0)
        fatal(who, ": no threads");
    // Thread i runs on core i.
    if (threads > cores)
        fatal(who, ": more threads (", threads, ") than cores (", cores,
              ")");
}

} // namespace

System::System(const SystemConfig &cfg, const LlcModel &llcModel)
    : cfg_(cfg)
{
    if (cfg_.numCores == 0)
        fatal("System: need at least one core");
    cores_.reserve(cfg_.numCores);
    for (std::uint32_t i = 0; i < cfg_.numCores; ++i)
        cores_.emplace_back(cfg_.core);
    llc_ = std::make_unique<SharedLlc>(llcModel, cfg_.llc,
                                       cfg_.frequency);
    dram_ = std::make_unique<DramModel>(cfg_.dram, cfg_.frequency);
    coreLlc_.resize(cfg_.numCores);
}

inline void
System::sharedLevels(std::uint32_t coreIdx, AccessKind kind,
                     std::uint64_t addr, std::uint8_t outcome,
                     const std::uint64_t *wb, std::uint8_t nwb)
{
    if (outcome == PrivateEvent::kL1Hit && nwb == 0)
        return; // nothing reaches the LLC
    PrivateCore &core = cores_[coreIdx];
    CoreLlcCounters &share = coreLlc_[coreIdx];
    const std::uint64_t now = std::uint64_t(core.cycle());
    if (outcome != PrivateEvent::kL1Hit)
        ++l1Misses_;

    // Dirty L2 victims stream down to the LLC regardless of whether
    // the demand access was satisfied privately.
    share.writebacks += nwb;
    for (std::uint8_t i = 0; i < nwb; ++i) {
        const LlcWritebackOutcome o = llc_->writeback(wb[i], now);
        if (o.stallCycles)
            core.applyRawStall(o.stallCycles);
        if (o.forwardedToDram)
            dram_->write(wb[i], now);
        if (o.victimDirty)
            dram_->write(o.victimAddr, now);
    }

    if (outcome == PrivateEvent::kL1Hit)
        return;
    if (outcome == PrivateEvent::kL2Hit) {
        core.applyStall(kind, cfg_.core.l2Cycles);
        return;
    }

    ++l2Misses_;
    std::uint64_t latency = cfg_.core.l2Cycles;
    const LlcReadOutcome rd = llc_->demandRead(addr, now + latency);
    ++share.demandReads;
    ++(rd.hit ? share.demandHits : share.demandMisses);
    latency += rd.latencyCycles;
    if (!rd.hit) {
        latency += dram_->read(addr, now + latency);
        if (rd.victimDirty)
            dram_->write(rd.victimAddr, now + latency);
    }
    core.applyStall(kind, latency);
}

SimStats
System::run(const std::vector<TraceSource *> &threads)
{
    checkThreads("System::run", threads.size(), cores_.size());

    struct Lane
    {
        std::array<MemAccess, kBatch> buf;
        std::uint32_t pos = 0;
        std::uint32_t count = 0;
    };
    std::vector<Lane> lanes(threads.size());

    CoreOrder order(threads.size());
    while (!order.empty()) {
        const std::uint32_t i = order.top();
        Lane &lane = lanes[i];
        if (lane.pos == lane.count) {
            lane.pos = lane.count = 0;
            while (lane.count < kBatch &&
                   threads[i]->next(lane.buf[lane.count]))
                ++lane.count;
            if (lane.count == 0) { // trace drained: retire the core
                order.retireTop();
                continue;
            }
        }
        const std::size_t ahead = lane.pos + kDemandPrefetch;
        if (ahead < lane.count)
            llc_->prefetchTag(lane.buf[ahead].addr);
        const MemAccess &access = lane.buf[lane.pos++];
        const PrivateAccessOutcome out = cores_[i].accessPrivate(access);
        sharedLevels(i, access.kind, access.addr, PrivateEvent::of(out),
                     out.writebacks.addr.data(),
                     std::uint8_t(out.writebacks.count));
        order.advanceTop(cores_[i].cycle());
    }

    return collectStats(threads.size(), nullptr);
}

SimStats
System::runReplay(const std::vector<ReplaySource *> &sources,
                  const PrivateTrace *privateTrace)
{
    checkThreads("System::runReplay", sources.size(), cores_.size());
    const std::uint32_t recorded =
        privateTrace ? privateTrace->threads() : 0;
    if (recorded != sources.size())
        fatal("System::runReplay: private trace has ", recorded,
              " lanes for ", sources.size(), " sources");

    Phase phase("replay.run", "engine",
                TraceContext::current().path + "/replay");

    // Lane c replays sources[c] on core c; i and w are its positions
    // in the decoded block's accesses and writeback addresses.
    struct Lane
    {
        TraceBlock tb;
        PrivateBlock pb;
        PrivateCursor cursor;
        std::uint32_t i = 0;
        std::uint32_t w = 0;
    };
    std::vector<Lane> lanes(sources.size());
    for (std::uint32_t c = 0; c < sources.size(); ++c)
        lanes[c].cursor = privateTrace->cursor(c);
    std::uint64_t totalAccesses = 0;
    std::uint64_t blocks = 0;
    // Decode lane c's next block; false once its trace is drained.
    const auto refill = [&](std::uint32_t c) {
        Lane &lane = lanes[c];
        const std::uint32_t n = sources[c]->fillBlock(lane.tb);
        if (n == 0)
            return false;
        lane.cursor.fillBlock(n, lane.pb);
        ++blocks;
        totalAccesses += n;
        return true;
    };

    CoreOrder order(sources.size());
    while (!order.empty()) {
        // The top lane keeps stepping while it stays strictly ahead
        // of the best other lane, because the heap would pick it
        // again; a single lane never re-picks.
        const std::uint32_t c = order.top();
        const CoreOrder::Key limit = order.runnerUp();
        Lane &lane = lanes[c];
        PrivateCore &core = cores_[c];
        std::uint32_t i = lane.i;
        std::uint32_t w = lane.w;
        bool drained = false;
        while (true) {
            if (i == lane.tb.count) {
                if (!refill(c)) {
                    drained = true;
                    break;
                }
                i = w = 0;
            }
            if (i + kDemandPrefetch < lane.tb.count)
                llc_->prefetchTag(lane.tb.addr[i + kDemandPrefetch]);
            // The recorded L2-victim stream is known too; pull its tag
            // sets ahead of the writeback walks (the live engine
            // can't: it learns victims one access at a time).
            if (w + kWbPrefetch < lane.pb.wbTotal)
                llc_->prefetchTag(lane.pb.wbAddr[w + kWbPrefetch]);
            core.advanceIssue(lane.tb.gap[i]);
            const std::uint8_t nwb = lane.pb.wbCount[i];
            sharedLevels(c, AccessKind(lane.tb.kind[i]), lane.tb.addr[i],
                         lane.pb.outcome[i], lane.pb.wbAddr.data() + w,
                         nwb);
            ++i;
            w += nwb;
            if (!CoreOrder::before({core.cycle(), c}, limit))
                break;
        }
        lane.i = i;
        lane.w = w;
        if (drained)
            order.retireTop();
        else
            order.advanceTop(core.cycle());
    }

    MetricsRegistry &greg = MetricsRegistry::global();
    greg.counter("sim.replay.runs").inc(1);
    const double seconds = phase.elapsedSeconds();
    greg.counter("sim.replay.accesses").inc(totalAccesses);
    if (seconds > 0.0)
        greg.gauge("sim.replay.accessesPerSecond")
            .set(double(totalAccesses) / seconds);
    if (blocks > 0)
        greg.gauge("sim.replay.blockFillRatio")
            .set(double(totalAccesses) /
                 double(blocks * TraceBlock::kCapacity));

    return collectStats(sources.size(), privateTrace);
}

SimStats
System::collectStats(std::size_t numThreads,
                     const PrivateTrace *privateTrace)
{
    SimStats stats;
    for (std::size_t i = 0; i < numThreads; ++i) {
        stats.instructions += cores_[i].instructions();
        stats.coreCycles.push_back(cores_[i].cycle());
        stats.cycles = std::max(stats.cycles, cores_[i].cycle());
    }
    stats.seconds = stats.cycles / cfg_.frequency;
    // Close the simulated-time trace channel with a final sample at
    // the run's end cycle (no-op when tracing is off).
    llc_->traceSimFinal(std::uint64_t(stats.cycles));
    stats.llc = llc_->stats();
    stats.dramReads = dram_->reads();
    stats.dramWrites = dram_->writes();
    stats.dramQueueCycles = dram_->queueCycles();
    stats.l1Misses = l1Misses_;
    stats.l2Misses = l2Misses_;
    stats.llcDynamicEnergy = stats.llc.dynamicEnergy();
    stats.llcLeakageEnergy = llc_->model().leakage * stats.seconds;

    // Export the whole hierarchy into a per-run registry; the
    // snapshot rides along with the (possibly memoized) SimStats.
    MetricsRegistry reg;
    llc_->exportStats(reg, "sim.llc");
    dram_->exportStats(reg, "sim.dram");
    Distribution &core_cycles = reg.distribution("sim.cores.cycles");
    double min_cycles = stats.cycles;
    for (std::size_t i = 0; i < numThreads; ++i) {
        if (privateTrace) {
            // A replay run never touched the cores' caches; the core
            // counters are live, the cache stats come from the
            // recording, in exactly PrivateCore::exportStats's order.
            reg.counter("sim.core.instructions")
                .inc(cores_[i].instructions());
            reg.counter("sim.core.stallCycles")
                .inc(cores_[i].stallCycles());
            privateTrace->exportCaches(reg, "sim.core",
                                       std::uint32_t(i));
        } else {
            cores_[i].exportStats(reg, "sim.core");
        }
        core_cycles.add(cores_[i].cycle());
        min_cycles = std::min(min_cycles, cores_[i].cycle());
    }
    // Load imbalance: fraction of the finish time the earliest core
    // sat idle (0 = perfectly balanced or single-threaded).
    reg.gauge("sim.cores.cycleImbalance")
        .set(stats.cycles > 0.0
                 ? (stats.cycles - min_cycles) / stats.cycles
                 : 0.0);
    reg.counter("sim.instructions").inc(stats.instructions);
    reg.counter("sim.l1Misses").inc(l1Misses_);
    reg.counter("sim.l2Misses").inc(l2Misses_);
    reg.gauge("sim.seconds").set(stats.seconds);
    reg.gauge("sim.llc.leakageEnergy").set(stats.llcLeakageEnergy);
    reg.gauge("sim.llc.dynamicEnergy").set(stats.llcDynamicEnergy);
    reg.gauge("sim.mpki").set(stats.llcMpki());
    stats.detail = reg.snapshot();

    // Per-tenant LLC traffic split (tenants workload family).
    if (cfg_.perCoreLlcStats) {
        for (std::size_t i = 0; i < numThreads; ++i) {
            const CoreLlcCounters &c = coreLlc_[i];
            MetricsRegistry treg;
            treg.counter("llc.demandReads").inc(c.demandReads);
            treg.counter("llc.demandHits").inc(c.demandHits);
            treg.counter("llc.demandMisses").inc(c.demandMisses);
            treg.counter("llc.writebacks").inc(c.writebacks);
            stats.detail.merge(treg.snapshot().withPrefix(
                "sim.tenant" + std::to_string(i)));
        }
    }
    return stats;
}

} // namespace nvmcache
