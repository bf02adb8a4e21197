/**
 * @file
 * Full-system model: N Gainestown cores with private L1/L2, one
 * shared (possibly NVM) LLC, and bandwidth-queued DRAM — the paper's
 * Sniper configuration (Table IV).
 */

#ifndef NVMCACHE_SIM_SYSTEM_HH
#define NVMCACHE_SIM_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "nvsim/llc_model.hh"
#include "sim/core.hh"
#include "sim/dram.hh"
#include "sim/nvm_llc.hh"
#include "sim/private_trace.hh"
#include "sim/replay.hh"
#include "sim/types.hh"
#include "util/metrics.hh"

namespace nvmcache {

/** Whole-system configuration. */
struct SystemConfig
{
    std::uint32_t numCores = 4;
    double frequency = 2.66e9; ///< Hz (Xeon x5550)
    CoreParams core;
    SharedLlc::Config llc;
    DramConfig dram;

    /**
     * Export per-core LLC demand/writeback counters into the run's
     * stats detail under "sim.tenant<i>." (multi-tenant workloads:
     * core i runs tenant i's thread). Off by default so existing
     * reports stay byte-stable.
     */
    bool perCoreLlcStats = false;
};

/** Results of one simulation run. */
struct SimStats
{
    std::uint64_t instructions = 0;
    double cycles = 0.0; ///< max over cores (the system finish time)
    double seconds = 0.0;

    LlcStats llc;
    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;
    std::uint64_t dramQueueCycles = 0;

    std::uint64_t l1Misses = 0;
    std::uint64_t l2Misses = 0;

    std::vector<double> coreCycles;

    double llcLeakageEnergy = 0.0; ///< J, P_leak * seconds
    double llcDynamicEnergy = 0.0; ///< J

    /**
     * Full hierarchical stats report of this run ("sim.*": LLC,
     * DRAM, private-core and imbalance entries). Filled by
     * System::run from a per-run registry, so it is deterministic and
     * travels with memoized results unchanged at any experiment-engine
     * concurrency.
     */
    StatsSnapshot detail;

    /** Total LLC energy (the paper's "LLC energy" metric). */
    double llcEnergy() const
    {
        return llcLeakageEnergy + llcDynamicEnergy;
    }

    /** LLC demand misses per thousand instructions. */
    double
    llcMpki() const
    {
        return instructions == 0 ? 0.0
                                 : double(llc.demandMisses) * 1000.0 /
                                       double(instructions);
    }

    /** Energy * delay^2 (the paper's ED^2P, LLC energy based). */
    double ed2p() const { return llcEnergy() * seconds * seconds; }
};

/**
 * One simulation instance. Construct, then run() exactly once per
 * set of traces (construct a fresh System for a fresh run; cache
 * state is not reset between runs by design, matching how the
 * experiments use it).
 */
class System
{
  public:
    System(const SystemConfig &cfg, const LlcModel &llcModel);

    /**
     * Live run: simulate the per-thread traces to completion, walking
     * the real private L1/L2 caches one access at a time. Thread i
     * runs on core i; the usual case is one thread per core
     * (multi-threaded suites) or a single thread (cpu2006/2017).
     *
     * Cores are interleaved in min-local-time order so shared-LLC and
     * DRAM contention is observed in approximately global time: an
     * index-min heap picks the core with the least (local cycle,
     * core index), O(log cores) per step. Each core prefetches its
     * thread's references in batches; per-thread sources must
     * therefore be independent of each other (true of every
     * TraceSource in the tree), since a core may pull ahead of the
     * globally-interleaved consumption order.
     *
     * This is the reference runReplay is tested against.
     */
    SimStats run(const std::vector<TraceSource *> &threads);

    /**
     * Replay run, the engine of every recorded simulation:
     * @p privateTrace carries the recorded private-level outcomes of
     * exactly these sources under this system's CoreParams, so the
     * L1/L2 walks are skipped and only the shared LLC and DRAM are
     * simulated. Each source is one lane that decodes SoA blocks
     * (TraceBlock plus PrivateBlock); lanes step in run()'s order,
     * least (local cycle, core index) first, so SimStats are
     * bit-identical to run() on the same access sequences. fatal()
     * when @p privateTrace is null or its lane count differs from
     * the number of sources.
     */
    SimStats runReplay(const std::vector<ReplaySource *> &sources,
                       const PrivateTrace *privateTrace);

    const SharedLlc &llc() const { return *llc_; }

  private:
    SystemConfig cfg_;
    std::vector<PrivateCore> cores_;
    std::unique_ptr<SharedLlc> llc_;
    std::unique_ptr<DramModel> dram_;
    std::uint64_t l1Misses_ = 0;
    std::uint64_t l2Misses_ = 0;

    /**
     * Per-core share of the shared-LLC traffic (demand reads split
     * into hits/misses, plus L2 writebacks reaching the LLC), counted
     * in sharedLevels().
     */
    struct CoreLlcCounters
    {
        std::uint64_t demandReads = 0;
        std::uint64_t demandHits = 0;
        std::uint64_t demandMisses = 0;
        std::uint64_t writebacks = 0;
    };
    std::vector<CoreLlcCounters> coreLlc_;

    /**
     * The LLC/DRAM half of one reference on @p coreIdx, after its
     * issue time was charged: the @p nwb dirty L2 victims at @p wb
     * go to the LLC as writebacks, then an L2 hit stalls for the L2
     * latency and a private miss (@p outcome, a PrivateEvent code)
     * reads @p addr from the LLC and, on a miss there, DRAM. The one
     * copy of this accounting: run() and runReplay() both call it.
     */
    void sharedLevels(std::uint32_t coreIdx, AccessKind kind,
                      std::uint64_t addr, std::uint8_t outcome,
                      const std::uint64_t *wb, std::uint8_t nwb);

    /** Gather SimStats after all cores drained their sources. */
    SimStats collectStats(std::size_t numThreads,
                          const PrivateTrace *privateTrace);
};

} // namespace nvmcache

#endif // NVMCACHE_SIM_SYSTEM_HH
