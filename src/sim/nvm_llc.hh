/**
 * @file
 * Shared, banked, possibly-NVM last-level cache (the paper's modified
 * Sniper LLC).
 *
 * Timing and energy come from an LlcModel (a Table III column):
 * asymmetric read/write latency, per-event dynamic energies (eqs 6-8)
 * and leakage. The LLC sees two request kinds from the private
 * levels: demand reads (L2 misses, regardless of whether the original
 * core op was a load, store or ifetch) and writebacks (L2 dirty
 * evictions). Array writes additionally happen on every miss fill.
 *
 * Write timing policy (paper §V-A-7 discusses exactly this):
 *  - Posted: writes are fully off the critical path and never delay
 *    anything (the paper's/Sniper's assumption; our default).
 *  - BankContention: writes occupy their bank, delaying later reads
 *    to the same bank; the requester stalls only when the bank's
 *    write backlog exceeds the write-queue depth.
 *  - Blocking: writes are on the critical path (ablation worst case).
 */

#ifndef NVMCACHE_SIM_NVM_LLC_HH
#define NVMCACHE_SIM_NVM_LLC_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nvsim/llc_model.hh"
#include "sim/cache.hh"
#include "sim/faults.hh"

namespace nvmcache {

/** LLC write-path timing policy. */
enum class WritePolicy
{
    Posted,
    BankContention,
    Blocking
};

/** Counters and energy accumulated by the LLC. */
struct LlcStats
{
    std::uint64_t demandReads = 0;
    std::uint64_t demandHits = 0;
    std::uint64_t demandMisses = 0;
    std::uint64_t fills = 0;
    std::uint64_t writebacksIn = 0;   ///< dirty evictions from L2
    std::uint64_t dirtyEvictions = 0; ///< dirty LLC victims -> DRAM
    std::uint64_t writeBypasses = 0;  ///< writebacks forwarded to DRAM
    std::uint64_t readWaitCycles = 0; ///< bank-conflict wait on reads
    std::uint64_t writeStallCycles = 0; ///< queue-full stalls charged

    double hitEnergy = 0.0;   ///< J
    double missEnergy = 0.0;  ///< J
    double writeEnergy = 0.0; ///< J

    double dynamicEnergy() const
    {
        return hitEnergy + missEnergy + writeEnergy;
    }
};

/** Outcome of one LLC demand read. */
struct LlcReadOutcome
{
    bool hit = false;
    std::uint64_t latencyCycles = 0; ///< LLC-side latency incl. waits
    bool victimDirty = false;        ///< fill displaced a dirty line
    std::uint64_t victimAddr = 0;
};

/** Outcome of one incoming writeback. */
struct LlcWritebackOutcome
{
    std::uint64_t stallCycles = 0; ///< charged to the evicting core
    bool victimDirty = false;
    std::uint64_t victimAddr = 0;
    /** Line was bypassed to DRAM instead of installed. */
    bool forwardedToDram = false;
};

/**
 * Timing-independent verdict of one LLC operation: everything the
 * tag walk and the fault draws decide, with no cycle arithmetic and
 * no floating-point statistics. SharedLlc's demand path produces one
 * per operation and then applies the timing half — latencies, bank
 * accounting, energies and histograms — from it; the simulated-time
 * trace channel samples its events from the same verdict.
 */
struct LlcDecision
{
    std::uint64_t victimAddr = 0;
    std::uint8_t retries = 0;     ///< write verify-retry attempts
    std::uint8_t retirements = 0; ///< lines retired during the op
    bool hit = false;             ///< tag hit (reads only)
    bool lineLost = false;     ///< read hit lost to multi-bit error
    bool noWay = false;        ///< whole target set is retired
    bool bypassed = false;     ///< writeback bypassed on probe miss
    bool writeScrubbed = false; ///< post-retry single-bit fix
    bool readScrubbed = false;  ///< on-read single-bit fix
    bool retiredOnWrite = false; ///< array write retired the line
    bool victimDirty = false;    ///< displaced a dirty line
};

class SharedLlc
{
  public:
    struct Config
    {
        std::uint32_t associativity = 16;
        std::uint32_t blockBytes = 64;
        std::uint32_t numBanks = 16;
        std::uint32_t writeQueueDepth = 8; ///< per bank
        /** Fixed pipeline/controller overhead added to reads, cycles. */
        std::uint32_t controllerCycles = 8;
        WritePolicy writePolicy = WritePolicy::Posted;
        /**
         * NVM write-bypass (paper SII related-work category 2,
         * refs [14][16][17][21]): a writeback that misses in the LLC
         * is forwarded to DRAM instead of being installed, trading
         * later re-fetches for avoided NVM array writes (energy and
         * wear).
         */
        bool bypassWritebackMiss = false;
        /**
         * Fault-injection layer (sim/faults.hh): write-verify-retry,
         * SECDED scrubs, and wear-driven line retirement. Disabled by
         * default; when disabled the LLC's behaviour and statistics
         * are byte-identical to a build without the layer.
         */
        FaultConfig faults;
    };

    /**
     * @param model         Table III column (timing/energy/capacity).
     * @param coreFrequency Hz; model latencies are converted once.
     */
    SharedLlc(const LlcModel &model, const Config &cfg,
              double coreFrequency);

    /** Demand read at global cycle @p now (fills state on miss). */
    LlcReadOutcome demandRead(std::uint64_t addr, std::uint64_t now);

    /** Writeback (dirty L2 eviction) at global cycle @p now. */
    LlcWritebackOutcome writeback(std::uint64_t addr, std::uint64_t now);

    /** Host prefetch of @p addr's tag set (perf hint, no effect). */
    void prefetchTag(std::uint64_t addr) const
    {
        tags_.prefetchSet(addr);
    }

    const LlcStats &stats() const { return stats_; }
    const LlcModel &model() const { return model_; }
    const Config &config() const { return cfg_; }

    /** Demand miss rate so far (0 when no accesses). */
    double missRate() const;

    /**
     * Publish LLC counters, energies, the write-latency stall and
     * read bank-wait histograms, and the tag array's per-set
     * conflict / per-line endurance distributions under "<prefix>.*".
     */
    void exportStats(MetricsRegistry &reg,
                     const std::string &prefix) const;

    /**
     * Emit the simulated-time channel's closing counter samples at
     * cycle @p now (no-op when tracing was off at construction).
     */
    void traceSimFinal(std::uint64_t now);

  private:
    // demandRead == fault tick + classifyRead + finishRead, and
    // writeback == fault tick + classifyWriteback + finishWriteback.
    // classify* runs the tag walk and fault draws (per-set tag state,
    // per-line fault state, integer counters); finish* applies the
    // timing, energy and histogram half from the verdict.

    /** Tag walk + fault draws of one demand read (no timing). */
    LlcDecision classifyRead(std::uint64_t addr);

    /** Tag walk + fault draws of one writeback (no timing). */
    LlcDecision classifyWriteback(std::uint64_t addr);

    /** Timing/energy/histograms of a classified demand read. */
    LlcReadOutcome finishRead(const LlcDecision &d, std::uint64_t addr,
                              std::uint64_t now);

    /** Timing/energy/histograms of a classified writeback. */
    LlcWritebackOutcome finishWriteback(const LlcDecision &d,
                                        std::uint64_t addr,
                                        std::uint64_t now);

    /**
     * Simulated-time trace channel (present only when tracing was
     * enabled at construction): periodic counter samples of LLC
     * events against simulated cycles. Keeps its own cumulative
     * counters, fed from each operation's LlcDecision in finish*,
     * so the samples follow the access order of the run.
     */
    struct SimChannel
    {
        std::string runId;         ///< counter-track id (run path)
        std::uint64_t traceId = 0;
        std::uint64_t nextSample = 0;
        std::uint64_t reads = 0;
        std::uint64_t misses = 0;
        std::uint64_t writebacks = 0;
        std::uint64_t retries = 0;
        std::uint64_t scrubs = 0;
        std::uint64_t retirements = 0;
        std::uint64_t arrayWrites = 0;
    };

    void simChannelRead(const LlcDecision &d, std::uint64_t now);
    void simChannelWriteback(const LlcDecision &d, std::uint64_t now);
    void simChannelSample(std::uint64_t now);
    std::uint32_t bankOf(std::uint64_t addr) const;

    /**
     * Reserve the bank for a read starting no earlier than @p now;
     * returns wait cycles.
     */
    std::uint64_t reserveRead(std::uint32_t bank, std::uint64_t now);

    /**
     * Account an array write occupying its bank for @p cycles
     * beginning at @p now; returns stall cycles chargeable to the
     * requester under the active policy. @p cycles exceeds the base
     * writeCycles_ when the fault layer added retry pulses or scrubs.
     */
    std::uint64_t accountWrite(std::uint32_t bank, std::uint64_t now,
                               std::uint64_t cycles);

    /**
     * Charge the cost side of one classified array write: retry
     * pulses and a possible scrub (cycles + write energy), plus the
     * retries-per-write histogram sample. Returns the extra
     * bank-busy cycles beyond the base pulse. Caller must hold a
     * live injector_.
     */
    std::uint64_t finishArrayWrite(const LlcDecision &d);

    LlcModel model_;
    Config cfg_;
    SetAssocCache tags_;

    std::uint64_t tagCycles_;
    std::uint64_t readCycles_;
    std::uint64_t writeCycles_;

    std::vector<std::uint64_t> bankFreeAt_;

    /** Present only when cfg_.faults.enabled. */
    std::unique_ptr<FaultInjector> injector_;

    /** Present only when tracing was enabled at construction. */
    std::unique_ptr<SimChannel> simChan_;

    LlcStats stats_;
    LocalDistribution writeStallDist_; ///< stall cycles/writeback
    LocalDistribution readWaitDist_; ///< bank-wait cycles/read
};

} // namespace nvmcache

#endif // NVMCACHE_SIM_NVM_LLC_HH
