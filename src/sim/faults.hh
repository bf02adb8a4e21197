/**
 * @file
 * Deterministic fault-injection and resilience layer for the NVM LLC.
 *
 * The paper names endurance and write instability as each NVM class's
 * key drawback (Table I) and defers lifetime characterization to
 * future work (§VII); this module makes both a *simulated* dimension
 * of every experiment instead of a closed-form afterthought:
 *
 *  - Raw bit-error injection. Per-class per-bit write/read error
 *    rates (nvm/endurance.hh rawBitErrorRates) are folded into
 *    per-line, per-attempt error probabilities, scaled by the
 *    `berScale` knob. Draws are counter-based: each line owns an
 *    independent deriveSeed stream indexed by its event count, so the
 *    injected fault sequence depends only on the per-line access
 *    history — bit-identical at any `--jobs`, identical between live
 *    and PrivateTrace-replay runs.
 *
 *  - Write-verify-retry. Every array write is verified; a failed
 *    attempt is retried with an escalated (2x-per-attempt) pulse up
 *    to `maxWriteRetries` times, paying exponentially growing latency
 *    and energy (extending the asymmetric-access equations 4-8).
 *
 *  - SECDED ECC per line. A residual single-bit error (post-retry or
 *    on read) is corrected by a scrub (latency + rewrite energy); a
 *    multi-bit error is detected but uncorrectable.
 *
 *  - Wear-driven retirement. Each array write (including retries)
 *    charges `wearScale * wearLevelingFactor` wear units against the
 *    line's class endurance bound (nvm/endurance.hh). A worn-out or
 *    uncorrectable line is *retired* — removed from its set, shrinking
 *    effective associativity — so capacity degrades gracefully instead
 *    of aborting the simulation.
 *
 * The injector only decides fault outcomes and keeps the fault
 * counters; the owning SharedLlc applies the consequences (timing,
 * energy, tag-array retirement) so all cost accounting stays in one
 * place.
 */

#ifndef NVMCACHE_SIM_FAULTS_HH
#define NVMCACHE_SIM_FAULTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "nvm/cell.hh"
#include "util/metrics.hh"

namespace nvmcache {

/** Knobs of the LLC fault-injection layer (all off by default). */
struct FaultConfig
{
    bool enabled = false;

    /** Multiplies both per-class raw bit-error rates. */
    double berScale = 1.0;

    /**
     * Residual write-imbalance factor in (0, 1] after wear-leveling
     * (1 = none deployed), matching estimateLifetime's parameter: the
     * leveled fraction of each write's wear is spread thin enough to
     * be negligible per line, so the written line is charged
     * `wearScale * wearLevelingFactor` wear units.
     */
    double wearLevelingFactor = 1.0;

    /**
     * Wear units charged per array write attempt. 1.0 models real
     * time; class endurance bounds (1e7..1e16 writes) are then far
     * beyond any minutes-long simulation, so wear studies accelerate
     * aging with wearScale >> 1 (each simulated write stands in for
     * wearScale real writes of an equally-imbalanced longer run).
     */
    double wearScale = 1.0;

    /** Verify-retry attempts after the initial write pulse. */
    std::uint32_t maxWriteRetries = 3;

    /** Cycles one ECC scrub (correct + rewrite) adds. */
    std::uint32_t scrubCycles = 32;

    /** Base of the per-line deriveSeed streams. */
    std::uint64_t seed = 0x5eed0fau;

    /** LLC accesses between effective-capacity samples. */
    std::uint32_t capacitySampleInterval = 4096;
};

/**
 * Why @p cfg's knobs are out of range, or nullptr when every knob is
 * valid. This is the FaultInjector's contract; study parameters are
 * checked against it at parse time too.
 */
const char *faultConfigError(const FaultConfig &cfg);

/**
 * Per-attempt line error probabilities for a per-bit error rate @p
 * perBitRate over a @p bits -bit line, assuming independent bit
 * errors. SECDED ECC corrects exactly-one-bit errors and detects (but
 * cannot correct) multi-bit errors, so these two numbers fully
 * classify an attempt: clean, correctable, or uncorrectable.
 */
struct LineErrorProbs
{
    double pNone = 1.0;           ///< P(0 bit errors)
    double pSingleGivenError = 1.0; ///< P(exactly 1 | >= 1)
};

LineErrorProbs lineErrorProbs(double perBitRate, std::uint32_t bits);

/**
 * Total cost multiplier (vs one base write pulse) of a write that
 * needed @p retries extra attempts, with each attempt's pulse twice
 * the previous one's: sum of 2^0..2^retries = 2^(retries+1) - 1.
 * Applied to both the array-busy latency and the write energy.
 */
inline std::uint64_t
retryCostMultiplier(std::uint32_t retries)
{
    return (std::uint64_t(1) << (retries + 1)) - 1;
}

/** Event counters of the fault layer (exported as "llc.faults.*"). */
struct FaultStats
{
    std::uint64_t injectedWrites = 0; ///< array writes seen
    std::uint64_t writeRetries = 0;   ///< extra write attempts
    std::uint64_t retryCycles = 0;    ///< array-busy cycles from retries
    std::uint64_t writeScrubs = 0;    ///< post-retry single-bit fixes
    std::uint64_t readScrubs = 0;     ///< on-read single-bit fixes
    std::uint64_t scrubCycles = 0;    ///< cycles spent scrubbing
    std::uint64_t uncorrectable = 0;  ///< multi-bit (detect-only) events
    std::uint64_t eccRetirements = 0; ///< lines retired by ECC failure
    std::uint64_t wearRetirements = 0;///< lines retired by wear-out
    std::uint64_t noWayBypasses = 0;  ///< accesses to fully-retired sets
};

/**
 * Deterministic per-line fault injector for one SharedLlc instance.
 *
 * Determinism contract: outcome draws for line L are a pure function
 * of (seed, L, number of prior draws on L). The simulator is serial
 * within one System::run and the per-line draw order is fixed by the
 * access sequence, so every statistic below is bit-identical across
 * experiment-engine concurrency levels and between live and replay
 * runs of the same trace.
 */
class FaultInjector
{
  public:
    FaultInjector(const FaultConfig &cfg, NvmClass klass,
                  std::uint64_t numLines, std::uint32_t blockBytes);

    /** Verdict of the verify-retry loop on one array write. */
    struct WriteOutcome
    {
        std::uint32_t retries = 0; ///< extra attempts taken
        bool scrubbed = false;     ///< residual 1-bit error, ECC-fixed
        bool eccRetired = false;   ///< residual multi-bit error
        bool wearRetired = false;  ///< endurance bound crossed

        bool retired() const { return eccRetired || wearRetired; }
    };

    /** Run verify-retry + wear accounting for a write to @p line. */
    WriteOutcome onArrayWrite(std::uint64_t line);

    /**
     * The deterministic half of onArrayWrite: draws, event counters
     * and wear, but not the retries-per-write histogram. The LLC
     * classifies a write here and adds the histogram sample when it
     * applies the write's cost, via noteRetries().
     */
    WriteOutcome classifyArrayWrite(std::uint64_t line);

    /** Record one write's retry count in the histogram. */
    void noteRetries(std::uint32_t retries)
    {
        retriesDist_.add(double(retries));
    }

    /** Verdict of the retention/read-disturb model on one read. */
    struct ReadOutcome
    {
        bool scrubbed = false; ///< 1-bit error, ECC-corrected
        bool retired = false;  ///< multi-bit error, line lost
    };

    ReadOutcome onRead(std::uint64_t line);

    /**
     * Per-access heartbeat: every capacitySampleInterval-th call
     * samples @p liveLines into the effective-capacity-over-time
     * distribution.
     */
    void
    tick(std::uint64_t liveLines)
    {
        if (++tick_ % cfg_.capacitySampleInterval == 0)
            capacityDist_.add(double(liveLines));
    }

    /** Record an access that found its whole set retired. */
    void noteNoWay() { ++st_.noWayBypasses; }

    FaultStats &stats() { return st_; }
    const FaultStats &stats() const { return st_; }

    /** Wear units a line absorbs before retirement. */
    double lineWearBudget() const { return wearBudget_; }

    /** Accumulated wear of @p line (for tests/inspection). */
    double lineWear(std::uint64_t line) const { return wear_[line]; }

    /**
     * Publish counters, the retries-per-write histogram, and the
     * effective-capacity-over-time distribution under "<prefix>.*".
     */
    void exportStats(MetricsRegistry &reg, const std::string &prefix,
                     std::uint64_t liveLines,
                     std::uint64_t totalLines) const;

  private:
    /** Next uniform [0,1) draw of @p line's stream. */
    double draw(std::uint64_t line);

    FaultConfig cfg_;
    LineErrorProbs write_;
    LineErrorProbs read_;
    bool writeFaults_ = false; ///< write error rate > 0
    bool readFaults_ = false;  ///< read error rate > 0
    double wearPerAttempt_ = 0.0;
    double wearBudget_ = 0.0;

    std::vector<std::uint64_t> lineSeed_;  ///< deriveSeed per line
    std::vector<std::uint32_t> drawCount_; ///< events drawn per line
    std::vector<double> wear_;             ///< wear units per line

    std::uint64_t tick_ = 0;
    FaultStats st_;
    LocalDistribution retriesDist_;  ///< retries per array write
    LocalDistribution capacityDist_; ///< live lines over time
};

} // namespace nvmcache

#endif // NVMCACHE_SIM_FAULTS_HH
