/**
 * @file
 * High-level studies: each function regenerates the data behind one
 * of the paper's figures/sections. The bench binaries and examples
 * are thin presentation layers over these.
 */

#ifndef NVMCACHE_CORE_STUDY_HH
#define NVMCACHE_CORE_STUDY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "correlate/framework.hh"
#include "nvm/endurance.hh"
#include "prism/metrics.hh"

namespace nvmcache {

/** Figures 1 and 2: all workloads x all technologies for one mode. */
struct FigureStudy
{
    CapacityMode mode = CapacityMode::FixedCapacity;
    std::vector<TechSweep> singleThreaded; ///< Fig a
    std::vector<TechSweep> multiThreaded;  ///< Fig b
};

/**
 * Whether @p scale is a usable traceScale: in (0, 1]. Every study
 * run enforces it, and study parameters are checked against it when
 * parsed.
 */
inline bool
validTraceScale(double scale)
{
    return scale > 0.0 && scale <= 1.0;
}

/**
 * Figure study configuration. traceScale is the fraction of each
 * workload's configured access count to simulate (1.0 = full length;
 * bench --quick uses 0.25). Statistics converge by ~0.25 for
 * everything except the leakage-dominated energy tails.
 */
struct FigureConfig
{
    CapacityMode mode = CapacityMode::FixedCapacity;
    double traceScale = 1.0;
};

FigureStudy runFigureStudy(const FigureConfig &cfg,
                           const ExperimentRunner &runner);

/** One point of the §V-C core sweep. */
struct CoreSweepPoint
{
    std::string workload;
    std::string tech;
    std::uint32_t cores = 1;
    SimStats stats;
    /** T(1-core SRAM) / T(this): speedup over the paper's baseline. */
    double speedupVsBaseline = 1.0;
    /** E_llc(this) / E_llc(1-core SRAM). */
    double normEnergy = 1.0;
};

struct CoreSweepStudy
{
    std::vector<std::string> workloads;
    std::vector<std::string> techs;
    std::vector<std::uint32_t> coreCounts;
    std::vector<CoreSweepPoint> points;

    const CoreSweepPoint &at(const std::string &workload,
                             const std::string &tech,
                             std::uint32_t cores) const;
};

/**
 * Core-sweep configuration; the defaults reproduce the paper's §V-C
 * grid (the five NPB kernels over the technologies its discussion
 * revolves around, 1 -> 32 cores).
 */
struct CoreSweepConfig
{
    std::vector<std::string> workloads{"ft", "cg", "mg", "sp", "lu"};
    std::vector<std::string> techs{"Umeki",    "Jan",   "Xue",
                                   "Hayakawa", "Zhang", "SRAM"};
    std::vector<std::uint32_t> coreCounts{1, 2, 4, 8, 16, 32};
};

/**
 * §V-C: multi-core sensitivity, fixed-area models, baseline is the
 * single-core SRAM system running the same total work.
 */
CoreSweepStudy runCoreSweep(const CoreSweepConfig &cfg,
                            const ExperimentRunner &runner);

/** Which outcomes the correlation study feeds the framework. */
enum class OutcomeKind
{
    /**
     * Normalized energy (E/E_sram) and speedup — the paper's Fig 4
     * AI-specialized analysis.
     */
    Normalized,
    /**
     * Absolute LLC energy [J] and execution time [s] — the paper's
     * general-purpose analysis ("LLC energy and system execution
     * time is most highly correlated with total reads/writes").
     */
    Absolute,
    /**
     * Absolute ED^2P [J*s^2] and execution time [s] — the server
     * suite's headline metric (do the Table VI features still predict
     * energy-delay on server traffic?).
     */
    EnergyDelay
};

/** §VI / Fig 4: feature correlation for one technology and mode. */
struct TechCorrelation
{
    std::string tech;
    CapacityMode mode = CapacityMode::FixedCapacity;
    OutcomeKind outcomes = OutcomeKind::Normalized;
    CorrelationDataset dataset;
    CorrelationResult result;
};

struct CorrelationStudy
{
    /** Workload features, one row per studied workload. */
    std::vector<std::string> workloads;
    std::vector<WorkloadFeatures> features;
    std::vector<TechCorrelation> perTech;
};

/**
 * Correlation-framework configuration. aiOnly=true reproduces Fig 4
 * (the 3 cpu2017 AI workloads, normalized outcomes); false reproduces
 * the general-purpose analysis over all 16 characterized workloads
 * (absolute energy/time outcomes, as in the paper's §VI discussion).
 * The default technologies are the paper's (Jan, Xue, Hayakawa).
 */
struct CorrelationConfig
{
    bool aiOnly = false;
    std::vector<std::string> techs{"Jan", "Xue", "Hayakawa"};
    std::vector<CapacityMode> modes{CapacityMode::FixedCapacity,
                                    CapacityMode::FixedArea};
    double traceScale = 1.0;

    /**
     * Explicit workload list: registry spec strings (Table V names or
     * parameterized families like "kv:skew=1.2"), resolved through
     * WorkloadRegistry::global(). Non-empty overrides the
     * aiOnly-driven selection; outcome kind still follows aiOnly.
     */
    std::vector<std::string> workloads;
};

/** Run the Fig 3 framework. */
CorrelationStudy runCorrelationStudy(const CorrelationConfig &cfg,
                                     const ExperimentRunner &runner);

/**
 * Canned server-traffic grid (the "modern use case behavior" probe):
 * kv and tenants points over read-ratio x skew x tenant-count, each
 * measured-characterized (warm-up excluded) and simulated across ALL
 * published models of the mode, with the correlation framework run on
 * absolute ED^2P outcomes. tenantCounts entries <= 1 emit `kv:`
 * points; larger entries emit `tenants:n=<t>` points.
 */
struct ServerSuiteConfig
{
    std::vector<std::uint32_t> tenantCounts{1, 4};
    std::vector<double> readRatios{0.95, 0.5};
    std::vector<double> skews{0.7, 0.99};
    CapacityMode mode = CapacityMode::FixedCapacity;
    std::string keys; ///< Count override ("32K"); "" = family default
    std::string ops;  ///< Count override ("120K"); "" = family default
    std::string warm; ///< warm-up override ("0.1"); "" = default
};

/** The grid's registry spec strings, in deterministic grid order. */
std::vector<std::string>
serverSuiteWorkloads(const ServerSuiteConfig &cfg);

/**
 * Run the server suite: a correlation study (measured features vs.
 * ED^2P, OutcomeKind::EnergyDelay) over serverSuiteWorkloads() and
 * every published technology of cfg.mode.
 */
CorrelationStudy runServerSuite(const ServerSuiteConfig &cfg,
                                const ExperimentRunner &runner);

/**
 * One-workload, one-technology comparison against the SRAM baseline
 * (the `nvmcache simulate` / `compare` study): both runs share the
 * runner's memo and trace stores.
 */
struct CompareConfig
{
    std::string workload = "lbm";
    std::string tech = "Oh";
    CapacityMode mode = CapacityMode::FixedCapacity;
    std::uint32_t threads = 0; ///< 0 = workload default
    double traceScale = 1.0;
};

struct CompareResult
{
    CompareConfig config;
    SimStats nvm;
    SimStats sram;
    double speedup = 1.0;    ///< T_sram / T_nvm
    double normEnergy = 1.0; ///< E_llc,nvm / E_llc,sram
    double normEd2p = 1.0;
};

CompareResult runCompare(const CompareConfig &cfg,
                         const ExperimentRunner &runner);

/**
 * Reliability sweep configuration: one workload, every published
 * technology, a grid of (BER scale x wear-leveling factor) fault
 * settings (sim/faults.hh). Each grid point's settings are a per-run
 * input (RunJob::faults), so one runner serves the whole grid.
 */
struct ReliabilityConfig
{
    std::string workload = "lbm"; ///< the suite's write-heaviest
    CapacityMode mode = CapacityMode::FixedCapacity;
    std::uint32_t threads = 0; ///< 0 = workload default
    double traceScale = 1.0;
    std::vector<double> berScales{1.0, 8.0, 64.0};
    std::vector<double> wearLevelingFactors{1.0, 0.5, 0.125};
    /**
     * Wear units per array-write attempt. The class endurance bounds
     * (>= 1e7 writes/line) are unreachable within one simulation, so
     * retirement studies accelerate aging; the default keeps real
     * time (no in-sim retirements, lifetime from the closed form).
     */
    double wearScale = 1.0;
    std::uint32_t maxWriteRetries = 3;
};

/** One (technology, BER scale, wear-leveling) reliability point. */
struct ReliabilityPoint
{
    std::string tech;
    NvmClass klass = NvmClass::SRAM;
    double berScale = 1.0;
    double wearLevelingFactor = 1.0;

    SimStats stats;

    // Fault-layer outcomes (from the run's "sim.llc.faults.*" detail).
    std::uint64_t writeRetries = 0;
    std::uint64_t writeScrubs = 0;
    std::uint64_t readScrubs = 0;
    std::uint64_t uncorrectable = 0;
    std::uint64_t retiredLines = 0;
    double effectiveCapacityFraction = 1.0;

    double speedup = 1.0;    ///< vs same-grid-point SRAM
    double normEnergy = 1.0; ///< LLC energy vs same-grid-point SRAM

    /** Closed-form endurance projection at this wear-leveling level. */
    LifetimeEstimate lifetime;
};

struct ReliabilityStudy
{
    ReliabilityConfig config;
    /** Grid-major: berScales x wearLevelingFactors x Table III order. */
    std::vector<ReliabilityPoint> points;

    const ReliabilityPoint &at(const std::string &tech, double berScale,
                               double wearLevelingFactor) const;
};

/**
 * Sweep the fault-injection grid over every published technology
 * (plus the SRAM control, whose raw error rates are zero) in one
 * fan-out on @p runner. Each run carries its grid point's FaultConfig,
 * which is part of its memo key, so memoization never mixes fault
 * settings while every point shares one recorded trace and private
 * trace; all statistics are bit-identical at any `jobs` level.
 */
ReliabilityStudy runReliabilityStudy(const ReliabilityConfig &cfg,
                                     const ExperimentRunner &runner);

/**
 * Accumulate every run's "sim.*" detail report into one study-level
 * report (counters add, distributions merge). Runs are folded in
 * deterministic study order, so the aggregate is identical at any
 * experiment-engine concurrency.
 */
StatsSnapshot aggregateSimStats(const FigureStudy &study);
StatsSnapshot aggregateSimStats(const CoreSweepStudy &study);
StatsSnapshot aggregateSimStats(const ReliabilityStudy &study);

} // namespace nvmcache

#endif // NVMCACHE_CORE_STUDY_HH
