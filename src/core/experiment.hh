/**
 * @file
 * Experiment orchestration: run (workload x LLC technology) sweeps on
 * the system simulator and normalize every result against the SRAM
 * baseline, exactly as the paper's figures report them:
 *
 *   speedup   = T_sram / T_nvm          (higher is better)
 *   energy    = E_llc,nvm / E_llc,sram  (lower is better)
 *   ED^2P     = (E * T^2)_nvm / (E * T^2)_sram
 *
 * The runner is a parallel, memoizing engine: runAll() fans a grid of
 * independent simulations out across a thread pool
 * (util/parallel.hh) and every completed run is cached by its exact
 * inputs (generator configuration, LLC model, thread count, fault
 * settings), so a study that needs the same (workload, mode, cores)
 * SRAM baseline for ten technologies simulates it once.
 * Simulations are deterministic, so memoized and fresh results are
 * bit-identical and the concurrency level never changes any output.
 * The same exactly-once discipline serves the recorded traces, the
 * private-level recordings and the PRISM feature rows under them.
 */

#ifndef NVMCACHE_CORE_EXPERIMENT_HH
#define NVMCACHE_CORE_EXPERIMENT_HH

#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "nvsim/published.hh"
#include "prism/metrics.hh"
#include "sim/system.hh"
#include "workload/recorded_trace.hh"
#include "workload/suite.hh"

namespace nvmcache {

class ResultStore;

/** One normalized (workload, technology) data point. */
struct RunResult
{
    std::string workload;
    std::string tech;    ///< citation name ("Oh", ..., "SRAM")
    NvmClass klass = NvmClass::SRAM;
    CapacityMode mode = CapacityMode::FixedCapacity;
    std::uint32_t cores = 4;

    SimStats stats;

    double speedup = 1.0;    ///< vs SRAM at same workload/mode/cores
    double normEnergy = 1.0; ///< LLC energy vs SRAM
    double normEd2p = 1.0;   ///< ED^2P vs SRAM
};

/** First model of @p klass in @p models; nullptr when absent. */
const LlcModel *findByClass(const std::vector<LlcModel> &models,
                            NvmClass klass);

/** Results of sweeping every technology for one workload. */
struct TechSweep
{
    std::string workload;
    CapacityMode mode = CapacityMode::FixedCapacity;
    std::uint32_t cores = 4;
    std::vector<RunResult> results; ///< Table III order, SRAM last

    const RunResult &byTech(const std::string &tech) const;
    /** First result of @p klass (e.g. the SRAM baseline). */
    const RunResult &byClass(NvmClass klass) const;
};

/**
 * Normalize one workload's tech sweep: @p stats holds one run per
 * publishedLlcModels(@p mode) entry, in that order, and is consumed.
 * Every result is normalized against the SRAM baseline among them.
 * @param threads 0 = spec default (the sweep's `cores`).
 */
TechSweep normalizeSweep(const BenchmarkSpec &spec, CapacityMode mode,
                         std::uint32_t threads,
                         std::span<SimStats> stats);

/**
 * One simulation of a fan-out (ExperimentRunner::runAll): a workload
 * on one LLC model at one thread count under one fault setting. The
 * pointees must outlive the fan-out.
 */
struct RunJob
{
    const BenchmarkSpec *spec = nullptr;
    const LlcModel *llc = nullptr;
    std::uint32_t threads = 0; ///< 0 = spec default
    FaultConfig faults{};      ///< default = fault injection off
};

/** Execution counters of one ExperimentRunner (memo effectiveness). */
struct RunnerStats
{
    std::uint64_t simulations = 0; ///< actual System::run executions
    std::uint64_t memoHits = 0;    ///< runOne() calls served from cache
    /**
     * SRAM-class entries of `simulations`. A study that is memoizing
     * correctly simulates each (workload, cores) baseline exactly
     * once, so after e.g. runFigureStudy this equals the workload
     * count.
     */
    std::uint64_t baselineSimulations = 0;

    /**
     * Trace-store counters: builds counts RecordedTrace
     * materializations (exactly one per distinct (generator, thread
     * count) pair for the runner's lifetime), hits counts requests
     * served from the store, bytes is the packed bytes resident.
     */
    std::uint64_t traceBuilds = 0;
    std::uint64_t traceHits = 0;
    std::uint64_t traceBytes = 0;

    /**
     * Private-level store counters, one layer above the trace store:
     * builds counts PrivateTrace materializations (exactly one per
     * distinct (generator, thread count, CoreParams)), hits counts
     * requests served from the store, bytes is the packed bytes
     * resident.
     */
    std::uint64_t privateBuilds = 0;
    std::uint64_t privateHits = 0;
    std::uint64_t privateBytes = 0;

    /**
     * Feature-store counters: builds counts PRISM characterizations
     * (exactly one per distinct (generator, default thread count)),
     * hits counts feature rows served from the store.
     */
    std::uint64_t featureBuilds = 0;
    std::uint64_t featureHits = 0;

    /**
     * Persistent-store counters (zero when no --store-dir is
     * configured): diskHits counts runs, recordings and feature rows
     * served from the on-disk store instead of simulated, recorded or
     * characterized — they are deliberately NOT counted in
     * `simulations`/`traceBuilds`/`featureBuilds` — diskWrites counts
     * records persisted after a miss.
     */
    std::uint64_t diskHits = 0;
    std::uint64_t diskWrites = 0;
};

class ExperimentRunner
{
  public:
    /**
     * @param base  System template; LLC model, cores and fault
     *        settings are set per run, so a base that enables faults
     *        is fatal (they go in RunJob::faults).
     */
    explicit ExperimentRunner(SystemConfig base = SystemConfig());

    /**
     * Simulate one workload on one LLC model, or return the memoized
     * stats of an identical earlier run. Thread-safe.
     * @param threads 0 = spec default; multi-threaded workloads use
     *        one core per thread.
     * @param faults the run's fault injection (default: off).
     */
    SimStats runOne(const BenchmarkSpec &spec, const LlcModel &llc,
                    std::uint32_t threads = 0,
                    const FaultConfig &faults = FaultConfig()) const;

    /**
     * The one fan-out of every grid study: runOne() for each of
     * @p jobs, concurrently over jobs() threads, in the "<phase>.fanout"
     * Phase with one live progress tick per job. Returns every job's
     * stats in job order, so results are bit-identical at any
     * concurrency level.
     */
    std::vector<SimStats> runAll(const std::vector<RunJob> &jobs,
                                 const std::string &phase) const;

    /**
     * Materialize (or fetch from the runner's exactly-once trace
     * store) the recorded trace for @p gen split across @p threads.
     * The first caller of a key records it; concurrent callers block
     * on the build instead of generating again. The returned trace is
     * immutable and shared read-only by every simulation,
     * characterization, and caller of this method. Thread-safe.
     */
    std::shared_ptr<const RecordedTrace>
    recordedTrace(const GeneratorConfig &gen,
                  std::uint32_t threads) const;

    /**
     * Materialize (or fetch) the private-level (L1/L2) outcome
     * recording for @p gen split across @p threads under the
     * runner's CoreParams, built from the recorded trace with the
     * same exactly-once discipline. Every model of a tech sweep
     * replays this recording instead of re-simulating the private
     * caches. Thread-safe.
     */
    std::shared_ptr<const PrivateTrace>
    privateTrace(const GeneratorConfig &gen,
                 std::uint32_t threads) const;

    /**
     * The Table VI feature row of @p spec (or its exactly-once store
     * entry): its recorded trace at spec.defaultThreads, characterized
     * with 10 local mask bits and its warm-up accesses excluded. The
     * row depends on the trace alone, never on the LLC model, so one
     * characterization serves every study and request on this runner
     * and, through the persistent store, every later process.
     * Thread-safe.
     */
    WorkloadFeatures features(const BenchmarkSpec &spec) const;

    /**
     * Sweep all published Table III technologies (plus the SRAM
     * baseline) for one workload: runAll() over the models, then
     * normalizeSweep(). Results are in Table III order.
     */
    TechSweep sweepTechs(const BenchmarkSpec &spec, CapacityMode mode,
                         std::uint32_t threads = 0) const;

    const SystemConfig &baseConfig() const { return base_; }

    /**
     * Concurrency for sweeps/studies run through this runner.
     * Defaults to defaultJobs() (NVMCACHE_JOBS env var, else the
     * hardware thread count); @p jobs 0 restores that default, 1
     * forces fully serial in-thread execution.
     */
    void setJobs(unsigned jobs);
    unsigned jobs() const { return jobs_; }

    /** Counters since construction (shared by copies). */
    RunnerStats runnerStats() const;

  private:
    struct Memo;

    SimStats simulateUncached(const BenchmarkSpec &spec,
                              const LlcModel &llc,
                              std::uint32_t threads,
                              const FaultConfig &faults) const;

    SystemConfig base_;
    unsigned jobs_;
    std::shared_ptr<Memo> memo_; ///< shared so copies reuse runs

    /**
     * Persistent tier between the in-memory memo and simulation,
     * captured from ResultStore::global() at construction (null =
     * persistence off). Run keys on disk prefix the memo key with
     * diskBaseKey_ — the base SystemConfig identity — since
     * on disk, unlike in this runner's memo, records from differently
     * configured processes share one namespace. Trace, private-trace
     * and feature keys already hold every input their records depend
     * on, so they take no prefix.
     */
    std::shared_ptr<ResultStore> store_;
    std::string diskBaseKey_;
};

/**
 * Pool of long-lived ExperimentRunners, one per view of the persistent
 * store. The batch service (and any other long-lived host) acquires
 * runners from one pool so memo caches, RecordedTrace/PrivateTrace
 * stores, and estimator results persist across requests: the second
 * request for a study hits warm stores instead of re-simulating.
 * Fault settings are per-run inputs inside every run's memo key, so
 * one runner serves every fault configuration.
 *
 * acquire() returns a *copy* of the pooled runner. Copies share the
 * memo and trace stores (the expensive state) but carry their own
 * jobs knob, so concurrent studies can set different concurrency
 * levels without racing.
 */
class RunnerPool
{
  public:
    RunnerPool() = default;
    RunnerPool(const RunnerPool &) = delete;
    RunnerPool &operator=(const RunnerPool &) = delete;

    /** Runner sharing the pooled state for the current store view. */
    ExperimentRunner acquire();

    /** Number of distinct runners materialized. */
    std::size_t size() const;

  private:
    mutable std::mutex mu_;
    std::map<std::string, ExperimentRunner> runners_;
};

} // namespace nvmcache

#endif // NVMCACHE_CORE_EXPERIMENT_HH
