#include "core/study.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/parallel.hh"
#include "util/trace_events.hh"
#include "workload/workload_registry.hh"

namespace nvmcache {

namespace {

/** One simulation to prefetch into the runner's memo. */
struct RunJob
{
    const BenchmarkSpec *spec = nullptr;
    const LlcModel *llc = nullptr;
    std::uint32_t threads = 0; ///< 0 = spec default
};

/**
 * Fan every job out across the runner's thread pool. Each run lands
 * in the runner's memo, so the study's subsequent (serial,
 * order-stable) assembly re-reads them without simulating anything:
 * results are bit-identical at any concurrency level.
 *
 * @p phase labels both the "<phase>.fanout" Phase and the live
 * progress line (one tick per completed job, including
 * memo-served ones).
 */
void
prefetchRuns(const ExperimentRunner &runner,
             const std::vector<RunJob> &jobs, const std::string &phase)
{
    Phase timer(phase + ".fanout", "study", TraceContext::current().path);
    progressBegin(phase + " fan-out", jobs.size());
    parallelMap(runner.jobs(), jobs, [&](const RunJob &job) {
        runner.runOne(*job.spec, *job.llc, job.threads);
        progressTick();
        return 0;
    });
    progressEnd();
}

} // namespace

FigureStudy
runFigureStudy(const FigureConfig &cfg, const ExperimentRunner &runner)
{
    const CapacityMode mode = cfg.mode;
    if (!validTraceScale(cfg.traceScale))
        fatal("runFigureStudy: traceScale must be in (0, 1]");

    // Scale every workload first so job specs are stable in memory.
    std::vector<BenchmarkSpec> specs = benchmarkSuite();
    for (BenchmarkSpec &spec : specs)
        spec.gen.totalAccesses = std::uint64_t(
            double(spec.gen.totalAccesses) * cfg.traceScale);

    // Phase 1: every (workload, technology) point is independent —
    // fan the whole figure out at once.
    const std::vector<LlcModel> &models = publishedLlcModels(mode);
    std::vector<RunJob> jobs;
    jobs.reserve(specs.size() * models.size());
    for (const BenchmarkSpec &spec : specs)
        for (const LlcModel &llc : models)
            jobs.push_back({&spec, &llc, 0});
    prefetchRuns(runner, jobs, "figure");

    // Phase 2: assemble in suite order from the memo. The serial
    // copy shares the memo but skips per-sweep pool spin-up, since
    // every run is already cached.
    Phase assemble_timer("figure.assemble", "study",
                         TraceContext::current().path);
    ExperimentRunner assembler = runner;
    assembler.setJobs(1);
    FigureStudy study;
    study.mode = mode;
    for (const BenchmarkSpec &spec : specs) {
        TechSweep sweep = assembler.sweepTechs(spec, mode);
        if (spec.multiThreaded)
            study.multiThreaded.push_back(std::move(sweep));
        else
            study.singleThreaded.push_back(std::move(sweep));
    }
    return study;
}

const CoreSweepPoint &
CoreSweepStudy::at(const std::string &workload, const std::string &tech,
                   std::uint32_t cores) const
{
    for (const CoreSweepPoint &p : points)
        if (p.workload == workload && p.tech == tech &&
            p.cores == cores)
            return p;
    fatal("CoreSweepStudy: missing point (", workload, ", ", tech,
          ", ", cores, ")");
}

CoreSweepStudy
runCoreSweep(const CoreSweepConfig &cfg, const ExperimentRunner &runner)
{
    const std::vector<std::string> &workloads = cfg.workloads;
    const std::vector<std::string> &techs = cfg.techs;
    const std::vector<std::uint32_t> &coreCounts = cfg.coreCounts;

    CoreSweepStudy study;
    study.workloads = workloads;
    study.techs = techs;
    study.coreCounts = coreCounts;

    const CapacityMode mode = CapacityMode::FixedArea;
    const LlcModel &sram = publishedLlcModel("SRAM", mode);

    // Phase 1: fan out the baselines and every sweep point. The
    // (SRAM, 1 core) baseline and a requested SRAM/1-core point are
    // the same simulation; the memo runs it once.
    std::vector<RunJob> jobs;
    for (const std::string &wname : workloads) {
        const BenchmarkSpec &spec = benchmark(wname);
        jobs.push_back({&spec, &sram, 1});
        for (const std::string &tname : techs) {
            const LlcModel &llc = publishedLlcModel(tname, mode);
            for (std::uint32_t cores : coreCounts) {
                if (cores > 1 && !spec.multiThreaded)
                    continue;
                jobs.push_back({&spec, &llc, cores});
            }
        }
    }
    prefetchRuns(runner, jobs, "coreSweep");

    // Phase 2: deterministic assembly from the memo.
    Phase assemble_timer("coreSweep.assemble", "study",
                         TraceContext::current().path);
    for (const std::string &wname : workloads) {
        const BenchmarkSpec &spec = benchmark(wname);

        // Baseline: single-core SRAM doing the same total work.
        SimStats base = runner.runOne(spec, sram, 1);

        for (const std::string &tname : techs) {
            const LlcModel &llc = publishedLlcModel(tname, mode);
            for (std::uint32_t cores : coreCounts) {
                if (cores > 1 && !spec.multiThreaded)
                    continue;
                CoreSweepPoint p;
                p.workload = wname;
                p.tech = tname;
                p.cores = cores;
                p.stats = runner.runOne(spec, llc, cores);
                p.speedupVsBaseline =
                    base.seconds / p.stats.seconds;
                p.normEnergy =
                    p.stats.llcEnergy() / base.llcEnergy();
                study.points.push_back(std::move(p));
            }
        }
    }
    return study;
}

namespace {

/**
 * Shared correlation engine: characterize every spec (excluding its
 * warm-up accesses), fan the (mode, workload, technology) grid out,
 * then correlate the configured outcome columns against the measured
 * features. Serves both the Table V/VI correlation study and the
 * server suite.
 */
CorrelationStudy
runCorrelationCore(const std::vector<BenchmarkSpec> &specs,
                   const std::vector<std::string> &techs,
                   const std::vector<CapacityMode> &modes,
                   OutcomeKind outcomes, const ExperimentRunner &runner)
{
    CorrelationStudy study;

    // Feature pass (PRISM): one feature row per workload, each
    // independent of the rest, from the runner's feature store. A
    // cold row is characterized from the runner's trace store, so the
    // simulation pass below replays the same recorded traces instead
    // of regenerating every workload; a warm one (memo or disk)
    // touches no trace at all.
    {
        Phase timer("correlation.characterize", "study",
                    TraceContext::current().path);
        progressBegin("correlation characterize", specs.size());
        study.features = parallelMap(
            runner.jobs(), specs, [&](const BenchmarkSpec &spec) {
                WorkloadFeatures features = runner.features(spec);
                progressTick();
                return features;
            });
        progressEnd();
    }
    for (const BenchmarkSpec &spec : specs)
        study.workloads.push_back(spec.name);

    // Simulation pass, phase 1: every (mode, workload, technology)
    // point at once.
    std::vector<RunJob> jobs;
    for (CapacityMode mode : modes)
        for (const BenchmarkSpec &spec : specs)
            for (const LlcModel &llc : publishedLlcModels(mode))
                jobs.push_back({&spec, &llc, 0});
    prefetchRuns(runner, jobs, "correlation");

    // Phase 2: one tech sweep per (workload, mode), shared across all
    // studied technologies, assembled from the memo (the serial copy
    // shares it).
    Phase assemble_timer("correlation.assemble", "study",
                         TraceContext::current().path);
    ExperimentRunner assembler = runner;
    assembler.setJobs(1);
    for (CapacityMode mode : modes) {
        std::vector<TechSweep> sweeps;
        sweeps.reserve(specs.size());
        for (const BenchmarkSpec &spec : specs)
            sweeps.push_back(assembler.sweepTechs(spec, mode));

        for (const std::string &tech : techs) {
            TechCorrelation tc;
            tc.tech = tech;
            tc.mode = mode;
            tc.outcomes = outcomes;
            tc.dataset.featureNames = WorkloadFeatures::featureNames();
            for (std::size_t i = 0; i < specs.size(); ++i) {
                const RunResult &r = sweeps[i].byTech(tech);
                tc.dataset.workloads.push_back(specs[i].name);
                tc.dataset.features.push_back(
                    study.features[i].featureVector());
                switch (tc.outcomes) {
                  case OutcomeKind::Normalized:
                    tc.dataset.energy.push_back(r.normEnergy);
                    tc.dataset.speedup.push_back(r.speedup);
                    break;
                  case OutcomeKind::Absolute:
                    tc.dataset.energy.push_back(r.stats.llcEnergy());
                    tc.dataset.speedup.push_back(r.stats.seconds);
                    break;
                  case OutcomeKind::EnergyDelay:
                    tc.dataset.energy.push_back(r.stats.ed2p());
                    tc.dataset.speedup.push_back(r.stats.seconds);
                    break;
                }
            }
            tc.result = correlateFeatures(tc.dataset);
            study.perTech.push_back(std::move(tc));
        }
    }
    return study;
}

/** Resolve one registry spec string and apply the trace scale. */
BenchmarkSpec
scaledSpec(const std::string &workload, double traceScale)
{
    BenchmarkSpec spec = WorkloadRegistry::global().resolve(workload);
    spec.gen.totalAccesses = std::uint64_t(
        double(spec.gen.totalAccesses) * traceScale);
    return spec;
}

} // namespace

CorrelationStudy
runCorrelationStudy(const CorrelationConfig &cfg,
                    const ExperimentRunner &runner)
{
    if (!validTraceScale(cfg.traceScale))
        fatal("runCorrelationStudy: traceScale must be in (0, 1]");

    std::vector<BenchmarkSpec> specs;
    if (!cfg.workloads.empty()) {
        for (const std::string &workload : cfg.workloads)
            specs.push_back(scaledSpec(workload, cfg.traceScale));
    } else {
        for (const BenchmarkSpec *spec :
             cfg.aiOnly ? aiBenchmarks() : characterizedBenchmarks()) {
            specs.push_back(*spec);
            specs.back().gen.totalAccesses = std::uint64_t(
                double(spec->gen.totalAccesses) * cfg.traceScale);
        }
    }
    return runCorrelationCore(specs, cfg.techs, cfg.modes,
                              cfg.aiOnly ? OutcomeKind::Normalized
                                         : OutcomeKind::Absolute,
                              runner);
}

std::vector<std::string>
serverSuiteWorkloads(const ServerSuiteConfig &cfg)
{
    std::string overrides;
    if (!cfg.keys.empty())
        overrides += ",keys=" + cfg.keys;
    if (!cfg.ops.empty())
        overrides += ",ops=" + cfg.ops;
    if (!cfg.warm.empty())
        overrides += ",warm=" + cfg.warm;

    std::vector<std::string> out;
    for (std::uint32_t t : cfg.tenantCounts)
        for (double rr : cfg.readRatios)
            for (double sk : cfg.skews) {
                std::string w;
                if (t <= 1)
                    w = "kv:readRatio=" + std::to_string(rr) +
                        ",skew=" + std::to_string(sk);
                else
                    w = "tenants:n=" + std::to_string(t) +
                        ",readRatios=" + std::to_string(rr) +
                        ",skews=" + std::to_string(sk);
                out.push_back(w + overrides);
            }
    return out;
}

CorrelationStudy
runServerSuite(const ServerSuiteConfig &cfg,
               const ExperimentRunner &runner)
{
    if (cfg.tenantCounts.empty() || cfg.readRatios.empty() ||
        cfg.skews.empty())
        fatal("runServerSuite: empty grid axis");

    std::vector<BenchmarkSpec> specs;
    for (const std::string &workload : serverSuiteWorkloads(cfg))
        specs.push_back(scaledSpec(workload, 1.0));

    // Every published model of the mode (Table III order): the suite's
    // question is whether the features predict ED^2P across ALL of
    // them, not just the paper's three spotlight technologies.
    std::vector<std::string> techs;
    for (const LlcModel &llc : publishedLlcModels(cfg.mode))
        techs.push_back(llc.name);

    return runCorrelationCore(specs, techs, {cfg.mode},
                              OutcomeKind::EnergyDelay, runner);
}

CompareResult
runCompare(const CompareConfig &cfg, const ExperimentRunner &runner)
{
    if (!validTraceScale(cfg.traceScale))
        fatal("runCompare: traceScale must be in (0, 1]");

    BenchmarkSpec spec = benchmark(cfg.workload);
    spec.gen.totalAccesses = std::uint64_t(
        double(spec.gen.totalAccesses) * cfg.traceScale);
    const LlcModel &llc = publishedLlcModel(cfg.tech, cfg.mode);
    const LlcModel &sram = publishedLlcModel("SRAM", cfg.mode);

    CompareResult r;
    r.config = cfg;
    {
        Phase timer("compare.nvm", "study", TraceContext::current().path);
        r.nvm = runner.runOne(spec, llc, cfg.threads);
    }
    {
        Phase timer("compare.sram", "study", TraceContext::current().path);
        r.sram = runner.runOne(spec, sram, cfg.threads);
    }
    r.speedup = r.sram.seconds / r.nvm.seconds;
    r.normEnergy = r.nvm.llcEnergy() / r.sram.llcEnergy();
    r.normEd2p = r.nvm.ed2p() / r.sram.ed2p();
    return r;
}

const ReliabilityPoint &
ReliabilityStudy::at(const std::string &tech, double berScale,
                     double wearLevelingFactor) const
{
    for (const ReliabilityPoint &p : points)
        if (p.tech == tech && p.berScale == berScale &&
            p.wearLevelingFactor == wearLevelingFactor)
            return p;
    fatal("ReliabilityStudy: missing point (", tech, ", ", berScale,
          ", ", wearLevelingFactor, ")");
}

namespace {

/** Counter/gauge value at @p path in a detail report; 0 if absent. */
double
detailValue(const StatsSnapshot &snap, const std::string &path)
{
    auto it = snap.entries.find(path);
    return it == snap.entries.end() ? 0.0 : it->second.scalar;
}

} // namespace

ReliabilityStudy
runReliabilityStudy(const ReliabilityConfig &cfg, RunnerPool *pool)
{
    if (!validTraceScale(cfg.traceScale))
        fatal("runReliabilityStudy: traceScale must be in (0, 1]");
    if (cfg.berScales.empty() || cfg.wearLevelingFactors.empty())
        fatal("runReliabilityStudy: empty sweep axis");

    BenchmarkSpec spec = benchmark(cfg.workload);
    spec.gen.totalAccesses =
        std::uint64_t(double(spec.gen.totalAccesses) * cfg.traceScale);

    ReliabilityStudy study;
    study.config = cfg;

    Phase timer("reliability", "study", TraceContext::current().path);
    progressBegin("reliability sweep", cfg.berScales.size() *
                                           cfg.wearLevelingFactors.size());
    for (double ber : cfg.berScales) {
        for (double wl : cfg.wearLevelingFactors) {
            // One runner per grid point: the fault knobs live in the
            // runner's base SystemConfig, so sharing a memo across
            // points would conflate different fault settings. A
            // caller-owned pool keys runners the same way and keeps
            // them warm across repeated sweeps.
            SystemConfig sys;
            sys.llc.faults.enabled = true;
            sys.llc.faults.berScale = ber;
            sys.llc.faults.wearLevelingFactor = wl;
            sys.llc.faults.wearScale = cfg.wearScale;
            sys.llc.faults.maxWriteRetries = cfg.maxWriteRetries;
            ExperimentRunner runner =
                pool ? pool->acquire(sys) : ExperimentRunner(sys);
            runner.setJobs(cfg.jobs);

            TechSweep sweep =
                runner.sweepTechs(spec, cfg.mode, cfg.threads);
            for (RunResult &r : sweep.results) {
                ReliabilityPoint p;
                p.tech = r.tech;
                p.klass = r.klass;
                p.berScale = ber;
                p.wearLevelingFactor = wl;
                p.speedup = r.speedup;
                p.normEnergy = r.normEnergy;

                const StatsSnapshot &d = r.stats.detail;
                const std::string f = "sim.llc.faults.";
                p.writeRetries = std::uint64_t(
                    detailValue(d, f + "writeRetries"));
                p.writeScrubs = std::uint64_t(
                    detailValue(d, f + "writeScrubs"));
                p.readScrubs = std::uint64_t(
                    detailValue(d, f + "readScrubs"));
                p.uncorrectable = std::uint64_t(
                    detailValue(d, f + "uncorrectable"));
                p.retiredLines = std::uint64_t(
                    detailValue(d, f + "retiredLines"));
                const double frac =
                    detailValue(d, f + "effectiveCapacityFraction");
                p.effectiveCapacityFraction = frac > 0.0 ? frac : 1.0;

                // Close the loop with the closed-form endurance
                // model: project lifetime from this run's observed
                // write traffic and measured hottest-line imbalance.
                const LlcModel &model =
                    publishedLlcModel(r.tech, cfg.mode);
                LifetimeInputs in;
                in.llcWrites = r.stats.llc.fills +
                               r.stats.llc.writebacksIn -
                               r.stats.llc.writeBypasses;
                in.seconds = r.stats.seconds;
                in.cacheLines =
                    model.capacityBytes / sys.llc.blockBytes;
                const double mean = double(in.llcWrites) /
                                    double(in.cacheLines);
                const double hottest =
                    detailValue(d, "sim.llc.maxLineWrites");
                in.writeImbalance =
                    mean > 0.0 ? std::max(1.0, hottest / mean) : 1.0;
                p.lifetime = estimateLifetime(p.klass, in, wl);

                p.stats = std::move(r.stats);
                study.points.push_back(std::move(p));
            }
            progressTick();
        }
    }
    progressEnd();
    return study;
}

StatsSnapshot
aggregateSimStats(const FigureStudy &study)
{
    StatsSnapshot total;
    for (const std::vector<TechSweep> *group :
         {&study.singleThreaded, &study.multiThreaded})
        for (const TechSweep &sweep : *group)
            for (const RunResult &r : sweep.results)
                total.mergeSum(r.stats.detail);
    return total;
}

StatsSnapshot
aggregateSimStats(const CoreSweepStudy &study)
{
    StatsSnapshot total;
    for (const CoreSweepPoint &p : study.points)
        total.mergeSum(p.stats.detail);
    return total;
}

StatsSnapshot
aggregateSimStats(const ReliabilityStudy &study)
{
    StatsSnapshot total;
    for (const ReliabilityPoint &p : study.points)
        total.mergeSum(p.stats.detail);
    return total;
}

} // namespace nvmcache
