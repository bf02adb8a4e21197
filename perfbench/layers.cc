/**
 * @file
 * perfbench_layers: the compiled half of the repository benchmark
 * (perfbench/run.py launches it; see perfbench/NOTES.md). It reaches
 * the simulator only through the study config struct, the
 * WorkloadRegistry and the layers' public calls.
 *
 *   perfbench_layers grid
 *       The daemon-compare grid: the Table V workloads and the NVM
 *       models of the fixed-capacity mode, as one JSON line.
 *   perfbench_layers study --report FILE [--jobs N] [--warm N]
 *                    [--setup-only]
 *       One untraced server-suite study in this fresh process. Prints
 *       "ready" once the runner is built and the specs and models are
 *       resolved, runs the study, writes its report, re-runs the study
 *       N times on the warm runner, then prints one JSON line of
 *       timings.
 *   perfbench_layers trace --report FILE [--jobs N] [--spans FILE]
 *       The study as above (the reference), then its work redone
 *       serially through RecordedTrace::record, characterize,
 *       PrivateTrace::record, System::runReplay and correlateFeatures
 *       with a span around every call. Every replayed SimStats must
 *       equal the reference's. Prints per-layer totals as one JSON
 *       line and writes the spans to FILE.
 *   perfbench_layers store --store DIR --scratch DIR --pairs FILE
 *       Times ResultStore::load + decodeSimStats of every run record a
 *       daemon session wrote (through an ExperimentRunner's disk
 *       tier) and ResultStore::put of those records into a scratch
 *       store, printing the raw samples as one JSON line.
 *
 * Exit status is 0 only when every check passed.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/study.hh"
#include "nvsim/published.hh"
#include "prism/metrics.hh"
#include "sim/private_trace.hh"
#include "sim/system.hh"
#include "store/codec.hh"
#include "store/result_store.hh"
#include "util/args.hh"
#include "util/json.hh"
#include "workload/generators.hh"
#include "workload/recorded_trace.hh"
#include "workload/workload_registry.hh"

using namespace nvmcache;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

JsonValue
num(double v)
{
    return JsonValue::makeNumber(v);
}

JsonValue
numArray(const std::vector<double> &v)
{
    JsonValue a = JsonValue::makeArray();
    for (double x : v)
        a.push(num(x));
    return a;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << text;
    out.close();
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

/** CPU seconds (user + sys) and peak RSS [MB] of this process. */
struct Usage
{
    double cpuSeconds = 0.0;
    double peakRssMb = 0.0;
};

Usage
selfUsage()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.cpuSeconds = double(ru.ru_utime.tv_sec) +
                   double(ru.ru_utime.tv_usec) * 1e-6 +
                   double(ru.ru_stime.tv_sec) +
                   double(ru.ru_stime.tv_usec) * 1e-6;
    u.peakRssMb = double(ru.ru_maxrss) / 1024.0;
    return u;
}

// --- workloads and models ------------------------------------------

/**
 * The Table V workloads: the registry's fixed (parameterless) kinds
 * that carry a Table V mpki. Extras such as lbm carry none.
 */
std::vector<const BenchmarkSpec *>
tableVSpecs()
{
    const WorkloadRegistry &reg = WorkloadRegistry::global();
    std::vector<const BenchmarkSpec *> out;
    for (const std::string &kind : reg.kinds()) {
        if (!reg.kind(kind).params.empty())
            continue;
        const BenchmarkSpec &spec = reg.resolve(kind);
        if (spec.paperMpki > 0.0)
            out.push_back(&spec);
    }
    return out;
}

/** @p spec with its access count scaled as the studies scale it. */
BenchmarkSpec
scaled(const BenchmarkSpec &spec, double scale)
{
    BenchmarkSpec s = spec;
    s.gen.totalAccesses =
        std::uint64_t(double(spec.gen.totalAccesses) * scale);
    return s;
}

/** The server-suite study of the benchmark: capacity mode, grid rows. */
struct StudyCase
{
    CapacityMode mode = CapacityMode::FixedCapacity;
    std::vector<BenchmarkSpec> specs; ///< grid rows, resolved
};

StudyCase
studyCase()
{
    StudyCase c;
    const ServerSuiteConfig cfg;
    c.mode = cfg.mode;
    for (const std::string &w : serverSuiteWorkloads(cfg))
        c.specs.push_back(WorkloadRegistry::global().resolve(w));
    publishedLlcModels(c.mode);
    return c;
}

// --- reports ---------------------------------------------------------

JsonValue
statsJson(const SimStats &s)
{
    JsonValue v = JsonValue::makeObject();
    v.set("instructions", num(double(s.instructions)));
    v.set("cycles", num(s.cycles));
    v.set("seconds", num(s.seconds));
    v.set("l1Misses", num(double(s.l1Misses)));
    v.set("l2Misses", num(double(s.l2Misses)));
    v.set("dramReads", num(double(s.dramReads)));
    v.set("dramWrites", num(double(s.dramWrites)));
    v.set("dramQueueCycles", num(double(s.dramQueueCycles)));
    v.set("llcDemandReads", num(double(s.llc.demandReads)));
    v.set("llcDemandHits", num(double(s.llc.demandHits)));
    v.set("llcDemandMisses", num(double(s.llc.demandMisses)));
    v.set("llcFills", num(double(s.llc.fills)));
    v.set("llcWritebacksIn", num(double(s.llc.writebacksIn)));
    v.set("llcDirtyEvictions", num(double(s.llc.dirtyEvictions)));
    v.set("llcWriteBypasses", num(double(s.llc.writeBypasses)));
    v.set("llcReadWaitCycles", num(double(s.llc.readWaitCycles)));
    v.set("llcWriteStallCycles", num(double(s.llc.writeStallCycles)));
    v.set("llcLeakageEnergy", num(s.llcLeakageEnergy));
    v.set("llcDynamicEnergy", num(s.llcDynamicEnergy));
    return v;
}

/** The reference outcome of one study run on a parallel runner. */
struct StudyResult
{
    JsonValue report;
    /** SimStats of every (spec, model) run, keyed "<spec>/<model>". */
    std::map<std::string, SimStats> runs;
    std::vector<std::vector<double>> features;
    std::vector<TechCorrelation> perTech;
    std::size_t gridRuns = 0;
    RunnerStats engine; ///< runner counters right after the study
};

std::string
runName(const BenchmarkSpec &spec, const LlcModel &llc)
{
    return spec.name + "/" + llc.name;
}

/**
 * Run the study on @p runner through its config struct and build the
 * report. Every run's SimStats is collected too, read back through
 * memo hits; runs are never repeated.
 */
StudyResult
runStudy(const StudyCase &c, const ExperimentRunner &runner)
{
    StudyResult r;
    JsonValue rep = JsonValue::makeObject();
    rep.set("study", JsonValue::makeString("server-suite"));
    rep.set("mode", JsonValue::makeString(toString(c.mode)));
    const std::vector<LlcModel> &models = publishedLlcModels(c.mode);
    const CorrelationStudy study =
        runServerSuite(ServerSuiteConfig(), runner);
    r.engine = runner.runnerStats();
    JsonValue names = JsonValue::makeArray();
    JsonValue features = JsonValue::makeArray();
    for (std::size_t i = 0; i < study.workloads.size(); ++i) {
        names.push(JsonValue::makeString(study.workloads[i]));
        r.features.push_back(study.features[i].featureVector());
        features.push(numArray(r.features.back()));
    }
    rep.set("workloads", std::move(names));
    rep.set("features", std::move(features));
    JsonValue perTech = JsonValue::makeArray();
    for (const TechCorrelation &tc : study.perTech) {
        JsonValue v = JsonValue::makeObject();
        v.set("tech", JsonValue::makeString(tc.tech));
        v.set("energy", numArray(tc.dataset.energy));
        v.set("speedup", numArray(tc.dataset.speedup));
        v.set("energyCorr", numArray(tc.result.energyCorr));
        v.set("speedupCorr", numArray(tc.result.speedupCorr));
        perTech.push(std::move(v));
    }
    rep.set("perTech", std::move(perTech));
    r.perTech = study.perTech;
    JsonValue runs = JsonValue::makeArray();
    for (const BenchmarkSpec &spec : c.specs)
        for (const LlcModel &llc : models) {
            const SimStats s = runner.runOne(spec, llc);
            JsonValue v = JsonValue::makeObject();
            v.set("workload", JsonValue::makeString(spec.name));
            v.set("tech", JsonValue::makeString(llc.name));
            v.set("stats", statsJson(s));
            runs.push(std::move(v));
            r.runs[runName(spec, llc)] = s;
        }
    rep.set("runs", std::move(runs));
    r.gridRuns = c.specs.size() * models.size();
    if (r.runs.size() != r.gridRuns)
        throw std::runtime_error("study returned " +
                                 std::to_string(r.runs.size()) +
                                 " runs, grid has " +
                                 std::to_string(r.gridRuns));
    r.report = std::move(rep);
    return r;
}

/** One timed study run with its checked report; `study` and `trace`. */
struct Reference
{
    StudyCase c;
    StudyResult result;
    double wallSeconds = 0.0;
    double cpuSeconds = 0.0; ///< of the study alone
    Usage usage;             ///< whole process, at report time
};

Reference
reference(const ExperimentRunner &runner, const StudyCase &c,
          const std::string &reportPath)
{
    Reference ref;
    ref.c = c;
    const double cpu0 = selfUsage().cpuSeconds;
    const auto t0 = Clock::now();
    ref.result = runStudy(c, runner);
    writeFile(reportPath, ref.result.report.dump() + "\n");
    ref.wallSeconds = secondsBetween(t0, Clock::now());
    ref.usage = selfUsage();
    ref.cpuSeconds = ref.usage.cpuSeconds - cpu0;
    return ref;
}

// --- `study` ---------------------------------------------------------

int
cmdStudy(ArgParser &args)
{
    const std::string report = args.str("--report", "");
    const unsigned jobs = args.u32("--jobs", 4);
    const unsigned warm = args.u32("--warm", 0);
    const bool setupOnly = args.flag("--setup-only");
    args.rejectUnknown("study");
    if (args.positionals().size() != 1 || (report.empty() && !setupOnly))
        throw std::runtime_error("usage: study --report FILE");

    // Set-up: the runner is built, the specs and models are resolved.
    ExperimentRunner runner;
    runner.setJobs(jobs);
    const StudyCase c = studyCase();
    std::printf("ready\n");
    std::fflush(stdout);
    if (setupOnly)
        return 0;

    const Reference ref = reference(runner, c, report);

    // Warm requests: the same study again, served by the warm runner.
    std::vector<double> warmMs;
    for (unsigned i = 0; i < warm; ++i) {
        const auto t = Clock::now();
        runServerSuite(ServerSuiteConfig(), runner);
        warmMs.push_back(secondsBetween(t, Clock::now()) * 1e3);
    }

    JsonValue out = JsonValue::makeObject();
    out.set("wall_s", num(ref.wallSeconds));
    out.set("cpu_s", num(ref.usage.cpuSeconds));
    out.set("peak_rss_mb", num(ref.usage.peakRssMb));
    out.set("grid_runs", num(double(ref.result.gridRuns)));
    out.set("warm_ms", numArray(warmMs));
    std::printf("%s\n", out.dump().c_str());
    return 0;
}

// --- `trace` ---------------------------------------------------------

/** In-memory span timeline of the traced pass (one thread). */
class Spans
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        int parent = -1;
        std::string detail;
    };

    /** Run @p fn inside a span named @p name under @p parent. */
    template <typename Fn>
    auto
    time(const std::string &name, int parent, const std::string &detail,
         Fn &&fn)
    {
        const int id = open(name, parent, detail);
        struct Closer
        {
            Spans *self;
            int id;
            ~Closer() { self->close(id); }
        } closer{this, id};
        return fn();
    }

    int
    open(const std::string &name, int parent, const std::string &detail)
    {
        spans_.push_back({name, now(), 0.0, parent, detail});
        return int(spans_.size()) - 1;
    }

    void close(int id) { spans_[std::size_t(id)].end = now(); }

    /** Self time per span name: duration minus children's. */
    std::map<std::string, double>
    selfSeconds() const
    {
        std::vector<double> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i)
            self[i] = spans_[i].end - spans_[i].start;
        for (const Span &s : spans_)
            if (s.parent >= 0)
                self[std::size_t(s.parent)] -= s.end - s.start;
        std::map<std::string, double> out;
        for (std::size_t i = 0; i < spans_.size(); ++i)
            out[spans_[i].name] += self[i];
        return out;
    }

    JsonValue
    toJson() const
    {
        JsonValue a = JsonValue::makeArray();
        for (const Span &s : spans_) {
            JsonValue v = JsonValue::makeObject();
            v.set("name", JsonValue::makeString(s.name));
            v.set("start_s", num(s.start));
            v.set("end_s", num(s.end));
            v.set("parent", num(double(s.parent)));
            v.set("detail", JsonValue::makeString(s.detail));
            a.push(std::move(v));
        }
        return a;
    }

  private:
    double now() const { return secondsBetween(origin_, Clock::now()); }

    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

template <typename Cursor, typename Source>
std::vector<Source *>
pointers(std::vector<Cursor> &cursors)
{
    std::vector<Source *> out;
    for (Cursor &c : cursors)
        out.push_back(&c);
    return out;
}

int
cmdTrace(ArgParser &args)
{
    const std::string report = args.str("--report", "");
    const std::string spansPath = args.str("--spans", "");
    const unsigned jobs = args.u32("--jobs", 4);
    args.rejectUnknown("trace");
    if (args.positionals().size() != 1 || report.empty())
        throw std::runtime_error("usage: trace --report FILE");

    ExperimentRunner runner;
    runner.setJobs(jobs);
    const Reference ref = reference(runner, studyCase(), report);
    const StudyCase &c = ref.c;
    const std::vector<LlcModel> &models = publishedLlcModels(c.mode);
    const CoreParams core = SystemConfig().core;

    // The traced pass: the study's work, serially, one span per call.
    Spans spans;
    const int root = spans.open("core.traced_pass", -1, "server-suite");
    std::uint64_t recorded = 0, packed = 0, replayed = 0, characterized = 0;
    std::uint64_t traces = 0, runs = 0, mismatches = 0;
    double cycles = 0.0;
    std::uint64_t demandMisses = 0, writebacks = 0;
    std::vector<std::vector<double>> features;
    std::map<std::string, SimStats> replays;
    for (const BenchmarkSpec &spec : c.specs) {
        const std::uint32_t threads = spec.defaultThreads;
        auto trace = spans.time("workload.record", root, spec.name, [&] {
            return RecordedTrace::record(spec.gen, threads);
        });
        traces += 1;
        recorded += trace->totalAccesses();
        packed += trace->packedBytes();
        const WorkloadFeatures f =
            spans.time("prism.characterize", root, spec.name, [&] {
                return characterize(*trace, 10,
                                    warmupSplit(spec.gen, threads));
            });
        characterized += trace->totalAccesses();
        features.push_back(f.featureVector());
        auto cursors = trace->cursors();
        auto batch = pointers<TraceCursor, BatchSource>(cursors);
        auto priv = spans.time("sim.private_record", root, spec.name, [&] {
            return PrivateTrace::record(batch, core);
        });
        const char *replayName =
            threads == 1 ? "sim.replay_single" : "sim.replay_multi";
        for (const LlcModel &llc : models) {
            SystemConfig cfg;
            cfg.numCores = threads;
            cfg.perCoreLlcStats = spec.gen.perThreadStats;
            auto replayCursors = trace->cursors();
            auto sources =
                pointers<TraceCursor, ReplaySource>(replayCursors);
            const SimStats s = spans.time(
                replayName, root, runName(spec, llc), [&] {
                    System system(cfg, llc);
                    return system.runReplay(sources, priv.get());
                });
            runs += 1;
            replayed += trace->totalAccesses();
            cycles += s.cycles;
            demandMisses += s.llc.demandMisses;
            writebacks += s.llc.writebacksIn;
            const auto it = ref.result.runs.find(runName(spec, llc));
            if (it == ref.result.runs.end() ||
                encodeSimStats(it->second) != encodeSimStats(s)) {
                std::fprintf(stderr, "mismatch: %s\n",
                             runName(spec, llc).c_str());
                mismatches += 1;
            }
            replays[runName(spec, llc)] = s;
        }
    }
    if (features != ref.result.features) {
        std::fprintf(stderr, "mismatch: PRISM features\n");
        mismatches += 1;
    }
    for (const TechCorrelation &tc : ref.result.perTech) {
        CorrelationDataset data;
        data.featureNames = WorkloadFeatures::featureNames();
        for (std::size_t i = 0; i < c.specs.size(); ++i) {
            const SimStats &s = replays.at(c.specs[i].name + "/" + tc.tech);
            data.workloads.push_back(c.specs[i].name);
            data.features.push_back(features[i]);
            data.energy.push_back(s.ed2p());
            data.speedup.push_back(s.seconds);
        }
        const CorrelationResult fit =
            spans.time("correlate.fit", root, tc.tech,
                       [&] { return correlateFeatures(data); });
        if (fit.energyCorr != tc.result.energyCorr ||
            fit.speedupCorr != tc.result.speedupCorr) {
            std::fprintf(stderr, "mismatch: correlation %s\n",
                         tc.tech.c_str());
            mismatches += 1;
        }
    }
    spans.close(root);
    if (!spansPath.empty())
        writeFile(spansPath, spans.toJson().dump() + "\n");

    const std::map<std::string, double> self = spans.selfSeconds();
    auto selfOf = [&](const std::string &name) {
        const auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second;
    };
    double total = 0.0;
    for (const auto &[name, secs] : self)
        total += secs;
    const double recordS = selfOf("workload.record");
    const double replayS =
        selfOf("sim.replay_single") + selfOf("sim.replay_multi");
    const double characterizeS = selfOf("prism.characterize");

    JsonValue m = JsonValue::makeObject();
    m.set("workload.record_s", num(recordS));
    m.set("workload.record_maccess_per_s",
          num(double(recorded) / recordS / 1e6));
    m.set("workload.packed_bytes_per_access",
          num(double(packed) / double(recorded)));
    m.set("workload.traces", num(double(traces)));
    m.set("sim.private_record_s", num(selfOf("sim.private_record")));
    m.set("sim.replay_single_s", num(selfOf("sim.replay_single")));
    m.set("sim.replay_multi_s", num(selfOf("sim.replay_multi")));
    m.set("sim.replay_maccess_per_s",
          num(double(replayed) / replayS / 1e6));
    m.set("sim.runs", num(double(runs)));
    m.set("sim.cycles", num(cycles));
    m.set("sim.llc_demand_misses", num(double(demandMisses)));
    m.set("sim.llc_writebacks", num(double(writebacks)));
    m.set("prism.characterize_s", num(characterizeS));
    m.set("prism.characterize_maccess_per_s",
          num(double(characterized) / characterizeS / 1e6));
    m.set("correlate.fit_s", num(selfOf("correlate.fit")));
    m.set("core.pool_busy_frac",
          num(ref.cpuSeconds / (ref.wallSeconds * runner.jobs())));
    m.set("core.simulations", num(double(ref.result.engine.simulations)));
    m.set("core.memo_hits", num(double(ref.result.engine.memoHits)));
    m.set("core.trace_builds", num(double(ref.result.engine.traceBuilds)));
    m.set("core.unattributed_frac", num(selfOf("core.traced_pass") / total));

    // The reference study's totals, summed in the traced pass's order,
    // for the exact-count check.
    double refCycles = 0.0;
    std::uint64_t refMisses = 0, refWritebacks = 0;
    for (const BenchmarkSpec &spec : c.specs)
        for (const LlcModel &llc : models) {
            const auto it = ref.result.runs.find(runName(spec, llc));
            if (it == ref.result.runs.end())
                continue; // already counted as a mismatch
            refCycles += it->second.cycles;
            refMisses += it->second.llc.demandMisses;
            refWritebacks += it->second.llc.writebacksIn;
        }
    JsonValue check = JsonValue::makeObject();
    check.set("mismatches", num(double(mismatches)));
    check.set("runs", num(double(runs)));
    check.set("grid_runs", num(double(ref.result.gridRuns)));
    check.set("sim.cycles", num(refCycles));
    check.set("sim.llc_demand_misses", num(double(refMisses)));
    check.set("sim.llc_writebacks", num(double(refWritebacks)));

    JsonValue out = JsonValue::makeObject();
    out.set("metrics", std::move(m));
    out.set("reference", std::move(check));
    out.set("traced_total_s", num(total));
    out.set("untraced_cpu_s", num(ref.cpuSeconds));
    out.set("untraced_wall_s", num(ref.wallSeconds));
    std::printf("%s\n", out.dump().c_str());
    return mismatches == 0 && runs == ref.result.gridRuns ? 0 : 1;
}

// --- `store` ---------------------------------------------------------

int
cmdStore(ArgParser &args)
{
    const std::string storeDir = args.str("--store", "");
    const std::string scratchDir = args.str("--scratch", "");
    const std::string pairsPath = args.str("--pairs", "");
    args.rejectUnknown("store");
    if (storeDir.empty() || scratchDir.empty() || pairsPath.empty())
        throw std::runtime_error(
            "usage: store --store DIR --scratch DIR --pairs FILE");

    std::ifstream in(pairsPath);
    std::stringstream text;
    text << in.rdbuf();
    const JsonValue doc = JsonValue::parse(text.str());
    const double scale = doc.at("scale").asNumber();
    const CapacityMode mode = doc.at("mode").asString() == "fixed-area"
                                  ? CapacityMode::FixedArea
                                  : CapacityMode::FixedCapacity;

    // Every run record the session wrote: each requested pair plus
    // the SRAM baseline of each requested workload.
    const WorkloadRegistry &reg = WorkloadRegistry::global();
    std::vector<std::pair<BenchmarkSpec, const LlcModel *>> records;
    std::set<std::string> seen;
    for (const JsonValue &pair : doc.at("pairs").items) {
        const BenchmarkSpec spec =
            scaled(reg.resolve(pair.items.at(0).asString()), scale);
        for (const std::string &tech :
             {pair.items.at(1).asString(), std::string("SRAM")})
            if (seen.insert(spec.name + "/" + tech).second)
                records.emplace_back(spec, &publishedLlcModel(tech, mode));
    }

    ResultStore::setGlobal(storeDir);
    ExperimentRunner runner;
    runner.setJobs(1);
    std::vector<double> loadMs, putMs, reloadMs;
    std::vector<std::string> payloads;
    for (const auto &[spec, llc] : records) {
        const auto t = Clock::now();
        const SimStats s = runner.runOne(spec, *llc);
        loadMs.push_back(secondsBetween(t, Clock::now()) * 1e3);
        payloads.push_back(encodeSimStats(s));
    }
    const RunnerStats rs = runner.runnerStats();
    ResultStore::setGlobal("");

    ResultStore scratch(scratchDir);
    std::uint64_t reloadMismatches = 0;
    for (std::size_t i = 0; i < payloads.size(); ++i) {
        const std::string key = "perfbench/" + std::to_string(i);
        auto t = Clock::now();
        scratch.put("run", key, payloads[i]);
        putMs.push_back(secondsBetween(t, Clock::now()) * 1e3);
        t = Clock::now();
        const auto payload = scratch.load("run", key);
        const SimStats s = decodeSimStats(payload.value_or(""));
        reloadMs.push_back(secondsBetween(t, Clock::now()) * 1e3);
        reloadMismatches += encodeSimStats(s) != payloads[i];
    }

    std::map<std::string, double> bytes, count;
    for (const StoreScanEntry &e : ResultStore(storeDir).scan()) {
        bytes[e.kind] += double(e.payloadBytes);
        count[e.kind] += 1;
    }
    JsonValue out = JsonValue::makeObject();
    out.set("load_ms", numArray(loadMs));
    out.set("put_ms", numArray(putMs));
    out.set("reload_ms", numArray(reloadMs));
    out.set("disk_hits", num(double(rs.diskHits)));
    out.set("simulations", num(double(rs.simulations)));
    JsonValue b = JsonValue::makeObject();
    for (const auto &[kind, n] : bytes)
        b.set(kind, num(n));
    out.set("payload_bytes", std::move(b));
    JsonValue cnt = JsonValue::makeObject();
    for (const auto &[kind, n] : count)
        cnt.set(kind, num(n));
    out.set("records", std::move(cnt));
    std::printf("%s\n", out.dump().c_str());
    // Every record must come from disk, intact, and reload exactly.
    return rs.simulations == 0 && rs.diskHits == records.size() &&
                   reloadMismatches == 0
               ? 0
               : 1;
}

// --- `grid` ----------------------------------------------------------

int
cmdGrid(ArgParser &args)
{
    args.rejectUnknown("grid");
    JsonValue workloads = JsonValue::makeArray();
    for (const BenchmarkSpec *spec : tableVSpecs())
        workloads.push(JsonValue::makeString(spec->name));
    JsonValue models = JsonValue::makeArray();
    for (const LlcModel &llc :
         publishedLlcModels(CapacityMode::FixedCapacity))
        if (llc.klass != NvmClass::SRAM)
            models.push(JsonValue::makeString(llc.name));
    JsonValue out = JsonValue::makeObject();
    out.set("workloads", std::move(workloads));
    out.set("models", std::move(models));
    std::printf("%s\n", out.dump().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        ArgParser args(argc, argv);
        const std::vector<std::string> pos = args.positionals();
        const std::string cmd = pos.empty() ? "" : pos[0];
        if (cmd == "grid")
            return cmdGrid(args);
        if (cmd == "study")
            return cmdStudy(args);
        if (cmd == "trace")
            return cmdTrace(args);
        if (cmd == "store")
            return cmdStore(args);
        std::fprintf(stderr,
                     "usage: perfbench_layers grid|study|trace|store ...\n");
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_layers: %s\n", e.what());
        return 1;
    }
}
