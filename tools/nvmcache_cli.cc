/**
 * @file
 * nvmcache command-line driver: the library's functionality as a set
 * of composable subcommands, for users who want the framework without
 * writing C++.
 *
 *   nvmcache models                      list the released cell models
 *   nvmcache llc [--fixed-area]          print the Table III LLC models
 *   nvmcache complete <cell>             heuristic-complete a raw cell
 *   nvmcache estimate <cell> [capacityMB] run the circuit estimator
 *   nvmcache simulate <workload> <tech> [--fixed-area] [--threads N]
 *   nvmcache characterize <workload|tracefile.nvmt> [--store-dir D]
 *   nvmcache export-trace <workload> <file.nvmt> [--threads N]
 *   nvmcache workloads [--json]          list workload kinds/params
 *   nvmcache studies                     list the study registry
 *   nvmcache study <kind> [key=value ..] run any registered study
 *   nvmcache serve --socket PATH         persistent evaluation daemon
 *   nvmcache store <action> --store-dir DIR   result-store maintenance
 *   nvmcache client --socket PATH <kind> [key=value ..]
 *
 * All flag parsing goes through util/args.hh; every subcommand rejects
 * unknown flags with a diagnostic naming the flag and the subcommand.
 */

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/study.hh"
#include "core/study_registry.hh"
#include "nvm/heuristics.hh"
#include "nvm/model_library.hh"
#include "nvsim/estimator.hh"
#include "nvsim/published.hh"
#include "prism/metrics.hh"
#include "service/chaos.hh"
#include "service/client.hh"
#include "service/server.hh"
#include "store/result_store.hh"
#include "util/args.hh"
#include "util/metrics.hh"
#include "util/trace_events.hh"
#include "util/units.hh"
#include "workload/suite.hh"
#include "workload/trace_io.hh"
#include "workload/workload_registry.hh"

using namespace nvmcache;

namespace {

int
usage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: nvmcache <command> [args]\n"
        "  models                             list released NVM "
        "cell models (Table II)\n"
        "  llc [--fixed-area]                 print LLC models "
        "(Table III)\n"
        "  complete <cell>                    heuristic-complete a "
        "reported-only cell\n"
        "  estimate <cell> [capacityMB]       circuit-estimate an LLC "
        "model\n"
        "  simulate <workload> <tech> [--fixed-area] [--threads N] "
        "[--jobs N]\n"
        "           [--scale F] [--stats-out FILE] "
        "[--stats-format json|csv] [--trace-out FILE]\n"
        "           [--progress]\n"
        "  characterize <workload|file.nvmt> [--store-dir DIR]  "
        "PRISM-style features\n"
        "  export-trace <workload> <file.nvmt> [--threads N]\n"
        "  workloads [--json]                 list workload kinds "
        "with parameter schemas\n"
        "  reliability [workload] [--ber-scale A,B,..] "
        "[--wear-leveling A,B,..]\n"
        "           [--wear-scale X] [--max-retries N] [--scale F] "
        "[--fixed-area]\n"
        "           [--threads N] [--jobs N] "
        "[--stats-out FILE] [--stats-format json|csv]\n"
        "           [--trace-out FILE] [--progress]   fault-injection "
        "sweep over all technologies\n"
        "  studies                            list registered studies "
        "with defaults\n"
        "  study <kind> [key=value ..] [--jobs N] "
        "[--stats-out FILE]\n"
        "           [--stats-format json|csv] [--trace-out FILE] "
        "[--progress]\n"
        "           run one study, print JSON\n"
        "  serve --socket PATH [--queue-depth N] [--workers N] "
        "[--exec-threads N]\n"
        "           [--jobs N] [--store-dir DIR] "
        "[--trace] [--trace-out FILE]\n"
        "           [--heartbeat-ms N] [--job-timeout-ms N] "
        "[--chaos-spec SPEC] [--no-resume]\n"
        "           persistent evaluation daemon (newline-delimited "
        "JSON protocol);\n"
        "           --workers N spawns N supervised worker daemons "
        "sharing the store\n"
        "           (needs --store-dir; dead workers respawn, "
        "crash-loopers quarantine),\n"
        "           --exec-threads sets in-process concurrency, "
        "--chaos-spec injects a\n"
        "           deterministic fault schedule (see `nvmcache "
        "chaos`)\n"
        "  store <ls|stats|verify|gc> --store-dir DIR [--repair] "
        "[--max-bytes N]\n"
        "           inspect, check, or shrink the persistent result "
        "store\n"
        "  client --socket PATH <kind> [key=value ..] [--id X] "
        "[--result-only]\n"
        "           [--op ping|studies|workloads|metrics|stats|health|"
        "trace|shutdown] [--trace-id X]\n"
        "           [--timeout-ms N] [--retries N] [--deadline-ms N]\n"
        "           talk to a serving daemon; --timeout-ms bounds "
        "every response wait,\n"
        "           --retries adds jittered-backoff retry attempts, "
        "--deadline-ms asks\n"
        "           the server to drop the run if still queued past "
        "the deadline\n"
        "  health --socket PATH [--probe] [--timeout-ms N]\n"
        "           daemon health (state ok|degraded|draining, worker "
        "capacity); with\n"
        "           --probe exits 0 only when state is ok at full "
        "capacity (1 degraded,\n"
        "           2 draining, 3 unreachable)\n"
        "  chaos --spec SPEC                  print the deterministic "
        "fault schedule a\n"
        "           serve --chaos-spec run would inject "
        "(seed=..,kill=..,stop=..,corrupt=..,\n"
        "           truncate=..,drop=..,stall=..,partial=..,"
        "interval-ms=..,start-delay-ms=..)\n"
        "\n"
        "--jobs N (or NVMCACHE_JOBS=N) caps the experiment engine's "
        "worker threads;\nthe default is the hardware thread count. "
        "Results are bit-identical at any\njob count.\n"
        "--stats-out FILE writes the structured run report "
        "(sim.*, runner.*,\nestimator.*, phase.* metrics); "
        "--stats-format picks json (default) or csv.\n"
        "--trace-out FILE enables span/counter tracing and writes a "
        "Chrome\ntrace-event JSON (load in Perfetto or "
        "chrome://tracing). Tracing is off\nwithout the flag and "
        "costs nothing when disabled.\n"
        "--store-dir DIR (or NVMCACHE_STORE=DIR) persists every "
        "simulated run and\nrecorded trace to a content-addressed "
        "on-disk store: a warm restart replays\nfrom disk instead of "
        "re-simulating. Results are byte-identical either way.\n"
        "\nRun `nvmcache studies` for every study's parameters and "
        "defaults.\n");
    return out == stdout ? 0 : 2;
}

/**
 * Consume `--store-dir PATH` (falling back to the NVMCACHE_STORE
 * environment variable) and, when set, install the persistent result
 * store before any engine work runs: every ExperimentRunner built
 * afterwards reads and writes the on-disk tier. Returns the directory
 * ("" = persistence off).
 */
std::string
storeDirFlag(ArgParser &parser)
{
    std::string dir = parser.str("--store-dir", "");
    if (dir.empty()) {
        const char *env = std::getenv("NVMCACHE_STORE");
        if (env)
            dir = env;
    }
    if (!dir.empty())
        ResultStore::setGlobal(dir);
    return dir;
}

/**
 * Consume `--trace-out FILE` and, when present, switch tracing on
 * before any engine work runs. Returns the output path ("" = off).
 */
std::string
traceOutFlag(ArgParser &parser)
{
    const std::string traceOut = parser.str("--trace-out", "");
    if (!traceOut.empty())
        setTracingEnabled(true);
    return traceOut;
}

/** Dump the collected trace when --trace-out was given. */
void
finishTrace(const std::string &traceOut)
{
    if (traceOut.empty())
        return;
    writeTraceFile(traceOut);
    std::fprintf(stderr, "trace written to %s\n", traceOut.c_str());
}

/** "key=value" positional tokens -> a StudyRequest. */
StudyRequest
buildStudyRequest(const std::vector<std::string> &pos,
                  const std::string &context)
{
    if (pos.empty())
        throw std::runtime_error(
            "'" + context +
            "' needs a study name (run `nvmcache studies` for the "
            "list)");
    StudyRequest req;
    req.kind = pos[0];
    for (std::size_t i = 1; i < pos.size(); ++i) {
        const std::size_t eq = pos[i].find('=');
        if (eq == std::string::npos || eq == 0)
            throw std::runtime_error("study parameter '" + pos[i] +
                                     "' is not of the form key=value");
        req.params[pos[i].substr(0, eq)] = pos[i].substr(eq + 1);
    }
    return req;
}

int
cmdModels()
{
    std::printf("%-10s %-7s %-5s %-8s %-10s %s\n", "name", "class",
                "year", "node", "cell[F^2]", "bits/cell");
    for (const CellSpec &c : publishedCells())
        std::printf("%-10s %-7s %-5d %-8.0f %-10.1f %d\n",
                    c.name.c_str(), toString(c.klass).c_str(), c.year,
                    c.processNode.get() * 1e9, c.cellSizeF2.get(),
                    c.bitsPerCell());
    return 0;
}

int
cmdLlc(ArgParser &parser)
{
    const CapacityMode mode = parser.flag("--fixed-area")
                                  ? CapacityMode::FixedArea
                                  : CapacityMode::FixedCapacity;
    parser.rejectUnknown("llc");
    std::printf("%-12s %-8s %-9s %-9s %-10s %-9s %-9s\n", "model",
                "cap[MB]", "read[ns]", "write[ns]", "Ewrite[nJ]",
                "Ehit[nJ]", "leak[W]");
    for (const LlcModel &m : publishedLlcModels(mode))
        std::printf("%-12s %-8.0f %-9.3f %-9.3f %-10.3f %-9.3f "
                    "%-9.3f\n",
                    m.citationName().c_str(), toMB(m.capacityBytes),
                    toNs(m.readLatency), toNs(m.writeLatency()),
                    toNJ(m.eWrite), toNJ(m.eHit), m.leakage);
    return 0;
}

int
cmdComplete(const std::string &name)
{
    std::vector<CellSpec> refs = rawCells();
    for (const CellSpec &seed : archetypeSeeds())
        refs.push_back(seed);
    HeuristicEngine engine(refs);

    for (const CellSpec &raw : rawCells()) {
        if (raw.name != name)
            continue;
        CompletionResult result = engine.complete(raw);
        std::printf("%s: %zu parameters derived\n", name.c_str(),
                    result.steps.size());
        for (const CompletionStep &s : result.steps)
            std::printf("  %-16s = %-12.4g  %s\n",
                        toString(s.field).c_str(), s.value,
                        s.rationale.c_str());
        return result.complete() ? 0 : 1;
    }
    std::fprintf(stderr, "unknown cell '%s'\n", name.c_str());
    return 2;
}

int
cmdEstimate(const std::vector<std::string> &pos)
{
    const CellSpec &cell = publishedCell(pos[0]);
    CacheOrgConfig org;
    if (pos.size() > 1)
        org.capacityBytes =
            std::uint64_t(ArgParser::parseU32("capacityMB", pos[1]))
            << 20;
    LlcModel m = Estimator().estimate(cell, org);
    std::printf("%s @ %.0f MB: area %.3f mm^2, tag %.3f ns, read "
                "%.3f ns, write %.3f ns,\n  Ehit %.3f nJ, Emiss %.3f "
                "nJ, Ewrite %.3f nJ, leakage %.3f W\n",
                cell.citationName().c_str(), toMB(org.capacityBytes),
                toMm2(m.area), toNs(m.tagLatency),
                toNs(m.readLatency), toNs(m.writeLatency()),
                toNJ(m.eHit), toNJ(m.eMiss), toNJ(m.eWrite),
                m.leakage);
    return 0;
}

int
cmdSimulate(ArgParser &parser)
{
    CompareConfig cfg;
    cfg.mode = parser.flag("--fixed-area") ? CapacityMode::FixedArea
                                           : CapacityMode::FixedCapacity;
    cfg.threads = parser.u32("--threads", 0);
    cfg.traceScale = parser.num("--scale", 1.0);
    const unsigned jobs = parser.u32("--jobs", 0);
    setProgressEnabled(parser.flag("--progress"));
    const std::string statsOut = parser.str("--stats-out", "");
    const std::string statsFormat = parser.str("--stats-format", "json");
    storeDirFlag(parser);
    const std::string traceOut = traceOutFlag(parser);
    parser.rejectUnknown("simulate");

    const std::vector<std::string> pos = parser.positionals();
    if (pos.size() < 2)
        throw std::runtime_error(
            "'simulate' needs a workload and a technology");
    cfg.workload = pos[0];
    cfg.tech = pos[1];

    ExperimentRunner runner;
    runner.setJobs(jobs);
    const CompareResult r = runCompare(cfg, runner);
    const LlcModel &llc = publishedLlcModel(cfg.tech, cfg.mode);

    std::printf("%s on %s (%s):\n", cfg.workload.c_str(),
                llc.citationName().c_str(), toString(cfg.mode).c_str());
    std::printf("  runtime %.3f ms (SRAM %.3f), mpki %.1f\n",
                r.nvm.seconds * 1e3, r.sram.seconds * 1e3,
                r.nvm.llcMpki());
    std::printf("  speedup %.3f, energy %.3f, ED^2P %.3f "
                "(vs SRAM)\n",
                r.speedup, r.normEnergy, r.normEd2p);

    if (!statsOut.empty()) {
        // Report = the NVM run's deterministic detail, the SRAM
        // baseline's detail under "baseline.", and the process-wide
        // engine metrics (runner.*, estimator.*, phase.*).
        StatsSnapshot report = r.nvm.detail;
        report.mergeSum(r.sram.detail.withPrefix("baseline"));
        report.mergeSum(MetricsRegistry::global().snapshot());
        writeStatsFile(statsOut, report, parseStatsFormat(statsFormat));
        std::printf("  stats written to %s\n", statsOut.c_str());
    }
    finishTrace(traceOut);
    return 0;
}

/**
 * Feature row of a `.nvmt` file, or of a workload spec exactly as the
 * studies compute it: warm-up excluded, served from the runner's
 * feature store (and the persistent store's feat record, if any).
 */
WorkloadFeatures
featuresOf(const std::string &what)
{
    if (what.size() > 5 &&
        what.substr(what.size() - 5) == ".nvmt") {
        FileTrace trace = readTraceFile(what);
        std::vector<TraceSource *> ptrs{&trace};
        return characterize(ptrs);
    }
    return ExperimentRunner().features(benchmark(what));
}

int
cmdCharacterize(ArgParser &parser)
{
    storeDirFlag(parser);
    parser.rejectUnknown("characterize");
    const std::vector<std::string> pos = parser.positionals();
    if (pos.size() != 1)
        throw std::runtime_error(
            "'characterize' needs one workload or .nvmt file");

    const auto names = WorkloadFeatures::featureNames();
    const auto values = featuresOf(pos[0]).featureVector();
    // Table VI: four entropies (bits), then six access counts.
    for (std::size_t i = 0; i < names.size(); ++i)
        if (i < 4)
            std::printf("  %-10s %.6g\n", names[i].c_str(), values[i]);
        else
            std::printf("  %-10s %llu\n", names[i].c_str(),
                        (unsigned long long)values[i]);
    return 0;
}

int
cmdExportTrace(ArgParser &parser)
{
    const std::uint32_t threadsFlag = parser.u32("--threads", 0);
    parser.rejectUnknown("export-trace");
    const std::vector<std::string> pos = parser.positionals();
    if (pos.size() < 2)
        throw std::runtime_error(
            "'export-trace' needs a workload and an output file");
    const BenchmarkSpec &spec = benchmark(pos[0]);
    const std::uint32_t threads =
        threadsFlag ? threadsFlag : spec.defaultThreads;
    auto traces = buildTraces(spec, threads);
    std::uint64_t total = 0;
    for (std::uint32_t t = 0; t < traces.size(); ++t) {
        std::string path = pos[1];
        if (traces.size() > 1) {
            // One file per thread: insert ".tN" before the suffix.
            const auto dot = path.rfind(".nvmt");
            path = path.substr(0, dot) + ".t" + std::to_string(t) +
                   ".nvmt";
        }
        total += writeTraceFile(path, *traces[t]);
        std::printf("wrote %s\n", path.c_str());
    }
    std::printf("%llu records\n", (unsigned long long)total);
    return 0;
}

int
cmdReliability(ArgParser &parser)
{
    ReliabilityConfig cfg;
    cfg.mode = parser.flag("--fixed-area") ? CapacityMode::FixedArea
                                           : CapacityMode::FixedCapacity;
    cfg.threads = parser.u32("--threads", 0);
    cfg.jobs = parser.u32("--jobs", 0);
    cfg.traceScale = parser.num("--scale", 0.25);
    cfg.berScales = parser.numList("--ber-scale", cfg.berScales);
    cfg.wearLevelingFactors =
        parser.numList("--wear-leveling", cfg.wearLevelingFactors);
    cfg.wearScale = parser.num("--wear-scale", 1.0);
    cfg.maxWriteRetries = parser.u32("--max-retries", 3);
    setProgressEnabled(parser.flag("--progress"));
    const std::string statsOut = parser.str("--stats-out", "");
    const std::string statsFormat = parser.str("--stats-format", "json");
    storeDirFlag(parser);
    const std::string traceOut = traceOutFlag(parser);
    parser.rejectUnknown("reliability");

    const std::vector<std::string> pos = parser.positionals();
    if (!pos.empty())
        cfg.workload = pos[0];

    ReliabilityStudy study = runReliabilityStudy(cfg);

    std::printf("%s (%s), wearScale %g, maxRetries %u:\n",
                cfg.workload.c_str(), toString(cfg.mode).c_str(),
                cfg.wearScale, cfg.maxWriteRetries);
    std::printf("%-6s %-6s %-12s %10s %8s %8s %8s %8s %8s %10s\n",
                "ber", "wear", "tech", "retries", "scrubs", "uncorr",
                "retired", "effCap%", "speedup", "life[y]");
    for (const ReliabilityPoint &p : study.points)
        std::printf("%-6g %-6g %-12s %10llu %8llu %8llu %8llu "
                    "%8.2f %8.3f %10.3g\n",
                    p.berScale, p.wearLevelingFactor, p.tech.c_str(),
                    (unsigned long long)p.writeRetries,
                    (unsigned long long)(p.writeScrubs + p.readScrubs),
                    (unsigned long long)p.uncorrectable,
                    (unsigned long long)p.retiredLines,
                    p.effectiveCapacityFraction * 100.0, p.speedup,
                    p.lifetime.lifetimeYears);

    if (!statsOut.empty()) {
        StatsSnapshot report = aggregateSimStats(study);
        report.mergeSum(MetricsRegistry::global().snapshot());
        writeStatsFile(statsOut, report, parseStatsFormat(statsFormat));
        std::printf("stats written to %s\n", statsOut.c_str());
    }
    finishTrace(traceOut);
    return 0;
}

int
cmdWorkloads(ArgParser &parser)
{
    const bool json = parser.flag("--json");
    parser.rejectUnknown("workloads");

    if (json) {
        std::printf("%s\n", workloadsToJson().dump().c_str());
        return 0;
    }

    const WorkloadRegistry &reg = WorkloadRegistry::global();
    std::printf("%-10s %-10s %s\n", "kind", "suite", "description");
    for (const std::string &name : reg.kinds()) {
        const WorkloadKindDef &def = reg.kind(name);
        std::printf("%-10s %-10s %s\n", def.name.c_str(),
                    def.suite.c_str(), def.description.c_str());
        for (const WorkloadParamDef &p : def.params)
            std::printf("    %-12s = %-12s %s\n", p.key.c_str(),
                        p.defaultValue.c_str(), p.help.c_str());
    }
    std::printf(
        "\nParameterized kinds take spec strings like "
        "\"kv:skew=0.99,readRatio=0.95,keys=64M\";\n"
        "kinds with no listed parameters are fixed workloads.\n");
    return 0;
}

int
cmdStudies()
{
    std::printf("%s", StudyRegistry::global().helpText().c_str());
    return 0;
}

int
cmdStudy(ArgParser &parser)
{
    StudyRunOptions opts;
    opts.jobs = parser.u32("--jobs", 0);
    setProgressEnabled(parser.flag("--progress"));
    const std::string statsOut = parser.str("--stats-out", "");
    const std::string statsFormat = parser.str("--stats-format", "json");
    storeDirFlag(parser);
    const std::string traceOut = traceOutFlag(parser);
    parser.rejectUnknown("study");

    const StudyRequest req =
        buildStudyRequest(parser.positionals(), "study");
    const StudyReport report = runStudyRequest(req, opts);
    std::printf("%s\n", report.resultJson().c_str());

    if (!statsOut.empty()) {
        StatsSnapshot out = report.stats;
        out.mergeSum(MetricsRegistry::global().snapshot());
        writeStatsFile(statsOut, out, parseStatsFormat(statsFormat));
        std::fprintf(stderr, "stats written to %s\n", statsOut.c_str());
    }
    finishTrace(traceOut);
    return 0;
}

int
cmdServe(ArgParser &parser)
{
    ServeConfig cfg;
    cfg.socketPath = parser.str("--socket", "");
    cfg.queueDepth = parser.u32("--queue-depth", 16);
    cfg.workers = parser.u32("--workers", 0);
    cfg.execThreads = parser.u32("--exec-threads", 2);
    cfg.jobs = parser.u32("--jobs", 0);
    cfg.trace = parser.flag("--trace");
    cfg.traceOut = parser.str("--trace-out", "");
    cfg.heartbeatMs = parser.u32("--heartbeat-ms", 500);
    const double jobTimeoutMs = parser.num("--job-timeout-ms", -1.0);
    cfg.jobTimeoutMs = jobTimeoutMs < 0 ? -1 : int(jobTimeoutMs);
    cfg.chaosSpec = parser.str("--chaos-spec", "");
    cfg.resume = !parser.flag("--no-resume");
    if (!cfg.chaosSpec.empty())
        parseChaosSpec(cfg.chaosSpec); // fail fast on a bad spec
    storeDirFlag(parser);
    setProgressEnabled(parser.flag("--progress"));
    parser.rejectUnknown("serve");
    if (cfg.socketPath.empty())
        throw std::runtime_error("'serve' needs --socket PATH");
    std::fprintf(stderr,
                 "nvmcache serve: listening on %s (queue %u, "
                 "workers %u, exec threads %u)\n",
                 cfg.socketPath.c_str(), cfg.queueDepth, cfg.workers,
                 cfg.execThreads);
    return serveMain(cfg);
}

int
cmdStore(ArgParser &parser)
{
    const std::string dir = storeDirFlag(parser);
    const bool repair = parser.flag("--repair");
    const double maxBytes = parser.num("--max-bytes", -1.0);
    parser.rejectUnknown("store");
    if (dir.empty())
        throw std::runtime_error(
            "'store' needs --store-dir PATH (or NVMCACHE_STORE)");
    const std::vector<std::string> pos = parser.positionals();
    if (pos.empty())
        throw std::runtime_error(
            "'store' needs an action: ls, stats, verify, or gc");
    const std::string &action = pos[0];
    ResultStore store(dir);

    if (action == "ls") {
        for (const StoreScanEntry &e : store.scan())
            std::printf("%-7s %12llu %s%s\n", e.kind.c_str(),
                        (unsigned long long)e.payloadBytes,
                        e.path.c_str(), e.valid ? "" : "  [corrupt]");
        return 0;
    }
    if (action == "stats") {
        const StoreUsage usage = store.usage();
        const ResultStore::Counters c = store.cumulativeCounters();
        JsonValue v = JsonValue::makeObject();
        v.set("dir", JsonValue::makeString(dir));
        v.set("entries", JsonValue::makeNumber(double(usage.entries)));
        v.set("bytes", JsonValue::makeNumber(double(usage.bytes)));
        v.set("generation",
              JsonValue::makeNumber(double(store.generation())));
        v.set("hits", JsonValue::makeNumber(double(c.hits)));
        v.set("misses", JsonValue::makeNumber(double(c.misses)));
        v.set("writes", JsonValue::makeNumber(double(c.writes)));
        v.set("corrupt", JsonValue::makeNumber(double(c.corrupt)));
        std::printf("%s\n", v.dump().c_str());
        return 0;
    }
    if (action == "verify") {
        const StoreVerifyResult r = store.verify(repair);
        JsonValue v = JsonValue::makeObject();
        v.set("checked", JsonValue::makeNumber(double(r.checked)));
        v.set("corrupt", JsonValue::makeNumber(double(r.corrupt)));
        v.set("repaired", JsonValue::makeBool(repair));
        JsonValue paths = JsonValue::makeArray();
        for (const std::string &p : r.corruptPaths)
            paths.push(JsonValue::makeString(p));
        v.set("corruptPaths", std::move(paths));
        std::printf("%s\n", v.dump().c_str());
        // Unrepaired corruption is an actionable condition; repaired
        // (or clean) stores exit 0.
        return r.corrupt > 0 && !repair ? 1 : 0;
    }
    if (action == "gc") {
        if (maxBytes < 0)
            throw std::runtime_error(
                "'store gc' needs --max-bytes N (target size)");
        const StoreGcResult r = store.gc(std::uint64_t(maxBytes));
        JsonValue v = JsonValue::makeObject();
        v.set("evicted", JsonValue::makeNumber(double(r.evicted)));
        v.set("bytesEvicted",
              JsonValue::makeNumber(double(r.bytesEvicted)));
        v.set("bytesRemaining",
              JsonValue::makeNumber(double(r.bytesRemaining)));
        std::printf("%s\n", v.dump().c_str());
        return 0;
    }
    throw std::runtime_error("unknown store action '" + action +
                             "' (ls, stats, verify, gc)");
}

int
cmdClient(ArgParser &parser)
{
    const std::string socket = parser.str("--socket", "");
    const std::string op = parser.str("--op", "");
    const std::string id = parser.str("--id", "");
    const std::string traceId = parser.str("--trace-id", "");
    const bool resultOnly = parser.flag("--result-only");
    ClientConfig ccfg;
    const double timeoutMs = parser.num("--timeout-ms", -1.0);
    ccfg.timeoutMs = timeoutMs < 0 ? -1 : int(timeoutMs);
    ccfg.retries = parser.u32("--retries", 0);
    ccfg.deadlineMs = parser.num("--deadline-ms", 0.0);
    parser.rejectUnknown("client");
    if (socket.empty())
        throw std::runtime_error("'client' needs --socket PATH");
    if (ccfg.deadlineMs < 0)
        throw std::runtime_error(
            "--deadline-ms must be non-negative");

    JsonValue response;
    if (!op.empty()) {
        ServiceClient client(socket, ccfg);
        JsonValue req = JsonValue::makeObject();
        req.set("op", JsonValue::makeString(op));
        if (!id.empty())
            req.set("id", JsonValue::makeString(id));
        if (!traceId.empty())
            req.set("traceId", JsonValue::makeString(traceId));
        response = client.request(req);
    } else {
        // The retry path even at --retries 0: one code path, and a
        // run rejected with a retryAfterMs hint behaves identically
        // from the command line and from library callers.
        response = runWithRetry(
            socket, buildStudyRequest(parser.positionals(), "client"),
            ccfg, id);
    }

    if (resultOnly) {
        // The deterministic payload only — byte-identical to
        // `nvmcache study <kind> ...` run locally.
        const JsonValue *result = response.find("result");
        if (!result) {
            std::fprintf(stderr, "%s\n", response.dump().c_str());
            return 1;
        }
        std::printf("%s\n", result->dump().c_str());
    } else {
        std::printf("%s\n", response.dump().c_str());
    }
    return response.boolOr("ok", false) ? 0 : 1;
}

int
cmdHealth(ArgParser &parser)
{
    const std::string socket = parser.str("--socket", "");
    const bool probe = parser.flag("--probe");
    const double timeoutMs = parser.num("--timeout-ms", 2000.0);
    parser.rejectUnknown("health");
    if (socket.empty())
        throw std::runtime_error("'health' needs --socket PATH");

    ClientConfig ccfg;
    ccfg.timeoutMs = timeoutMs < 0 ? -1 : int(timeoutMs);
    JsonValue response;
    try {
        ServiceClient client(socket, ccfg);
        response = client.health();
    } catch (const std::exception &e) {
        // Probe mode is for scripts and CI gates: a daemon that
        // cannot answer is its own health state, not a crash.
        std::fprintf(stderr, "health: %s\n", e.what());
        return 3;
    }
    std::printf("%s\n", response.dump().c_str());
    if (!probe)
        return response.boolOr("ok", false) ? 0 : 1;

    const JsonValue *h = response.find("health");
    if (!h || !response.boolOr("ok", false))
        return 3;
    const std::string state = h->stringOr("state", "unknown");
    const double workers = h->numberOr("workers", 0.0);
    const double alive = h->numberOr("workersAlive", workers);
    const double quarantined = h->numberOr("workersQuarantined", 0.0);
    if (state == "draining")
        return 2;
    if (state != "ok" || alive < workers || quarantined > 0)
        return 1;
    return 0;
}

int
cmdChaos(ArgParser &parser)
{
    const std::string spec = parser.str("--spec", "");
    parser.rejectUnknown("chaos");
    if (spec.empty())
        throw std::runtime_error(
            "'chaos' needs --spec key=value[,key=value ..] (e.g. "
            "seed=7,kill=1,corrupt=2,drop=1,interval-ms=500)");
    // Pure function of the spec: printing it twice yields identical
    // bytes, which is exactly what the reproducibility gate checks.
    std::printf("%s\n",
                chaosScheduleToJson(parseChaosSpec(spec))
                    .dump()
                    .c_str());
    return 0;
}

/** Throws when @p cmd got fewer positional tokens than it needs. */
void
requireArgs(const std::string &cmd,
            const std::vector<std::string> &args, std::size_t need)
{
    if (args.size() < need)
        throw std::runtime_error(
            "'" + cmd + "' needs at least " + std::to_string(need) +
            (need == 1 ? " argument" : " arguments") +
            " (run nvmcache with no arguments for usage)");
}

int
run(const std::string &cmd, const std::vector<std::string> &args)
{
    ArgParser parser(args);
    if (cmd == "models")
        return cmdModels();
    if (cmd == "llc")
        return cmdLlc(parser);
    if (cmd == "complete") {
        requireArgs(cmd, args, 1);
        return cmdComplete(args[0]);
    }
    if (cmd == "estimate") {
        requireArgs(cmd, args, 1);
        return cmdEstimate(parser.positionals());
    }
    if (cmd == "simulate")
        return cmdSimulate(parser);
    if (cmd == "characterize")
        return cmdCharacterize(parser);
    if (cmd == "export-trace")
        return cmdExportTrace(parser);
    if (cmd == "workloads")
        return cmdWorkloads(parser);
    if (cmd == "reliability")
        return cmdReliability(parser);
    if (cmd == "studies")
        return cmdStudies();
    if (cmd == "study")
        return cmdStudy(parser);
    if (cmd == "serve")
        return cmdServe(parser);
    if (cmd == "store")
        return cmdStore(parser);
    if (cmd == "client")
        return cmdClient(parser);
    if (cmd == "health")
        return cmdHealth(parser);
    if (cmd == "chaos")
        return cmdChaos(parser);
    if (cmd == "help" || cmd == "--help" || cmd == "-h") {
        usage(stdout);
        std::printf("\n%s",
                    StudyRegistry::global().helpText().c_str());
        return 0;
    }
    throw std::runtime_error("unknown command '" + cmd + "'");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(stderr);
    const std::string cmd = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);

    // Every library-level validation failure below this point either
    // throws or fatal()s; the throws surface here as one diagnostic
    // line and a nonzero exit instead of std::terminate.
    try {
        return run(cmd, args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "nvmcache: error: %s\n", e.what());
        return 1;
    }
}
