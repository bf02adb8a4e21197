#include "core/study_registry.hh"

#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "nvm/cell.hh"
#include "nvsim/published.hh"
#include "sim/faults.hh"
#include "util/args.hh"
#include "util/trace_events.hh"
#include "workload/suite.hh"
#include "workload/workload_registry.hh"

namespace nvmcache {

namespace {

/** Canonical (shortest round-trip) numeric text, e.g. "0.25", "1". */
std::string
numText(double v)
{
    return JsonValue::makeNumber(v).dump();
}

std::string
joinNums(const std::vector<double> &v)
{
    std::string out;
    for (std::size_t i = 0; i < v.size(); ++i)
        out += (i ? "," : "") + numText(v[i]);
    return out;
}

std::string
joinU32s(const std::vector<std::uint32_t> &v)
{
    std::string out;
    for (std::size_t i = 0; i < v.size(); ++i)
        out += (i ? "," : "") + std::to_string(v[i]);
    return out;
}

std::string
joinStrs(const std::vector<std::string> &v)
{
    std::string out;
    for (std::size_t i = 0; i < v.size(); ++i)
        out += (i ? "," : "") + v[i];
    return out;
}

/** The parse diagnostic for a bad @p token of parameter @p key. */
std::runtime_error
badValue(const std::string &key, const std::string &token,
         const std::string &why)
{
    return std::runtime_error("bad value '" + token + "' for " + key +
                              " (" + why + ")");
}

/**
 * Resolve @p token through the workload registry now, so a bad kind
 * or parameter throws at parse time instead of aborting mid-study.
 */
void
checkWorkload(const std::string &key, const std::string &token)
{
    try {
        WorkloadRegistry::global().resolve(token);
    } catch (const std::exception &e) {
        throw badValue(key, token, e.what());
    }
}

/**
 * Workload spec strings carry commas inside their parameter sections
 * ("kv:skew=1.2,keys=64M"), so lists of them are ';'-separated.
 * Every entry is resolved (checkWorkload).
 */
std::vector<std::string>
parseWorkloadList(const std::string &key, const std::string &value)
{
    std::vector<std::string> out;
    std::istringstream in(value);
    std::string tok;
    while (std::getline(in, tok, ';'))
        if (!tok.empty()) {
            checkWorkload(key, tok);
            out.push_back(tok);
        }
    return out;
}

std::string
joinWorkloadList(const std::vector<std::string> &v)
{
    std::string out;
    for (std::size_t i = 0; i < v.size(); ++i)
        out += (i ? ";" : "") + v[i];
    return out;
}

bool
parseBoolParam(const std::string &key, const std::string &value)
{
    if (value == "1" || value == "true")
        return true;
    if (value == "0" || value == "false")
        return false;
    throw badValue(key, value, "expected 0/1/true/false");
}

CapacityMode
parseModeParam(const std::string &key, const std::string &value)
{
    if (value == "fixed-capacity")
        return CapacityMode::FixedCapacity;
    if (value == "fixed-area")
        return CapacityMode::FixedArea;
    throw badValue(key, value, "expected fixed-capacity or fixed-area");
}

std::vector<CapacityMode>
parseModeList(const std::string &key, const std::string &value)
{
    std::vector<CapacityMode> modes;
    for (const std::string &tok : ArgParser::parseStrList(value))
        modes.push_back(parseModeParam(key, tok));
    return modes;
}

std::vector<std::uint32_t>
parseU32List(const std::string &key, const std::string &value)
{
    std::vector<std::uint32_t> out;
    for (const std::string &tok : ArgParser::parseStrList(value))
        out.push_back(ArgParser::parseU32(key, tok));
    return out;
}

/** A trace scale the study runs accept (validTraceScale). */
double
parseScale(const std::string &key, const std::string &value)
{
    const double scale = ArgParser::parseNum(key, value);
    if (!validTraceScale(scale))
        throw badValue(key, value, "must be in (0, 1]");
    return scale;
}

/** Throw naming @p key unless @p tech is a published model of @p mode. */
void
checkTech(const std::string &key, const std::string &tech,
          CapacityMode mode)
{
    if (findPublishedLlcModel(tech, mode))
        return;
    std::string valid;
    for (const LlcModel &m : publishedLlcModels(mode))
        valid += (valid.empty() ? "" : ", ") + m.name;
    throw badValue(key, tech, "valid: " + valid);
}

/**
 * One fault knob, judged by the FaultInjector's own bounds
 * (faultConfigError) once stored into otherwise-default knobs.
 */
template <typename T>
T
parseFaultKnob(const std::string &key, const std::string &token,
               T FaultConfig::*knob)
{
    FaultConfig knobs;
    if constexpr (std::is_same_v<T, double>)
        knobs.*knob = ArgParser::parseNum(key, token);
    else
        knobs.*knob = ArgParser::parseU32(key, token);
    if (const char *why = faultConfigError(knobs))
        throw badValue(key, token, why);
    return knobs.*knob;
}

/** A comma-separated list of parseFaultKnob values. */
std::vector<double>
parseFaultKnobList(const std::string &key, const std::string &value,
                   double FaultConfig::*knob)
{
    std::vector<double> out;
    for (const std::string &tok : ArgParser::parseStrList(value))
        out.push_back(parseFaultKnob(key, tok, knob));
    return out;
}

/**
 * One compare-study sub-request — the worker-shard unit of every
 * sweep-shaped study. Its two runs (the technology and the SRAM
 * baseline at the same thread count) land in the shared persistent
 * store under the same keys the parent study will look up.
 */
StudyRequest
compareReq(const std::string &workload, const std::string &tech,
           CapacityMode mode, std::uint32_t threads, double scale)
{
    StudyRequest req;
    req.kind = "compare";
    req.params = {{"workload", workload},
                  {"tech", tech},
                  {"mode", toString(mode)},
                  {"threads", std::to_string(threads)},
                  {"scale", numText(scale)}};
    return req;
}

// --- deterministic JSON builders ------------------------------------

/** The per-run numbers every study result carries. */
JsonValue
simStatsToJson(const SimStats &s)
{
    JsonValue v = JsonValue::makeObject();
    v.set("seconds", JsonValue::makeNumber(s.seconds));
    v.set("instructions", JsonValue::makeNumber(double(s.instructions)));
    v.set("llcEnergy", JsonValue::makeNumber(s.llcEnergy()));
    v.set("llcLeakageEnergy", JsonValue::makeNumber(s.llcLeakageEnergy));
    v.set("llcDynamicEnergy", JsonValue::makeNumber(s.llcDynamicEnergy));
    v.set("llcMpki", JsonValue::makeNumber(s.llcMpki()));
    v.set("dramReads", JsonValue::makeNumber(double(s.dramReads)));
    v.set("dramWrites", JsonValue::makeNumber(double(s.dramWrites)));
    return v;
}

JsonValue
runResultToJson(const RunResult &r)
{
    JsonValue v = JsonValue::makeObject();
    v.set("tech", JsonValue::makeString(r.tech));
    v.set("class", JsonValue::makeString(toString(r.klass)));
    v.set("speedup", JsonValue::makeNumber(r.speedup));
    v.set("normEnergy", JsonValue::makeNumber(r.normEnergy));
    v.set("normEd2p", JsonValue::makeNumber(r.normEd2p));
    v.set("stats", simStatsToJson(r.stats));
    return v;
}

JsonValue
sweepToJson(const TechSweep &sweep)
{
    JsonValue v = JsonValue::makeObject();
    v.set("workload", JsonValue::makeString(sweep.workload));
    v.set("cores", JsonValue::makeNumber(double(sweep.cores)));
    JsonValue results = JsonValue::makeArray();
    for (const RunResult &r : sweep.results)
        results.push(runResultToJson(r));
    v.set("results", std::move(results));
    return v;
}

JsonValue
numArray(const std::vector<double> &v)
{
    JsonValue a = JsonValue::makeArray();
    for (double x : v)
        a.push(JsonValue::makeNumber(x));
    return a;
}

JsonValue
strArray(const std::vector<std::string> &v)
{
    JsonValue a = JsonValue::makeArray();
    for (const std::string &s : v)
        a.push(JsonValue::makeString(s));
    return a;
}

const char *
outcomeName(OutcomeKind k)
{
    switch (k) {
      case OutcomeKind::Normalized:
        return "normalized";
      case OutcomeKind::Absolute:
        return "absolute";
      case OutcomeKind::EnergyDelay:
        return "energy-delay";
    }
    return "?";
}

/**
 * The correlation-shaped report body shared by the correlation study
 * and the server suite: features per workload, then per-technology
 * outcome columns and their feature correlations.
 */
void
fillCorrelationReport(JsonValue &result, const CorrelationStudy &study)
{
    result.set("workloads", strArray(study.workloads));
    JsonValue features = JsonValue::makeArray();
    for (const WorkloadFeatures &f : study.features)
        features.push(numArray(f.featureVector()));
    result.set("features", std::move(features));
    result.set("featureNames",
               strArray(WorkloadFeatures::featureNames()));
    JsonValue perTech = JsonValue::makeArray();
    for (const TechCorrelation &tc : study.perTech) {
        JsonValue v = JsonValue::makeObject();
        v.set("tech", JsonValue::makeString(tc.tech));
        v.set("mode", JsonValue::makeString(toString(tc.mode)));
        v.set("outcomes",
              JsonValue::makeString(outcomeName(tc.outcomes)));
        v.set("energy", numArray(tc.dataset.energy));
        v.set("speedup", numArray(tc.dataset.speedup));
        v.set("energyCorr", numArray(tc.result.energyCorr));
        v.set("speedupCorr", numArray(tc.result.speedupCorr));
        perTech.push(std::move(v));
    }
    result.set("perTech", std::move(perTech));
}

// --- the five built-in studies --------------------------------------

class FigureStudyDef : public Study
{
  public:
    std::string name() const override { return "figure"; }

    std::string
    description() const override
    {
        return "Figures 1/2: all workloads x all Table III "
               "technologies for one capacity mode";
    }

    ParamMap
    defaultConfig() const override
    {
        return {{"mode", toString(cfg_.mode)},
                {"scale", numText(cfg_.traceScale)}};
    }

    void
    run(const ExperimentRunner &runner) override
    {
        study_ = runFigureStudy(cfg_, runner);
    }

    std::vector<StudyRequest>
    shardRequests() const override
    {
        std::vector<StudyRequest> reqs;
        for (const BenchmarkSpec &spec : benchmarkSuite())
            for (const LlcModel &llc : publishedLlcModels(cfg_.mode)) {
                if (llc.klass == NvmClass::SRAM)
                    continue; // every compare carries the baseline
                reqs.push_back(compareReq(spec.name, llc.name,
                                          cfg_.mode, 0,
                                          cfg_.traceScale));
            }
        return reqs;
    }

    StudyReport
    report() const override
    {
        StudyReport rep;
        rep.result = JsonValue::makeObject();
        rep.result.set("study", JsonValue::makeString(name()));
        rep.result.set("mode",
                       JsonValue::makeString(toString(study_.mode)));
        rep.result.set("scale",
                       JsonValue::makeNumber(cfg_.traceScale));
        JsonValue st = JsonValue::makeArray();
        for (const TechSweep &sweep : study_.singleThreaded)
            st.push(sweepToJson(sweep));
        rep.result.set("singleThreaded", std::move(st));
        JsonValue mt = JsonValue::makeArray();
        for (const TechSweep &sweep : study_.multiThreaded)
            mt.push(sweepToJson(sweep));
        rep.result.set("multiThreaded", std::move(mt));
        rep.stats = aggregateSimStats(study_);
        return rep;
    }

  protected:
    void
    applyParam(const std::string &key,
               const std::string &value) override
    {
        if (key == "mode")
            cfg_.mode = parseModeParam(key, value);
        else if (key == "scale")
            cfg_.traceScale = parseScale(key, value);
    }

  private:
    FigureConfig cfg_;
    FigureStudy study_;
};

class CoreSweepStudyDef : public Study
{
  public:
    std::string name() const override { return "core-sweep"; }

    std::string
    description() const override
    {
        return "SV-C sensitivity: fixed-area LLCs over core counts, "
               "baseline 1-core SRAM";
    }

    ParamMap
    defaultConfig() const override
    {
        return {{"workloads", joinStrs(cfg_.workloads)},
                {"techs", joinStrs(cfg_.techs)},
                {"cores", joinU32s(cfg_.coreCounts)}};
    }

    void
    run(const ExperimentRunner &runner) override
    {
        study_ = runCoreSweep(cfg_, runner);
    }

    std::vector<StudyRequest>
    shardRequests() const override
    {
        // Mirrors runCoreSweep's grid: fixed-area models, the
        // single-core SRAM baseline per workload, and the
        // multi-threading guard.
        const CapacityMode mode = CapacityMode::FixedArea;
        std::vector<StudyRequest> reqs;
        for (const std::string &wname : cfg_.workloads) {
            const BenchmarkSpec &spec = benchmark(wname);
            reqs.push_back(compareReq(wname, "SRAM", mode, 1, 1.0));
            for (const std::string &tname : cfg_.techs)
                for (std::uint32_t cores : cfg_.coreCounts) {
                    if (cores > 1 && !spec.multiThreaded)
                        continue;
                    reqs.push_back(
                        compareReq(wname, tname, mode, cores, 1.0));
                }
        }
        return reqs;
    }

    StudyReport
    report() const override
    {
        StudyReport rep;
        rep.result = JsonValue::makeObject();
        rep.result.set("study", JsonValue::makeString(name()));
        rep.result.set("workloads", strArray(study_.workloads));
        rep.result.set("techs", strArray(study_.techs));
        JsonValue points = JsonValue::makeArray();
        for (const CoreSweepPoint &p : study_.points) {
            JsonValue v = JsonValue::makeObject();
            v.set("workload", JsonValue::makeString(p.workload));
            v.set("tech", JsonValue::makeString(p.tech));
            v.set("cores", JsonValue::makeNumber(double(p.cores)));
            v.set("speedupVsBaseline",
                  JsonValue::makeNumber(p.speedupVsBaseline));
            v.set("normEnergy", JsonValue::makeNumber(p.normEnergy));
            v.set("stats", simStatsToJson(p.stats));
            points.push(std::move(v));
        }
        rep.result.set("points", std::move(points));
        rep.stats = aggregateSimStats(study_);
        return rep;
    }

  protected:
    void
    applyParam(const std::string &key,
               const std::string &value) override
    {
        if (key == "workloads") {
            cfg_.workloads = ArgParser::parseStrList(value);
            for (const std::string &w : cfg_.workloads)
                checkWorkload(key, w);
        } else if (key == "techs") {
            cfg_.techs = ArgParser::parseStrList(value);
            for (const std::string &t : cfg_.techs)
                checkTech(key, t, CapacityMode::FixedArea);
        } else if (key == "cores")
            cfg_.coreCounts = parseU32List(key, value);
    }

  private:
    CoreSweepConfig cfg_;
    CoreSweepStudy study_;
};

class CorrelationStudyDef : public Study
{
  public:
    std::string name() const override { return "correlation"; }

    std::string
    description() const override
    {
        return "Fig 3/4 framework: feature-vs-outcome correlation "
               "per technology and mode";
    }

    ParamMap
    defaultConfig() const override
    {
        std::vector<std::string> modes;
        for (CapacityMode m : cfg_.modes)
            modes.push_back(toString(m));
        return {{"ai", cfg_.aiOnly ? "1" : "0"},
                {"techs", joinStrs(cfg_.techs)},
                {"modes", joinStrs(modes)},
                {"scale", numText(cfg_.traceScale)},
                {"workloads", joinWorkloadList(cfg_.workloads)}};
    }

    void
    run(const ExperimentRunner &runner) override
    {
        study_ = runCorrelationStudy(cfg_, runner);
    }

    std::vector<StudyRequest>
    shardRequests() const override
    {
        // Only the simulation grid is sharded. The front
        // characterizes each workload itself, once: it reads the
        // recorded traces the shards persisted, and afterwards its
        // feature store (or the store's feat records) answers every
        // repeat without touching a trace.
        std::vector<std::string> names = cfg_.workloads;
        if (names.empty())
            for (const BenchmarkSpec *spec :
                 cfg_.aiOnly ? aiBenchmarks()
                             : characterizedBenchmarks())
                names.push_back(spec->name);
        std::vector<StudyRequest> reqs;
        for (CapacityMode mode : cfg_.modes)
            for (const std::string &wname : names)
                for (const LlcModel &llc : publishedLlcModels(mode)) {
                    if (llc.klass == NvmClass::SRAM)
                        continue;
                    reqs.push_back(compareReq(wname, llc.name, mode,
                                              0, cfg_.traceScale));
                }
        return reqs;
    }

    StudyReport
    report() const override
    {
        StudyReport rep;
        rep.result = JsonValue::makeObject();
        rep.result.set("study", JsonValue::makeString(name()));
        rep.result.set("ai", JsonValue::makeBool(cfg_.aiOnly));
        fillCorrelationReport(rep.result, study_);
        // Correlation datasets keep no raw SimStats, so the stats
        // report is intentionally empty (engine metrics still flow
        // through the global registry).
        return rep;
    }

  protected:
    void
    applyParam(const std::string &key,
               const std::string &value) override
    {
        if (key == "ai")
            cfg_.aiOnly = parseBoolParam(key, value);
        else if (key == "techs")
            cfg_.techs = ArgParser::parseStrList(value);
        else if (key == "modes")
            cfg_.modes = parseModeList(key, value);
        else if (key == "scale")
            cfg_.traceScale = parseScale(key, value);
        else if (key == "workloads") {
            cfg_.workloads = parseWorkloadList(key, value);
            // Empty selects the built-in suite.
            if (cfg_.workloads.size() == 1)
                throw badValue(key, value,
                               "a correlation needs at least two "
                               "workloads");
        }
    }

    void
    validate() const override
    {
        for (CapacityMode mode : cfg_.modes)
            for (const std::string &tech : cfg_.techs)
                checkTech("techs", tech, mode);
    }

  private:
    CorrelationConfig cfg_;
    CorrelationStudy study_;
};

class ServerSuiteStudyDef : public Study
{
  public:
    std::string name() const override { return "server-suite"; }

    std::string
    description() const override
    {
        return "Canned server-traffic grid (kv/tenants over "
               "read-ratio x skew x tenant-count) correlated "
               "against ED^2P over all published models";
    }

    ParamMap
    defaultConfig() const override
    {
        return {{"tenants", joinU32s(cfg_.tenantCounts)},
                {"readRatios", joinNums(cfg_.readRatios)},
                {"skews", joinNums(cfg_.skews)},
                {"mode", toString(cfg_.mode)},
                {"keys", cfg_.keys},
                {"ops", cfg_.ops},
                {"warm", cfg_.warm}};
    }

    void
    run(const ExperimentRunner &runner) override
    {
        study_ = runServerSuite(cfg_, runner);
    }

    std::vector<StudyRequest>
    shardRequests() const override
    {
        std::vector<StudyRequest> reqs;
        for (const std::string &wname : serverSuiteWorkloads(cfg_))
            for (const LlcModel &llc : publishedLlcModels(cfg_.mode)) {
                if (llc.klass == NvmClass::SRAM)
                    continue; // every compare carries the baseline
                reqs.push_back(
                    compareReq(wname, llc.name, cfg_.mode, 0, 1.0));
            }
        return reqs;
    }

    StudyReport
    report() const override
    {
        StudyReport rep;
        rep.result = JsonValue::makeObject();
        rep.result.set("study", JsonValue::makeString(name()));
        rep.result.set("mode",
                       JsonValue::makeString(toString(cfg_.mode)));
        fillCorrelationReport(rep.result, study_);
        return rep;
    }

  protected:
    void
    applyParam(const std::string &key,
               const std::string &value) override
    {
        if (key == "tenants")
            cfg_.tenantCounts = parseU32List(key, value);
        else if (key == "readRatios")
            cfg_.readRatios = ArgParser::parseNumList(key, value);
        else if (key == "skews")
            cfg_.skews = ArgParser::parseNumList(key, value);
        else if (key == "mode")
            cfg_.mode = parseModeParam(key, value);
        else if (key == "keys")
            cfg_.keys = value;
        else if (key == "ops")
            cfg_.ops = value;
        else if (key == "warm")
            cfg_.warm = value;
    }

    void
    validate() const override
    {
        // Catch bad grid values (negative skews, malformed counts)
        // now, with the daemon's parse-error path, not mid-run.
        const std::vector<std::string> grid = serverSuiteWorkloads(cfg_);
        for (const std::string &w : grid)
            WorkloadRegistry::global().resolve(w);
        if (grid.size() < 2)
            throw std::runtime_error(
                "bad grid tenants=" + joinU32s(cfg_.tenantCounts) +
                " x readRatios=" + joinNums(cfg_.readRatios) +
                " x skews=" + joinNums(cfg_.skews) + " (" +
                std::to_string(grid.size()) +
                " workload; a correlation needs at least two)");
    }

  private:
    ServerSuiteConfig cfg_;
    CorrelationStudy study_;
};

class ReliabilityStudyDef : public Study
{
  public:
    std::string name() const override { return "reliability"; }

    std::string
    description() const override
    {
        return "Fault-injection sweep: BER x wear-leveling grid over "
               "every technology";
    }

    ParamMap
    defaultConfig() const override
    {
        return {{"workload", cfg_.workload},
                {"mode", toString(cfg_.mode)},
                {"threads", std::to_string(cfg_.threads)},
                {"scale", numText(cfg_.traceScale)},
                {"ber-scale", joinNums(cfg_.berScales)},
                {"wear-leveling", joinNums(cfg_.wearLevelingFactors)},
                {"wear-scale", numText(cfg_.wearScale)},
                {"max-retries", std::to_string(cfg_.maxWriteRetries)}};
    }

    void
    run(const ExperimentRunner &runner) override
    {
        study_ = runReliabilityStudy(cfg_, runner);
    }

    std::vector<StudyRequest>
    shardRequests() const override
    {
        // One single-point reliability grid per (BER, wear-leveling)
        // setting: a compare carries no fault settings, so the
        // sub-request must be a reliability study itself.
        std::vector<StudyRequest> reqs;
        for (double ber : cfg_.berScales)
            for (double wl : cfg_.wearLevelingFactors) {
                StudyRequest req;
                req.kind = name();
                req.params = {
                    {"workload", cfg_.workload},
                    {"mode", toString(cfg_.mode)},
                    {"threads", std::to_string(cfg_.threads)},
                    {"scale", numText(cfg_.traceScale)},
                    {"ber-scale", numText(ber)},
                    {"wear-leveling", numText(wl)},
                    {"wear-scale", numText(cfg_.wearScale)},
                    {"max-retries",
                     std::to_string(cfg_.maxWriteRetries)}};
                reqs.push_back(std::move(req));
            }
        return reqs;
    }

    StudyReport
    report() const override
    {
        StudyReport rep;
        rep.result = JsonValue::makeObject();
        rep.result.set("study", JsonValue::makeString(name()));
        rep.result.set("workload",
                       JsonValue::makeString(cfg_.workload));
        rep.result.set("mode",
                       JsonValue::makeString(toString(cfg_.mode)));
        JsonValue points = JsonValue::makeArray();
        for (const ReliabilityPoint &p : study_.points) {
            JsonValue v = JsonValue::makeObject();
            v.set("tech", JsonValue::makeString(p.tech));
            v.set("berScale", JsonValue::makeNumber(p.berScale));
            v.set("wearLeveling",
                  JsonValue::makeNumber(p.wearLevelingFactor));
            v.set("writeRetries",
                  JsonValue::makeNumber(double(p.writeRetries)));
            v.set("scrubs",
                  JsonValue::makeNumber(
                      double(p.writeScrubs + p.readScrubs)));
            v.set("uncorrectable",
                  JsonValue::makeNumber(double(p.uncorrectable)));
            v.set("retiredLines",
                  JsonValue::makeNumber(double(p.retiredLines)));
            v.set("effectiveCapacityFraction",
                  JsonValue::makeNumber(p.effectiveCapacityFraction));
            v.set("speedup", JsonValue::makeNumber(p.speedup));
            v.set("normEnergy", JsonValue::makeNumber(p.normEnergy));
            v.set("lifetimeYears",
                  JsonValue::makeNumber(p.lifetime.lifetimeYears));
            v.set("stats", simStatsToJson(p.stats));
            points.push(std::move(v));
        }
        rep.result.set("points", std::move(points));
        rep.stats = aggregateSimStats(study_);
        return rep;
    }

  protected:
    void
    applyParam(const std::string &key,
               const std::string &value) override
    {
        if (key == "workload") {
            checkWorkload(key, value);
            cfg_.workload = value;
        } else if (key == "mode")
            cfg_.mode = parseModeParam(key, value);
        else if (key == "threads")
            cfg_.threads = ArgParser::parseU32(key, value);
        else if (key == "scale")
            cfg_.traceScale = parseScale(key, value);
        else if (key == "ber-scale")
            cfg_.berScales =
                parseFaultKnobList(key, value, &FaultConfig::berScale);
        else if (key == "wear-leveling")
            cfg_.wearLevelingFactors = parseFaultKnobList(
                key, value, &FaultConfig::wearLevelingFactor);
        else if (key == "wear-scale")
            cfg_.wearScale =
                parseFaultKnob(key, value, &FaultConfig::wearScale);
        else if (key == "max-retries")
            cfg_.maxWriteRetries = parseFaultKnob(
                key, value, &FaultConfig::maxWriteRetries);
    }

  private:
    ReliabilityConfig cfg_;
    ReliabilityStudy study_;
};

class CompareStudyDef : public Study
{
  public:
    std::string name() const override { return "compare"; }

    std::string
    description() const override
    {
        return "One workload on one technology vs the SRAM baseline "
               "(the `simulate` core)";
    }

    ParamMap
    defaultConfig() const override
    {
        return {{"workload", cfg_.workload},
                {"tech", cfg_.tech},
                {"mode", toString(cfg_.mode)},
                {"threads", std::to_string(cfg_.threads)},
                {"scale", numText(cfg_.traceScale)}};
    }

    void
    run(const ExperimentRunner &runner) override
    {
        result_ = runCompare(cfg_, runner);
    }

    std::vector<StudyRequest>
    shardRequests() const override
    {
        // A compare is already the shard unit; its singleton lets a
        // worker do the simulating while the front replays the
        // result from the warmed store.
        return {compareReq(cfg_.workload, cfg_.tech, cfg_.mode,
                           cfg_.threads, cfg_.traceScale)};
    }

    StudyReport
    report() const override
    {
        StudyReport rep;
        rep.result = JsonValue::makeObject();
        rep.result.set("study", JsonValue::makeString(name()));
        rep.result.set("workload",
                       JsonValue::makeString(cfg_.workload));
        rep.result.set("tech", JsonValue::makeString(cfg_.tech));
        rep.result.set("mode",
                       JsonValue::makeString(toString(cfg_.mode)));
        rep.result.set("speedup",
                       JsonValue::makeNumber(result_.speedup));
        rep.result.set("normEnergy",
                       JsonValue::makeNumber(result_.normEnergy));
        rep.result.set("normEd2p",
                       JsonValue::makeNumber(result_.normEd2p));
        rep.result.set("nvm", simStatsToJson(result_.nvm));
        rep.result.set("sram", simStatsToJson(result_.sram));
        rep.stats = result_.nvm.detail;
        rep.stats.mergeSum(
            result_.sram.detail.withPrefix("baseline"));
        return rep;
    }

  protected:
    void
    applyParam(const std::string &key,
               const std::string &value) override
    {
        if (key == "workload") {
            checkWorkload(key, value);
            cfg_.workload = value;
        } else if (key == "tech")
            cfg_.tech = value;
        else if (key == "mode")
            cfg_.mode = parseModeParam(key, value);
        else if (key == "threads")
            cfg_.threads = ArgParser::parseU32(key, value);
        else if (key == "scale")
            cfg_.traceScale = parseScale(key, value);
    }

    void
    validate() const override
    {
        checkTech("tech", cfg_.tech, cfg_.mode);
    }

  private:
    CompareConfig cfg_;
    CompareResult result_;
};

} // namespace

std::string
StudyRequest::canonicalKey() const
{
    std::string key = kind;
    for (const auto &[k, v] : params) {
        key += '\0';
        key += k;
        key += '=';
        key += v;
    }
    return key;
}

JsonValue
StudyRequest::toJson() const
{
    JsonValue v = JsonValue::makeObject();
    v.set("study", JsonValue::makeString(kind));
    JsonValue p = JsonValue::makeObject();
    for (const auto &[k, value] : params)
        p.set(k, JsonValue::makeString(value));
    v.set("params", std::move(p));
    return v;
}

StudyRequest
StudyRequest::fromJson(const JsonValue &v)
{
    StudyRequest req;
    req.kind = v.at("study").asString();
    if (const JsonValue *params = v.find("params")) {
        if (!params->isObject())
            throw std::runtime_error(
                "study request: 'params' must be an object");
        for (const auto &[key, value] : params->members) {
            // Accept numbers/bools too: clients writing {"scale":0.25}
            // mean the same thing as {"scale":"0.25"}.
            if (value.isString())
                req.params[key] = value.string;
            else if (value.isNumber() || value.isBool())
                req.params[key] = value.dump();
            else
                throw std::runtime_error(
                    "study request: parameter '" + key +
                    "' must be a string, number, or bool");
        }
    }
    return req;
}

std::vector<StudyRequest>
Study::shardRequests() const
{
    return {};
}

void
Study::parse(const ParamMap &params)
{
    const ParamMap defaults = defaultConfig();
    for (const auto &[key, value] : params) {
        if (!defaults.count(key)) {
            std::string valid;
            for (const auto &[k, v] : defaults)
                valid += (valid.empty() ? "" : ", ") + k;
            throw std::runtime_error("study '" + name() +
                                     "': unknown parameter '" + key +
                                     "' (valid: " + valid + ")");
        }
        applyParam(key, value);
    }
    validate();
}

void
StudyRegistry::add(const std::string &name, Factory factory)
{
    factories_[name] = std::move(factory);
}

std::unique_ptr<Study>
StudyRegistry::create(const std::string &name) const
{
    auto it = factories_.find(name);
    if (it == factories_.end()) {
        std::string valid;
        for (const auto &[k, f] : factories_)
            valid += (valid.empty() ? "" : ", ") + k;
        throw std::runtime_error("unknown study '" + name +
                                 "' (valid: " + valid + ")");
    }
    return it->second();
}

bool
StudyRegistry::contains(const std::string &name) const
{
    return factories_.count(name) != 0;
}

std::vector<std::string>
StudyRegistry::names() const
{
    std::vector<std::string> out;
    for (const auto &[name, factory] : factories_)
        out.push_back(name);
    return out;
}

std::string
StudyRegistry::helpText() const
{
    std::string out;
    for (const auto &[name, factory] : factories_) {
        std::unique_ptr<Study> study = factory();
        out += "  " + name + "\n      " + study->description() + "\n";
        for (const auto &[key, value] : study->defaultConfig())
            out += "      " + key + "=" +
                   (value.empty() ? "\"\"" : value) + "\n";
    }
    return out;
}

const StudyRegistry &
StudyRegistry::global()
{
    static const StudyRegistry registry = [] {
        StudyRegistry r;
        r.add("figure",
              [] { return std::make_unique<FigureStudyDef>(); });
        r.add("core-sweep",
              [] { return std::make_unique<CoreSweepStudyDef>(); });
        r.add("correlation",
              [] { return std::make_unique<CorrelationStudyDef>(); });
        r.add("reliability",
              [] { return std::make_unique<ReliabilityStudyDef>(); });
        r.add("server-suite",
              [] { return std::make_unique<ServerSuiteStudyDef>(); });
        r.add("compare",
              [] { return std::make_unique<CompareStudyDef>(); });
        return r;
    }();
    return registry;
}

StudyReport
runStudy(Study &study, const StudyRunOptions &opts)
{
    ExperimentRunner runner =
        opts.pool ? opts.pool->acquire() : ExperimentRunner();
    runner.setJobs(opts.jobs);
    TraceScope scope(
        TraceContext::current().child("study/" + study.name()));
    {
        Phase phase("study.run", "study", TraceContext::current().path);
        study.run(runner);
    }
    Phase phase("study.report", "study",
                TraceContext::current().path + "/report");
    return study.report();
}

StudyReport
runStudyRequest(const StudyRequest &req, const StudyRunOptions &opts)
{
    std::unique_ptr<Study> study =
        StudyRegistry::global().create(req.kind);
    study->parse(req.params);
    return runStudy(*study, opts);
}

} // namespace nvmcache
