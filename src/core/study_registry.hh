/**
 * @file
 * Uniform Study API over the paper's evaluation studies.
 *
 * Every study in the tree — the Figure 1/2 sweeps, the §V-C core
 * sweep, the Fig 3/4 correlation framework, the fault-injection
 * reliability grid, and the one-workload compare (the `simulate`
 * subcommand's core) — is exposed behind one interface:
 *
 *   StudyRequest (kind + parameter map)
 *     -> StudyRegistry lookup
 *     -> Study::parse(params)   typed validation, named diagnostics
 *     -> Study::run(runner)     executes on a shared ExperimentRunner
 *     -> Study::report()        deterministic JSON + aggregated stats
 *
 * The same dispatch path serves the CLI subcommands (`nvmcache
 * study`), the persistent evaluation daemon (`nvmcache serve`), and
 * the `nvmcache client` subcommand, so a study result returned over
 * the wire is byte-identical to the one printed locally: report()
 * carries only deterministic simulation outputs (JsonValue::dump is
 * canonical), never wall-clock or host state.
 */

#ifndef NVMCACHE_CORE_STUDY_REGISTRY_HH
#define NVMCACHE_CORE_STUDY_REGISTRY_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/study.hh"
#include "util/json.hh"
#include "util/metrics.hh"

namespace nvmcache {

/** String-typed study parameters ("mode" -> "fixed-capacity"). */
using ParamMap = std::map<std::string, std::string>;

/** One dispatchable study invocation: kind + parameter overrides. */
struct StudyRequest
{
    std::string kind;
    ParamMap params;

    /**
     * Canonical identity: kind plus the sorted parameter map. Two
     * requests with equal keys produce byte-identical reports, which
     * is what the service's request coalescing relies on.
     */
    std::string canonicalKey() const;

    JsonValue toJson() const;
    /** Throws std::runtime_error naming the defect. */
    static StudyRequest fromJson(const JsonValue &v);
};

/** Everything a finished study hands back. */
struct StudyReport
{
    /**
     * Deterministic result payload: depends only on the study
     * configuration, never on timing, concurrency, or memo state.
     */
    JsonValue result;
    /** Aggregated per-run "sim.*" detail (empty for correlation). */
    StatsSnapshot stats;

    std::string resultJson() const { return result.dump(); }
};

/**
 * One runnable study. Lifecycle: construct via the registry (defaults
 * applied), parse() overrides, run() exactly once, then report().
 */
class Study
{
  public:
    virtual ~Study() = default;

    virtual std::string name() const = 0;
    virtual std::string description() const = 0;

    /** Every accepted parameter with its default value, stringified. */
    virtual ParamMap defaultConfig() const = 0;

    /**
     * Apply parameter overrides. An unknown key throws
     * std::runtime_error naming the study, the key, and the valid
     * keys; a malformed value, or one the run would reject, throws
     * naming the key and the bad token.
     */
    void parse(const ParamMap &params);

    virtual void run(const ExperimentRunner &runner) = 0;
    virtual StudyReport report() const = 0;

    /**
     * Decompose this (already parsed) study into independent
     * sub-requests that jointly cover its run grid. The multi-worker
     * serving front dispatches these to worker processes to prime the
     * shared persistent store, then runs the study locally against
     * the warmed store, so a merged report is structurally
     * byte-identical to single-process output. Empty (the default)
     * means the study does not decompose and always runs locally.
     */
    virtual std::vector<StudyRequest> shardRequests() const;

  protected:
    /** Apply one validated-key override; throw on a bad value. */
    virtual void applyParam(const std::string &key,
                            const std::string &value) = 0;

    /**
     * Check, once every override is applied, what no single value
     * shows (a model name against the chosen mode, a grid's size);
     * throw naming the key. The default accepts.
     */
    virtual void validate() const {}
};

/**
 * Name -> factory registry of every study. global() carries the five
 * built-ins (figure, core-sweep, correlation, reliability, compare).
 */
class StudyRegistry
{
  public:
    using Factory = std::function<std::unique_ptr<Study>()>;

    void add(const std::string &name, Factory factory);

    /** Throws std::runtime_error listing valid names when unknown. */
    std::unique_ptr<Study> create(const std::string &name) const;

    bool contains(const std::string &name) const;
    std::vector<std::string> names() const;

    /**
     * Generated usage text: one block per study with its description
     * and default parameters (the CLI's `nvmcache studies` output and
     * the substance of `--help`).
     */
    std::string helpText() const;

    static const StudyRegistry &global();

  private:
    std::map<std::string, Factory> factories_;
};

/** Execution knobs shared by every dispatch site. */
struct StudyRunOptions
{
    unsigned jobs = 0;          ///< 0 = engine default
    RunnerPool *pool = nullptr; ///< nullptr = an ephemeral runner
};

/**
 * Uniform dispatch: create the study, parse the request's parameters,
 * run it on a runner drawn from the pool (or an ephemeral one), and
 * report. This is the single execution path behind the CLI `study`
 * subcommand and the evaluation daemon.
 */
StudyReport runStudyRequest(const StudyRequest &req,
                            const StudyRunOptions &opts = {});

/** runStudyRequest for an already-created-and-parsed study. */
StudyReport runStudy(Study &study, const StudyRunOptions &opts = {});

} // namespace nvmcache

#endif // NVMCACHE_CORE_STUDY_REGISTRY_HH
