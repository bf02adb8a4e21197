#include "core/experiment.hh"

#include <atomic>
#include <cstring>
#include <future>
#include <mutex>
#include <unordered_map>

#include "store/codec.hh"
#include "store/result_store.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/parallel.hh"
#include "util/trace_events.hh"

namespace nvmcache {

namespace {

/** Append the raw bytes of a trivially-copyable value to a key. */
template <typename T>
void
appendBytes(std::string &key, const T &value)
{
    static_assert(std::is_trivially_copyable_v<T>);
    const char *p = reinterpret_cast<const char *>(&value);
    key.append(p, sizeof(T));
}

void
appendStream(std::string &key, const StreamConfig &sc)
{
    appendBytes(key, sc.kind);
    appendBytes(key, sc.weight);
    appendBytes(key, sc.regionBytes);
    appendBytes(key, sc.zipfSkew);
    appendBytes(key, sc.stride);
    appendBytes(key, sc.shared);
    appendBytes(key, sc.regionId);
}

void
appendMix(std::string &key, const AccessMix &mix)
{
    appendBytes(key, mix.streams.size());
    for (const StreamConfig &sc : mix.streams)
        appendStream(key, sc);
}

void
appendProfile(std::string &key, const MixProfile &p)
{
    appendBytes(key, p.loadFraction);
    appendBytes(key, p.storeFraction);
    appendMix(key, p.loads);
    appendMix(key, p.stores);
    appendMix(key, p.ifetches);
}

/**
 * Exact identity of one trace: every generator input that can change
 * the produced access sequence or its reported stats, plus the thread
 * split. This is the trace store's key, and every run/privileged key
 * embeds it — so parameterized workloads get distinct memo/store
 * entries by construction.
 */
std::string
genKey(const GeneratorConfig &gen, std::uint32_t threads)
{
    std::string key;
    key.reserve(256);
    appendBytes(key, threads);
    appendBytes(key, gen.totalAccesses);
    appendBytes(key, gen.loadFraction);
    appendBytes(key, gen.storeFraction);
    appendBytes(key, gen.meanGap);
    appendBytes(key, gen.seed);
    appendMix(key, gen.loads);
    appendMix(key, gen.stores);
    appendMix(key, gen.ifetches);
    appendBytes(key, gen.warmupFraction);
    appendBytes(key, gen.perThreadStats);
    appendBytes(key, gen.phases.size());
    for (const MixProfile &p : gen.phases)
        appendProfile(key, p);
    appendBytes(key, gen.tenantMixes.size());
    for (const MixProfile &p : gen.tenantMixes)
        appendProfile(key, p);
    return key;
}

void
appendGeometry(std::string &key, const CacheGeometry &g)
{
    appendBytes(key, g.capacityBytes);
    appendBytes(key, g.associativity);
    appendBytes(key, g.blockBytes);
    appendBytes(key, g.replacement);
}

/**
 * Exact identity of one private-level recording: the trace identity
 * plus every CoreParams input that can change which level satisfies a
 * reference or which victims stream to the LLC. (The timing-only
 * fields — hide windows, stall factor — are included too: one key per
 * core configuration is simplest and they never vary within a study.)
 */
std::string
privKey(const GeneratorConfig &gen, std::uint32_t threads,
        const CoreParams &core)
{
    std::string key = genKey(gen, threads);
    appendBytes(key, core.baseCpi);
    appendGeometry(key, core.l1i);
    appendGeometry(key, core.l1d);
    appendGeometry(key, core.l2);
    appendBytes(key, core.l2Cycles);
    appendBytes(key, core.loadHide);
    appendBytes(key, core.ifetchHide);
    appendBytes(key, core.storeHide);
    appendBytes(key, core.storeStallFactor);
    return key;
}

void
appendFaults(std::string &key, const FaultConfig &f)
{
    appendBytes(key, f.enabled);
    appendBytes(key, f.berScale);
    appendBytes(key, f.wearLevelingFactor);
    appendBytes(key, f.wearScale);
    appendBytes(key, f.maxWriteRetries);
    appendBytes(key, f.scrubCycles);
    appendBytes(key, f.seed);
    appendBytes(key, f.capacitySampleInterval);
}

/**
 * Exact identity of one simulation: the trace identity plus every
 * LLC-model input that can change its SimStats. The base SystemConfig
 * is per-runner (the memo is too), so it needs no representation here
 * — except the fault-injection knobs, which are included defensively
 * because reliability sweeps vary them across otherwise-identical
 * configurations.
 */
std::string
runKey(const GeneratorConfig &gen, const LlcModel &llc,
       std::uint32_t threads, const FaultConfig &faults)
{
    std::string key = genKey(gen, threads);
    appendFaults(key, faults);
    key += llc.name;
    key += '\0';
    appendBytes(key, llc.klass);
    appendBytes(key, llc.capacityBytes);
    appendBytes(key, llc.area);
    appendBytes(key, llc.tagLatency);
    appendBytes(key, llc.readLatency);
    appendBytes(key, llc.writeLatencySet);
    appendBytes(key, llc.writeLatencyReset);
    appendBytes(key, llc.eHit);
    appendBytes(key, llc.eMiss);
    appendBytes(key, llc.eWrite);
    appendBytes(key, llc.leakage);
    return key;
}

/**
 * Identity of the non-fault base SystemConfig, prefixed onto every
 * on-disk run key. The in-memory memo is per-runner so it never needs
 * this, but the disk store is shared by arbitrary processes whose
 * base configurations may differ (fault knobs are already inside
 * runKey(), and numCores comes in as the per-run thread count).
 */
std::string
baseConfigKey(const SystemConfig &cfg)
{
    std::string key;
    key.reserve(160);
    appendBytes(key, cfg.frequency);
    appendBytes(key, cfg.core.baseCpi);
    appendGeometry(key, cfg.core.l1i);
    appendGeometry(key, cfg.core.l1d);
    appendGeometry(key, cfg.core.l2);
    appendBytes(key, cfg.core.l2Cycles);
    appendBytes(key, cfg.core.loadHide);
    appendBytes(key, cfg.core.ifetchHide);
    appendBytes(key, cfg.core.storeHide);
    appendBytes(key, cfg.core.storeStallFactor);
    appendBytes(key, cfg.llc.associativity);
    appendBytes(key, cfg.llc.blockBytes);
    appendBytes(key, cfg.llc.numBanks);
    appendBytes(key, cfg.llc.writeQueueDepth);
    appendBytes(key, cfg.llc.controllerCycles);
    appendBytes(key, cfg.llc.writePolicy);
    appendBytes(key, cfg.llc.bypassWritebackMiss);
    appendBytes(key, cfg.dram.numControllers);
    appendBytes(key, cfg.dram.deviceLatency);
    appendBytes(key, cfg.dram.bandwidthPerController);
    appendBytes(key, cfg.dram.blockBytes);
    return key;
}

/** First element of @p v satisfying @p pred; nullptr when absent. */
template <typename T, typename Pred>
const T *
findFirst(const std::vector<T> &v, Pred pred)
{
    for (const T &x : v)
        if (pred(x))
            return &x;
    return nullptr;
}

} // namespace

const LlcModel *
findByClass(const std::vector<LlcModel> &models, NvmClass klass)
{
    return findFirst(models, [klass](const LlcModel &m) {
        return m.klass == klass;
    });
}

std::string
faultConfigKey(const FaultConfig &faults)
{
    std::string key;
    key.reserve(64);
    appendFaults(key, faults);
    return key;
}

ExperimentRunner
RunnerPool::acquire(const SystemConfig &base)
{
    std::string key = faultConfigKey(base.llc.faults);
    // The pooled runner captured its view of the persistent store at
    // construction. A store swap (epoch) or destructive mutation
    // (generation: gc, verify --repair) must therefore change the
    // pool key, or a handle built before the mutation keeps serving
    // state the store no longer agrees with.
    if (auto store = ResultStore::global()) {
        key += '\0';
        key += "e" + std::to_string(ResultStore::globalEpoch()) + "g" +
               std::to_string(store->generation());
    }
    std::lock_guard<std::mutex> lock(mu_);
    auto it = runners_.find(key);
    if (it == runners_.end()) {
        it = runners_.emplace(key, ExperimentRunner(base)).first;
        MetricsRegistry::global()
            .gauge("service.runnerPoolSize")
            .set(double(runners_.size()));
    }
    return it->second;
}

std::size_t
RunnerPool::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return runners_.size();
}

/**
 * Run cache with exactly-once semantics: the first caller of a key
 * owns the simulation, concurrent callers of the same key block on
 * its future instead of simulating again. The trace store applies
 * the same discipline one layer down, keyed on generator identity
 * only, so the 11 models of a tech sweep (and the characterization
 * pass) replay one shared RecordedTrace instead of regenerating.
 *
 * Counters are kept per-memo (so RunnerStats stays an exact view of
 * one runner and its copies) and mirrored into the process-wide
 * registry under "runner.memo.*" / "runner.traceStore.*" so
 * structured run reports capture them; snapshot diffs recover exact
 * per-study deltas there.
 */
struct ExperimentRunner::Memo
{
    struct Entry
    {
        std::promise<SimStats> promise;
        std::shared_future<SimStats> future{promise.get_future()};
    };

    struct TraceEntry
    {
        std::promise<std::shared_ptr<const RecordedTrace>> promise;
        std::shared_future<std::shared_ptr<const RecordedTrace>>
            future{promise.get_future()};
    };

    struct PrivateEntry
    {
        std::promise<std::shared_ptr<const PrivateTrace>> promise;
        std::shared_future<std::shared_ptr<const PrivateTrace>>
            future{promise.get_future()};
    };

    std::mutex mu;
    std::unordered_map<std::string, std::shared_ptr<Entry>> runs;
    std::atomic<std::uint64_t> simulations{0};
    std::atomic<std::uint64_t> memoHits{0};
    std::atomic<std::uint64_t> baselineSimulations{0};

    std::mutex traceMu;
    std::unordered_map<std::string, std::shared_ptr<TraceEntry>>
        traces;
    std::atomic<std::uint64_t> traceBuilds{0};
    std::atomic<std::uint64_t> traceHits{0};
    std::atomic<std::uint64_t> traceBytes{0};

    std::mutex privMu;
    std::unordered_map<std::string, std::shared_ptr<PrivateEntry>>
        privates;
    std::atomic<std::uint64_t> privateBuilds{0};
    std::atomic<std::uint64_t> privateHits{0};
    std::atomic<std::uint64_t> privateBytes{0};

    std::atomic<std::uint64_t> diskHits{0};
    std::atomic<std::uint64_t> diskWrites{0};

    Counter &gSimulations =
        MetricsRegistry::global().counter("runner.memo.simulations");
    Counter &gMemoHits =
        MetricsRegistry::global().counter("runner.memo.hits");
    Counter &gBaselines = MetricsRegistry::global().counter(
        "runner.memo.baselineSimulations");
    Counter &gTraceBuilds = MetricsRegistry::global().counter(
        "runner.traceStore.builds");
    Counter &gTraceHits =
        MetricsRegistry::global().counter("runner.traceStore.hits");
    Gauge &gTraceBytes =
        MetricsRegistry::global().gauge("runner.traceStore.bytes");
    Counter &gPrivateBuilds = MetricsRegistry::global().counter(
        "runner.privateStore.builds");
    Counter &gPrivateHits =
        MetricsRegistry::global().counter("runner.privateStore.hits");
    Gauge &gPrivateBytes =
        MetricsRegistry::global().gauge("runner.privateStore.bytes");
    Counter &gDiskHits =
        MetricsRegistry::global().counter("runner.store.hits");
    Counter &gDiskWrites =
        MetricsRegistry::global().counter("runner.store.writes");

    void
    countDiskHit()
    {
        diskHits.fetch_add(1, std::memory_order_relaxed);
        gDiskHits.inc();
    }

    void
    countDiskWrite()
    {
        diskWrites.fetch_add(1, std::memory_order_relaxed);
        gDiskWrites.inc();
    }
};

const RunResult &
TechSweep::byTech(const std::string &tech) const
{
    const RunResult *r = findFirst(
        results, [&](const RunResult &x) { return x.tech == tech; });
    if (!r)
        fatal("TechSweep: no result for technology '", tech, "'");
    return *r;
}

const RunResult &
TechSweep::byClass(NvmClass klass) const
{
    const RunResult *r = findFirst(
        results, [&](const RunResult &x) { return x.klass == klass; });
    if (!r)
        fatal("TechSweep: no result of class ", int(klass));
    return *r;
}

ExperimentRunner::ExperimentRunner(SystemConfig base)
    : base_(std::move(base)), jobs_(defaultJobs()),
      memo_(std::make_shared<Memo>()),
      store_(ResultStore::global()),
      diskBaseKey_(baseConfigKey(base_))
{
}

void
ExperimentRunner::setJobs(unsigned jobs)
{
    jobs_ = jobs == 0 ? defaultJobs() : jobs;
    MetricsRegistry::global().gauge("runner.jobs").set(double(jobs_));
}

RunnerStats
ExperimentRunner::runnerStats() const
{
    RunnerStats s;
    s.simulations = memo_->simulations.load();
    s.memoHits = memo_->memoHits.load();
    s.baselineSimulations = memo_->baselineSimulations.load();
    s.traceBuilds = memo_->traceBuilds.load();
    s.traceHits = memo_->traceHits.load();
    s.traceBytes = memo_->traceBytes.load();
    s.privateBuilds = memo_->privateBuilds.load();
    s.privateHits = memo_->privateHits.load();
    s.privateBytes = memo_->privateBytes.load();
    s.diskHits = memo_->diskHits.load();
    s.diskWrites = memo_->diskWrites.load();
    return s;
}

std::shared_ptr<const RecordedTrace>
ExperimentRunner::recordedTrace(const GeneratorConfig &gen,
                                std::uint32_t threads) const
{
    const std::string key = genKey(gen, threads);
    std::shared_ptr<Memo::TraceEntry> entry;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lock(memo_->traceMu);
        auto [it, inserted] = memo_->traces.try_emplace(key);
        if (inserted) {
            it->second = std::make_shared<Memo::TraceEntry>();
            owner = true;
        }
        entry = it->second;
    }

    if (owner) {
        std::shared_ptr<const RecordedTrace> trace;
        if (store_) {
            if (auto payload = store_->load("trace", key)) {
                try {
                    trace = RecordedTrace::deserialize(*payload);
                    memo_->countDiskHit();
                } catch (const std::exception &) {
                    trace.reset(); // damaged payload: re-record below
                }
            }
        }
        if (!trace) {
            memo_->traceBuilds.fetch_add(1,
                                         std::memory_order_relaxed);
            memo_->gTraceBuilds.inc();
            {
                PhaseTimer timer("runner.recordSeconds");
                // Self-contained id: trace recording ownership races
                // the same way runs do (see traceRunId).
                TraceSpan span("runner.record", "engine",
                               "trace/" + traceHashId(key));
                trace = RecordedTrace::record(gen, threads);
            }
            if (store_) {
                store_->put("trace", key, trace->serialize());
                memo_->countDiskWrite();
            }
        }
        const std::uint64_t total =
            memo_->traceBytes.fetch_add(trace->packedBytes(),
                                        std::memory_order_relaxed) +
            trace->packedBytes();
        memo_->gTraceBytes.set(double(total));
        entry->promise.set_value(std::move(trace));
    } else {
        memo_->traceHits.fetch_add(1, std::memory_order_relaxed);
        memo_->gTraceHits.inc();
    }
    return entry->future.get();
}

std::shared_ptr<const PrivateTrace>
ExperimentRunner::privateTrace(const GeneratorConfig &gen,
                               std::uint32_t threads) const
{
    const std::string key = privKey(gen, threads, base_.core);
    std::shared_ptr<Memo::PrivateEntry> entry;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lock(memo_->privMu);
        auto [it, inserted] = memo_->privates.try_emplace(key);
        if (inserted) {
            it->second = std::make_shared<Memo::PrivateEntry>();
            owner = true;
        }
        entry = it->second;
    }

    if (owner) {
        std::shared_ptr<const PrivateTrace> priv;
        if (store_) {
            if (auto payload = store_->load("ptrace", key)) {
                try {
                    priv = PrivateTrace::deserialize(*payload);
                    memo_->countDiskHit();
                } catch (const std::exception &) {
                    priv.reset(); // damaged payload: re-record below
                }
            }
        }
        if (!priv) {
            memo_->privateBuilds.fetch_add(1,
                                           std::memory_order_relaxed);
            memo_->gPrivateBuilds.inc();
            auto trace = recordedTrace(gen, threads);
            auto cursors = trace->cursors();
            std::vector<BatchSource *> ptrs;
            ptrs.reserve(cursors.size());
            for (TraceCursor &c : cursors)
                ptrs.push_back(&c);
            {
                PhaseTimer timer("runner.recordPrivateSeconds");
                TraceSpan span("runner.recordPrivate", "engine",
                               "ptrace/" + traceHashId(key));
                priv = PrivateTrace::record(ptrs, base_.core);
            }
            if (store_) {
                store_->put("ptrace", key, priv->serialize());
                memo_->countDiskWrite();
            }
        }
        const std::uint64_t total =
            memo_->privateBytes.fetch_add(priv->packedBytes(),
                                          std::memory_order_relaxed) +
            priv->packedBytes();
        memo_->gPrivateBytes.set(double(total));
        entry->promise.set_value(std::move(priv));
    } else {
        memo_->privateHits.fetch_add(1, std::memory_order_relaxed);
        memo_->gPrivateHits.inc();
    }
    return entry->future.get();
}

SimStats
ExperimentRunner::simulateUncached(const BenchmarkSpec &spec,
                                   const LlcModel &llc,
                                   std::uint32_t threads) const
{
    SystemConfig cfg = base_;
    cfg.numCores = threads;
    cfg.perCoreLlcStats = spec.gen.perThreadStats;

    // Replay the workload's recorded trace: generation happens once
    // per (generator, threads) for the runner's lifetime, and every
    // model replays the identical packed sequence. The private-level
    // recording rides one layer above it, so each model simulates
    // only the shared LLC and DRAM — through the batch kernel when
    // single-threaded (bit-identical either way).
    auto trace = recordedTrace(spec.gen, threads);
    auto priv = privateTrace(spec.gen, threads);
    auto cursors = trace->cursors();
    std::vector<ReplaySource *> ptrs;
    ptrs.reserve(cursors.size());
    for (TraceCursor &c : cursors)
        ptrs.push_back(&c);

    System system(cfg, llc);
    return system.runReplay(ptrs, priv.get());
}

namespace {

/**
 * Deterministic trace id of one simulation. Self-contained (not
 * derived from the caller's context path) on purpose: under jobs>1
 * which caller becomes the memo owner is a race, so the span must
 * carry an id that is identical no matter who wins.
 */
std::string
traceRunId(const BenchmarkSpec &spec, const LlcModel &llc,
           std::uint32_t threads, const FaultConfig &faults)
{
    std::string id = "run/" + spec.name + "/" + llc.name + "/c" +
                     std::to_string(llc.capacityBytes >> 20) + "/t" +
                     std::to_string(threads);
    if (faults.enabled)
        id += "/f" + traceHashId(faultConfigKey(faults));
    return id;
}

} // namespace

SimStats
ExperimentRunner::runOne(const BenchmarkSpec &spec, const LlcModel &llc,
                         std::uint32_t threads) const
{
    if (threads == 0)
        threads = spec.defaultThreads;

    const std::string key =
        runKey(spec.gen, llc, threads, base_.llc.faults);
    std::shared_ptr<Memo::Entry> entry;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lock(memo_->mu);
        auto [it, inserted] = memo_->runs.try_emplace(key);
        if (inserted) {
            it->second = std::make_shared<Memo::Entry>();
            owner = true;
        }
        entry = it->second;
    }

    if (owner) {
        // Disk tier: a run persisted by an earlier process (or an
        // earlier store-backed runner in this one) decodes to stats
        // bit-identical to a fresh simulation, so serve it without
        // simulating. Damaged payloads fall through to re-simulate
        // and rewrite.
        bool served = false;
        if (store_) {
            if (auto payload =
                    store_->load("run", diskBaseKey_ + key)) {
                try {
                    SimStats stats = decodeSimStats(*payload);
                    memo_->countDiskHit();
                    if (tracingEnabled())
                        traceInstant("runner.diskHit", "engine",
                                     traceRunId(spec, llc, threads,
                                                base_.llc.faults) +
                                         "/disk");
                    entry->promise.set_value(std::move(stats));
                    served = true;
                } catch (const std::exception &) {
                }
            }
        }
        if (!served) {
            memo_->simulations.fetch_add(1,
                                         std::memory_order_relaxed);
            memo_->gSimulations.inc();
            if (llc.klass == NvmClass::SRAM) {
                memo_->baselineSimulations.fetch_add(
                    1, std::memory_order_relaxed);
                memo_->gBaselines.inc();
            }
            SimStats stats;
            {
                PhaseTimer timer("runner.simulateSeconds");
                // The run scope REPLACES the caller's path (instead
                // of extending it) so the simulation's spans read the
                // same whichever racing caller won ownership.
                const std::string runId =
                    tracingEnabled()
                        ? traceRunId(spec, llc, threads,
                                     base_.llc.faults)
                        : std::string();
                TraceScope scope(TraceContext{
                    runId, TraceContext::current().traceId});
                TraceSpan span("runner.simulate", "engine", runId);
                stats = simulateUncached(spec, llc, threads);
            }
            if (store_) {
                store_->put("run", diskBaseKey_ + key,
                            encodeSimStats(stats));
                memo_->countDiskWrite();
            }
            entry->promise.set_value(std::move(stats));
        }
    } else {
        memo_->memoHits.fetch_add(1, std::memory_order_relaxed);
        memo_->gMemoHits.inc();
        if (tracingEnabled())
            traceInstant(
                "runner.memoHit", "engine",
                traceRunId(spec, llc, threads, base_.llc.faults) +
                    "/hit");
    }
    return entry->future.get();
}

TechSweep
ExperimentRunner::sweepTechs(const BenchmarkSpec &spec,
                             CapacityMode mode,
                             std::uint32_t threads) const
{
    if (threads == 0)
        threads = spec.defaultThreads;

    TechSweep sweep;
    sweep.workload = spec.name;
    sweep.mode = mode;
    sweep.cores = threads;

    // Validate the model list before simulating anything: every
    // result is normalized against the SRAM baseline, so its absence
    // is a configuration error, not a post-hoc surprise.
    const std::vector<LlcModel> &models = publishedLlcModels(mode);
    const LlcModel *sram = findByClass(models, NvmClass::SRAM);
    if (!sram)
        panic("published model list has no SRAM baseline");

    // Fan the eleven independent simulations out; the memo makes any
    // repeats (notably the SRAM baseline across studies) free.
    std::vector<SimStats> stats =
        parallelMap(jobs_, models, [&](const LlcModel &llc) {
            return runOne(spec, llc, threads);
        });

    const SimStats sram_stats =
        stats[std::size_t(sram - models.data())];

    for (std::size_t i = 0; i < models.size(); ++i) {
        RunResult r;
        r.workload = spec.name;
        r.tech = models[i].name;
        r.klass = models[i].klass;
        r.mode = mode;
        r.cores = threads;
        r.stats = std::move(stats[i]);
        r.speedup = sram_stats.seconds / r.stats.seconds;
        r.normEnergy = r.stats.llcEnergy() / sram_stats.llcEnergy();
        r.normEd2p = r.stats.ed2p() / sram_stats.ed2p();
        sweep.results.push_back(std::move(r));
    }
    return sweep;
}

} // namespace nvmcache
