#include "core/experiment.hh"

#include <atomic>
#include <chrono>
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
#include "workload/generators.hh"

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

namespace {

/**
 * Keyed exactly-once map, the one claim behind all four of the
 * runner's stores (runs, traces, private traces, features). The first
 * caller of a key owns its build; every other caller, concurrent or
 * later, is a hit and gets the owner's value. A hit that finds the
 * build still running waits inside the "runner.memoWait" phase; a
 * finished value, as on every warm hit, is returned untimed. Hits are
 * counted here and mirrored under @p hitsMetric; what a build costs is
 * its caller's to count.
 */
template <typename V>
class OnceMap
{
  public:
    explicit OnceMap(const char *hitsMetric)
        : gHits_(MetricsRegistry::global().counter(hitsMetric))
    {
    }

    /** The value of @p key; @p build() runs for its owner only. */
    template <typename Build>
    V
    get(const std::string &key, Build &&build)
    {
        std::shared_ptr<Entry> entry;
        bool owner = false;
        {
            std::lock_guard<std::mutex> lock(mu_);
            auto [it, inserted] = entries_.try_emplace(key);
            if (inserted)
                it->second = std::make_shared<Entry>();
            owner = inserted;
            entry = it->second;
        }

        if (owner) {
            try {
                entry->promise.set_value(build());
            } catch (...) {
                // Waiters see the failure; the next caller retries.
                {
                    std::lock_guard<std::mutex> lock(mu_);
                    entries_.erase(key);
                }
                entry->promise.set_exception(std::current_exception());
                throw;
            }
        } else {
            hits_.fetch_add(1, std::memory_order_relaxed);
            gHits_.inc();
            if (entry->future.wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready) {
                Phase wait("runner.memoWait", "engine", std::string(),
                           /*traced=*/false);
                entry->future.wait();
            }
        }
        return entry->future.get();
    }

    std::uint64_t hits() const { return hits_.load(); }

  private:
    struct Entry
    {
        std::promise<V> promise;
        std::shared_future<V> future{promise.get_future()};
    };

    std::mutex mu_;
    std::unordered_map<std::string, std::shared_ptr<Entry>> entries_;
    std::atomic<std::uint64_t> hits_{0};
    Counter &gHits_;
};

} // namespace

/**
 * The runner's four exactly-once stores, shared by its copies. Runs
 * are keyed on their exact inputs; one layer down, recorded traces on
 * the generator identity alone, so the 11 models of a tech sweep (and
 * the characterization pass) replay one shared RecordedTrace instead
 * of regenerating; private-level recordings on the trace identity
 * plus the core configuration; PRISM feature rows on the trace
 * identity plus the mask bits.
 *
 * Counters are kept per-memo (so RunnerStats stays an exact view of
 * one runner and its copies) and mirrored into the process-wide
 * registry under "runner.memo.*" / "runner.traceStore.*" /
 * "runner.privateStore.*" / "runner.featureStore.*" so structured run
 * reports capture them; snapshot diffs recover exact per-study deltas
 * there.
 */
struct ExperimentRunner::Memo
{
    OnceMap<SimStats> runs{"runner.memo.hits"};
    std::atomic<std::uint64_t> simulations{0};
    std::atomic<std::uint64_t> baselineSimulations{0};

    OnceMap<std::shared_ptr<const RecordedTrace>> traces{
        "runner.traceStore.hits"};
    std::atomic<std::uint64_t> traceBuilds{0};
    std::atomic<std::uint64_t> traceBytes{0};

    OnceMap<std::shared_ptr<const PrivateTrace>> privates{
        "runner.privateStore.hits"};
    std::atomic<std::uint64_t> privateBuilds{0};
    std::atomic<std::uint64_t> privateBytes{0};

    OnceMap<WorkloadFeatures> features{"runner.featureStore.hits"};
    std::atomic<std::uint64_t> featureBuilds{0};

    std::atomic<std::uint64_t> diskHits{0};
    std::atomic<std::uint64_t> diskWrites{0};

    Counter &gSimulations =
        MetricsRegistry::global().counter("runner.memo.simulations");
    Counter &gBaselines = MetricsRegistry::global().counter(
        "runner.memo.baselineSimulations");
    Counter &gTraceBuilds = MetricsRegistry::global().counter(
        "runner.traceStore.builds");
    Gauge &gTraceBytes =
        MetricsRegistry::global().gauge("runner.traceStore.bytes");
    Counter &gPrivateBuilds = MetricsRegistry::global().counter(
        "runner.privateStore.builds");
    Gauge &gPrivateBytes =
        MetricsRegistry::global().gauge("runner.privateStore.bytes");
    Counter &gFeatureBuilds = MetricsRegistry::global().counter(
        "runner.featureStore.builds");
    Counter &gDiskHits =
        MetricsRegistry::global().counter("runner.store.hits");
    Counter &gDiskWrites =
        MetricsRegistry::global().counter("runner.store.writes");

    /** Count one event in @p local and its registry mirror. */
    static void
    count(std::atomic<std::uint64_t> &local, Counter &global)
    {
        local.fetch_add(1, std::memory_order_relaxed);
        global.inc();
    }

    /** Add @p bytes to a resident-bytes total and its gauge. */
    static void
    addBytes(std::atomic<std::uint64_t> &local, Gauge &global,
             std::uint64_t bytes)
    {
        global.set(double(
            local.fetch_add(bytes, std::memory_order_relaxed) + bytes));
    }

    /**
     * The persistent tier under one store's build: the (@p kind,
     * @p key) record decoded when @p store holds a sound one, else
     * @p build()'s value, persisted. A payload that fails to decode is
     * a miss and gets rewritten.
     */
    template <typename Decode, typename Build, typename Encode>
    auto
    throughDisk(ResultStore *store, const char *kind,
                const std::string &key, Decode &&decode, Build &&build,
                Encode &&encode) -> decltype(build())
    {
        if (store) {
            if (auto payload = store->load(kind, key)) {
                try {
                    auto value = decode(*payload);
                    count(diskHits, gDiskHits);
                    return value;
                } catch (const std::exception &) {
                    // damaged payload: rebuild and rewrite below
                }
            }
        }
        auto value = build();
        if (store) {
            store->put(kind, key, encode(value));
            count(diskWrites, gDiskWrites);
        }
        return value;
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
    s.memoHits = memo_->runs.hits();
    s.baselineSimulations = memo_->baselineSimulations.load();
    s.traceBuilds = memo_->traceBuilds.load();
    s.traceHits = memo_->traces.hits();
    s.traceBytes = memo_->traceBytes.load();
    s.privateBuilds = memo_->privateBuilds.load();
    s.privateHits = memo_->privates.hits();
    s.privateBytes = memo_->privateBytes.load();
    s.featureBuilds = memo_->featureBuilds.load();
    s.featureHits = memo_->features.hits();
    s.diskHits = memo_->diskHits.load();
    s.diskWrites = memo_->diskWrites.load();
    return s;
}

std::shared_ptr<const RecordedTrace>
ExperimentRunner::recordedTrace(const GeneratorConfig &gen,
                                std::uint32_t threads) const
{
    const std::string key = genKey(gen, threads);
    return memo_->traces.get(key, [&] {
        auto trace = memo_->throughDisk(
            store_.get(), "trace", key, RecordedTrace::deserialize,
            [&] {
                Memo::count(memo_->traceBuilds, memo_->gTraceBuilds);
                // Self-contained id: trace recording ownership races
                // the same way runs do (see traceRunId).
                Phase phase("runner.record", "engine",
                            "trace/" + traceHashId(key));
                return RecordedTrace::record(gen, threads);
            },
            [](const auto &t) { return t->serialize(); });
        Memo::addBytes(memo_->traceBytes, memo_->gTraceBytes,
                       trace->packedBytes());
        return trace;
    });
}

std::shared_ptr<const PrivateTrace>
ExperimentRunner::privateTrace(const GeneratorConfig &gen,
                               std::uint32_t threads) const
{
    const std::string key = privKey(gen, threads, base_.core);
    return memo_->privates.get(key, [&] {
        auto priv = memo_->throughDisk(
            store_.get(), "ptrace", key, PrivateTrace::deserialize,
            [&] {
                Memo::count(memo_->privateBuilds, memo_->gPrivateBuilds);
                auto trace = recordedTrace(gen, threads);
                auto cursors = trace->cursors();
                std::vector<BatchSource *> ptrs;
                ptrs.reserve(cursors.size());
                for (TraceCursor &c : cursors)
                    ptrs.push_back(&c);
                Phase phase("runner.recordPrivate", "engine",
                            "ptrace/" + traceHashId(key));
                return PrivateTrace::record(ptrs, base_.core);
            },
            [](const auto &p) { return p->serialize(); });
        Memo::addBytes(memo_->privateBytes, memo_->gPrivateBytes,
                       priv->packedBytes());
        return priv;
    });
}

WorkloadFeatures
ExperimentRunner::features(const BenchmarkSpec &spec) const
{
    // The paper's local entropy skips the 10 lowest address bits; the
    // count is fixed, but it is part of what a feature row means.
    constexpr std::uint32_t kMaskBits = 10;
    const std::uint32_t threads = spec.defaultThreads;
    std::string key = genKey(spec.gen, threads);
    appendBytes(key, kMaskBits);
    return memo_->features.get(key, [&] {
        return memo_->throughDisk(
            store_.get(), "feat", key, decodeFeatures,
            [&] {
                Memo::count(memo_->featureBuilds, memo_->gFeatureBuilds);
                // Warm-up accesses fill the cache but are not the
                // workload being characterized.
                return characterize(*recordedTrace(spec.gen, threads),
                                    kMaskBits,
                                    warmupSplit(spec.gen, threads));
            },
            encodeFeatures);
    });
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
    bool owner = false;
    SimStats stats = memo_->runs.get(key, [&] {
        owner = true;
        // Disk tier: a run persisted by an earlier process (or an
        // earlier store-backed runner in this one) decodes to stats
        // bit-identical to a fresh simulation, so serve it without
        // simulating.
        return memo_->throughDisk(
            store_.get(), "run", diskBaseKey_ + key,
            [&](const std::string &payload) {
                SimStats disk = decodeSimStats(payload);
                if (tracingEnabled())
                    traceInstant("runner.diskHit", "engine",
                                 traceRunId(spec, llc, threads,
                                            base_.llc.faults) +
                                     "/disk");
                return disk;
            },
            [&] {
                Memo::count(memo_->simulations, memo_->gSimulations);
                if (llc.klass == NvmClass::SRAM)
                    Memo::count(memo_->baselineSimulations, memo_->gBaselines);
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
                Phase phase("runner.simulate", "engine", runId);
                return simulateUncached(spec, llc, threads);
            },
            encodeSimStats);
    });
    if (!owner && tracingEnabled())
        traceInstant("runner.memoHit", "engine",
                     traceRunId(spec, llc, threads, base_.llc.faults) +
                         "/hit");
    return stats;
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
