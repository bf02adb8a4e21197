/**
 * @file
 * google-benchmark microbenchmarks of the simulation substrate
 * itself: cache access throughput, generator throughput, LLC
 * demand-path cost, characterizer cost, and a whole-system
 * accesses/second figure. These guard the "minutes-fast experiments"
 * property the reproduction depends on.
 */

#include <benchmark/benchmark.h>

#include <array>
#include <memory>
#include <vector>

#include "core/experiment.hh"
#include "nvsim/published.hh"
#include "prism/metrics.hh"
#include "sim/cache.hh"
#include "sim/nvm_llc.hh"
#include "sim/system.hh"
#include "util/metrics.hh"
#include "util/rng.hh"
#include "workload/generators.hh"
#include "workload/recorded_trace.hh"
#include "workload/suite.hh"

using namespace nvmcache;

namespace {

GeneratorConfig
microConfig(std::uint64_t accesses)
{
    GeneratorConfig cfg;
    cfg.totalAccesses = accesses;
    StreamConfig hot;
    hot.kind = StreamConfig::Kind::Zipf;
    hot.regionBytes = 1 << 20;
    hot.zipfSkew = 0.9;
    hot.weight = 0.8;
    StreamConfig cold;
    cold.kind = StreamConfig::Kind::Uniform;
    cold.regionBytes = 16 << 20;
    cold.weight = 0.2;
    cfg.loads.streams = {hot, cold};
    cfg.stores.streams = {hot, cold};
    return cfg;
}

} // namespace

static void
BM_CacheAccess(benchmark::State &state)
{
    SetAssocCache cache(CacheGeometry{std::uint64_t(state.range(0)),
                                      8, 64});
    Rng rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(rng.below(64 << 20) & ~63ull, false));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess)->Arg(32 << 10)->Arg(256 << 10)->Arg(2 << 20);

static void
BM_ZipfDraw(benchmark::State &state)
{
    ZipfSampler zipf(std::uint64_t(state.range(0)), 0.9);
    Rng rng(2);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf(rng));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfDraw)->Arg(1 << 10)->Arg(1 << 20);

static void
BM_TraceGeneration(benchmark::State &state)
{
    SyntheticTrace trace(microConfig(1ull << 62), 0, 1);
    MemAccess a;
    for (auto _ : state) {
        trace.next(a);
        benchmark::DoNotOptimize(a);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceGeneration);

static void
BM_LlcDemandPath(benchmark::State &state)
{
    SharedLlc llc(publishedLlcModel("Chung",
                                    CapacityMode::FixedCapacity),
                  SharedLlc::Config{}, 2.66e9);
    Rng rng(3);
    std::uint64_t now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            llc.demandRead(rng.below(8 << 20) & ~63ull, now));
        now += 4;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LlcDemandPath);

static void
BM_Characterize(benchmark::State &state)
{
    for (auto _ : state) {
        auto traces =
            buildThreadTraces(microConfig(std::uint64_t(
                                  state.range(0))),
                              1);
        std::vector<TraceSource *> ptrs{traces[0].get()};
        benchmark::DoNotOptimize(characterize(ptrs));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Characterize)->Arg(100'000)->Unit(benchmark::kMillisecond);

static void
BM_FullSystem(benchmark::State &state)
{
    const std::uint64_t accesses = std::uint64_t(state.range(0));
    for (auto _ : state) {
        SystemConfig cfg;
        cfg.numCores = 4;
        System system(
            cfg, publishedLlcModel("Chung",
                                   CapacityMode::FixedCapacity));
        auto traces = buildThreadTraces(microConfig(accesses), 4);
        std::vector<TraceSource *> ptrs;
        for (auto &t : traces)
            ptrs.push_back(t.get());
        benchmark::DoNotOptimize(system.run(ptrs));
    }
    state.SetItemsProcessed(state.iterations() * accesses);
}
BENCHMARK(BM_FullSystem)->Arg(200'000)->Unit(benchmark::kMillisecond);

static void
BM_RecordTrace(benchmark::State &state)
{
    const std::uint64_t accesses = std::uint64_t(state.range(0));
    std::uint64_t bytes = 0;
    for (auto _ : state) {
        auto trace = RecordedTrace::record(microConfig(accesses), 4);
        bytes = trace->packedBytes();
        benchmark::DoNotOptimize(trace);
    }
    state.SetItemsProcessed(state.iterations() * accesses);
    state.counters["packedBytesPerAccess"] =
        double(bytes) / double(accesses);
}
BENCHMARK(BM_RecordTrace)->Arg(200'000)->Unit(benchmark::kMillisecond);

static void
BM_DecodeTrace(benchmark::State &state)
{
    // Decode-only cost of a packed trace (no simulation attached):
    // the floor any replay scheduler pays.
    const std::uint64_t accesses = std::uint64_t(state.range(0));
    auto trace = RecordedTrace::record(microConfig(accesses), 1);
    TraceCursor cur = trace->cursor(0);
    std::array<MemAccess, 256> batch;
    for (auto _ : state) {
        std::size_t n;
        while ((n = cur.fill(batch)) != 0)
            benchmark::DoNotOptimize(batch[n - 1]);
        cur.reset();
    }
    state.SetItemsProcessed(state.iterations() * accesses);
}
BENCHMARK(BM_DecodeTrace)->Arg(200'000)->Unit(benchmark::kMillisecond);

static void
BM_ReplayTrace(benchmark::State &state)
{
    // Full LLC+DRAM replay of a recorded trace through the batch
    // kernel (System::runReplay) on arg1 lanes. The recording is
    // built once; each iteration replays it through a fresh System.
    const std::uint64_t accesses = std::uint64_t(state.range(0));
    const std::uint32_t lanes = std::uint32_t(state.range(1));
    SystemConfig cfg;
    cfg.numCores = lanes;
    auto trace = RecordedTrace::record(microConfig(accesses), lanes);
    auto cursors = trace->cursors();
    std::vector<BatchSource *> srcs;
    for (TraceCursor &c : cursors)
        srcs.push_back(&c);
    auto priv = PrivateTrace::record(srcs, cfg.core);
    const LlcModel model =
        publishedLlcModel("Chung", CapacityMode::FixedCapacity);
    for (auto _ : state) {
        cursors = trace->cursors();
        std::vector<ReplaySource *> ptrs;
        for (TraceCursor &c : cursors)
            ptrs.push_back(&c);
        System system(cfg, model);
        benchmark::DoNotOptimize(system.runReplay(ptrs, priv.get()));
    }
    state.SetItemsProcessed(state.iterations() * accesses);
    MetricsRegistry &reg = MetricsRegistry::global();
    state.counters["replayAccessesPerSecond"] =
        reg.gauge("sim.replay.accessesPerSecond").get();
    state.counters["replayBlockFillRatio"] =
        reg.gauge("sim.replay.blockFillRatio").get();
}
// One lane keeps its name in the committed baseline
// (bench/BENCH_baseline.json). Four lanes replay BM_FullSystem's
// workload under a name that baseline does not hold: its
// BM_ReplayTrace/200000/4 measured a different, since deleted, engine.
BENCHMARK(BM_ReplayTrace)
    ->Args({200'000, 1})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ReplayTrace)
    ->Name("BM_ReplayLanes")
    ->Args({200'000, 4})
    ->Unit(benchmark::kMillisecond);

static void
BM_TechSweep(benchmark::State &state)
{
    // End-to-end 11-model sweep of a Zipf-heavy workload through the
    // experiment engine: this is the figure-level cost the record-
    // once/replay-many stores exist to cut. A fresh runner per
    // iteration makes every iteration pay one trace record, one
    // private-level record, and eleven replays. arg1 = jobs; arg2 is
    // a fixed 1 that keeps the names of the committed baseline
    // (bench/BENCH_baseline.json).
    const std::uint64_t accesses = std::uint64_t(state.range(0));
    const unsigned jobs = unsigned(state.range(1));
    BenchmarkSpec spec;
    spec.name = "microzipf";
    spec.gen = microConfig(accesses);
    spec.defaultThreads = 1;
    for (auto _ : state) {
        ExperimentRunner runner;
        runner.setJobs(jobs);
        TechSweep sweep =
            runner.sweepTechs(spec, CapacityMode::FixedCapacity);
        benchmark::DoNotOptimize(sweep);
        const RunnerStats rs = runner.runnerStats();
        state.counters["traceStoreHitRate"] =
            double(rs.traceHits) /
            double(rs.traceBuilds + rs.traceHits);
    }
    state.SetItemsProcessed(state.iterations() * accesses);
}
BENCHMARK(BM_TechSweep)
    ->Args({200'000, 1, 1})
    ->Args({200'000, 4, 1})
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
