#include "util/trace_events.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>

#include "util/json.hh"
#include "util/logging.hh"
#include "util/metrics.hh"

namespace nvmcache {

namespace trace_detail {
std::atomic<bool> g_enabled{false};
} // namespace trace_detail

namespace {

/**
 * Per-thread chunked event storage. The owning thread is the only
 * writer: it fills slot count_ of the chunk list and then publishes
 * with a release store, so a concurrent exporter reading count_ with
 * acquire ordering sees fully constructed events. Chunks never
 * reallocate (fixed arrays), so published element addresses are
 * stable; the chunk-list vector itself is guarded by chunkMu_, taken
 * only when a chunk is allocated (once per kChunkSize events) and by
 * readers.
 */
class TraceBuffer
{
  public:
    static constexpr std::size_t kChunkSize = 4096;
    /** Soft cap per thread; beyond it events count as dropped. */
    static constexpr std::size_t kMaxEvents = std::size_t(1) << 20;

    explicit TraceBuffer(std::uint32_t tid) : tid_(tid) {}

    std::uint32_t tid() const { return tid_; }

    bool
    append(TraceEvent &&ev)
    {
        const std::size_t idx = count_.load(std::memory_order_relaxed);
        if (idx >= kMaxEvents)
            return false;
        const std::size_t chunk = idx / kChunkSize;
        {
            std::lock_guard<std::mutex> lock(chunkMu_);
            while (chunks_.size() <= chunk)
                chunks_.push_back(
                    std::make_unique<TraceEvent[]>(kChunkSize));
        }
        ev.tid = tid_;
        chunks_[chunk][idx % kChunkSize] = std::move(ev);
        count_.store(idx + 1, std::memory_order_release);
        return true;
    }

    std::size_t
    published() const
    {
        return count_.load(std::memory_order_acquire);
    }

    void
    collect(std::vector<TraceEvent> &out, std::uint64_t traceId) const
    {
        const std::size_t n = published();
        std::lock_guard<std::mutex> lock(chunkMu_);
        for (std::size_t i = 0; i < n; ++i) {
            const TraceEvent &ev = chunks_[i / kChunkSize]
                                          [i % kChunkSize];
            if (traceId == 0 || ev.traceId == traceId)
                out.push_back(ev);
        }
    }

    void
    clear()
    {
        count_.store(0, std::memory_order_release);
    }

  private:
    std::uint32_t tid_;
    std::atomic<std::size_t> count_{0};
    mutable std::mutex chunkMu_;
    std::vector<std::unique_ptr<TraceEvent[]>> chunks_;
};

struct Collector
{
    std::mutex mu;
    std::vector<std::shared_ptr<TraceBuffer>> buffers;
    std::atomic<std::uint64_t> dropped{0};
    std::atomic<std::uint64_t> nextTraceId{1};
};

Collector &
collector()
{
    static Collector c;
    return c;
}

TraceBuffer &
threadBuffer()
{
    thread_local std::shared_ptr<TraceBuffer> buf = [] {
        Collector &c = collector();
        std::lock_guard<std::mutex> lock(c.mu);
        auto b = std::make_shared<TraceBuffer>(
            std::uint32_t(c.buffers.size()));
        c.buffers.push_back(b);
        return b;
    }();
    return *buf;
}

using Clock = std::chrono::steady_clock;

/** Process epoch of the wall-clock axis, fixed by its first use. */
Clock::time_point
traceEpoch()
{
    static const Clock::time_point epoch = Clock::now();
    return epoch;
}

std::int64_t
micros(Clock::duration d)
{
    return std::chrono::duration_cast<std::chrono::microseconds>(d)
        .count();
}

/** Microseconds on the shared steady clock since the process epoch. */
std::int64_t
nowMicros()
{
    const Clock::time_point epoch = traceEpoch();
    return micros(Clock::now() - epoch);
}

void
emit(TraceEvent &&ev)
{
    if (!threadBuffer().append(std::move(ev)))
        collector().dropped.fetch_add(1, std::memory_order_relaxed);
}

TraceContext &
threadContext()
{
    thread_local TraceContext ctx;
    return ctx;
}

} // namespace

void
setTracingEnabled(bool on)
{
    trace_detail::g_enabled.store(on, std::memory_order_relaxed);
}

const TraceContext &
TraceContext::current()
{
    return threadContext();
}

TraceContext
TraceContext::child(const std::string &segment) const
{
    TraceContext c;
    c.path = path.empty() ? segment : path + "/" + segment;
    c.traceId = traceId;
    return c;
}

TraceScope::TraceScope(TraceContext ctx)
{
    if (!tracingEnabled())
        return;
    active_ = true;
    saved_ = threadContext();
    threadContext() = std::move(ctx);
}

TraceScope::~TraceScope()
{
    if (active_)
        threadContext() = std::move(saved_);
}

Phase::Phase(std::string name, const char *cat, std::string id)
    : name_(std::move(name)), cat_(cat), traced_(tracingEnabled())
{
    if (traced_) {
        id_ = std::move(id);
        traceId_ = threadContext().traceId;
        traceEpoch(); // fix the epoch no later than start_
    }
    start_ = Clock::now();
}

double
Phase::elapsedSeconds() const
{
    return std::chrono::duration<double>(Clock::now() - start_).count();
}

Phase::~Phase()
{
    const Clock::time_point end = Clock::now();
    MetricsRegistry::global()
        .distribution("phase." + name_)
        .add(std::chrono::duration<double>(end - start_).count());
    if (!traced_)
        return;
    TraceEvent ev;
    ev.kind = TraceEventKind::Span;
    ev.traceId = traceId_;
    ev.ts = micros(start_ - traceEpoch());
    ev.dur = micros(end - start_);
    ev.name = std::move(name_);
    ev.cat = cat_;
    ev.id = std::move(id_);
    emit(std::move(ev));
}

TraceTaskScope::TraceTaskScope(const TraceContext &parent,
                               std::size_t index)
    : scope_(tracingEnabled()
                 ? parent.child("job" + std::to_string(index))
                 : TraceContext{}),
      job_("parallel.job", "engine", TraceContext::current().path)
{
}

void
traceInstant(const char *name, const char *cat, std::string id)
{
    if (!tracingEnabled())
        return;
    TraceEvent ev;
    ev.kind = TraceEventKind::Instant;
    ev.traceId = threadContext().traceId;
    ev.ts = nowMicros();
    ev.name = name;
    ev.cat = cat;
    ev.id = std::move(id);
    emit(std::move(ev));
}

void
traceSimCounter(const char *name, std::string id,
                std::uint64_t simCycles, double value)
{
    if (!tracingEnabled())
        return;
    TraceEvent ev;
    ev.kind = TraceEventKind::Counter;
    ev.simTime = true;
    ev.traceId = threadContext().traceId;
    ev.ts = std::int64_t(simCycles);
    ev.value = value;
    ev.name = name;
    ev.cat = "sim";
    ev.id = std::move(id);
    emit(std::move(ev));
}

std::string
traceHashId(const std::string &bytes)
{
    std::uint64_t h = 1469598103934665603ull; // FNV-1a offset basis
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[17];
    static const char *hex = "0123456789abcdef";
    for (int i = 15; i >= 0; --i) {
        buf[i] = hex[h & 0xf];
        h >>= 4;
    }
    buf[16] = '\0';
    return buf;
}

std::uint64_t
newTraceId()
{
    return collector().nextTraceId.fetch_add(
        1, std::memory_order_relaxed);
}

std::size_t
traceEventCount()
{
    Collector &c = collector();
    std::vector<std::shared_ptr<TraceBuffer>> bufs;
    {
        std::lock_guard<std::mutex> lock(c.mu);
        bufs = c.buffers;
    }
    std::size_t n = 0;
    for (const auto &b : bufs)
        n += b->published();
    return n;
}

std::uint64_t
traceDroppedCount()
{
    return collector().dropped.load(std::memory_order_relaxed);
}

void
clearTraceEvents()
{
    Collector &c = collector();
    std::vector<std::shared_ptr<TraceBuffer>> bufs;
    {
        std::lock_guard<std::mutex> lock(c.mu);
        bufs = c.buffers;
    }
    for (const auto &b : bufs)
        b->clear();
    c.dropped.store(0, std::memory_order_relaxed);
}

std::vector<TraceEvent>
snapshotTraceEvents(std::uint64_t traceId)
{
    Collector &c = collector();
    std::vector<std::shared_ptr<TraceBuffer>> bufs;
    {
        std::lock_guard<std::mutex> lock(c.mu);
        bufs = c.buffers;
    }
    std::vector<TraceEvent> out;
    for (const auto &b : bufs)
        b->collect(out, traceId);

    // Content order, never wall-clock order: the simulated-time axis
    // (sim counters) participates, the host clock does not, so two
    // runs of the same configuration sort identically.
    std::stable_sort(
        out.begin(), out.end(),
        [](const TraceEvent &a, const TraceEvent &b) {
            if (a.cat != b.cat)
                return a.cat < b.cat;
            if (a.id != b.id)
                return a.id < b.id;
            if (a.name != b.name)
                return a.name < b.name;
            if (a.kind != b.kind)
                return a.kind < b.kind;
            const std::int64_t ats = a.simTime ? a.ts : 0;
            const std::int64_t bts = b.simTime ? b.ts : 0;
            if (ats != bts)
                return ats < bts;
            if (a.value != b.value)
                return a.value < b.value;
            return a.traceId < b.traceId;
        });
    return out;
}

namespace {

JsonValue
eventToJson(const TraceEvent &ev)
{
    JsonValue e = JsonValue::makeObject();
    e.set("name", JsonValue::makeString(ev.name));
    e.set("cat", JsonValue::makeString(ev.cat));
    e.set("pid", JsonValue::makeNumber(ev.simTime ? 2.0 : 1.0));
    e.set("tid", JsonValue::makeNumber(double(ev.tid)));
    e.set("ts", JsonValue::makeNumber(double(ev.ts)));
    JsonValue args = JsonValue::makeObject();
    switch (ev.kind) {
      case TraceEventKind::Span:
        e.set("ph", JsonValue::makeString("X"));
        e.set("dur", JsonValue::makeNumber(double(ev.dur)));
        args.set("id", JsonValue::makeString(ev.id));
        break;
      case TraceEventKind::Instant:
        e.set("ph", JsonValue::makeString("i"));
        e.set("s", JsonValue::makeString("t"));
        args.set("id", JsonValue::makeString(ev.id));
        break;
      case TraceEventKind::Counter:
        e.set("ph", JsonValue::makeString("C"));
        // Chrome/Perfetto key counter tracks on (pid, name, id): the
        // top-level id keeps each run's series separate.
        e.set("id", JsonValue::makeString(ev.id));
        args.set("value", JsonValue::makeNumber(ev.value));
        break;
    }
    if (ev.traceId)
        args.set("trace", JsonValue::makeString(
                              "t" + std::to_string(ev.traceId)));
    e.set("args", std::move(args));
    return e;
}

} // namespace

JsonValue
traceEventsToJson(std::uint64_t traceId)
{
    JsonValue doc = JsonValue::makeObject();
    JsonValue events = JsonValue::makeArray();

    JsonValue wall = JsonValue::makeObject();
    wall.set("name", JsonValue::makeString("process_name"));
    wall.set("ph", JsonValue::makeString("M"));
    wall.set("pid", JsonValue::makeNumber(1.0));
    JsonValue wallArgs = JsonValue::makeObject();
    wallArgs.set("name",
                 JsonValue::makeString("nvmcache wall-clock"));
    wall.set("args", std::move(wallArgs));
    events.push(std::move(wall));

    JsonValue sim = JsonValue::makeObject();
    sim.set("name", JsonValue::makeString("process_name"));
    sim.set("ph", JsonValue::makeString("M"));
    sim.set("pid", JsonValue::makeNumber(2.0));
    JsonValue simArgs = JsonValue::makeObject();
    simArgs.set("name", JsonValue::makeString(
                            "nvmcache simulated-time (cycles)"));
    sim.set("args", std::move(simArgs));
    events.push(std::move(sim));

    for (const TraceEvent &ev : snapshotTraceEvents(traceId))
        events.push(eventToJson(ev));
    doc.set("traceEvents", std::move(events));
    const std::uint64_t dropped = traceDroppedCount();
    if (dropped)
        doc.set("droppedEvents",
                JsonValue::makeNumber(double(dropped)));
    return doc;
}

std::string
exportTraceJson(std::uint64_t traceId)
{
    return traceEventsToJson(traceId).dump();
}

void
writeTraceFile(const std::string &path, std::uint64_t traceId)
{
    ensureParentDir(path);
    std::ofstream out(path);
    if (!out)
        fatal("cannot open trace output file '", path, "'");
    out << exportTraceJson(traceId) << "\n";
    if (!out)
        fatal("failed writing trace output file '", path, "'");
}

} // namespace nvmcache
