/**
 * @file
 * End-to-end tracing subsystem: span timelines and simulated-time
 * event channels, exported as Chrome-trace-event JSON (loadable in
 * Perfetto / chrome://tracing).
 *
 * Three event kinds cover the framework's needs:
 *
 *  - Phase:         RAII scope timer around a layer — study dispatch,
 *                   a memoized simulation, a parallelMap job, a
 *                   replay run. Always a "phase.<name>" metric; also
 *                   a wall-clock span ("X" complete event) while
 *                   tracing is on.
 *  - traceInstant:  a point event ("i"), e.g. a memo hit.
 *  - traceSimCounter: a counter sample ("C") on the *simulated-time*
 *                   axis — LLC misses/writebacks/scrubs/retirements
 *                   against simulated cycles, the temporal substrate
 *                   the reliability and lifetime studies need.
 *
 * Events carry a deterministic id (a hierarchical path such as
 * "run/lbm/STT-1/c8/t1") assigned by the emitter, never by timing.
 * The exporter sorts events by content, so the trace's *semantic*
 * content is byte-identical (modulo wall-clock ts/dur/tid fields) at
 * any --jobs count. Wall-clock events live under pid 1,
 * simulated-time counter tracks under pid 2.
 *
 * Threading model: every thread appends to its own lock-free chunked
 * buffer (an atomic count published with release ordering; the chunk
 * list mutex is touched only on chunk allocation), so the enabled
 * path never contends. Event collection is a runtime toggle that is
 * OFF by default; when disabled every emission site reduces to one
 * relaxed atomic load, and a Phase only records its metric.
 *
 * TraceContext is a thread-local (path, traceId) pair: TraceScope
 * installs one for a dynamic extent, TraceTaskScope derives the
 * per-job child context that parallelMap installs in its workers, and
 * the daemon assigns a fresh traceId per request so `trace` protocol
 * queries can filter one request's spans out of the shared collector.
 */

#ifndef NVMCACHE_UTIL_TRACE_EVENTS_HH
#define NVMCACHE_UTIL_TRACE_EVENTS_HH

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace nvmcache {

class JsonValue;

namespace trace_detail {
extern std::atomic<bool> g_enabled;
} // namespace trace_detail

/** Globally enable/disable event collection (default off). */
void setTracingEnabled(bool on);

/** Cheap hot-path check: one relaxed atomic load. */
inline bool
tracingEnabled()
{
    return trace_detail::g_enabled.load(std::memory_order_relaxed);
}

/** Kind of one collected event. */
enum class TraceEventKind : std::uint8_t
{
    Span,    ///< "X" complete event (ts + dur)
    Instant, ///< "i" instant event
    Counter  ///< "C" counter sample
};

/** One collected event (the exporter's unit). */
struct TraceEvent
{
    TraceEventKind kind = TraceEventKind::Instant;
    bool simTime = false;      ///< Counter on the simulated-time axis
    std::uint32_t tid = 0;     ///< buffer registration order
    std::uint64_t traceId = 0; ///< 0 = no request association
    std::int64_t ts = 0;  ///< µs since collector epoch, or sim cycles
    std::int64_t dur = 0; ///< spans only, µs
    double value = 0.0;   ///< counters only
    std::string name;     ///< event name ("study.run", "llc.misses")
    std::string cat;      ///< category ("study","engine","sim","service")
    std::string id;       ///< deterministic hierarchical id
};

/**
 * Thread-local tracing context: the hierarchical id prefix under
 * which this thread currently emits, plus the active request trace
 * id. Copyable value type; install with TraceScope.
 */
struct TraceContext
{
    std::string path;
    std::uint64_t traceId = 0;

    /** The calling thread's current context. */
    static const TraceContext &current();

    /** This context extended by "/@p segment" ("seg" when empty). */
    TraceContext child(const std::string &segment) const;
};

/**
 * RAII install of a TraceContext for the current thread. No-op while
 * tracing is disabled (toggle before running, not mid-extent).
 */
class TraceScope
{
  public:
    explicit TraceScope(TraceContext ctx);
    ~TraceScope();

    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

  private:
    bool active_ = false;
    TraceContext saved_;
};

/**
 * RAII scope timer, the one way to time a layer. On destruction it
 * adds its wall-clock seconds to the global Distribution
 * "phase.<name>", whether tracing is on or off; while tracing is on
 * it also records an "X" span named @p name over its lifetime. @p id
 * is the span's full deterministic id (callers compose it from
 * TraceContext::current().path or use a self-contained id when the
 * emitting thread is raced over, e.g. memoized simulations); it is
 * dropped while tracing is off.
 */
class Phase
{
  public:
    Phase(std::string name, const char *cat, std::string id);
    ~Phase();

    Phase(const Phase &) = delete;
    Phase &operator=(const Phase &) = delete;

    /** Wall-clock seconds since construction. */
    double elapsedSeconds() const;

  private:
    std::string name_;
    const char *cat_;
    bool traced_;
    std::string id_;
    std::uint64_t traceId_ = 0;
    std::chrono::steady_clock::time_point start_;
};

/**
 * One parallelMap job: installs the child context "<parent>/job<index>"
 * for the job's dynamic extent and times the job as the
 * "parallel.job" Phase with that id, on the inline and pooled paths
 * identically — which is what keeps traces byte-identical at any job
 * count.
 */
class TraceTaskScope
{
  public:
    TraceTaskScope(const TraceContext &parent, std::size_t index);

  private:
    TraceScope scope_;
    Phase job_;
};

/** Emit an instant event (no-op while disabled). */
void traceInstant(const char *name, const char *cat, std::string id);

/**
 * Emit a simulated-time counter sample: @p simCycles is the simulated
 * cycle of the sample, the event lands on the sim-time track (pid 2,
 * category "sim"). Deterministic: both axis and value derive from
 * simulation state only.
 */
void traceSimCounter(const char *name, std::string id,
                     std::uint64_t simCycles, double value);

/** 16-hex-digit FNV-1a hash of @p bytes, for compact stable ids. */
std::string traceHashId(const std::string &bytes);

/** Fresh nonzero trace id (monotonic; the daemon's per-request ids). */
std::uint64_t newTraceId();

// --- collector inspection / export ----------------------------------

/** Events collected so far (all threads, published prefixes). */
std::size_t traceEventCount();

/** Events discarded because a thread hit its buffer cap. */
std::uint64_t traceDroppedCount();

/**
 * Reset the collector (all buffers, the dropped counter). Callers
 * must ensure no thread is emitting concurrently — between runs, not
 * during one.
 */
void clearTraceEvents();

/**
 * Copy out collected events, content-sorted (category, id, name,
 * kind, sim-ts, value — never wall-clock), optionally filtered to
 * @p traceId (0 keeps everything).
 */
std::vector<TraceEvent> snapshotTraceEvents(std::uint64_t traceId = 0);

/**
 * Chrome-trace-event JSON document: {"traceEvents":[...]} with
 * process_name metadata for the wall-clock (pid 1) and simulated-time
 * (pid 2) tracks, events content-sorted. Adds "droppedEvents" at the
 * root when the cap was hit.
 */
JsonValue traceEventsToJson(std::uint64_t traceId = 0);

/** traceEventsToJson().dump() — deterministic modulo ts/dur/tid. */
std::string exportTraceJson(std::uint64_t traceId = 0);

/**
 * Write the trace document to @p path, creating missing parent
 * directories (fatal with the named path on failure).
 */
void writeTraceFile(const std::string &path,
                    std::uint64_t traceId = 0);

} // namespace nvmcache

#endif // NVMCACHE_UTIL_TRACE_EVENTS_HH
