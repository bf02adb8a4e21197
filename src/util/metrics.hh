/**
 * @file
 * Hierarchical statistics registry in the gem5/Sniper idiom.
 *
 * Every subsystem publishes named stats under dotted paths
 * ("sim.llc.writeHits", "runner.memo.hits") instead of growing ad-hoc
 * struct fields. Three stat kinds cover the simulator's needs:
 *
 *  - Counter:      monotonic event count (atomic, lock-free).
 *  - Gauge:        last-written / accumulated double (atomic).
 *  - Distribution: log-2 bucketed histogram with min/max/mean/stdev
 *                  maintained by the Welford Accumulator (stats.hh).
 *
 * A MetricsRegistry maps dotted paths to stats with stable addresses,
 * so hot paths hold a reference and never re-look a path up. The
 * process-wide MetricsRegistry::global() carries cross-run stats
 * (runner.*, estimator.*, phase.*); per-run simulation stats are
 * exported into a fresh local registry and carried in SimStats, which
 * keeps them bit-identical at any experiment-engine concurrency.
 *
 * StatsSnapshot freezes a registry into plain values that can be
 * diffed against an earlier snapshot (exact per-run deltas even when
 * components are reused), merged across runs, and exported as JSON, as
 * CSV, or as Prometheus text.
 *
 * Layers are timed with Phase (util/trace_events.hh), which records
 * seconds into a Distribution ("phase.<name>"), and a small opt-in
 * progress reporter shows live run counts during long sweeps,
 * serialized through the logging sinks so concurrent jobs never shred
 * the line.
 */

#ifndef NVMCACHE_UTIL_METRICS_HH
#define NVMCACHE_UTIL_METRICS_HH

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "util/stats.hh"

namespace nvmcache {

/** Kind of one stat / exported snapshot entry. */
enum class StatKind
{
    Counter,
    Gauge,
    Distribution
};

std::string toString(StatKind kind);

/** Frozen state of one Distribution. */
struct DistributionSnapshot
{
    std::uint64_t count = 0;
    double sum = 0.0;
    double minimum = 0.0;
    double maximum = 0.0;
    double mean = 0.0; ///< Welford running mean
    double m2 = 0.0;   ///< Welford sum of squared deviations
    /** log-2 bucket index -> sample count (only non-empty buckets). */
    std::map<int, std::uint64_t> buckets;

    double stdev() const;

    /**
     * Estimated @p q-quantile (q in [0,1]) by cumulative walk of the
     * log-2 buckets with linear interpolation inside the crossing
     * bucket, clamped to the observed [minimum, maximum]. 0 when the
     * distribution is empty.
     */
    double percentile(double q) const;

    bool operator==(const DistributionSnapshot &) const = default;
};

/** Frozen value of one stat. */
struct StatValue
{
    StatKind kind = StatKind::Counter;
    double scalar = 0.0;       ///< Counter/Gauge value
    DistributionSnapshot dist; ///< Distribution only

    static StatValue counter(std::uint64_t v);
    static StatValue gauge(double v);

    bool operator==(const StatValue &) const = default;
};

/** Base of every registry-owned stat. */
class Stat
{
  public:
    virtual ~Stat() = default;
    virtual StatKind kind() const = 0;
    virtual StatValue value() const = 0;
};

/** Monotonic event counter; lock-free and thread-safe. */
class Counter : public Stat
{
  public:
    void inc(std::uint64_t n = 1)
    {
        v_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t get() const
    {
        return v_.load(std::memory_order_relaxed);
    }

    StatKind kind() const override { return StatKind::Counter; }
    StatValue value() const override;

  private:
    std::atomic<std::uint64_t> v_{0};
};

/** Last-written / accumulated double; thread-safe. */
class Gauge : public Stat
{
  public:
    void set(double v) { v_.store(v, std::memory_order_relaxed); }
    void add(double delta);
    double get() const { return v_.load(std::memory_order_relaxed); }

    StatKind kind() const override { return StatKind::Gauge; }
    StatValue value() const override;

  private:
    std::atomic<double> v_{0.0};
};

/**
 * Log-2 bucketed histogram with streaming moments.
 *
 * Bucket 0 holds samples < 1 (including 0); bucket k >= 1 holds
 * [2^(k-1), 2^k). Samples are expected non-negative (cycle counts,
 * depths, seconds); negative samples land in bucket 0 but still feed
 * the moment accumulator faithfully.
 */
class Distribution : public Stat
{
  public:
    static constexpr int kBuckets = 64;

    Distribution() = default;
    Distribution(const Distribution &other);
    Distribution &operator=(const Distribution &other);

    void add(double x);
    /** Fold another distribution in (exact under Chan combination). */
    void merge(const Distribution &other);
    void merge(const DistributionSnapshot &snap);

    DistributionSnapshot snapshot() const;

    /** Bucket index a sample lands in. */
    static int
    bucketOf(double x)
    {
        if (!(x >= 1.0)) // < 1, zero, negative, NaN
            return 0;
        const int b = std::ilogb(x) + 1;
        return b >= kBuckets ? kBuckets - 1 : b;
    }
    /** Inclusive lower edge of bucket @p b. */
    static double bucketLow(int b);
    /** Exclusive upper edge of bucket @p b. */
    static double bucketHigh(int b);

    StatKind kind() const override { return StatKind::Distribution; }
    StatValue value() const override;

  private:
    mutable std::mutex mu_;
    Accumulator acc_;
    std::array<std::uint64_t, kBuckets> buckets_{};
};

/**
 * Unsynchronized twin of Distribution for single-owner hot paths
 * (per-access simulator histograms): identical sample semantics —
 * the same Welford accumulator and the same buckets, fed in the same
 * order, reach the same state bit for bit — without the per-sample
 * mutex round trip. Publish it by merging its snapshot() into a
 * registry Distribution at export time.
 */
class LocalDistribution
{
  public:
    void
    add(double x)
    {
        acc_.add(x);
        ++buckets_[std::size_t(Distribution::bucketOf(x))];
    }

    DistributionSnapshot snapshot() const;

  private:
    Accumulator acc_;
    std::array<std::uint64_t, Distribution::kBuckets> buckets_{};
};

/** Escape a string for inclusion in a JSON string literal. */
std::string jsonEscape(const std::string &s);

/** On-disk format of an exported stats report. */
enum class StatsFormat
{
    Json,
    Csv
};

/**
 * Parse "json"/"csv" (fatal on anything else: it is a user-supplied
 * CLI value).
 */
StatsFormat parseStatsFormat(const std::string &name);

/**
 * A frozen, path-sorted stats report.
 *
 * Entries are flat dotted paths; the JSON exporter rebuilds the tree
 * by splitting on dots. Snapshots compose: diff() yields exact
 * per-interval deltas of counters and distributions, merge() overlays
 * another report (path collision keeps the other's entry), and
 * mergeSum() accumulates another report into this one (counters and
 * gauges add, distributions combine), which is how a study aggregates
 * per-run SimStats details into one figure-level report.
 */
class StatsSnapshot
{
  public:
    std::map<std::string, StatValue> entries;

    bool empty() const { return entries.empty(); }

    void set(const std::string &path, StatValue value);
    void setCounter(const std::string &path, std::uint64_t v);
    void setGauge(const std::string &path, double v);

    /** Overlay @p other; colliding paths take other's entry. */
    void merge(const StatsSnapshot &other);
    /** Accumulate @p other (counters/gauges add, distributions merge). */
    void mergeSum(const StatsSnapshot &other);
    /** Copy with every path prefixed by "@p prefix.". */
    StatsSnapshot withPrefix(const std::string &prefix) const;

    /**
     * Exact delta since @p before: counters subtract, distributions
     * invert the Chan combination (count/sum/mean/m2/buckets are
     * exact; min/max keep this snapshot's values since extrema are not
     * invertible). Gauges and entries absent from @p before pass
     * through unchanged.
     */
    StatsSnapshot diff(const StatsSnapshot &before) const;

    /** Nested pretty-printed JSON tree. */
    std::string toJson() const;
    /** Flat CSV: path,kind,value,count,sum,min,max,mean,stdev,p50,p95,p99. */
    std::string toCsv() const;
    /**
     * Prometheus text exposition (text/plain version 0.0.4): dotted
     * paths become underscore-joined metric names under @p prefix,
     * counters/gauges one sample each, distributions a summary
     * (quantile-labeled samples plus _sum and _count).
     */
    std::string toPrometheus(const std::string &prefix = "nvmcache") const;

    bool operator==(const StatsSnapshot &) const = default;
};

/**
 * Create @p path's missing parent directories, fatal with both the
 * directory and the requested file named when creation fails. Shared
 * by every --stats-out / --trace-out style writer.
 */
void ensureParentDir(const std::string &path);

/** Write a report to @p path in @p format (fatal on I/O failure). */
void writeStatsFile(const std::string &path, const StatsSnapshot &snap,
                    StatsFormat format);

/**
 * Thread-safe hierarchical stats registry.
 *
 * Stats are created on first request and live as long as the registry;
 * returned references are stable, so hot paths resolve a path once.
 * Requesting an existing path with a different kind is a programming
 * error (panic).
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    Counter &counter(const std::string &path);
    Gauge &gauge(const std::string &path);
    Distribution &distribution(const std::string &path);

    StatsSnapshot snapshot() const;

    std::size_t size() const;

    /** Process-wide registry (runner.*, estimator.*, phase.*). */
    static MetricsRegistry &global();

  private:
    template <typename T>
    T &get(const std::string &path);

    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<Stat>> stats_;
};

// --- progress reporting (opt-in, console) ---------------------------

/** Globally enable/disable the live progress line (default off). */
void setProgressEnabled(bool on);
bool progressEnabled();

/**
 * Start a progress phase of @p total work items. No-op while
 * reporting is disabled. Thread-safe; the line is redrawn through the
 * logging sink lock so it never interleaves with warn()/inform().
 */
void progressBegin(const std::string &label, std::uint64_t total);
/** Mark @p n items of the current phase done and redraw. */
void progressTick(std::uint64_t n = 1);
/** Finish the current phase and release the console line. */
void progressEnd();

} // namespace nvmcache

#endif // NVMCACHE_UTIL_METRICS_HH
