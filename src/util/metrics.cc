#include "util/metrics.hh"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "util/logging.hh"

namespace nvmcache {

std::string
toString(StatKind kind)
{
    switch (kind) {
      case StatKind::Counter:
        return "counter";
      case StatKind::Gauge:
        return "gauge";
      case StatKind::Distribution:
        return "distribution";
    }
    panic("bad StatKind");
}

double
DistributionSnapshot::stdev() const
{
    if (count < 2)
        return 0.0;
    return std::sqrt(std::max(0.0, m2) / double(count));
}

double
DistributionSnapshot::percentile(double q) const
{
    if (count == 0)
        return 0.0;
    if (q <= 0.0)
        return minimum;
    if (q >= 1.0)
        return maximum;
    // Rank of the requested quantile among the count samples, then a
    // cumulative walk to the bucket holding that rank.
    const double rank = q * double(count);
    double below = 0.0;
    for (const auto &[bucket, n] : buckets) {
        const double above = below + double(n);
        if (rank <= above) {
            const double low = Distribution::bucketLow(bucket);
            const double high = Distribution::bucketHigh(bucket);
            const double frac = (rank - below) / double(n);
            const double est = low + frac * (high - low);
            return std::min(maximum, std::max(minimum, est));
        }
        below = above;
    }
    return maximum;
}

StatValue
StatValue::counter(std::uint64_t v)
{
    StatValue sv;
    sv.kind = StatKind::Counter;
    sv.scalar = double(v);
    return sv;
}

StatValue
StatValue::gauge(double v)
{
    StatValue sv;
    sv.kind = StatKind::Gauge;
    sv.scalar = v;
    return sv;
}

StatValue
Counter::value() const
{
    return StatValue::counter(get());
}

void
Gauge::add(double delta)
{
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
    }
}

StatValue
Gauge::value() const
{
    return StatValue::gauge(get());
}

// --- Distribution ----------------------------------------------------

Distribution::Distribution(const Distribution &other)
{
    *this = other;
}

Distribution &
Distribution::operator=(const Distribution &other)
{
    if (this == &other)
        return *this;
    std::scoped_lock lock(mu_, other.mu_);
    acc_ = other.acc_;
    buckets_ = other.buckets_;
    return *this;
}

double
Distribution::bucketLow(int b)
{
    return b <= 0 ? 0.0 : std::ldexp(1.0, b - 1);
}

double
Distribution::bucketHigh(int b)
{
    return b <= 0 ? 1.0 : std::ldexp(1.0, b);
}

void
Distribution::add(double x)
{
    std::lock_guard<std::mutex> lock(mu_);
    acc_.add(x);
    ++buckets_[std::size_t(bucketOf(x))];
}

void
Distribution::merge(const Distribution &other)
{
    merge(other.snapshot());
}

void
Distribution::merge(const DistributionSnapshot &snap)
{
    if (snap.count == 0)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    acc_.merge(Accumulator::fromState(snap.count, snap.sum,
                                      snap.minimum, snap.maximum,
                                      snap.mean, snap.m2));
    for (const auto &[bucket, n] : snap.buckets)
        if (bucket >= 0 && bucket < kBuckets)
            buckets_[std::size_t(bucket)] += n;
}

DistributionSnapshot
Distribution::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    DistributionSnapshot snap;
    snap.count = acc_.count();
    snap.sum = acc_.total();
    snap.minimum = acc_.minimum();
    snap.maximum = acc_.maximum();
    snap.mean = acc_.welfordMean();
    snap.m2 = acc_.sumSquaredDev();
    for (int b = 0; b < kBuckets; ++b)
        if (buckets_[std::size_t(b)])
            snap.buckets[b] = buckets_[std::size_t(b)];
    return snap;
}

DistributionSnapshot
LocalDistribution::snapshot() const
{
    DistributionSnapshot snap;
    snap.count = acc_.count();
    snap.sum = acc_.total();
    snap.minimum = acc_.minimum();
    snap.maximum = acc_.maximum();
    snap.mean = acc_.welfordMean();
    snap.m2 = acc_.sumSquaredDev();
    for (int b = 0; b < Distribution::kBuckets; ++b)
        if (buckets_[std::size_t(b)])
            snap.buckets[b] = buckets_[std::size_t(b)];
    return snap;
}

StatValue
Distribution::value() const
{
    StatValue sv;
    sv.kind = StatKind::Distribution;
    sv.dist = snapshot();
    return sv;
}

// --- snapshot / export ----------------------------------------------

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (unsigned char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += char(c);
            }
        }
    }
    return out;
}

StatsFormat
parseStatsFormat(const std::string &name)
{
    if (name == "json")
        return StatsFormat::Json;
    if (name == "csv")
        return StatsFormat::Csv;
    fatal("unknown stats format '", name, "' (expected json or csv)");
}

namespace {

/** Shortest decimal form that round-trips a double. */
std::string
numberToJson(double v)
{
    if (!std::isfinite(v))
        // JSON has no Inf/NaN literals; null keeps the document valid.
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    double back = 0.0;
    std::sscanf(buf, "%lf", &back);
    if (back == v) {
        // Try shorter forms for readability.
        for (int prec = 1; prec <= 16; ++prec) {
            char shorter[40];
            std::snprintf(shorter, sizeof(shorter), "%.*g", prec, v);
            std::sscanf(shorter, "%lf", &back);
            if (back == v)
                return shorter;
        }
    }
    return buf;
}

std::string
scalarToJson(const StatValue &v)
{
    if (v.kind == StatKind::Counter) {
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%llu",
                      (unsigned long long)(v.scalar));
        return buf;
    }
    return numberToJson(v.scalar);
}

void
distToJson(std::ostringstream &os, const DistributionSnapshot &d,
           const std::string &indent)
{
    const std::string in2 = indent + "  ";
    os << "{\n";
    os << in2 << "\"count\": " << d.count << ",\n";
    os << in2 << "\"sum\": " << numberToJson(d.sum) << ",\n";
    os << in2 << "\"min\": " << numberToJson(d.minimum) << ",\n";
    os << in2 << "\"max\": " << numberToJson(d.maximum) << ",\n";
    os << in2 << "\"mean\": " << numberToJson(d.mean) << ",\n";
    os << in2 << "\"stdev\": " << numberToJson(d.stdev()) << ",\n";
    os << in2 << "\"p50\": " << numberToJson(d.percentile(0.50))
       << ",\n";
    os << in2 << "\"p95\": " << numberToJson(d.percentile(0.95))
       << ",\n";
    os << in2 << "\"p99\": " << numberToJson(d.percentile(0.99))
       << ",\n";
    os << in2 << "\"buckets\": [";
    bool first = true;
    for (const auto &[bucket, n] : d.buckets) {
        if (!first)
            os << ",";
        first = false;
        os << "\n"
           << in2 << "  {\"low\": "
           << numberToJson(Distribution::bucketLow(bucket))
           << ", \"high\": "
           << numberToJson(Distribution::bucketHigh(bucket))
           << ", \"count\": " << n << "}";
    }
    if (!first)
        os << "\n" << in2;
    os << "]\n" << indent << "}";
}

/** Path-tree node rebuilt from the flat dotted entries. */
struct TreeNode
{
    const StatValue *value = nullptr;
    std::map<std::string, TreeNode> children;
};

TreeNode
buildTree(const std::map<std::string, StatValue> &entries)
{
    TreeNode root;
    for (const auto &[path, value] : entries) {
        TreeNode *node = &root;
        std::size_t start = 0;
        while (true) {
            const std::size_t dot = path.find('.', start);
            const std::string seg =
                path.substr(start, dot == std::string::npos
                                       ? std::string::npos
                                       : dot - start);
            node = &node->children[seg];
            if (dot == std::string::npos)
                break;
            start = dot + 1;
        }
        node->value = &value;
    }
    return root;
}

void
nodeToJson(std::ostringstream &os, const TreeNode &node,
           const std::string &indent)
{
    // A node that is only a leaf prints its value in place; a node
    // that is both a leaf and a subtree keeps its value under the
    // reserved "_self" key.
    if (node.value && node.children.empty()) {
        if (node.value->kind == StatKind::Distribution)
            distToJson(os, node.value->dist, indent);
        else
            os << scalarToJson(*node.value);
        return;
    }
    const std::string in2 = indent + "  ";
    os << "{";
    bool first = true;
    auto key = [&](const std::string &name) {
        if (!first)
            os << ",";
        first = false;
        os << "\n" << in2 << "\"" << jsonEscape(name) << "\": ";
    };
    if (node.value) {
        key("_self");
        if (node.value->kind == StatKind::Distribution)
            distToJson(os, node.value->dist, in2);
        else
            os << scalarToJson(*node.value);
    }
    for (const auto &[name, child] : node.children) {
        key(name);
        nodeToJson(os, child, in2);
    }
    if (!first)
        os << "\n" << indent;
    os << "}";
}

/** CSV-quote a field if it contains separators or quotes. */
std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

void
StatsSnapshot::set(const std::string &path, StatValue value)
{
    entries[path] = std::move(value);
}

void
StatsSnapshot::setCounter(const std::string &path, std::uint64_t v)
{
    entries[path] = StatValue::counter(v);
}

void
StatsSnapshot::setGauge(const std::string &path, double v)
{
    entries[path] = StatValue::gauge(v);
}

void
StatsSnapshot::merge(const StatsSnapshot &other)
{
    for (const auto &[path, value] : other.entries)
        entries[path] = value;
}

void
StatsSnapshot::mergeSum(const StatsSnapshot &other)
{
    for (const auto &[path, value] : other.entries) {
        auto [it, inserted] = entries.try_emplace(path, value);
        if (inserted)
            continue;
        StatValue &mine = it->second;
        if (mine.kind != value.kind)
            panic("StatsSnapshot::mergeSum: kind mismatch at '", path,
                  "'");
        switch (value.kind) {
          case StatKind::Counter:
          case StatKind::Gauge:
            mine.scalar += value.scalar;
            break;
          case StatKind::Distribution: {
            Distribution combined;
            combined.merge(mine.dist);
            combined.merge(value.dist);
            mine.dist = combined.snapshot();
            break;
          }
        }
    }
}

StatsSnapshot
StatsSnapshot::withPrefix(const std::string &prefix) const
{
    StatsSnapshot out;
    for (const auto &[path, value] : entries)
        out.entries[prefix + "." + path] = value;
    return out;
}

StatsSnapshot
StatsSnapshot::diff(const StatsSnapshot &before) const
{
    StatsSnapshot out;
    for (const auto &[path, value] : entries) {
        auto it = before.entries.find(path);
        if (it == before.entries.end() ||
            it->second.kind != value.kind) {
            out.entries[path] = value;
            continue;
        }
        const StatValue &prev = it->second;
        StatValue delta = value;
        switch (value.kind) {
          case StatKind::Counter:
            delta.scalar = value.scalar - prev.scalar;
            break;
          case StatKind::Gauge:
            // Gauges are instantaneous readings: keep the latest.
            break;
          case StatKind::Distribution: {
            const DistributionSnapshot &all = value.dist;
            const DistributionSnapshot &old = prev.dist;
            DistributionSnapshot d;
            if (all.count >= old.count && old.count > 0) {
                d.count = all.count - old.count;
                if (d.count == 0) {
                    delta.dist = DistributionSnapshot();
                    break;
                }
                d.sum = all.sum - old.sum;
                // Invert Chan's combination: with A = old, B = delta,
                //   mean = meanA + (nB/n)(meanB - meanA)
                //   m2   = m2A + m2B + (meanB-meanA)^2 nA nB / n
                const double n = double(all.count);
                const double na = double(old.count);
                const double nb = double(d.count);
                d.mean = old.mean + (all.mean - old.mean) * n / nb;
                const double dm = d.mean - old.mean;
                d.m2 = all.m2 - old.m2 - dm * dm * na * nb / n;
                if (d.m2 < 0.0)
                    d.m2 = 0.0;
                // Extrema are not invertible; report the full-window
                // extrema as the best available bound.
                d.minimum = all.minimum;
                d.maximum = all.maximum;
                d.buckets = all.buckets;
                for (const auto &[bucket, cnt] : old.buckets) {
                    auto bit = d.buckets.find(bucket);
                    if (bit == d.buckets.end())
                        continue;
                    if (bit->second <= cnt)
                        d.buckets.erase(bit);
                    else
                        bit->second -= cnt;
                }
            } else {
                d = all;
            }
            delta.dist = d;
            break;
          }
        }
        out.entries[path] = delta;
    }
    return out;
}

std::string
StatsSnapshot::toJson() const
{
    std::ostringstream os;
    TreeNode root = buildTree(entries);
    if (root.children.empty() && !root.value) {
        os << "{}";
    } else {
        nodeToJson(os, root, "");
    }
    os << "\n";
    return os.str();
}

std::string
StatsSnapshot::toCsv() const
{
    std::ostringstream os;
    os << "path,kind,value,count,sum,min,max,mean,stdev,p50,p95,p99\n";
    for (const auto &[path, value] : entries) {
        os << csvField(path) << "," << toString(value.kind) << ",";
        if (value.kind == StatKind::Distribution) {
            const DistributionSnapshot &d = value.dist;
            os << "," << d.count << "," << numberToJson(d.sum) << ","
               << numberToJson(d.minimum) << ","
               << numberToJson(d.maximum) << ","
               << numberToJson(d.mean) << ","
               << numberToJson(d.stdev()) << ","
               << numberToJson(d.percentile(0.50)) << ","
               << numberToJson(d.percentile(0.95)) << ","
               << numberToJson(d.percentile(0.99));
        } else {
            os << scalarToJson(value) << ",,,,,,,,,";
        }
        os << "\n";
    }
    return os.str();
}

namespace {

/** Dotted path -> Prometheus metric name under @p prefix. */
std::string
promName(const std::string &prefix, const std::string &path)
{
    std::string out = prefix.empty() ? "" : prefix + "_";
    for (char c : path) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9');
        out += ok ? c : '_';
    }
    return out;
}

/** Sample value in Prometheus syntax (Inf/NaN have literals here). */
std::string
promNumber(double v)
{
    if (std::isnan(v))
        return "NaN";
    if (std::isinf(v))
        return v > 0 ? "+Inf" : "-Inf";
    return numberToJson(v);
}

} // namespace

std::string
StatsSnapshot::toPrometheus(const std::string &prefix) const
{
    std::ostringstream os;
    for (const auto &[path, value] : entries) {
        const std::string name = promName(prefix, path);
        switch (value.kind) {
          case StatKind::Counter:
            os << "# TYPE " << name << " counter\n";
            os << name << " " << scalarToJson(value) << "\n";
            break;
          case StatKind::Gauge:
            os << "# TYPE " << name << " gauge\n";
            os << name << " " << promNumber(value.scalar) << "\n";
            break;
          case StatKind::Distribution: {
            const DistributionSnapshot &d = value.dist;
            os << "# TYPE " << name << " summary\n";
            for (double q : {0.5, 0.95, 0.99})
                os << name << "{quantile=\"" << numberToJson(q)
                   << "\"} " << promNumber(d.percentile(q)) << "\n";
            os << name << "_sum " << promNumber(d.sum) << "\n";
            os << name << "_count " << d.count << "\n";
            break;
          }
        }
    }
    return os.str();
}

void
ensureParentDir(const std::string &path)
{
    const std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    if (parent.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
    if (ec)
        fatal("cannot create directory '", parent.string(),
              "' for output file '", path, "': ", ec.message());
}

void
writeStatsFile(const std::string &path, const StatsSnapshot &snap,
               StatsFormat format)
{
    ensureParentDir(path);
    std::ofstream out(path);
    if (!out)
        fatal("cannot open stats output file '", path, "'");
    out << (format == StatsFormat::Json ? snap.toJson()
                                        : snap.toCsv());
    if (!out)
        fatal("failed writing stats output file '", path, "'");
}

// --- registry --------------------------------------------------------

namespace {

void
validatePath(const std::string &path)
{
    if (path.empty())
        panic("metrics: empty stat path");
    if (path.front() == '.' || path.back() == '.' ||
        path.find("..") != std::string::npos)
        panic("metrics: malformed stat path '", path, "'");
}

} // namespace

template <typename T>
T &
MetricsRegistry::get(const std::string &path)
{
    validatePath(path);
    std::lock_guard<std::mutex> lock(mu_);
    auto it = stats_.find(path);
    if (it == stats_.end())
        it = stats_.emplace(path, std::make_unique<T>()).first;
    T *stat = dynamic_cast<T *>(it->second.get());
    if (!stat)
        panic("metrics: stat '", path, "' already registered as ",
              toString(it->second->kind()));
    return *stat;
}

Counter &
MetricsRegistry::counter(const std::string &path)
{
    return get<Counter>(path);
}

Gauge &
MetricsRegistry::gauge(const std::string &path)
{
    return get<Gauge>(path);
}

Distribution &
MetricsRegistry::distribution(const std::string &path)
{
    return get<Distribution>(path);
}

StatsSnapshot
MetricsRegistry::snapshot() const
{
    StatsSnapshot snap;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &[path, stat] : stats_)
        snap.entries[path] = stat->value();
    return snap;
}

std::size_t
MetricsRegistry::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_.size();
}

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry registry;
    return registry;
}

// --- phase timer -----------------------------------------------------

// --- progress reporting ----------------------------------------------

namespace {

struct ProgressState
{
    std::mutex mu;
    bool enabled = false;
    bool active = false;
    std::string label;
    std::uint64_t total = 0;
    std::uint64_t done = 0;
};

ProgressState &
progressState()
{
    static ProgressState state;
    return state;
}

void
redrawLocked(ProgressState &st)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "[%s] %llu/%llu runs",
                  st.label.c_str(), (unsigned long long)st.done,
                  (unsigned long long)st.total);
    statusLine(buf);
}

} // namespace

void
setProgressEnabled(bool on)
{
    ProgressState &st = progressState();
    std::lock_guard<std::mutex> lock(st.mu);
    st.enabled = on;
}

bool
progressEnabled()
{
    ProgressState &st = progressState();
    std::lock_guard<std::mutex> lock(st.mu);
    return st.enabled;
}

void
progressBegin(const std::string &label, std::uint64_t total)
{
    ProgressState &st = progressState();
    std::lock_guard<std::mutex> lock(st.mu);
    if (!st.enabled)
        return;
    st.active = true;
    st.label = label;
    st.total = total;
    st.done = 0;
    redrawLocked(st);
}

void
progressTick(std::uint64_t n)
{
    ProgressState &st = progressState();
    std::lock_guard<std::mutex> lock(st.mu);
    if (!st.enabled || !st.active)
        return;
    st.done += n;
    redrawLocked(st);
}

void
progressEnd()
{
    ProgressState &st = progressState();
    std::lock_guard<std::mutex> lock(st.mu);
    if (!st.enabled || !st.active)
        return;
    st.active = false;
    redrawLocked(st);
    statusEnd();
}

} // namespace nvmcache
