#include "store/codec.hh"

#include <stdexcept>

#include "util/wire.hh"

namespace nvmcache {

namespace {

constexpr std::uint32_t kSimStatsVersion = 1;
constexpr std::uint32_t kFeaturesVersion = 1;

void
putDistribution(WireWriter &w, const DistributionSnapshot &d)
{
    w.putU64(d.count);
    w.putF64(d.sum);
    w.putF64(d.minimum);
    w.putF64(d.maximum);
    w.putF64(d.mean);
    w.putF64(d.m2);
    w.putU64(d.buckets.size());
    for (const auto &[bucket, n] : d.buckets) {
        w.putI64(bucket);
        w.putU64(n);
    }
}

DistributionSnapshot
getDistribution(WireReader &r)
{
    DistributionSnapshot d;
    d.count = r.getU64();
    d.sum = r.getF64();
    d.minimum = r.getF64();
    d.maximum = r.getF64();
    d.mean = r.getF64();
    d.m2 = r.getF64();
    const std::uint64_t buckets = r.getU64();
    for (std::uint64_t i = 0; i < buckets; ++i) {
        const std::int64_t bucket = r.getI64();
        const std::uint64_t n = r.getU64();
        d.buckets[int(bucket)] = n;
    }
    return d;
}

void
putSnapshot(WireWriter &w, const StatsSnapshot &snap)
{
    w.putU64(snap.entries.size());
    for (const auto &[path, value] : snap.entries) {
        w.putStr(path);
        w.putU8(std::uint8_t(value.kind));
        w.putF64(value.scalar);
        putDistribution(w, value.dist);
    }
}

StatsSnapshot
getSnapshot(WireReader &r)
{
    StatsSnapshot snap;
    const std::uint64_t n = r.getU64();
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::string path = r.getStr();
        StatValue value;
        const std::uint8_t kind = r.getU8();
        if (kind > std::uint8_t(StatKind::Distribution))
            throw std::runtime_error("bad stat kind in payload");
        value.kind = StatKind(kind);
        value.scalar = r.getF64();
        value.dist = getDistribution(r);
        snap.entries.emplace(path, std::move(value));
    }
    return snap;
}

void
putKind(WireWriter &w, const KindMetrics &k)
{
    w.putF64(k.globalEntropy);
    w.putF64(k.localEntropy);
    w.putU64(k.unique);
    w.putU64(k.footprint90);
    w.putU64(k.total);
}

KindMetrics
getKind(WireReader &r)
{
    KindMetrics k;
    k.globalEntropy = r.getF64();
    k.localEntropy = r.getF64();
    k.unique = r.getU64();
    k.footprint90 = r.getU64();
    k.total = r.getU64();
    return k;
}

} // namespace

std::string
encodeSimStats(const SimStats &s)
{
    WireWriter w;
    w.putU32(kSimStatsVersion);
    w.putU64(s.instructions);
    w.putF64(s.cycles);
    w.putF64(s.seconds);

    w.putU64(s.llc.demandReads);
    w.putU64(s.llc.demandHits);
    w.putU64(s.llc.demandMisses);
    w.putU64(s.llc.fills);
    w.putU64(s.llc.writebacksIn);
    w.putU64(s.llc.dirtyEvictions);
    w.putU64(s.llc.writeBypasses);
    w.putU64(s.llc.readWaitCycles);
    w.putU64(s.llc.writeStallCycles);
    w.putF64(s.llc.hitEnergy);
    w.putF64(s.llc.missEnergy);
    w.putF64(s.llc.writeEnergy);

    w.putU64(s.dramReads);
    w.putU64(s.dramWrites);
    w.putU64(s.dramQueueCycles);
    w.putU64(s.l1Misses);
    w.putU64(s.l2Misses);

    w.putU64(s.coreCycles.size());
    for (double c : s.coreCycles)
        w.putF64(c);

    w.putF64(s.llcLeakageEnergy);
    w.putF64(s.llcDynamicEnergy);

    putSnapshot(w, s.detail);
    return w.take();
}

SimStats
decodeSimStats(const std::string &payload)
{
    WireReader r(payload);
    if (r.getU32() != kSimStatsVersion)
        throw std::runtime_error("unsupported SimStats payload version");
    SimStats s;
    s.instructions = r.getU64();
    s.cycles = r.getF64();
    s.seconds = r.getF64();

    s.llc.demandReads = r.getU64();
    s.llc.demandHits = r.getU64();
    s.llc.demandMisses = r.getU64();
    s.llc.fills = r.getU64();
    s.llc.writebacksIn = r.getU64();
    s.llc.dirtyEvictions = r.getU64();
    s.llc.writeBypasses = r.getU64();
    s.llc.readWaitCycles = r.getU64();
    s.llc.writeStallCycles = r.getU64();
    s.llc.hitEnergy = r.getF64();
    s.llc.missEnergy = r.getF64();
    s.llc.writeEnergy = r.getF64();

    s.dramReads = r.getU64();
    s.dramWrites = r.getU64();
    s.dramQueueCycles = r.getU64();
    s.l1Misses = r.getU64();
    s.l2Misses = r.getU64();

    const std::uint64_t cores = r.getU64();
    r.expectCount(cores, 8);
    s.coreCycles.reserve(std::size_t(cores));
    for (std::uint64_t i = 0; i < cores; ++i)
        s.coreCycles.push_back(r.getF64());

    s.llcLeakageEnergy = r.getF64();
    s.llcDynamicEnergy = r.getF64();

    s.detail = getSnapshot(r);
    r.expectEnd();
    return s;
}

std::string
encodeFeatures(const WorkloadFeatures &f)
{
    WireWriter w;
    w.putU32(kFeaturesVersion);
    putKind(w, f.reads);
    putKind(w, f.writes);
    return w.take();
}

WorkloadFeatures
decodeFeatures(const std::string &payload)
{
    WireReader r(payload);
    if (r.getU32() != kFeaturesVersion)
        throw std::runtime_error("unsupported features payload version");
    WorkloadFeatures f;
    f.reads = getKind(r);
    f.writes = getKind(r);
    r.expectEnd();
    return f;
}

} // namespace nvmcache
