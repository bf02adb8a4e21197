#include "sim/private_trace.hh"

#include <stdexcept>
#include <string>

#include "util/logging.hh"
#include "util/wire.hh"

namespace nvmcache {

void
PrivateTrace::CachePortrait::capture(const SetAssocCache &cache)
{
    hits = cache.hits();
    misses = cache.misses();
    writebacks = cache.writebacks();
    setEvictions = cache.setEvictionsBySet();
    lineWrites = cache.lineWritesByWay();
}

void
PrivateTrace::CachePortrait::exportInto(MetricsRegistry &reg,
                                        const std::string &prefix) const
{
    // Mirror SetAssocCache::exportStats stat for stat and element for
    // element: the distributions' Welford state depends on add order,
    // and a replay run's registry must match a live run's bit for bit.
    reg.counter(prefix + ".hits").inc(hits);
    reg.counter(prefix + ".misses").inc(misses);
    reg.counter(prefix + ".writebacks").inc(writebacks);

    Distribution &evictions =
        reg.distribution(prefix + ".evictionsPerSet");
    for (std::uint32_t e : setEvictions)
        evictions.add(double(e));

    Distribution &writes = reg.distribution(prefix + ".writesPerLine");
    for (std::uint32_t w : lineWrites)
        writes.add(double(w));
}

std::shared_ptr<const PrivateTrace>
PrivateTrace::record(const std::vector<BatchSource *> &sources,
                     const CoreParams &params)
{
    if (sources.empty())
        fatal("PrivateTrace: need at least one source");

    std::shared_ptr<PrivateTrace> trace(new PrivateTrace());
    trace->lanes_.resize(sources.size());

    std::array<MemAccess, 256> batch;
    for (std::size_t t = 0; t < sources.size(); ++t) {
        PrivateCore core(params);
        Lane &lane = trace->lanes_[t];
        std::uint64_t prevWb = 0;
        std::size_t n;
        while ((n = sources[t]->fill(batch)) > 0) {
            for (std::size_t i = 0; i < n; ++i) {
                PrivateAccessOutcome out =
                    core.accessPrivate(batch[i]);
                const std::uint8_t nib =
                    std::uint8_t(PrivateEvent::of(out) |
                                 (out.writebacks.count << 2));
                if ((lane.count & 1) == 0)
                    lane.events.push_back(0);
                lane.events.back() |=
                    std::uint8_t(nib << ((lane.count & 1) * 4));
                for (std::uint32_t w = 0; w < out.writebacks.count;
                     ++w) {
                    const std::uint64_t a = out.writebacks.addr[w];
                    putVarint(lane.wbStream,
                              zigzag(std::int64_t(a - prevWb)));
                    prevWb = a;
                }
                ++lane.count;
            }
        }
        lane.wbStream.insert(lane.wbStream.end(), kVarintPad, 0);
        lane.events.shrink_to_fit();
        lane.wbStream.shrink_to_fit();
        lane.l1i.capture(core.l1i());
        lane.l1d.capture(core.l1d());
        lane.l2.capture(core.l2());
    }
    return trace;
}

std::uint64_t
PrivateTrace::packedBytes() const
{
    std::uint64_t bytes = 0;
    for (const Lane &lane : lanes_)
        bytes += lane.events.size() + lane.wbStream.size();
    return bytes;
}

std::string
PrivateTrace::serialize() const
{
    const auto putPortrait = [](WireWriter &w,
                                const CachePortrait &c) {
        w.putU64(c.hits);
        w.putU64(c.misses);
        w.putU64(c.writebacks);
        w.putU64(c.setEvictions.size());
        for (std::uint32_t e : c.setEvictions)
            w.putU32(e);
        w.putU64(c.lineWrites.size());
        for (std::uint32_t v : c.lineWrites)
            w.putU32(v);
    };

    WireWriter w;
    w.putU32(std::uint32_t(lanes_.size()));
    for (const Lane &lane : lanes_) {
        w.putU64(lane.count);
        w.putU64(lane.events.size());
        w.putBytes(lane.events.data(), lane.events.size());
        w.putU64(lane.wbStream.size());
        w.putBytes(lane.wbStream.data(), lane.wbStream.size());
        for (const CachePortrait *c :
             {&lane.l1i, &lane.l1d, &lane.l2})
            putPortrait(w, *c);
    }
    return w.take();
}

std::shared_ptr<const PrivateTrace>
PrivateTrace::deserialize(const std::string &payload)
{
    const auto getPortrait = [](WireReader &r) {
        CachePortrait c;
        c.hits = r.getU64();
        c.misses = r.getU64();
        c.writebacks = r.getU64();
        const std::uint64_t sets = r.getU64();
        r.expectCount(sets, 4);
        c.setEvictions.reserve(std::size_t(sets));
        for (std::uint64_t i = 0; i < sets; ++i)
            c.setEvictions.push_back(r.getU32());
        const std::uint64_t lines = r.getU64();
        r.expectCount(lines, 4);
        c.lineWrites.reserve(std::size_t(lines));
        for (std::uint64_t i = 0; i < lines; ++i)
            c.lineWrites.push_back(r.getU32());
        return c;
    };

    // PrivateCursor decodes without bounds checks, so a lane must
    // hold exactly what record() writes: nibbles with a valid outcome
    // and at most WritebackSet::addr.size() writebacks, and a writeback
    // stream of exactly those writebacks' varints followed by
    // kVarintPad zero bytes (getVarintFast loads 8-byte windows).
    const auto checkLane = [](const Lane &lane, std::uint32_t t) {
        const auto fail = [t](std::uint64_t event, const char *what) {
            throw std::runtime_error(
                "PrivateTrace payload: lane " + std::to_string(t) +
                " event " + std::to_string(event) + ": " + what);
        };
        VarintWalk wb(lane.wbStream);
        for (std::uint64_t i = 0; i < lane.count; ++i) {
            const std::uint8_t nib =
                (lane.events[i >> 1] >> ((i & 1) * 4)) & 0xF;
            const std::uint8_t wbCount = nib >> 2;
            if ((nib & 3) == 3 || wbCount > WritebackSet{}.addr.size())
                fail(i, "invalid outcome nibble");
            for (std::uint8_t w = 0; w < wbCount; ++w)
                if (!wb.next())
                    fail(i, "malformed writeback stream");
        }
        if (!wb.atPadding())
            fail(lane.count, "writeback stream does not end in exactly "
                             "its padding");
    };

    WireReader r(payload);
    const std::uint32_t numLanes = r.getU32();
    // A lane is at least its count, two lengths and three portraits
    // of five u64 fields each.
    r.expectCount(numLanes, 8 * (3 + 3 * 5));
    std::shared_ptr<PrivateTrace> trace(new PrivateTrace());
    trace->lanes_.resize(numLanes);
    for (std::uint32_t t = 0; t < numLanes; ++t) {
        Lane &lane = trace->lanes_[t];
        lane.count = r.getU64();
        const std::string events = r.getStr();
        lane.events.assign(events.begin(), events.end());
        const std::string wbStream = r.getStr();
        lane.wbStream.assign(wbStream.begin(), wbStream.end());
        // Two nibble-packed events per byte; replay must never read
        // past the end of the column.
        if (lane.events.size() * 2 < lane.count)
            throw std::runtime_error(
                "PrivateTrace payload: event column too short");
        checkLane(lane, t);
        lane.l1i = getPortrait(r);
        lane.l1d = getPortrait(r);
        lane.l2 = getPortrait(r);
    }
    r.expectEnd();
    return trace;
}

PrivateCursor
PrivateTrace::cursor(std::uint32_t thread) const
{
    if (thread >= lanes_.size())
        fatal("PrivateTrace: bad thread index ", thread);
    return PrivateCursor(&lanes_[thread]);
}

void
PrivateTrace::exportCaches(MetricsRegistry &reg,
                           const std::string &prefix,
                           std::uint32_t thread) const
{
    if (thread >= lanes_.size())
        fatal("PrivateTrace: bad thread index ", thread);
    const Lane &lane = lanes_[thread];
    lane.l1i.exportInto(reg, prefix + ".l1i");
    lane.l1d.exportInto(reg, prefix + ".l1d");
    lane.l2.exportInto(reg, prefix + ".l2");
}

} // namespace nvmcache
