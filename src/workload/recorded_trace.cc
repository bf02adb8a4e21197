#include "workload/recorded_trace.hh"

#include <algorithm>
#include <stdexcept>

#include "util/logging.hh"
#include "util/varint.hh"
#include "util/wire.hh"

namespace nvmcache {

std::shared_ptr<const RecordedTrace>
RecordedTrace::record(const GeneratorConfig &cfg,
                      std::uint32_t numThreads)
{
    if (numThreads == 0)
        fatal("RecordedTrace: need at least one thread");

    std::shared_ptr<RecordedTrace> trace(new RecordedTrace());
    trace->tracks_.resize(numThreads);

    std::array<MemAccess, 256> batch;
    for (std::uint32_t t = 0; t < numThreads; ++t) {
        SyntheticTrace gen(cfg, t, numThreads);
        Track &track = trace->tracks_[t];
        const std::uint64_t expected =
            cfg.totalAccesses / numThreads +
            (t == 0 ? cfg.totalAccesses % numThreads : 0);
        // Deltas are mostly <= 4 bytes and gaps 1 byte; 6 per access
        // over-reserves slightly, then we trim once below.
        track.stream.reserve(expected * 6);
        track.kinds.reserve(expected / 4 + 1);

        std::uint64_t prev = 0;
        std::size_t n;
        while ((n = gen.fill(batch)) > 0) {
            for (std::size_t i = 0; i < n; ++i) {
                const MemAccess &a = batch[i];
                putVarint(track.stream,
                          zigzag(std::int64_t(a.addr - prev)));
                prev = a.addr;
                putVarint(track.stream, a.nonMemInstrs);
                if ((track.count & 3) == 0)
                    track.kinds.push_back(0);
                track.kinds.back() |= std::uint8_t(
                    std::uint8_t(a.kind) << ((track.count & 3) * 2));
                ++track.count;
            }
        }
        track.stream.insert(track.stream.end(), kVarintPad, 0);
        track.stream.shrink_to_fit();
        track.kinds.shrink_to_fit();
    }
    return trace;
}

std::uint64_t
RecordedTrace::accesses(std::uint32_t thread) const
{
    if (thread >= tracks_.size())
        fatal("RecordedTrace: bad thread index ", thread);
    return tracks_[thread].count;
}

std::uint64_t
RecordedTrace::totalAccesses() const
{
    std::uint64_t total = 0;
    for (const Track &t : tracks_)
        total += t.count;
    return total;
}

std::uint64_t
RecordedTrace::packedBytes() const
{
    std::uint64_t bytes = 0;
    for (const Track &t : tracks_)
        bytes += t.stream.size() + t.kinds.size();
    return bytes;
}

TraceCursor
RecordedTrace::cursor(std::uint32_t thread) const
{
    if (thread >= tracks_.size())
        fatal("RecordedTrace: bad thread index ", thread);
    return TraceCursor(&tracks_[thread]);
}

std::vector<TraceCursor>
RecordedTrace::cursors() const
{
    std::vector<TraceCursor> all;
    all.reserve(tracks_.size());
    for (const Track &t : tracks_)
        all.push_back(TraceCursor(&t));
    return all;
}

std::size_t
TraceCursor::fill(std::span<MemAccess> out)
{
    if (!track_)
        return 0;
    const std::uint64_t left = track_->count - idx_;
    const std::size_t n =
        std::size_t(std::min<std::uint64_t>(out.size(), left));
    const std::uint8_t *p = pos_;
    const std::uint8_t *kinds = track_->kinds.data();
    std::uint64_t addr = addr_;
    std::uint64_t idx = idx_;
    for (std::size_t i = 0; i < n; ++i, ++idx) {
        addr += std::uint64_t(unzigzag(getVarintFast(p)));
        const std::uint64_t gap = getVarintFast(p);
        MemAccess &a = out[i];
        a.addr = addr;
        a.kind = AccessKind((kinds[idx >> 2] >> ((idx & 3) * 2)) & 3);
        a.nonMemInstrs = std::uint32_t(gap);
    }
    pos_ = p;
    addr_ = addr;
    idx_ = idx;
    return n;
}

std::uint32_t
TraceCursor::fillBlock(TraceBlock &out)
{
    if (!track_) {
        out.count = 0;
        return 0;
    }
    const std::uint64_t left = track_->count - idx_;
    const std::uint32_t n = std::uint32_t(
        std::min<std::uint64_t>(TraceBlock::kCapacity, left));
    const std::uint8_t *p = pos_;
    const std::uint8_t *kinds = track_->kinds.data();
    std::uint64_t addr = addr_;
    std::uint64_t idx = idx_;
    for (std::uint32_t i = 0; i < n; ++i, ++idx) {
        addr += std::uint64_t(unzigzag(getVarintFast(p)));
        const std::uint64_t gap = getVarintFast(p);
        out.addr[i] = addr;
        out.gap[i] = std::uint32_t(gap);
        out.kind[i] = (kinds[idx >> 2] >> ((idx & 3) * 2)) & 3;
    }
    pos_ = p;
    addr_ = addr;
    idx_ = idx;
    out.count = n;
    return n;
}

void
TraceCursor::reset()
{
    if (!track_)
        return;
    pos_ = track_->stream.data();
    idx_ = 0;
    addr_ = 0;
}

std::string
RecordedTrace::serialize() const
{
    WireWriter w;
    w.putU32(std::uint32_t(tracks_.size()));
    for (const Track &track : tracks_) {
        w.putU64(track.count);
        w.putU64(track.stream.size());
        w.putBytes(track.stream.data(), track.stream.size());
        w.putU64(track.kinds.size());
        w.putBytes(track.kinds.data(), track.kinds.size());
    }
    return w.take();
}

std::shared_ptr<const RecordedTrace>
RecordedTrace::deserialize(const std::string &payload)
{
    // TraceCursor decodes without bounds checks, so a track must hold
    // exactly what record() writes: a 2-bit kind per access, and a
    // stream of one (address delta, gap) varint pair per access
    // followed by kVarintPad zero bytes.
    const auto fail = [](std::uint32_t t, std::uint64_t access,
                         const char *what) {
        throw std::runtime_error(
            "RecordedTrace payload: track " + std::to_string(t) +
            " access " + std::to_string(access) + ": " + what);
    };

    WireReader r(payload);
    const std::uint32_t numTracks = r.getU32();
    r.expectCount(numTracks, 8 * 3); // count and two lengths per track
    std::shared_ptr<RecordedTrace> trace(new RecordedTrace());
    trace->tracks_.resize(numTracks);
    for (std::uint32_t t = 0; t < numTracks; ++t) {
        Track &track = trace->tracks_[t];
        track.count = r.getU64();
        const std::string stream = r.getStr();
        track.stream.assign(stream.begin(), stream.end());
        const std::string kinds = r.getStr();
        track.kinds.assign(kinds.begin(), kinds.end());
        if (track.kinds.size() * 4 < track.count)
            fail(t, track.kinds.size() * 4, "kind column too short");
        VarintWalk walk(track.stream);
        for (std::uint64_t i = 0; i < track.count; ++i)
            if (!walk.next() || !walk.next())
                fail(t, i, "malformed access stream");
        if (!walk.atPadding())
            fail(t, track.count,
                 "access stream does not end in exactly its padding");
    }
    r.expectEnd();
    return trace;
}

bool
RecordedTraceSource::next(MemAccess &out)
{
    if (pos_ == n_) {
        n_ = std::uint32_t(cur_.fill(buf_));
        pos_ = 0;
        if (n_ == 0)
            return false;
    }
    out = buf_[pos_++];
    return true;
}

void
RecordedTraceSource::reset()
{
    cur_.reset();
    pos_ = n_ = 0;
}

} // namespace nvmcache
