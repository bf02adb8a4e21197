/**
 * @file
 * LEB128 varint and zigzag coding shared by the packed trace stores
 * (workload/recorded_trace, sim/private_trace).
 *
 * Streams are sequences of varints appended with putVarint and read
 * back with getVarint / getVarintFast. The fast decoder reads one
 * unaligned 8-byte window per varint, so any buffer it decodes must
 * keep kVarintPad readable (zero) bytes after the last varint; a
 * stream read from outside the process is checked with VarintWalk
 * before it is decoded.
 */

#ifndef NVMCACHE_UTIL_VARINT_HH
#define NVMCACHE_UTIL_VARINT_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

namespace nvmcache {

/**
 * Zero bytes to append after a varint stream so getVarintFast may
 * always load a full 8-byte window at any varint start.
 */
constexpr std::size_t kVarintPad = 8;

/** LEB128: 7 value bits per byte, high bit = continuation. */
inline void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(std::uint8_t(v) | 0x80);
        v >>= 7;
    }
    out.push_back(std::uint8_t(v));
}

/** Byte-loop decode; needs no padding past the varint's own bytes. */
inline std::uint64_t
getVarint(const std::uint8_t *&p)
{
    std::uint8_t byte = *p++;
    std::uint64_t v = byte & 0x7f;
    unsigned shift = 7;
    while (byte & 0x80) {
        byte = *p++;
        v |= std::uint64_t(byte & 0x7f) << shift;
        shift += 7;
    }
    return v;
}

/**
 * Branch-light decode: load one 8-byte window (safe under kVarintPad
 * padding), locate the terminator byte with one bit scan, and
 * compress the 7-bit groups with straight-line shifts. Little-endian
 * only — the window load must place the first stream byte in the low
 * lane — and varints of 9+ bytes take the byte-loop fallback.
 * Decodes the same bytes to the same value as getVarint.
 */
inline std::uint64_t
getVarintFast(const std::uint8_t *&p)
{
    if constexpr (std::endian::native != std::endian::little)
        return getVarint(p);
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    if (!(w & 0x80)) { // 1-byte varint: the common case by far
        ++p;
        return w & 0x7f;
    }
    const std::uint64_t stops = ~w & 0x8080808080808080ull;
    if (stops == 0) // 9+ byte varint
        return getVarint(p);
    const unsigned nbytes =
        unsigned(std::countr_zero(stops) >> 3) + 1;
    p += nbytes;
    w &= ~std::uint64_t(0) >> (64 - 8 * nbytes);
    std::uint64_t v = w & 0x7f;
    v |= (w >> 1) & (std::uint64_t(0x7f) << 7);
    v |= (w >> 2) & (std::uint64_t(0x7f) << 14);
    v |= (w >> 3) & (std::uint64_t(0x7f) << 21);
    v |= (w >> 4) & (std::uint64_t(0x7f) << 28);
    v |= (w >> 5) & (std::uint64_t(0x7f) << 35);
    v |= (w >> 6) & (std::uint64_t(0x7f) << 42);
    v |= (w >> 7) & (std::uint64_t(0x7f) << 49);
    return v;
}

/**
 * Bounds-checked walk over a padded varint stream, for decoders that
 * check a stream once and then read it unchecked with getVarintFast:
 * each varint must be LEB128 of at most 10 bytes that ends before the
 * stream's last kVarintPad bytes, and those bytes must be zero.
 */
class VarintWalk
{
  public:
    explicit VarintWalk(const std::vector<std::uint8_t> &stream)
        : p_(stream.data()),
          pad_(stream.data() + stream.size() -
               std::min(stream.size(), kVarintPad)),
          end_(stream.data() + stream.size())
    {
    }

    /** Step over one varint; false when it is malformed or overruns. */
    bool
    next()
    {
        for (unsigned bytes = 0; bytes < 10; ++bytes) {
            if (p_ == pad_)
                return false;
            if (!(*p_++ & 0x80))
                return true;
        }
        return false;
    }

    /** Whether exactly kVarintPad zero bytes follow the walk. */
    bool
    atPadding() const
    {
        return p_ == pad_ && std::size_t(end_ - pad_) == kVarintPad &&
               std::all_of(pad_, end_,
                           [](std::uint8_t b) { return b == 0; });
    }

  private:
    const std::uint8_t *p_;
    const std::uint8_t *pad_;
    const std::uint8_t *end_;
};

/** Map signed deltas to small unsigned values (zigzag). */
inline std::uint64_t
zigzag(std::int64_t d)
{
    return (std::uint64_t(d) << 1) ^ std::uint64_t(d >> 63);
}

inline std::int64_t
unzigzag(std::uint64_t z)
{
    return std::int64_t(z >> 1) ^ -std::int64_t(z & 1);
}

} // namespace nvmcache

#endif // NVMCACHE_UTIL_VARINT_HH
