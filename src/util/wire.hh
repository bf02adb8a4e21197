/**
 * @file
 * Little-endian byte-stream primitives for binary record payloads
 * (the persistent result store's SimStats and trace codecs).
 *
 * WireWriter appends fixed-width little-endian fields to a string;
 * WireReader walks one back with bounds checking, throwing
 * std::runtime_error naming the defect on truncation. Doubles travel
 * as their raw IEEE-754 bit pattern (via uint64), so every value
 * round-trips bit-exactly — the store's warm-loaded results must be
 * byte-identical to freshly simulated ones.
 */

#ifndef NVMCACHE_UTIL_WIRE_HH
#define NVMCACHE_UTIL_WIRE_HH

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

namespace nvmcache {

class WireWriter
{
  public:
    void
    putU8(std::uint8_t v)
    {
        out_.push_back(char(v));
    }

    void
    putU32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            out_.push_back(char((v >> (8 * i)) & 0xFF));
    }

    void
    putU64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            out_.push_back(char((v >> (8 * i)) & 0xFF));
    }

    void
    putI64(std::int64_t v)
    {
        putU64(std::uint64_t(v));
    }

    /** Raw IEEE-754 bit pattern; bit-exact round trip, NaNs included. */
    void
    putF64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        putU64(bits);
    }

    void
    putBytes(const void *data, std::size_t n)
    {
        out_.append(static_cast<const char *>(data), n);
    }

    /** Length-prefixed string/blob. */
    void
    putStr(const std::string &s)
    {
        putU64(s.size());
        out_.append(s);
    }

    std::string take() { return std::move(out_); }
    const std::string &buffer() const { return out_; }

  private:
    std::string out_;
};

class WireReader
{
  public:
    explicit WireReader(const std::string &data) : data_(data) {}

    std::uint8_t
    getU8()
    {
        need(1);
        return std::uint8_t(data_[pos_++]);
    }

    std::uint32_t
    getU32()
    {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= std::uint32_t(std::uint8_t(data_[pos_++])) << (8 * i);
        return v;
    }

    std::uint64_t
    getU64()
    {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= std::uint64_t(std::uint8_t(data_[pos_++])) << (8 * i);
        return v;
    }

    std::int64_t getI64() { return std::int64_t(getU64()); }

    double
    getF64()
    {
        const std::uint64_t bits = getU64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string
    getStr()
    {
        const std::uint64_t n = getU64();
        need(n);
        std::string s(data_, pos_, std::size_t(n));
        pos_ += std::size_t(n);
        return s;
    }

    /** Bytes left unread (0 after a fully-consumed payload). */
    std::size_t remaining() const { return data_.size() - pos_; }

    /**
     * Throws unless @p count elements of at least @p minBytes each
     * still fit in the unread bytes. Decoders call this before sizing
     * anything from a count read off the payload, so a damaged count
     * fails here instead of allocating without bound.
     */
    void
    expectCount(std::uint64_t count, std::size_t minBytes) const
    {
        if (count > remaining() / minBytes)
            throw std::runtime_error(
                "wire payload count " + std::to_string(count) +
                " exceeds its " + std::to_string(remaining()) +
                " remaining bytes");
    }

    /** Throws unless the whole payload was consumed. */
    void
    expectEnd() const
    {
        if (remaining() != 0)
            throw std::runtime_error(
                "wire payload has " + std::to_string(remaining()) +
                " trailing bytes");
    }

  private:
    void
    need(std::uint64_t n) const
    {
        if (n > data_.size() - pos_) // pos_ + n could wrap
            throw std::runtime_error(
                "wire payload truncated (want " + std::to_string(n) +
                " bytes at offset " + std::to_string(pos_) + " of " +
                std::to_string(data_.size()) + ")");
    }

    const std::string &data_;
    std::size_t pos_ = 0;
};

} // namespace nvmcache

#endif // NVMCACHE_UTIL_WIRE_HH
