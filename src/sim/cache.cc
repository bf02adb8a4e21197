#include "sim/cache.hh"

#include <algorithm>
#include <bit>

#include "util/logging.hh"

namespace nvmcache {

SetAssocCache::SetAssocCache(const CacheGeometry &geom) : geom_(geom)
{
    if (geom_.blockBytes == 0 ||
        (geom_.blockBytes & (geom_.blockBytes - 1)) != 0)
        fatal("cache block size must be a power of two");
    if (geom_.associativity == 0)
        fatal("cache associativity must be >= 1");
    if (geom_.associativity > 64)
        fatal("cache associativity must be <= 64 (way masks are one "
              "64-bit word)");
    const std::uint64_t sets = geom_.numSets();
    if (sets == 0 || (sets & (sets - 1)) != 0)
        fatal("cache set count must be a power of two (capacity ",
              geom_.capacityBytes, ", assoc ", geom_.associativity, ")");
    blockBits_ = std::uint32_t(
        std::countr_zero(std::uint64_t(geom_.blockBytes)));
    tagShift_ = blockBits_ + std::uint32_t(std::countr_zero(sets));
    setMask_ = sets - 1;
    lruHits_ = geom_.replacement == ReplacementPolicy::LRU;
    meta_.resize(sets * geom_.associativity);
    ranked_ = geom_.associativity <= 16;
    if (ranked_) {
        // Way w starts at rank w: a valid permutation per set.
        rankFieldMask_ =
            geom_.associativity == 16
                ? ~std::uint64_t(0)
                : (std::uint64_t(1) << (4 * geom_.associativity)) - 1;
        ranks_.assign(sets, 0xFEDCBA9876543210ull & rankFieldMask_);
    } else {
        lastUse_.resize(meta_.size());
    }
    retired_.assign(sets, 0);
    setEvictions_.resize(sets);
    lineWrites_.resize(meta_.size());
}

template <std::uint32_t A>
CacheAccessResult
SetAssocCache::accessImplFixed(std::uint64_t addr, bool write)
{
    CacheAccessResult result;
    const std::uint64_t set = setIndex(addr);
    const std::uint64_t tag = tagOf(addr);
    const std::size_t base = std::size_t(set) * geom_.associativity;
    std::uint64_t *const meta = &meta_[base];
    const std::uint32_t assoc = A ? A : geom_.associativity;

    // Hit scan over the dense metadata only: a valid match satisfies
    // (m | dirty) == want regardless of the line's dirtiness, and an
    // invalid way (m == 0) can never match since want has the valid
    // bit set. Tags are unique within a set, so at most one way hits.
    // The early exit keeps the common case touching as few host
    // cache lines as possible; with A fixed at compile time the loop
    // unrolls completely.
    const std::uint64_t want = (tag << 2) | kDirty | kValid;
    for (std::uint32_t w = 0; w < assoc; ++w) {
        if ((meta[w] | kDirty) == want) {
            if (lruHits_)
                touch(set, base, w);
            if (write) {
                meta[w] |= kDirty;
                ++lineWrites_[base + w];
            }
            result.hit = true;
            result.lineIndex = base + w;
            return result;
        }
    }

    // Miss: fill the first invalid live way, else the policy's victim.
    // Retired ways are masked out of both scans; with no retirements
    // (dead == 0, the only state reachable without fault injection)
    // the masks are no-ops and this is the historical behaviour bit
    // for bit.
    const std::uint64_t dead = retired_[set];
    std::uint32_t victim = assoc;
    for (std::uint32_t w = 0; w < assoc; ++w)
        if (!((meta[w] & kValid) | ((dead >> w) & 1))) {
            victim = w;
            break;
        }
    if (victim == assoc) {
        if (dead == 0) [[likely]] {
            switch (geom_.replacement) {
              case ReplacementPolicy::LRU:
              case ReplacementPolicy::FIFO:
                // Both take the oldest entry; they differ in whether
                // hits refresh recency above.
                victim = oldestWay(set, base);
                break;
              case ReplacementPolicy::Random:
                // xorshift64*: deterministic per cache instance.
                randState_ ^= randState_ >> 12;
                randState_ ^= randState_ << 25;
                randState_ ^= randState_ >> 27;
                victim = std::uint32_t(
                    (randState_ * 0x2545f4914f6cdd1dull) % assoc);
                break;
            }
        } else {
            victim = victimAmongLive(set, base, dead);
            if (victim == assoc) {
                // Whole set retired: nothing to install or displace.
                result.noWay = true;
                return result;
            }
        }
        const std::uint64_t m = meta[victim];
        result.evictedValid = true;
        result.evictedDirty = (m & kDirty) != 0;
        result.evictedAddr = lineAddr(m >> 2, set);
        if (m & kDirty)
            ++writebacks_;
        ++setEvictions_[set];
    }
    meta[victim] = (tag << 2) | (write ? kDirty : 0) | kValid;
    touch(set, base, victim);
    // Every fill rewrites the victim way's data array.
    ++lineWrites_[base + victim];
    result.lineIndex = base + victim;
    return result;
}

CacheAccessResult
SetAssocCache::accessImpl(std::uint64_t addr, bool write)
{
    // Fixed-associativity instantiations let the scans unroll; every
    // configured geometry (L1 4/8-way, L2 8-way, LLC 16-way) takes
    // one of the specialized paths.
    switch (geom_.associativity) {
      case 4:
        return accessImplFixed<4>(addr, write);
      case 8:
        return accessImplFixed<8>(addr, write);
      case 16:
        return accessImplFixed<16>(addr, write);
      default:
        return accessImplFixed<0>(addr, write);
    }
}

CacheAccessResult
SetAssocCache::access(std::uint64_t addr, bool write)
{
    CacheAccessResult result = accessImpl(addr, write);
    if (result.hit)
        ++hits_;
    else
        ++misses_;
    return result;
}

bool
SetAssocCache::probe(std::uint64_t addr) const
{
    const std::uint64_t set = setIndex(addr);
    const std::uint64_t want = (tagOf(addr) << 2) | kDirty | kValid;
    const std::uint64_t *meta =
        &meta_[std::size_t(set) * geom_.associativity];
    for (std::uint32_t w = 0; w < geom_.associativity; ++w)
        if ((meta[w] | kDirty) == want)
            return true;
    return false;
}

CacheAccessResult
SetAssocCache::installWriteback(std::uint64_t addr)
{
    // Same replacement behaviour as a demand write, but not counted as
    // a demand hit/miss: writebacks are not on the demand path.
    return accessImpl(addr, true);
}

bool
SetAssocCache::retireLine(std::uint64_t lineIndex)
{
    const std::uint64_t set = lineIndex / geom_.associativity;
    const std::uint32_t way =
        std::uint32_t(lineIndex % geom_.associativity);
    const std::uint64_t bit = std::uint64_t(1) << way;
    if (retired_[set] & bit)
        return false;
    retired_[set] |= bit;
    ++retiredCount_;
    std::uint64_t &m = meta_[lineIndex];
    const bool dirty = (m & (kDirty | kValid)) == (kDirty | kValid);
    // meta == 0 can never match the hit scan's want (valid bit set),
    // so a retired way is invisible there without any extra test.
    m = 0;
    return dirty;
}

std::uint32_t
SetAssocCache::victimAmongLive(std::uint64_t set, std::size_t base,
                               std::uint64_t dead)
{
    const std::uint32_t assoc = geom_.associativity;
    const std::uint64_t allWays =
        assoc == 64 ? ~std::uint64_t(0)
                    : (std::uint64_t(1) << assoc) - 1;
    const std::uint64_t live = allWays & ~dead;
    if (live == 0)
        return assoc;
    // The caller found no fillable way, so every live way is valid.
    switch (geom_.replacement) {
      case ReplacementPolicy::LRU:
      case ReplacementPolicy::FIFO:
        if (ranked_) {
            // Oldest live way = highest rank among live ways (the
            // permutation still covers retired ways; they simply
            // never win).
            const std::uint64_t r = ranks_[set];
            std::uint32_t victim = assoc;
            std::uint64_t best = 0;
            for (std::uint32_t w = 0; w < assoc; ++w) {
                if (!((live >> w) & 1))
                    continue;
                const std::uint64_t rank = (r >> (4 * w)) & 0xF;
                if (victim == assoc || rank > best) {
                    best = rank;
                    victim = w;
                }
            }
            return victim;
        } else {
            std::uint32_t victim = assoc;
            std::uint64_t oldest = 0;
            for (std::uint32_t w = 0; w < assoc; ++w) {
                if (!((live >> w) & 1))
                    continue;
                if (victim == assoc || lastUse_[base + w] < oldest) {
                    oldest = lastUse_[base + w];
                    victim = w;
                }
            }
            return victim;
        }
      case ReplacementPolicy::Random: {
        randState_ ^= randState_ >> 12;
        randState_ ^= randState_ << 25;
        randState_ ^= randState_ >> 27;
        std::uint32_t w = std::uint32_t(
            (randState_ * 0x2545f4914f6cdd1dull) % assoc);
        while (!((live >> w) & 1))
            w = (w + 1) % assoc;
        return w;
      }
    }
    return assoc; // unreachable: the switch is exhaustive
}

bool
SetAssocCache::invalidate(std::uint64_t addr)
{
    const std::uint64_t set = setIndex(addr);
    const std::uint64_t want = (tagOf(addr) << 2) | kDirty | kValid;
    std::uint64_t *meta =
        &meta_[std::size_t(set) * geom_.associativity];
    for (std::uint32_t w = 0; w < geom_.associativity; ++w) {
        if ((meta[w] | kDirty) == want) {
            const bool dirty = (meta[w] & kDirty) != 0;
            meta[w] = 0;
            return dirty;
        }
    }
    return false;
}

void
SetAssocCache::resetStats()
{
    hits_ = misses_ = writebacks_ = 0;
    std::fill(setEvictions_.begin(), setEvictions_.end(), 0u);
    std::fill(lineWrites_.begin(), lineWrites_.end(), 0u);
}

std::uint64_t
SetAssocCache::maxLineWrites() const
{
    std::uint32_t best = 0;
    for (std::uint32_t w : lineWrites_)
        best = std::max(best, w);
    return best;
}

void
SetAssocCache::exportStats(MetricsRegistry &reg,
                           const std::string &prefix) const
{
    reg.counter(prefix + ".hits").inc(hits_);
    reg.counter(prefix + ".misses").inc(misses_);
    reg.counter(prefix + ".writebacks").inc(writebacks_);

    Distribution &evictions =
        reg.distribution(prefix + ".evictionsPerSet");
    for (std::uint32_t e : setEvictions_)
        evictions.add(double(e));

    Distribution &writes = reg.distribution(prefix + ".writesPerLine");
    for (std::uint32_t w : lineWrites_)
        writes.add(double(w));
}

} // namespace nvmcache
