/**
 * @file
 * Set-associative write-back cache with true-LRU replacement, used
 * for the private L1/L2 levels and for the shared LLC's tag/data
 * bookkeeping.
 *
 * The cache tracks only presence and dirtiness (no data values); the
 * timing and energy consequences of each access are handled by the
 * levels' owners (core.hh, nvm_llc.hh).
 *
 * Every simulated reference walks L1 -> L2 -> LLC through this class,
 * so the demand path is kept branch-light: the geometry is asserted
 * power-of-two at construction and all set/tag/align math is
 * precomputed shifts and masks, and the lookup folds the hit scan and
 * the LRU victim scan into one pass over the set.
 */

#ifndef NVMCACHE_SIM_CACHE_HH
#define NVMCACHE_SIM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/metrics.hh"

namespace nvmcache {

/** Replacement policy of one cache level. */
enum class ReplacementPolicy
{
    LRU,    ///< true least-recently-used (default everywhere)
    FIFO,   ///< insertion-order victim
    Random  ///< pseudo-random victim (deterministic per cache)
};

/** Geometry of one cache level. */
struct CacheGeometry
{
    std::uint64_t capacityBytes = 32 * 1024;
    std::uint32_t associativity = 4;
    std::uint32_t blockBytes = 64;
    ReplacementPolicy replacement = ReplacementPolicy::LRU;

    std::uint64_t numLines() const { return capacityBytes / blockBytes; }
    std::uint64_t numSets() const { return numLines() / associativity; }
};

/** Outcome of one cache access. */
struct CacheAccessResult
{
    bool hit = false;
    bool evictedValid = false;  ///< a victim line was displaced
    bool evictedDirty = false;  ///< ... and it was dirty (writeback)
    std::uint64_t evictedAddr = 0; ///< block-aligned victim address
    /**
     * Set-major index (set * assoc + way) of the line the access hit
     * or filled; the fault layer keys its per-line RNG streams and
     * wear counters on it. Meaningless when `noWay` is set.
     */
    std::uint64_t lineIndex = 0;
    /**
     * Every way of the target set is retired: nothing was installed
     * and no victim was displaced (the access degenerates to a probe).
     */
    bool noWay = false;
};

/**
 * Presence/dirtiness model of one set-associative cache.
 */
class SetAssocCache
{
  public:
    explicit SetAssocCache(const CacheGeometry &geom);

    /**
     * Demand access with allocate-on-miss.
     * @param addr   byte address
     * @param write  true marks the (present-or-filled) line dirty
     */
    CacheAccessResult access(std::uint64_t addr, bool write);

    /** Hit probe without any state change. */
    bool probe(std::uint64_t addr) const;

    /**
     * Hint the host to pull the set metadata @p addr maps to into
     * its caches. Purely a performance hint (no simulated effect):
     * replay lanes know their future accesses, and a large cache's
     * tag array is the one structure whose set walk routinely misses
     * in host memory.
     */
    void
    prefetchSet(std::uint64_t addr) const
    {
        const std::uint64_t *p =
            &meta_[std::size_t(setIndex(addr)) * geom_.associativity];
        __builtin_prefetch(p);
        if (geom_.associativity > 8) // set spans two host lines
            __builtin_prefetch(p + 8);
    }

    /**
     * Install a full line without a backing fetch (used for
     * writebacks arriving from an upper level: write-allocate is free
     * because the whole line is supplied).
     */
    CacheAccessResult installWriteback(std::uint64_t addr);

    /** Invalidate a line if present; returns true if it was dirty. */
    bool invalidate(std::uint64_t addr);

    /**
     * Permanently retire the line at set-major index @p lineIndex
     * (wear-out or uncorrectable error): the line is invalidated and
     * its way is excluded from all future fills and victim picks, so
     * the set's effective associativity shrinks by one. Returns true
     * if the line held dirty data (the caller must push it down).
     * Retiring an already-retired line is a no-op returning false.
     */
    bool retireLine(std::uint64_t lineIndex);

    /** Lines retired so far. */
    std::uint64_t retiredLines() const { return retiredCount_; }

    /** Usable (non-retired) lines: the effective capacity. */
    std::uint64_t
    liveLines() const
    {
        return meta_.size() - retiredCount_;
    }

    const CacheGeometry &geometry() const { return geom_; }

    // --- stats -------------------------------------------------------
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t writebacks() const { return writebacks_; }
    void resetStats();

    /** Most array writes absorbed by any single line (wear hot spot). */
    std::uint64_t maxLineWrites() const;

    /** Conflict (valid-victim) evictions per set, set order. */
    const std::vector<std::uint32_t> &setEvictionsBySet() const
    {
        return setEvictions_;
    }

    /** Array writes per line, set-major way order. */
    const std::vector<std::uint32_t> &lineWritesByWay() const
    {
        return lineWrites_;
    }

    /**
     * Publish this cache's counters and shape distributions under
     * "<prefix>.*": hit/miss/writeback counters, the per-set conflict
     * (valid-victim) eviction distribution, and the per-line
     * write-count distribution whose maximum bounds NVM endurance.
     * Counters accumulate and distributions merge, so exporting
     * several caches under one prefix aggregates them.
     */
    void exportStats(MetricsRegistry &reg,
                     const std::string &prefix) const;

  private:
    /**
     * Line metadata is split SoA-style so the hit scan — the hottest
     * loop in the whole simulator — touches one dense word per way:
     * meta_ packs tag<<2 | dirty<<1 | valid, and an 8-way set's
     * metadata spans exactly one 64 B host line (the old 24 B
     * array-of-struct Line spanned three). Packing the tag costs its
     * top two bits; addresses are bounded by 2^62 (the trace
     * format's limit), which loses nothing.
     *
     * Recency is rank-based for associativity <= 16 (every shipped
     * geometry): each set keeps a permutation of {0..assoc-1} packed
     * 4 bits per way in one word of ranks_, rank 0 = most recent.
     * A touch bumps every rank below the touched way's (one SWAR
     * add) and zeroes its own; the LRU/FIFO victim is the way of
     * rank assoc-1, found without loading any timestamp array. This
     * is order-identical to per-way timestamps — both maintain the
     * exact recency (or, for FIFO, insertion) permutation — but
     * costs 8 bytes per set instead of 8 per way, so the victim scan
     * never misses in the host cache. Wider caches fall back to the
     * timestamp arrays (lastUse_/useClock_).
     */
    static constexpr std::uint64_t kValid = 1;
    static constexpr std::uint64_t kDirty = 2;
    static constexpr std::uint64_t kLoNibbles = 0x0F0F0F0F0F0F0F0Full;
    static constexpr std::uint64_t kByteOnes = 0x0101010101010101ull;
    static constexpr std::uint64_t kByteHighs = 0x8080808080808080ull;

    std::uint64_t
    setIndex(std::uint64_t addr) const
    {
        return (addr >> blockBits_) & setMask_;
    }

    std::uint64_t tagOf(std::uint64_t addr) const
    {
        return addr >> tagShift_;
    }

    std::uint64_t blockAlign(std::uint64_t addr) const
    {
        return addr & ~std::uint64_t(geom_.blockBytes - 1);
    }

    /** Rebuild the block-aligned address of a resident line. */
    std::uint64_t
    lineAddr(std::uint64_t tag, std::uint64_t set) const
    {
        return (tag << tagShift_) | (set << blockBits_);
    }

    /** Core of access/installWriteback; dispatches on associativity. */
    CacheAccessResult accessImpl(std::uint64_t addr, bool write);

    /**
     * accessImpl body with the associativity baked in at compile time
     * (A = 0 reads it from the geometry) so the way scans unroll.
     */
    template <std::uint32_t A>
    CacheAccessResult accessImplFixed(std::uint64_t addr, bool write);

    /** Make way @p w of @p set most recent (rank 0 / newest clock). */
    void
    touch(std::uint64_t set, std::size_t base, std::uint32_t w)
    {
        if (ranked_) {
            std::uint64_t r = ranks_[set];
            const std::uint64_t mine = (r >> (4 * w)) & 0xF;
            if (mine == 0) // already most recent: repeated hits on
                return;    // the same line are the common case
            // SWAR: +1 to every in-range nibble strictly below mine.
            // Nibbles are compared in byte lanes (even and odd
            // nibbles separately) so the subtraction can never
            // borrow across fields: each lane computes 0x80 + x -
            // mine with x, mine <= 15.
            const std::uint64_t even = r & kLoNibbles;
            const std::uint64_t odd = (r >> 4) & kLoNibbles;
            const std::uint64_t m = mine * kByteOnes;
            const std::uint64_t ltEven =
                ~((even | kByteHighs) - m) & kByteHighs;
            const std::uint64_t ltOdd =
                ~((odd | kByteHighs) - m) & kByteHighs;
            const std::uint64_t bump =
                ((ltEven >> 7) | ((ltOdd >> 7) << 4)) &
                rankFieldMask_;
            r += bump;
            r &= ~(0xFull << (4 * w));
            ranks_[set] = r;
        } else {
            lastUse_[base + w] = ++useClock_;
        }
    }

    /**
     * Policy victim among the set's non-retired ways (@p dead is the
     * set's retirement bitmask, known non-zero); returns the
     * associativity when every way is dead. Split from the dead == 0
     * fast paths so the no-faults hot loop stays untouched.
     */
    std::uint32_t victimAmongLive(std::uint64_t set, std::size_t base,
                                  std::uint64_t dead);

    /** Way holding the oldest (LRU/FIFO) line of a full set. */
    std::uint32_t
    oldestWay(std::uint64_t set, std::size_t base) const
    {
        const std::uint32_t assoc = geom_.associativity;
        if (ranked_) {
            const std::uint64_t r = ranks_[set];
            const std::uint64_t target = assoc - 1;
            for (std::uint32_t w = 0; w < assoc; ++w)
                if (((r >> (4 * w)) & 0xF) == target)
                    return w;
            return assoc - 1; // unreachable: ranks_ is a permutation
        }
        std::uint32_t victim = 0;
        std::uint64_t oldest = lastUse_[base];
        for (std::uint32_t w = 1; w < assoc; ++w)
            if (lastUse_[base + w] < oldest) {
                oldest = lastUse_[base + w];
                victim = w;
            }
        return victim;
    }

    CacheGeometry geom_;
    std::uint32_t blockBits_ = 0;  ///< log2(blockBytes)
    std::uint32_t tagShift_ = 0;   ///< blockBits_ + log2(numSets)
    std::uint64_t setMask_ = 0;    ///< numSets - 1
    bool lruHits_ = false;         ///< hits refresh recency (LRU)
    bool ranked_ = false;          ///< packed-rank recency in use
    std::uint64_t rankFieldMask_ = 0; ///< low 4*assoc bits
    std::vector<std::uint64_t> meta_;  ///< tag<<2|dirty|valid, by set
    std::vector<std::uint64_t> ranks_; ///< recency permutation per set
    std::vector<std::uint64_t> lastUse_; ///< assoc > 16 fallback
    std::uint64_t useClock_ = 0;
    std::uint64_t randState_ = 0x2545f4914f6cdd1dull;

    std::vector<std::uint64_t> retired_; ///< dead-way bitmask per set
    std::uint64_t retiredCount_ = 0;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
    std::vector<std::uint32_t> setEvictions_; ///< conflict evictions/set
    std::vector<std::uint32_t> lineWrites_;   ///< array writes/way
};

} // namespace nvmcache

#endif // NVMCACHE_SIM_CACHE_HH
