/**
 * @file
 * Set-associative cache model with true-LRU replacement, composable
 * into a three-level hierarchy (L1D, L2, LLC).
 *
 * Each set is a packed array of 8-byte line addresses kept in recency
 * order, most recent first; an empty way holds a sentinel that no line
 * address can equal. A hit on the most recent line returns at once
 * without writing; a hit at way k rotates ways 0..k so the line moves
 * to the front; a miss shifts the set down one way, dropping the least
 * recent line, and inserts at the front. An 8-way set is one 64-byte
 * host line. Lines are only invalidated all at once by reset().
 */

#ifndef RIGOR_UARCH_CACHE_HH
#define RIGOR_UARCH_CACHE_HH

#include <cstdint>
#include <vector>

namespace rigor {
namespace uarch {

/** Geometry of one cache level. */
struct CacheGeometry
{
    uint32_t sizeBytes = 32 * 1024;
    uint32_t lineBytes = 64;
    uint32_t ways = 8;

    /** Sets of `ways` lines that fit; 0 if not even one does. */
    uint32_t
    numSets() const
    {
        // 64 bits: lineBytes * ways can exceed 2^32.
        uint64_t set_bytes = uint64_t{lineBytes} * ways;
        return set_bytes ? static_cast<uint32_t>(sizeBytes / set_bytes)
                         : 0;
    }
};

/** One cache level; LRU replacement, write-allocate. */
class Cache
{
  public:
    explicit Cache(CacheGeometry geometry);

    /**
     * Access the line holding `addr`.
     * @return true on hit.
     */
    bool
    access(uint64_t addr)
    {
        ++accessCount;
        // The full line address is the tag: with a single set, no
        // bits go to the set index, so dropping any would alias
        // distinct lines.
        uint64_t line = addr >> lineShift;
        uint64_t *set = &tags[(line & setMask) * geom.ways];
        if (set[0] == line)
            return true;
        // Search and move to the front in one pass: each line passed
        // moves one way down. A hit stops at the line's old way; a
        // miss drops the least recent line off the end.
        uint64_t carry = line;
        for (uint32_t w = 0; w < geom.ways; ++w) {
            uint64_t cur = set[w];
            set[w] = carry;
            if (cur == line)
                return true;
            carry = cur;
        }
        ++missCount;
        return false;
    }

    /** Drop all cached lines. */
    void reset();

    uint64_t accesses() const { return accessCount; }
    uint64_t misses() const { return missCount; }
    const CacheGeometry &geometry() const { return geom; }

  private:
    /** An empty way: above every line address, as lines are >= 2 B. */
    static constexpr uint64_t kEmpty = ~uint64_t{0};

    CacheGeometry geom;
    /** sets * ways line addresses, row-major by set, MRU first. */
    std::vector<uint64_t> tags;
    uint64_t setMask = 0;
    uint32_t lineShift = 0;
    uint64_t accessCount = 0;
    uint64_t missCount = 0;
};

/** Latencies (cycles) of the memory hierarchy. */
struct MemoryLatencies
{
    uint32_t l1Hit = 1;     ///< folded into base uop cost
    uint32_t l2Hit = 12;
    uint32_t llcHit = 40;
    uint32_t dram = 180;
};

/** The level that served an access; Dram = missed every cache. */
enum class HitLevel : uint8_t { L1, L2, Llc, Dram };

/**
 * Three-level data-cache hierarchy. access() walks the levels and
 * returns the one that hit; latency() prices it.
 */
class CacheHierarchy
{
  public:
    CacheHierarchy(CacheGeometry l1, CacheGeometry l2,
                   CacheGeometry llc, MemoryLatencies lat = {});

    /** Default desktop-class geometry (32K/256K/8M). */
    static CacheHierarchy makeDefault();

    /** Perform one access; fills every level that missed. */
    HitLevel
    access(uint64_t addr)
    {
        if (l1Cache.access(addr))
            return HitLevel::L1;
        if (l2Cache.access(addr))
            return HitLevel::L2;
        if (llcCache.access(addr))
            return HitLevel::Llc;
        return HitLevel::Dram;
    }

    /** Modelled latency in cycles beyond the L1-hit cost. */
    uint32_t
    latency(HitLevel level) const
    {
        switch (level) {
          case HitLevel::L1:
            return 0;
          case HitLevel::L2:
            return lat.l2Hit;
          case HitLevel::Llc:
            return lat.llcHit;
          case HitLevel::Dram:
            break;
        }
        return lat.dram;
    }

    /** Invalidate all levels. */
    void reset();

    const Cache &l1() const { return l1Cache; }
    const Cache &l2() const { return l2Cache; }
    const Cache &llc() const { return llcCache; }

  private:
    Cache l1Cache;
    Cache l2Cache;
    Cache llcCache;
    MemoryLatencies lat;
};

} // namespace uarch
} // namespace rigor

#endif // RIGOR_UARCH_CACHE_HH
