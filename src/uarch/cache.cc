#include "uarch/cache.hh"

#include "support/logging.hh"

namespace rigor {
namespace uarch {

Cache::Cache(CacheGeometry geometry)
    : geom(geometry)
{
    if (geom.lineBytes == 0 || (geom.lineBytes & (geom.lineBytes - 1)))
        panic("Cache: line size must be a power of two");
    if (geom.ways == 0)
        panic("Cache: need at least one way");
    setCount = geom.numSets();
    if (setCount == 0 || (setCount & (setCount - 1)))
        panic("Cache: set count must be a power of two (size %u)",
              geom.sizeBytes);
    lines.resize(static_cast<size_t>(setCount) * geom.ways);
}

bool
Cache::access(uint64_t addr)
{
    ++accessCount;
    uint64_t line_addr = addr / geom.lineBytes;
    uint32_t set = static_cast<uint32_t>(line_addr & (setCount - 1));
    // The full line address: with a single set, no bits go to the
    // set index, so dropping any would alias distinct lines.
    uint64_t tag = line_addr;

    Line *base = &lines[static_cast<size_t>(set) * geom.ways];
    Line *victim = base;
    for (uint32_t w = 0; w < geom.ways; ++w) {
        Line &l = base[w];
        if (l.valid && l.tag == tag) {
            l.lru = ++lruClock;
            return true;
        }
        if (!l.valid) {
            victim = &l;
        } else if (victim->valid && l.lru < victim->lru) {
            victim = &l;
        }
    }
    ++missCount;
    victim->valid = true;
    victim->tag = tag;
    victim->lru = ++lruClock;
    return false;
}

void
Cache::reset()
{
    for (auto &l : lines)
        l = {};
    lruClock = 0;
    accessCount = 0;
    missCount = 0;
}

CacheHierarchy::CacheHierarchy(CacheGeometry l1, CacheGeometry l2,
                               CacheGeometry llc, MemoryLatencies lat_)
    : l1Cache(l1), l2Cache(l2), llcCache(llc), lat(lat_)
{}

CacheHierarchy
CacheHierarchy::makeDefault()
{
    CacheGeometry l1{32 * 1024, 64, 8};
    CacheGeometry l2{256 * 1024, 64, 8};
    CacheGeometry llc{8 * 1024 * 1024, 64, 16};
    return CacheHierarchy(l1, l2, llc);
}

uint32_t
CacheHierarchy::access(uint64_t addr)
{
    if (l1Cache.access(addr))
        return 0;
    if (l2Cache.access(addr))
        return lat.l2Hit;
    if (llcCache.access(addr))
        return lat.llcHit;
    return lat.dram;
}

void
CacheHierarchy::reset()
{
    l1Cache.reset();
    l2Cache.reset();
    llcCache.reset();
}

} // namespace uarch
} // namespace rigor
