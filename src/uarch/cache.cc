#include "uarch/cache.hh"

#include <algorithm>
#include <bit>

#include "support/logging.hh"

namespace rigor {
namespace uarch {

Cache::Cache(CacheGeometry geometry)
    : geom(geometry)
{
    // A 1-byte line would let address ~0 be line ~0, the empty tag.
    if (geom.lineBytes < 2 || !std::has_single_bit(geom.lineBytes))
        panic("Cache: line size must be a power of two of at least "
              "2 bytes (got %u)", geom.lineBytes);
    if (geom.ways == 0)
        panic("Cache: need at least one way");
    uint32_t sets = geom.numSets();
    if (sets == 0)
        panic("Cache: %u ways of %u B lines exceed the size (%u B)",
              geom.ways, geom.lineBytes, geom.sizeBytes);
    if (!std::has_single_bit(sets))
        panic("Cache: set count must be a power of two (size %u)",
              geom.sizeBytes);
    setMask = sets - 1;
    lineShift = static_cast<uint32_t>(std::countr_zero(geom.lineBytes));
    tags.assign(static_cast<size_t>(sets) * geom.ways, kEmpty);
}

void
Cache::reset()
{
    std::fill(tags.begin(), tags.end(), kEmpty);
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

void
CacheHierarchy::reset()
{
    l1Cache.reset();
    l2Cache.reset();
    llcCache.reset();
}

} // namespace uarch
} // namespace rigor
