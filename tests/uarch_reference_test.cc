/**
 * @file
 * Differential test of the cache model against a slow reference. The
 * reference is the cache as it was first written, a Line array with
 * an LRU clock, and a perf model whose data-access walk reads the
 * three miss counters around every line. Seeded random address
 * streams must give the same hit or miss at every access, and the
 * recorded record streams of every suite workload must give the same
 * CounterSet after every batch.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <tuple>

#include "harness/runner.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "uarch/branch.hh"
#include "uarch/cache.hh"
#include "uarch/perf_model.hh"
#include "vm/compiler.hh"
#include "vm/interp.hh"
#include "workloads/workloads.hh"

namespace rigor {
namespace uarch {
namespace {

/** Reference cache: a valid bit and an LRU stamp per line. */
class RefCache
{
  public:
    explicit RefCache(CacheGeometry geometry)
        : geom(geometry), setCount(geometry.numSets()),
          lines(static_cast<size_t>(setCount) * geometry.ways)
    {}

    bool
    access(uint64_t addr)
    {
        ++accessCount;
        uint64_t tag = addr / geom.lineBytes;
        uint32_t set = static_cast<uint32_t>(tag & (setCount - 1));
        Line *base = &lines[static_cast<size_t>(set) * geom.ways];
        Line *victim = base;
        for (uint32_t w = 0; w < geom.ways; ++w) {
            Line &l = base[w];
            if (l.valid && l.tag == tag) {
                l.lru = ++lruClock;
                return true;
            }
            if (!l.valid)
                victim = &l;
            else if (victim->valid && l.lru < victim->lru)
                victim = &l;
        }
        ++missCount;
        victim->valid = true;
        victim->tag = tag;
        victim->lru = ++lruClock;
        return false;
    }

    void
    reset()
    {
        for (auto &l : lines)
            l = {};
        lruClock = 0;
        accessCount = 0;
        missCount = 0;
    }

    uint64_t accesses() const { return accessCount; }
    uint64_t misses() const { return missCount; }

  private:
    struct Line
    {
        uint64_t tag = 0;
        uint64_t lru = 0;
        bool valid = false;
    };

    CacheGeometry geom;
    uint32_t setCount;
    std::vector<Line> lines;
    uint64_t lruClock = 0;
    uint64_t accessCount = 0;
    uint64_t missCount = 0;
};

/** Reference hierarchy: returns the latency, as the first one did. */
struct RefHierarchy
{
    RefCache l1{{32 * 1024, 64, 8}};
    RefCache l2{{256 * 1024, 64, 8}};
    RefCache llc{{8 * 1024 * 1024, 64, 16}};
    MemoryLatencies lat;

    uint32_t
    access(uint64_t addr)
    {
        if (l1.access(addr))
            return 0;
        if (l2.access(addr))
            return lat.l2Hit;
        if (llc.access(addr))
            return lat.llcHit;
        return lat.dram;
    }
};

/**
 * Reference perf model: PerfModel's record walk over the reference
 * caches, taking each line's misses from counter snapshots.
 */
class RefPerfModel final : public vm::EventSink
{
  public:
    explicit RefPerfModel(PerfModelConfig config)
        : cfg(config), dispatchPred(12, config.dispatchHistoryOps)
    {}

    void
    consume(std::span<const vm::Record> records,
            const vm::InterpStats &stats) noexcept override
    {
        using Kind = vm::Record::Kind;
        for (const vm::Record &r : records) {
            switch (r.kind) {
              case Kind::Fetch:
                ++counters.l1iAccesses;
                if (!icache.access(r.addr)) {
                    ++counters.l1iMisses;
                    penaltyCycles += cfg.l1iMissPenalty;
                }
                break;
              case Kind::Dispatch:
                if (!dispatchPred.predictAndUpdate(
                        static_cast<uint16_t>(r.op))) {
                    ++counters.dispatchMisses;
                    penaltyCycles += cfg.dispatchMissPenalty;
                }
                break;
              case Kind::Branch:
                ++counters.branches;
                if (!branchPred.predictAndUpdate(r.site, r.flag)) {
                    ++counters.branchMisses;
                    penaltyCycles += cfg.branchMissPenalty;
                }
                break;
              case Kind::Mem:
                memAccess(r.addr, r.size, r.flag);
                break;
              case Kind::Alloc:
                memAccess(r.addr, r.size > 64 ? 64 : r.size, true);
                break;
              case Kind::Guard:
                penaltyCycles += cfg.branchMissPenalty;
                break;
            }
        }
        counters.bytecodes = stats.bytecodes;
        counters.instructions = stats.uops;
        counters.dispatches = std::accumulate(
            stats.perOpDispatched.begin(), stats.perOpDispatched.end(),
            uint64_t{0});
        counters.allocations = stats.allocations;
        counters.allocatedBytes = stats.objectBytes;
    }

    CounterSet
    snapshot() const
    {
        CounterSet out = counters;
        out.cycles = static_cast<uint64_t>(
            std::llround(static_cast<double>(counters.instructions) /
                             cfg.issueWidth +
                         penaltyCycles));
        return out;
    }

  private:
    void
    memAccess(uint64_t addr, uint32_t size, bool is_write)
    {
        if (is_write)
            ++counters.stores;
        else
            ++counters.loads;
        uint64_t first = addr / 64;
        uint64_t last = (addr + (size ? size - 1 : 0)) / 64;
        for (uint64_t line = first; line <= last; ++line) {
            ++counters.l1dAccesses;
            uint64_t before_l2 = caches.l2.misses();
            uint64_t before_llc = caches.llc.misses();
            uint64_t before_l1 = caches.l1.misses();
            uint32_t latency = caches.access(line * 64);
            counters.l1dMisses += caches.l1.misses() - before_l1;
            counters.l2Misses += caches.l2.misses() - before_l2;
            counters.llcMisses += caches.llc.misses() - before_llc;
            penaltyCycles += cfg.memOverlapFactor * latency;
        }
    }

    PerfModelConfig cfg;
    CounterSet counters;
    double penaltyCycles = 0.0;
    GsharePredictor branchPred;
    DispatchPredictor dispatchPred;
    RefHierarchy caches;
    RefCache icache{{32 * 1024, 64, 8}};
};

auto
fields(const CounterSet &c)
{
    return std::make_tuple(
        c.bytecodes, c.instructions, c.cycles, c.branches,
        c.branchMisses, c.dispatches, c.dispatchMisses, c.loads,
        c.stores, c.l1dAccesses, c.l1dMisses, c.l1iAccesses,
        c.l1iMisses, c.l2Misses, c.llcMisses, c.allocations,
        c.allocatedBytes);
}

/**
 * A seeded address stream that revisits lines at every recency depth:
 * mostly a few sets' worth of lines (hits at every way, evictions),
 * some lines anywhere in a region twice the cache, and some arbitrary
 * 64-bit addresses, top of the address space included.
 */
uint64_t
nextAddress(Rng &rng, const CacheGeometry &g)
{
    uint64_t sets = g.numSets();
    uint64_t line;
    uint64_t pick = rng.nextBounded(100);
    if (pick < 70) {
        uint64_t set = rng.nextBounded(sets < 3 ? sets : 3);
        uint64_t tag = rng.nextBounded(g.ways + g.ways / 2 + 1);
        line = tag * sets + set;
    } else if (pick < 95) {
        line = rng.nextBounded(2 * uint64_t{g.sizeBytes} / g.lineBytes);
    } else {
        return pick == 99 ? ~uint64_t{0} - rng.nextBounded(4096)
                          : rng.nextU64();
    }
    return line * g.lineBytes + rng.nextBounded(g.lineBytes);
}

TEST(CacheReference, RandomStreamsHitAndMissAlike)
{
    const CacheGeometry geometries[] = {
        {512, 64, 8},               // one set
        {64, 64, 1},                // one line
        {1024, 64, 2},
        {4096, 64, 4},
        {32 * 1024, 64, 8},
        {8 * 1024 * 1024, 64, 16},
    };
    for (const CacheGeometry &g : geometries) {
        SCOPED_TRACE(strprintf("%u/%u/%u", g.sizeBytes, g.lineBytes,
                               g.ways));
        Cache cache(g);
        RefCache ref(g);
        Rng rng(0xcac4e + g.sizeBytes + g.ways);
        int mismatches = 0;
        uint64_t hits = 0, resets = 0;
        const int n = 200000;
        for (int i = 0; i < n; ++i) {
            if (rng.nextBounded(40000) == 0) {
                EXPECT_EQ(cache.misses(), ref.misses());
                cache.reset();
                ref.reset();
                ++resets;
            }
            uint64_t addr = nextAddress(rng, g);
            bool want = ref.access(addr);
            hits += want;
            if (cache.access(addr) != want && ++mismatches <= 5)
                ADD_FAILURE() << "access " << i << " addr " << addr
                              << ": reference " << (want ? "hit" : "miss");
        }
        EXPECT_EQ(mismatches, 0);
        EXPECT_EQ(cache.accesses(), ref.accesses());
        EXPECT_EQ(cache.misses(), ref.misses());
        // The stream is neither all hits nor all misses, and resets
        // come in between.
        EXPECT_GT(hits, n / 10u);
        EXPECT_LT(hits, n - n / 10u);
        EXPECT_GT(resets, 0u);
    }
}

TEST(CacheReference, HierarchyLevelPricesLikeReferenceLatency)
{
    auto h = CacheHierarchy::makeDefault();
    RefHierarchy ref;
    Rng rng(0x1e7e1);
    const CacheGeometry wide{1024 * 1024, 64, 16};
    int mismatches = 0;
    for (int i = 0; i < 200000; ++i) {
        uint64_t addr = nextAddress(rng, wide);
        uint32_t want = ref.access(addr);
        if (h.latency(h.access(addr)) != want && ++mismatches <= 5)
            ADD_FAILURE() << "access " << i << " addr " << addr;
    }
    EXPECT_EQ(mismatches, 0);
    EXPECT_EQ(h.l1().misses(), ref.l1.misses());
    EXPECT_EQ(h.l2().misses(), ref.l2.misses());
    EXPECT_EQ(h.llc().misses(), ref.llc.misses());
    EXPECT_GT(ref.llc.misses(), 0u);
    EXPECT_LT(ref.llc.misses(), ref.l2.misses());
}

/** Hands every batch to both models and compares them after it. */
class PairSink final : public vm::EventSink
{
  public:
    explicit PairSink(PerfModelConfig cfg) : model(cfg), ref(cfg) {}

    void
    consume(std::span<const vm::Record> records,
            const vm::InterpStats &stats) noexcept override
    {
        model.consume(records, stats);
        ref.consume(records, stats);
        ++batches;
        CounterSet a = model.snapshot(), b = ref.snapshot();
        if (fields(a) != fields(b) && mismatches++ == 0)
            firstMismatch = batches;
    }

    PerfModel model;
    RefPerfModel ref;
    uint64_t batches = 0;
    uint64_t mismatches = 0;
    uint64_t firstMismatch = 0;
};

TEST(CacheReference, SyntheticRecordStreamsModelAlike)
{
    // Every record kind, and data working sets past L2 and past the
    // LLC, so that every level's hits reach the counters; the suite's
    // test-size streams never hit in the LLC.
    PairSink pair({});
    vm::InterpStats stats;
    Rng rng(0x5eb7);
    std::vector<vm::Record> batch(vm::kRecordBatch);
    auto dataAddr = [&rng] {
        uint64_t pick = rng.nextBounded(10);
        uint64_t span = pick < 5 ? 16 << 10 : pick < 8 ? 2 << 20 : 64 << 20;
        return 0x10000000 + rng.nextBounded(span);
    };
    for (int b = 0; b < 400; ++b) {
        for (vm::Record &r : batch) {
            r = {};
            switch (rng.nextBounded(12)) {
              case 0: case 1:
                r.kind = vm::Record::Kind::Fetch;
                r.addr = rng.nextBounded(128 << 10);
                break;
              case 2: case 3:
                r.kind = vm::Record::Kind::Dispatch;
                r.op = static_cast<vm::Op>(rng.nextBounded(4));
                break;
              case 4:
                r.kind = vm::Record::Kind::Branch;
                r.site = rng.nextBounded(512);
                r.flag = rng.nextBernoulli(0.7);
                break;
              case 5:
                r.kind = vm::Record::Kind::Alloc;
                r.addr = dataAddr();
                r.size = static_cast<uint32_t>(rng.nextBounded(256));
                break;
              case 6:
                r.kind = vm::Record::Kind::Guard;
                break;
              default:
                r.kind = vm::Record::Kind::Mem;
                r.addr = dataAddr();
                r.size = static_cast<uint32_t>(1 + rng.nextBounded(128));
                r.flag = rng.nextBernoulli(0.3);
                break;
            }
        }
        stats.bytecodes += 300;
        stats.uops += 2000;
        pair.consume(batch, stats);
    }
    EXPECT_EQ(pair.mismatches, 0u)
        << "first differing batch: " << pair.firstMismatch;
    CounterSet c = pair.model.snapshot();
    EXPECT_GT(c.l1dMisses, c.l2Misses);
    EXPECT_GT(c.l2Misses, c.llcMisses);    // LLC hits occurred
    EXPECT_GT(c.llcMisses, 0u);
    EXPECT_GT(c.l1iMisses, 0u);
}

TEST(CacheReference, SuiteRecordStreamsModelAlike)
{
    for (const auto &w : workloads::suite()) {
        vm::Program prog = vm::compileSource(w.source, w.name);
        for (vm::Tier tier : {vm::Tier::Interp, vm::Tier::Adaptive,
                              vm::Tier::Threaded}) {
            SCOPED_TRACE(strprintf("%s %s", w.name.c_str(),
                                   vm::tierName(tier)));
            vm::InterpConfig icfg;
            icfg.tier = tier;
            icfg.jitThreshold = 50;
            icfg.hashSeed = 0x5eed;
            icfg.aslrSeed = 0xa51;
            icfg.captureOutput = false;
            PerfModelConfig ucfg;
            if (tier == vm::Tier::Threaded) {
                icfg.dispatchUops = harness::kThreadedDispatchUops;
                ucfg.dispatchHistoryOps =
                    harness::kThreadedDispatchHistoryOps;
            }
            PairSink pair(ucfg);
            {
                vm::Interp interp(prog, icfg, &pair);
                interp.runModule();
                for (int it = 0; it < 2; ++it)
                    interp.callGlobal("run",
                                      {vm::Value::makeInt(w.testSize)});
            }
            EXPECT_GT(pair.batches, 10u);
            EXPECT_EQ(pair.mismatches, 0u)
                << "first differing batch: " << pair.firstMismatch;
            EXPECT_GT(pair.model.snapshot().l1dMisses, 0u);
        }
    }
}

} // namespace
} // namespace uarch
} // namespace rigor
