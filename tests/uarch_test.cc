/**
 * @file
 * Microarchitecture-model tests: cache geometry/LRU behaviour, branch
 * predictor learning, dispatch predictor, counter arithmetic, and the
 * perf model's simulation of VM records.
 */

#include <gtest/gtest.h>

#include "support/logging.hh"
#include "uarch/branch.hh"
#include "uarch/cache.hh"
#include "uarch/counters.hh"
#include "uarch/perf_model.hh"
#include "support/rng.hh"
#include "vm/interp.hh"

namespace rigor {
namespace uarch {
namespace {

TEST(Cache, HitsAfterFill)
{
    Cache c({1024, 64, 2});
    EXPECT_FALSE(c.access(0));       // cold miss
    EXPECT_TRUE(c.access(0));        // hit
    EXPECT_TRUE(c.access(63));       // same line
    EXPECT_FALSE(c.access(64));      // next line: miss
    EXPECT_EQ(c.accesses(), 4u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, LruEvictionWithinSet)
{
    // 2-way, 8 sets of 64B lines: addresses 0, 512, 1024 map to set 0.
    Cache c({1024, 64, 2});
    EXPECT_FALSE(c.access(0));
    EXPECT_FALSE(c.access(512));
    EXPECT_TRUE(c.access(0));       // refreshes 0's LRU
    EXPECT_FALSE(c.access(1024));   // evicts 512 (LRU)
    EXPECT_TRUE(c.access(0));
    EXPECT_FALSE(c.access(512));    // was evicted
}

TEST(Cache, SingleSetCacheKeepsAdjacentLinesApart)
{
    // 512 B, 8-way, 64 B lines: one set, so every bit of the line
    // address must be in the tag.
    Cache c({512, 64, 8});
    EXPECT_FALSE(c.access(0));
    EXPECT_FALSE(c.access(64));      // adjacent line: a distinct miss
    EXPECT_TRUE(c.access(0));
    EXPECT_TRUE(c.access(64));
    EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, WorkingSetLargerThanCacheThrashes)
{
    Cache c({4096, 64, 4});
    // Working set of 4 KiB fits: second pass all hits.
    for (uint64_t a = 0; a < 4096; a += 64)
        c.access(a);
    uint64_t misses_before = c.misses();
    for (uint64_t a = 0; a < 4096; a += 64)
        EXPECT_TRUE(c.access(a));
    EXPECT_EQ(c.misses(), misses_before);
    // 64 KiB working set cannot fit: mostly misses.
    c.reset();
    for (int pass = 0; pass < 2; ++pass)
        for (uint64_t a = 0; a < 65536; a += 64)
            c.access(a);
    EXPECT_GT(c.misses(), c.accesses() / 2);
}

TEST(Cache, BadGeometryPanics)
{
    EXPECT_THROW(Cache({1000, 60, 2}), PanicError);
    EXPECT_THROW(Cache({1024, 64, 0}), PanicError);
    // lineBytes * ways is 2^32: a 32-bit product would wrap to zero.
    EXPECT_THROW(Cache({1024, 64, 1u << 26}), PanicError);
    EXPECT_THROW(Cache({1024, 64, 32}), PanicError);
    // A 1-byte line would make address ~0 the empty-way tag.
    EXPECT_THROW(Cache({1024, 1, 2}), PanicError);
    Cache two({1024, 2, 2});
    EXPECT_FALSE(two.access(~uint64_t{0}));
    EXPECT_TRUE(two.access(~uint64_t{0} - 1));
}

TEST(CacheHierarchyTest, LatencyIncreasesDownTheHierarchy)
{
    auto h = CacheHierarchy::makeDefault();
    EXPECT_EQ(h.access(0x1000), HitLevel::Dram);    // cold
    EXPECT_EQ(h.access(0x1000), HitLevel::L1);
    EXPECT_EQ(h.latency(HitLevel::L1), 0u);
    EXPECT_LT(h.latency(HitLevel::L1), h.latency(HitLevel::L2));
    EXPECT_LT(h.latency(HitLevel::L2), h.latency(HitLevel::Llc));
    EXPECT_LT(h.latency(HitLevel::Llc), h.latency(HitLevel::Dram));
    EXPECT_GT(h.latency(HitLevel::Dram), 100u);
}

TEST(CacheHierarchyTest, L2CatchesL1Evictions)
{
    auto h = CacheHierarchy::makeDefault();
    // Fill 64 KiB (2x L1 size): L1 thrashes, L2 holds everything.
    for (int pass = 0; pass < 2; ++pass)
        for (uint64_t a = 0; a < 65536; a += 64)
            h.access(a);
    EXPECT_GT(h.l1().misses(), 1000u);
    // Second pass L2 misses are near zero (all lines resident).
    uint64_t l2_before = h.l2().misses();
    for (uint64_t a = 0; a < 65536; a += 64)
        h.access(a);
    EXPECT_LE(h.l2().misses() - l2_before, 16u);
}

TEST(Branch, BimodalLearnsBiasedBranch)
{
    BimodalPredictor p;
    int correct = 0;
    for (int i = 0; i < 1000; ++i)
        if (p.predictAndUpdate(0x42, true))
            ++correct;
    EXPECT_GT(correct, 990);
}

TEST(Branch, BimodalToleratesOccasionalFlip)
{
    BimodalPredictor p;
    // Loop-branch pattern: 9 taken, 1 not-taken.
    int correct = 0;
    for (int i = 0; i < 1000; ++i)
        if (p.predictAndUpdate(0x7, i % 10 != 9))
            ++correct;
    EXPECT_GT(correct, 850);
}

TEST(Branch, GshareLearnsAlternatingPattern)
{
    GsharePredictor g;
    BimodalPredictor b;
    int g_correct = 0, b_correct = 0;
    for (int i = 0; i < 4000; ++i) {
        bool taken = i % 2 == 0;
        if (g.predictAndUpdate(0x9, taken))
            ++g_correct;
        if (b.predictAndUpdate(0x9, taken))
            ++b_correct;
    }
    // History-based gshare nails it; bimodal is ~50/50.
    EXPECT_GT(g_correct, 3800);
    EXPECT_LT(b_correct, 2600);
}

TEST(Branch, ResetClearsLearning)
{
    BimodalPredictor p;
    for (int i = 0; i < 100; ++i)
        p.predictAndUpdate(1, true);
    p.reset();
    // Initial counter state predicts not-taken.
    EXPECT_FALSE(p.predictAndUpdate(1, true));
}

TEST(Branch, DispatchPredictorLearnsRepeatingSequence)
{
    DispatchPredictor d;
    // A repeating 4-opcode loop body becomes predictable.
    const uint16_t seq[] = {3, 7, 11, 19};
    int correct = 0;
    for (int i = 0; i < 4000; ++i)
        if (d.predictAndUpdate(seq[i % 4]))
            ++correct;
    EXPECT_GT(correct, 3800);
    // Random opcodes are unpredictable.
    d.reset();
    correct = 0;
    uint64_t x = 12345;
    for (int i = 0; i < 4000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        if (d.predictAndUpdate(static_cast<uint16_t>(x >> 33 & 31)))
            ++correct;
    }
    EXPECT_LT(correct, 1200);
}

TEST(Counters, DiffAndAdd)
{
    CounterSet a;
    a.instructions = 1000;
    a.cycles = 500;
    a.branchMisses = 10;
    CounterSet b = a;
    b.instructions = 3000;
    b.cycles = 1500;
    b.branchMisses = 25;
    CounterSet d = b.diff(a);
    EXPECT_EQ(d.instructions, 2000u);
    EXPECT_EQ(d.cycles, 1000u);
    EXPECT_EQ(d.branchMisses, 15u);
    d.add(a);
    EXPECT_EQ(d.instructions, 3000u);
    // diff clamps at zero instead of underflowing.
    CounterSet neg = a.diff(b);
    EXPECT_EQ(neg.instructions, 0u);
}

TEST(Counters, DerivedMetrics)
{
    CounterSet c;
    c.instructions = 10000;
    c.cycles = 5000;
    c.branches = 1000;
    c.branchMisses = 50;
    c.l1dMisses = 20;
    c.llcMisses = 5;
    EXPECT_DOUBLE_EQ(c.ipc(), 2.0);
    EXPECT_DOUBLE_EQ(c.branchMpki(), 5.0);
    EXPECT_DOUBLE_EQ(c.l1dMpki(), 2.0);
    EXPECT_DOUBLE_EQ(c.llcMpki(), 0.5);
    EXPECT_DOUBLE_EQ(c.branchMissRate(), 0.05);
    CounterSet zero;
    EXPECT_DOUBLE_EQ(zero.ipc(), 0.0);
    EXPECT_DOUBLE_EQ(zero.branchMpki(), 0.0);
}

/** Feed the model one record, with the VM's counters. */
void
feed(PerfModel &m, const vm::Record &r, const vm::InterpStats &stats = {})
{
    m.consume({&r, 1}, stats);
}

vm::Record
mem(uint64_t addr, uint32_t size = 8)
{
    return {.addr = addr, .size = size, .kind = vm::Record::Kind::Mem};
}

vm::Record
branch(uint64_t site, bool taken)
{
    return {.site = site, .kind = vm::Record::Kind::Branch,
            .flag = taken};
}

vm::Record
fetch(uint64_t addr)
{
    return {.addr = addr, .kind = vm::Record::Kind::Fetch};
}

/** VM counters with `bytecodes` bytecodes of `uops_each` uops. */
vm::InterpStats
bytecodeStats(uint64_t bytecodes, uint64_t uops_each)
{
    vm::InterpStats st;
    st.bytecodes = bytecodes;
    st.uops = bytecodes * uops_each;
    return st;
}

TEST(PerfModelTest, AccountsBytecodesAndUops)
{
    // Plain counts are the VM's: the model takes them with each batch
    // and never counts them itself.
    vm::InterpStats st = bytecodeStats(2, 5);
    st.perOpDispatched[static_cast<size_t>(vm::Op::BinaryAdd)] = 1;
    st.perOpDispatched[static_cast<size_t>(vm::Op::LoadFast)] = 1;
    st.allocations = 1;
    st.allocatedBytes = 48;
    st.objectBytes = 40;
    PerfModel m;
    vm::Record alloc{.addr = 0x40, .size = 40,
                     .kind = vm::Record::Kind::Alloc};
    feed(m, alloc, st);
    CounterSet c = m.snapshot();
    EXPECT_EQ(c.bytecodes, 2u);
    EXPECT_EQ(c.instructions, 10u);
    EXPECT_EQ(c.dispatches, 2u);
    EXPECT_EQ(c.allocations, 1u);
    EXPECT_EQ(c.allocatedBytes, 40u);  // unrounded
    EXPECT_EQ(c.stores, 1u);           // the header write
    EXPECT_GT(c.cycles, 0u);
    // An empty batch still brings the counts up to date.
    st.bytecodes = 3;
    m.consume({}, st);
    EXPECT_EQ(m.snapshot().bytecodes, 3u);
}

TEST(PerfModelTest, MispredictsAddCycles)
{
    PerfModelConfig cfg;
    PerfModel m(cfg);
    vm::InterpStats st = bytecodeStats(100, 4);
    m.consume({}, st);
    uint64_t base = m.snapshot().cycles;
    // Random branches: roughly half mispredict, adding penalties.
    Rng rng(3);
    for (int i = 0; i < 200; ++i)
        feed(m, branch(i, rng.nextBernoulli(0.5)), st);
    EXPECT_GT(m.snapshot().cycles, base);
    EXPECT_GT(m.snapshot().branchMisses, 20u);
}

TEST(PerfModelTest, CacheMissesRaiseCycles)
{
    PerfModel warm;
    PerfModel cold;
    vm::InterpStats st = bytecodeStats(1000, 4);
    for (int i = 0; i < 1000; ++i) {
        feed(warm, mem(0x100), st);             // same line
        feed(cold, mem(0x100 + i * 4096), st);  // streaming
    }
    EXPECT_LT(warm.snapshot().cycles, cold.snapshot().cycles);
    EXPECT_LT(warm.snapshot().l1dMisses, 5u);
    EXPECT_GT(cold.snapshot().l1dMisses, 900u);
}

TEST(PerfModelTest, AblationDisablesModels)
{
    PerfModelConfig cfg;
    cfg.modelCaches = false;
    cfg.modelBranches = false;
    PerfModel m(cfg);
    Rng rng(5);
    for (int i = 0; i < 500; ++i) {
        feed(m, mem(static_cast<uint64_t>(i) * 4096));
        feed(m, branch(i, rng.nextBernoulli(0.5)));
    }
    CounterSet c = m.snapshot();
    EXPECT_EQ(c.l1dMisses, 0u);
    EXPECT_EQ(c.branchMisses, 0u);
    EXPECT_EQ(c.cycles, 0u);
    EXPECT_EQ(c.loads, 500u);
    EXPECT_EQ(c.branches, 500u);
}

TEST(PerfModelTest, ResetColdStarts)
{
    PerfModel m;
    feed(m, mem(0x40), bytecodeStats(1, 4));
    feed(m, mem(0x40));
    EXPECT_EQ(m.snapshot().l1dMisses, 1u);  // warm: the second hits
    m.reset();
    EXPECT_EQ(m.snapshot().instructions, 0u);
    EXPECT_EQ(m.snapshot().l1dAccesses, 0u);
    feed(m, mem(0x40));
    EXPECT_EQ(m.snapshot().l1dMisses, 1u);  // cold again
}

TEST(PerfModelTest, SpanningAccessTouchesTwoLines)
{
    PerfModel m;
    feed(m, mem(60));  // crosses the 64B boundary
    EXPECT_EQ(m.snapshot().l1dAccesses, 2u);
}


TEST(PerfModelTest, ICacheModelsCodeFootprint)
{
    PerfModel m;
    // Interpreter-like: 40 handlers touched round-robin fits L1I.
    for (int i = 0; i < 20000; ++i)
        feed(m, fetch(0x400000ULL + static_cast<uint64_t>(i % 40) * 192));
    CounterSet interp_like = m.snapshot();
    EXPECT_LT(interp_like.l1iMisses, 200u);

    // JIT-like: a 512 KiB code region streamed repeatedly thrashes.
    m.reset();
    for (int i = 0; i < 20000; ++i)
        feed(m, fetch(0x100000000ULL +
                      static_cast<uint64_t>(i % 8192) * 64));
    CounterSet jit_like = m.snapshot();
    EXPECT_GT(jit_like.l1iMisses, 15000u);
    EXPECT_GT(jit_like.l1iAccesses, 0u);
}

TEST(PerfModelTest, ICacheDisabledWithCacheAblation)
{
    PerfModelConfig cfg;
    cfg.modelCaches = false;
    PerfModel m(cfg);
    for (int i = 0; i < 100; ++i)
        feed(m, fetch(static_cast<uint64_t>(i) * 4096));
    EXPECT_EQ(m.snapshot().l1iMisses, 0u);
    EXPECT_EQ(m.snapshot().l1iAccesses, 0u);
}

} // namespace
} // namespace uarch
} // namespace rigor
