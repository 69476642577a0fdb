/**
 * @file
 * Adaptive-tier (JIT model) tests: tier-up triggering, quickened
 * opcode execution, guard failures on type instability, inline-cache
 * cost accounting, compile-pause visibility, record-stream
 * discipline (no dispatch records from compiled code, records that
 * agree with the VM's counters) and call accounting.
 */

#include <numeric>

#include <gtest/gtest.h>

#include "vm/compiler.hh"
#include "vm/interp.hh"

namespace rigor {
namespace vm {
namespace {

/** Sink that counts records by kind for assertions. */
class RecordingSink : public EventSink
{
  public:
    void
    consume(std::span<const Record> records,
            const InterpStats &) noexcept override
    {
        for (const Record &r : records) {
            switch (r.kind) {
              case Record::Kind::Dispatch: ++dispatches; break;
              case Record::Kind::Branch: ++branches; break;
              case Record::Kind::Mem: ++mems; break;
              case Record::Kind::Alloc:
                ++allocs;
                allocBytes += r.size;
                break;
              default: break;
            }
        }
    }

    uint64_t dispatches = 0;
    uint64_t branches = 0;
    uint64_t mems = 0;
    uint64_t allocs = 0;
    uint64_t allocBytes = 0;
};

/** Bytecodes that ran in a quickened (specialized) form. */
uint64_t
quickenedBytecodes(const InterpStats &stats)
{
    return std::accumulate(
        stats.perOp.begin() + static_cast<size_t>(Op::FirstQuickened),
        stats.perOp.end(), uint64_t{0});
}

const char *kHotLoop =
    "def run(n):\n"
    "    total = 0\n"
    "    i = 0\n"
    "    while i < n:\n"
    "        total = total + i\n"
    "        i = i + 1\n"
    "    return total\n";

TEST(Jit, TierUpAfterThreshold)
{
    Program prog = compileSource(kHotLoop);
    InterpConfig cfg;
    cfg.tier = Tier::Adaptive;
    cfg.jitThreshold = 100;
    Interp interp(prog, cfg);
    interp.runModule();
    EXPECT_EQ(interp.stats().jitCompiles, 0u);
    interp.callGlobal("run", {Value::makeInt(1000)});
    EXPECT_GE(interp.stats().jitCompiles, 1u);
}

TEST(Jit, InterpTierNeverCompiles)
{
    Program prog = compileSource(kHotLoop);
    InterpConfig cfg;
    cfg.tier = Tier::Interp;
    cfg.jitThreshold = 1;
    Interp interp(prog, cfg);
    interp.runModule();
    interp.callGlobal("run", {Value::makeInt(10000)});
    EXPECT_EQ(interp.stats().jitCompiles, 0u);
}

TEST(Jit, QuickenedOpcodesExecuteAfterCompile)
{
    Program prog = compileSource(kHotLoop);
    InterpConfig cfg;
    cfg.tier = Tier::Adaptive;
    cfg.jitThreshold = 10;
    Interp interp(prog, cfg);
    interp.runModule();
    Value r = interp.callGlobal("run", {Value::makeInt(5000)});
    EXPECT_EQ(r.asInt(), 5000LL * 4999 / 2);
    EXPECT_GT(quickenedBytecodes(interp.stats()), 1000u);
    EXPECT_GE(interp.stats().jitCompiles, 1u);
    EXPECT_GT(interp.stats().jitCompileUops, 0u);
}

TEST(Jit, CompiledCodeEmitsNoDispatches)
{
    Program prog = compileSource(kHotLoop);
    InterpConfig cfg;
    cfg.tier = Tier::Adaptive;
    cfg.jitThreshold = 10;
    RecordingSink sink;
    Interp interp(prog, cfg, &sink);
    interp.runModule();
    interp.callGlobal("run", {Value::makeInt(2000)});  // warms up

    // After warmup, a fresh count of one more call sees (almost) no
    // dispatches: only the un-compiled module-level path would
    // dispatch, and we re-enter the compiled function directly.
    uint64_t dispatches_before = sink.dispatches;
    uint64_t bytecodes_before = interp.stats().bytecodes;
    interp.callGlobal("run", {Value::makeInt(2000)});
    uint64_t new_dispatches = sink.dispatches - dispatches_before;
    uint64_t new_bytecodes = interp.stats().bytecodes - bytecodes_before;
    EXPECT_GT(new_bytecodes, 10000u);
    EXPECT_EQ(new_dispatches, 0u);
}

TEST(Jit, GuardFailuresOnTypeInstability)
{
    // The loop flips between int and float accumulation, defeating
    // the int specialization part of the time.
    Program prog = compileSource(
        "def run(n):\n"
        "    total = 0\n"
        "    i = 0\n"
        "    while i < n:\n"
        "        if i % 2 == 0:\n"
        "            total = total + 1\n"
        "        else:\n"
        "            total = total + 0.5\n"
        "        i = i + 1\n"
        "    return int(total)\n");
    InterpConfig cfg;
    cfg.tier = Tier::Adaptive;
    cfg.jitThreshold = 10;
    Interp interp(prog, cfg);
    interp.runModule();
    Value r = interp.callGlobal("run", {Value::makeInt(1000)});
    EXPECT_EQ(r.asInt(), 750);
    EXPECT_GT(interp.stats().guardFailures, 100u);
}

TEST(Jit, StableTypesProduceFewGuardFailures)
{
    Program prog = compileSource(kHotLoop);
    InterpConfig cfg;
    cfg.tier = Tier::Adaptive;
    cfg.jitThreshold = 10;
    Interp interp(prog, cfg);
    interp.runModule();
    interp.callGlobal("run", {Value::makeInt(5000)});
    EXPECT_LT(interp.stats().guardFailures, 10u);
}

TEST(Jit, CompiledCodeIsCheaperPerBytecode)
{
    Program prog = compileSource(kHotLoop);

    auto uops_per_bytecode = [&](Tier tier) {
        InterpConfig cfg;
        cfg.tier = tier;
        cfg.jitThreshold = 10;
        Interp interp(prog, cfg);
        interp.runModule();
        // Warm up, then measure the second call only.
        interp.callGlobal("run", {Value::makeInt(2000)});
        const InterpStats &st = interp.stats();
        uint64_t u0 = st.uops, b0 = st.bytecodes;
        interp.callGlobal("run", {Value::makeInt(2000)});
        return static_cast<double>(st.uops - u0) /
            static_cast<double>(st.bytecodes - b0);
    };

    double interp_cost = uops_per_bytecode(Tier::Interp);
    double jit_cost = uops_per_bytecode(Tier::Adaptive);
    EXPECT_GT(interp_cost, 3.0 * jit_cost);
}

TEST(Jit, CallReturnEventsBalanced)
{
    Program prog = compileSource(
        "def helper(x):\n"
        "    return x * 2\n"
        "def run(n):\n"
        "    total = 0\n"
        "    for i in range(n):\n"
        "        total += helper(i)\n"
        "    return total\n");
    InterpConfig cfg;
    cfg.tier = Tier::Adaptive;
    cfg.jitThreshold = 20;
    Interp interp(prog, cfg);
    interp.runModule();
    interp.callGlobal("run", {Value::makeInt(500)});
    // run() itself plus one helper() call per loop trip, compiled
    // code included.
    EXPECT_GT(interp.stats().calls, 500u);
}

TEST(Jit, DispatchUopsConfigurable)
{
    Program prog = compileSource(kHotLoop);
    auto total_uops = [&](uint32_t dispatch_uops) {
        InterpConfig cfg;
        cfg.tier = Tier::Interp;
        cfg.dispatchUops = dispatch_uops;
        Interp interp(prog, cfg);
        interp.runModule();
        interp.callGlobal("run", {Value::makeInt(1000)});
        return interp.stats().uops;
    };
    uint64_t switch_cost = total_uops(6);
    uint64_t threaded_cost = total_uops(4);
    EXPECT_GT(switch_cost, threaded_cost);
}

TEST(Jit, RecordStreamMatchesStats)
{
    Program prog = compileSource(kHotLoop);
    RecordingSink sink;
    InterpConfig cfg;
    cfg.tier = Tier::Adaptive;
    cfg.jitThreshold = 50;
    Interp interp(prog, cfg, &sink);
    interp.runModule();
    interp.callGlobal("run", {Value::makeInt(300)});
    const InterpStats &st = interp.stats();
    EXPECT_EQ(sink.dispatches,
              std::accumulate(st.perOpDispatched.begin(),
                              st.perOpDispatched.end(), uint64_t{0}));
    EXPECT_GT(sink.dispatches, 0u);
    EXPECT_EQ(sink.allocs, st.allocations);
    EXPECT_EQ(sink.allocBytes, st.objectBytes);
    // Objects are rounded up to the 16 B heap granule in
    // allocatedBytes only.
    EXPECT_LE(st.objectBytes, st.allocatedBytes);
    EXPECT_GT(sink.mems, 0u);
    EXPECT_GT(sink.branches, 0u);
    EXPECT_GT(sink.allocs, 0u);
}

} // namespace
} // namespace vm
} // namespace rigor
