/**
 * @file
 * Adaptive-tier (JIT model) tests: tier-up triggering, quickened
 * opcode execution, guard failures on type instability, inline-cache
 * cost accounting, compile-pause visibility, observer event
 * discipline (no dispatch events from compiled code) and call
 * accounting.
 */

#include <gtest/gtest.h>

#include "vm/compiler.hh"
#include "vm/interp.hh"

namespace rigor {
namespace vm {
namespace {

/** Observer that records event counts for assertions. */
class RecordingObserver : public ExecutionObserver
{
  public:
    void
    onBytecode(Op op, uint32_t uops) override
    {
        ++bytecodes;
        totalUops += uops;
        if (op >= Op::FirstQuickened)
            ++quickenedBytecodes;
    }
    void onDispatch(Op) override { ++dispatches; }
    void onBranch(uint64_t, bool) override { ++branches; }
    void onMemAccess(uint64_t, uint32_t, bool) override { ++mems; }
    void onAlloc(uint64_t, uint32_t) override { ++allocs; }
    void
    onJitCompile(uint32_t, uint64_t cost) override
    {
        ++compiles;
        compileUops += cost;
    }
    void onGuardFailure(Op) override { ++guardFailures; }

    uint64_t bytecodes = 0;
    uint64_t quickenedBytecodes = 0;
    uint64_t totalUops = 0;
    uint64_t dispatches = 0;
    uint64_t branches = 0;
    uint64_t mems = 0;
    uint64_t allocs = 0;
    uint64_t compiles = 0;
    uint64_t compileUops = 0;
    uint64_t guardFailures = 0;
};

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
    RecordingObserver obs;
    Interp interp(prog, cfg, &obs);
    interp.runModule();
    Value r = interp.callGlobal("run", {Value::makeInt(5000)});
    EXPECT_EQ(r.asInt(), 5000LL * 4999 / 2);
    EXPECT_GT(obs.quickenedBytecodes, 1000u);
    EXPECT_GE(obs.compiles, 1u);
    EXPECT_GT(obs.compileUops, 0u);
}

TEST(Jit, CompiledCodeEmitsNoDispatches)
{
    Program prog = compileSource(kHotLoop);
    InterpConfig cfg;
    cfg.tier = Tier::Adaptive;
    cfg.jitThreshold = 10;
    RecordingObserver warm_obs;
    Interp interp(prog, cfg, &warm_obs);
    interp.runModule();
    interp.callGlobal("run", {Value::makeInt(2000)});  // warms up

    // After warmup, a fresh count of one more call sees (almost) no
    // dispatches: only the un-compiled module-level path would
    // dispatch, and we re-enter the compiled function directly.
    uint64_t dispatches_before = warm_obs.dispatches;
    uint64_t bytecodes_before = warm_obs.bytecodes;
    interp.callGlobal("run", {Value::makeInt(2000)});
    uint64_t new_dispatches = warm_obs.dispatches - dispatches_before;
    uint64_t new_bytecodes = warm_obs.bytecodes - bytecodes_before;
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
        RecordingObserver obs;
        Interp interp(prog, cfg, &obs);
        interp.runModule();
        // Warm up, then measure the second call only.
        interp.callGlobal("run", {Value::makeInt(2000)});
        uint64_t u0 = obs.totalUops, b0 = obs.bytecodes;
        interp.callGlobal("run", {Value::makeInt(2000)});
        return static_cast<double>(obs.totalUops - u0) /
            static_cast<double>(obs.bytecodes - b0);
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

TEST(Jit, ObserverBytecodeCountMatchesStats)
{
    Program prog = compileSource(kHotLoop);
    RecordingObserver obs;
    InterpConfig cfg;
    cfg.tier = Tier::Adaptive;
    cfg.jitThreshold = 50;
    Interp interp(prog, cfg, &obs);
    interp.runModule();
    interp.callGlobal("run", {Value::makeInt(300)});
    EXPECT_EQ(obs.bytecodes, interp.stats().bytecodes);
    EXPECT_GT(obs.mems, 0u);
    EXPECT_GT(obs.branches, 0u);
    EXPECT_GT(obs.allocs, 0u);
}

} // namespace
} // namespace vm
} // namespace rigor
