/**
 * @file
 * Direct-threaded tier tests: eager one-shot quickening, super-
 * instruction fusion and its one-bytecode accounting, guard-failure
 * deoptimization to the generic path, tier-name (de)serialization,
 * dispatch accounting, cross-tier result agreement and per-invocation
 * determinism.
 */

#include <gtest/gtest.h>

#include "support/logging.hh"
#include "vm/compiler.hh"
#include "vm/interp.hh"

namespace rigor {
namespace vm {
namespace {

/** Sink that counts Dispatch records. */
class DispatchCounter : public EventSink
{
  public:
    void
    consume(std::span<const Record> records,
            const InterpStats &) noexcept override
    {
        for (const Record &r : records)
            dispatches += r.kind == Record::Kind::Dispatch;
    }

    uint64_t dispatches = 0;
};

/**
 * `(s + i) + i` yields LoadFast;LoadFast;Add;LoadFast;Add, so the
 * quickener fuses one LoadFastLoadFast *and* one LoadFastBinaryAdd
 * per loop body.
 */
const char *kFusionLoop =
    "def run(n):\n"
    "    s = 0\n"
    "    i = 0\n"
    "    while i < n:\n"
    "        s = (s + i) + i\n"
    "        i = i + 1\n"
    "    return s\n";

InterpConfig
threadedConfig()
{
    InterpConfig cfg;
    cfg.tier = Tier::Threaded;
    cfg.dispatchUops = 1;  // what the runner sets for this tier
    return cfg;
}

TEST(Threaded, TierNamesRoundTripAndRejectUnknown)
{
    for (Tier t : {Tier::Interp, Tier::Adaptive, Tier::Threaded})
        EXPECT_EQ(tierFromName(tierName(t)), t);
    EXPECT_THROW(tierFromName("turbo"), FatalError);
    EXPECT_THROW(tierFromName(""), FatalError);
}

TEST(Threaded, QuickensEagerlyOncePerCodeObject)
{
    Program prog = compileSource(kFusionLoop);
    InterpConfig cfg = threadedConfig();
    cfg.jitThreshold = 1;  // must be ignored: no warmup counter
    Interp interp(prog, cfg);
    interp.runModule();
    uint64_t afterModule = interp.stats().jitCompiles;
    EXPECT_GE(afterModule, 1u);  // the module code object

    Value r = interp.callGlobal("run", {Value::makeInt(100)});
    EXPECT_EQ(r.asInt(), 100LL * 99);  // sum of 2i, i in [0, 100)
    uint64_t afterFirst = interp.stats().jitCompiles;
    EXPECT_EQ(afterFirst, afterModule + 1);  // run's code object

    // Re-running quickens nothing new and never re-quickens.
    interp.callGlobal("run", {Value::makeInt(5000)});
    EXPECT_EQ(interp.stats().jitCompiles, afterFirst);
}

TEST(Threaded, SuperinstructionsFuseAndAccountAsOneBytecode)
{
    Program prog = compileSource(kFusionLoop);
    DispatchCounter sink;
    Interp interp(prog, threadedConfig(), &sink);
    interp.runModule();
    interp.callGlobal("run", {Value::makeInt(1000)});

    const auto &st = interp.stats();
    auto countOf = [&](Op op) {
        return st.perOp[static_cast<size_t>(op)];
    };
    EXPECT_GE(countOf(Op::LoadFastLoadFast), 1000u);
    EXPECT_GE(countOf(Op::LoadFastBinaryAdd), 1000u);
    // Int-only operands: the fused add's guard never fails.
    EXPECT_EQ(st.guardFailures, 0u);

    // A fused pair is one bytecode and one dispatch: the threaded
    // run must execute strictly fewer bytecodes than the baseline
    // interpreter does for the same work.
    Interp base(prog);
    base.runModule();
    base.callGlobal("run", {Value::makeInt(1000)});
    EXPECT_LT(st.bytecodes, base.stats().bytecodes);
    // Threaded code is still dispatched (unlike adaptive compiled
    // code): every bytecode comes with a dispatch record.
    EXPECT_EQ(sink.dispatches, st.bytecodes);
    EXPECT_GE(st.jitCompiles, 1u);
    EXPECT_GT(st.jitCompileUops, 0u);
}

TEST(Threaded, GuardFailureDeoptsToGenericPath)
{
    // Float operands defeat the small-int fast path of the fused
    // add; the handler must fall back to the generic binary-op and
    // still produce the right value.
    const char *src =
        "def run(n):\n"
        "    a = 0.5\n"
        "    s = 0.0\n"
        "    i = 0\n"
        "    while i < n:\n"
        "        s = (s + a) + a\n"
        "        i = i + 1\n"
        "    return s\n";
    Program prog = compileSource(src);
    Interp interp(prog, threadedConfig());
    interp.runModule();
    Value r = interp.callGlobal("run", {Value::makeInt(200)});
    ASSERT_TRUE(r.isFloat());
    EXPECT_DOUBLE_EQ(r.asFloat(), 200.0);
    const auto &st = interp.stats();
    EXPECT_GE(st.guardFailures, 200u);
    EXPECT_GE(st.perOpGuards[static_cast<size_t>(
                  Op::LoadFastBinaryAdd)],
              200u);
}

TEST(Threaded, AgreesWithInterpOnBranchyCode)
{
    // Branches, a loop join after if/else, string building and an
    // exercised except handler: fusing across any of these jump
    // targets would corrupt the value stack and change the result.
    const char *src =
        "def run(n):\n"
        "    s = 0\n"
        "    txt = ''\n"
        "    i = 0\n"
        "    while i < n:\n"
        "        if i % 3 == 0:\n"
        "            s = s + i\n"
        "        else:\n"
        "            s = s - 1\n"
        "        if i % 7 == 0:\n"
        "            txt = txt + 'x'\n"
        "        try:\n"
        "            s = s + 10 // (i % 5 - 2)\n"
        "        except ZeroDivisionError:\n"
        "            s = s + 1\n"
        "        i = i + 1\n"
        "    return s * 1000 + len(txt)\n";
    Program prog = compileSource(src);

    Interp base(prog);
    base.runModule();
    Value expect = base.callGlobal("run", {Value::makeInt(500)});

    Interp thr(prog, threadedConfig());
    thr.runModule();
    Value got = thr.callGlobal("run", {Value::makeInt(500)});
    EXPECT_EQ(got.asInt(), expect.asInt());
}

TEST(Threaded, CheaperThanInterpOnHotCode)
{
    Program prog = compileSource(kFusionLoop);
    Interp base(prog);  // dispatchUops 6, no quickening
    base.runModule();
    base.callGlobal("run", {Value::makeInt(20000)});

    Interp thr(prog, threadedConfig());
    thr.runModule();
    thr.callGlobal("run", {Value::makeInt(20000)});

    EXPECT_LT(thr.stats().uops, base.stats().uops);
}

TEST(Threaded, DeterministicAcrossInvocations)
{
    Program prog = compileSource(kFusionLoop);
    InterpStats runs[2];
    for (auto &st : runs) {
        Interp interp(prog, threadedConfig());
        interp.runModule();
        interp.callGlobal("run", {Value::makeInt(3000)});
        st = interp.stats();
    }
    EXPECT_EQ(runs[0].bytecodes, runs[1].bytecodes);
    EXPECT_EQ(runs[0].uops, runs[1].uops);
    EXPECT_EQ(runs[0].jitCompiles, runs[1].jitCompiles);
    EXPECT_EQ(runs[0].jitCompileUops, runs[1].jitCompileUops);
    EXPECT_EQ(runs[0].perOp, runs[1].perOp);
    EXPECT_EQ(runs[0].perOpUops, runs[1].perOpUops);
}

} // namespace
} // namespace vm
} // namespace rigor
