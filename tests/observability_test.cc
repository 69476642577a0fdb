/**
 * @file
 * Harness-observability integration tests: a metered/traced run must
 * produce nonzero VM counters, a well-formed span tree, fault-path
 * instants, and byte-identical artifacts across identical runs. The
 * vm.<tier>.* totals, derived at attempt end from the VM's and the
 * model's own counts, are checked against a per-event reference
 * count and must include aborted attempts.
 */

#include <algorithm>
#include <memory>

#include <gtest/gtest.h>

#include "harness/fault.hh"
#include "harness/runner.hh"
#include "support/json.hh"
#include "support/metrics.hh"
#include "support/trace.hh"
#include "vm/compiler.hh"
#include "vm/interp.hh"

namespace rigor {
namespace harness {
namespace {

RunnerConfig
obsConfig(MetricsRegistry *metrics, TraceEmitter *trace)
{
    RunnerConfig cfg;
    cfg.invocations = 3;
    cfg.iterations = 5;
    cfg.tier = vm::Tier::Interp;
    cfg.seed = 0xabc;
    cfg.size = workloads::findWorkload("sieve").testSize;
    cfg.metrics = metrics;
    cfg.trace = trace;
    return cfg;
}

/** Count trace events matching (ph, name). */
size_t
countEvents(const Json &doc, const std::string &ph,
            const std::string &name)
{
    const Json &evs = doc.at("traceEvents");
    size_t n = 0;
    for (size_t i = 0; i < evs.size(); ++i) {
        const Json &e = evs.at(i);
        if (e.at("ph").asString() == ph &&
            e.at("name").asString() == name)
            ++n;
    }
    return n;
}

TEST(Observability, MeteredRunRecordsHarnessAndVmCounters)
{
    MetricsRegistry reg;
    auto cfg = obsConfig(&reg, nullptr);
    runExperiment("sieve", cfg);

    EXPECT_EQ(reg.counterValue("harness.invocations"), 3u);
    EXPECT_EQ(reg.counterValue("harness.invocations_attempted"), 3u);
    EXPECT_EQ(reg.counterValue("harness.iterations"), 15u);
    EXPECT_EQ(reg.counterValue("harness.failures"), 0u);
    EXPECT_GT(reg.counterValue("vm.interp.bytecodes"), 0u);
    EXPECT_GT(reg.counterValue("vm.interp.uops"), 0u);
    EXPECT_GT(reg.counterValue("vm.interp.dispatches"), 0u);
    EXPECT_GT(reg.counterValue("vm.interp.allocations"), 0u);
    // Interp tier never compiles.
    EXPECT_EQ(reg.counterValue("vm.interp.jit_compiles"), 0u);
}

TEST(Observability, TracedRunHasBalancedSpans)
{
    TraceEmitter tr;
    auto cfg = obsConfig(nullptr, &tr);
    runExperiment("sieve", cfg);
    EXPECT_EQ(tr.openSpans(), 0u);

    // Round-trip through the serializer before inspecting.
    Json doc = Json::parse(tr.toJson().dump(1));
    EXPECT_EQ(countEvents(doc, "B", "workload"), 0u);  // named by wl
    EXPECT_EQ(countEvents(doc, "B", "sieve"), 1u);
    EXPECT_EQ(countEvents(doc, "E", "sieve"), 1u);
    EXPECT_EQ(countEvents(doc, "B", "invocation"), 3u);
    EXPECT_EQ(countEvents(doc, "E", "invocation"), 3u);
    EXPECT_EQ(countEvents(doc, "B", "iteration"), 15u);
    EXPECT_EQ(countEvents(doc, "E", "iteration"), 15u);
}

TEST(Observability, AdaptiveRunEmitsJitCompileInstants)
{
    MetricsRegistry reg;
    TraceEmitter tr;
    auto cfg = obsConfig(&reg, &tr);
    cfg.tier = vm::Tier::Adaptive;
    cfg.jitThreshold = 16;  // compile early so a short run sees it
    runExperiment("sieve", cfg);

    EXPECT_GT(reg.counterValue("vm.adaptive.jit_compiles"), 0u);
    Json doc = tr.toJson();
    EXPECT_GE(countEvents(doc, "i", "jit_compile"), 1u);
}

TEST(Observability, IdenticalRunsProduceIdenticalArtifacts)
{
    std::string trace_a, trace_b, metrics_a, metrics_b;
    for (int round = 0; round < 2; ++round) {
        MetricsRegistry reg;
        TraceEmitter tr;
        auto cfg = obsConfig(&reg, &tr);
        cfg.tier = vm::Tier::Adaptive;
        runExperiment("sieve", cfg);
        (round == 0 ? trace_a : trace_b) = tr.toJson().dump(1);
        (round == 0 ? metrics_a : metrics_b) = reg.toJson().dump(2);
    }
    EXPECT_EQ(trace_a, trace_b);    // modelled clock => byte-identical
    EXPECT_EQ(metrics_a, metrics_b);
}

TEST(Observability, InjectedFaultLeavesRetryTrail)
{
    FaultPlan plan;
    plan.add("throw:inv=1:n=1");
    MetricsRegistry reg;
    TraceEmitter tr;
    auto cfg = obsConfig(&reg, &tr);
    FaultInjector inj(std::move(plan), cfg.seed);
    cfg.faults = &inj;
    cfg.maxRetries = 1;
    RunResult run = runExperiment("sieve", cfg);
    ASSERT_EQ(run.failures.size(), 1u);

    EXPECT_EQ(reg.counterValue("harness.faults_injected"), 1u);
    EXPECT_EQ(reg.counterValue("harness.failures"), 1u);
    EXPECT_EQ(reg.counterValue("harness.failures.vm-error"), 1u);
    EXPECT_EQ(reg.counterValue("harness.retries"), 1u);
    EXPECT_EQ(reg.counterValue("harness.invocations"), 3u);
    // Mirrors RunResult::invocationsAttempted: slots tried, not
    // individual attempts — the retried slot still counts once.
    EXPECT_EQ(reg.counterValue("harness.invocations_attempted"), 3u);

    EXPECT_EQ(tr.openSpans(), 0u);  // the failed span was unwound
    Json doc = tr.toJson();
    EXPECT_EQ(countEvents(doc, "i", "fault_injected"), 1u);
    EXPECT_EQ(countEvents(doc, "i", "invocation_failure"), 1u);
    EXPECT_EQ(countEvents(doc, "i", "retry"), 1u);
    // 4 attempts opened, 4 closed (one via the unwind path).
    EXPECT_EQ(countEvents(doc, "B", "invocation"), 4u);
    EXPECT_EQ(countEvents(doc, "E", "invocation"), 4u);
}

/**
 * Reference for the derived vm.<tier>.* totals: counts every event
 * as it streams past, the way a per-event metrics observer would.
 */
class CountingObserver : public vm::ExecutionObserver
{
  public:
    void
    onBytecode(vm::Op, uint32_t uops) override
    {
        ++bytecodes;
        this->uops += uops;
    }
    void onDispatch(vm::Op) override { ++dispatches; }
    void onBranch(uint64_t, bool) override { ++branches; }
    void
    onAlloc(uint64_t, uint32_t size) override
    {
        ++allocations;
        allocatedBytes += size;
    }
    void
    onJitCompile(uint32_t, uint64_t cost) override
    {
        ++jitCompiles;
        jitCompileUops += cost;
    }
    void onGuardFailure(vm::Op) override { ++guardFailures; }

    uint64_t bytecodes = 0, uops = 0, dispatches = 0, branches = 0,
             allocations = 0, allocatedBytes = 0, jitCompiles = 0,
             jitCompileUops = 0, guardFailures = 0;
};

TEST(Observability, DerivedVmTotalsMatchPerEventCounts)
{
    // Type-unstable arithmetic and comparisons after warmup: the
    // adaptive tier compiles run() and helper(), then every quickened
    // int fast path deopts on floats. Strings of varying length keep
    // allocation sizes off the 16-byte heap grid.
    vm::Program prog = vm::compileSource(
        "def helper(x, y):\n"
        "    return x + y\n"
        "def run(n):\n"
        "    total = 0\n"
        "    acc = []\n"
        "    for i in range(n):\n"
        "        v = i\n"
        "        if i > n // 2:\n"
        "            v = i * 0.5\n"
        "        total = helper(total, v)\n"
        "        if v < n // 3:\n"
        "            acc.append('ab' * (i % 7 + 1))\n"
        "    return len(acc) + int(total)\n");
    for (vm::Tier tier : {vm::Tier::Interp, vm::Tier::Adaptive,
                          vm::Tier::Threaded}) {
        SCOPED_TRACE(vm::tierName(tier));
        vm::InterpConfig icfg;
        icfg.tier = tier;
        icfg.jitThreshold = 20;
        icfg.hashSeed = 0x1234;
        icfg.aslrSeed = 0x5678;
        icfg.captureOutput = false;
        auto drive = [&](vm::ExecutionObserver *obs) {
            auto interp =
                std::make_unique<vm::Interp>(prog, icfg, obs);
            interp->runModule();
            for (int it = 0; it < 3; ++it)
                interp->callGlobal("run", {vm::Value::makeInt(400)});
            return interp;
        };

        uarch::PerfModel model;
        auto measured = drive(&model);
        MetricsRegistry reg;
        recordVmTotals(reg, tier, measured->stats(), model.snapshot());

        CountingObserver ref;
        auto reference = drive(&ref);

        std::string p = std::string("vm.") + vm::tierName(tier) + ".";
        auto v = [&](const char *name) {
            return reg.counterValue(p + name);
        };
        EXPECT_EQ(v("bytecodes"), ref.bytecodes);
        EXPECT_EQ(v("uops"), ref.uops);
        EXPECT_EQ(v("dispatches"), ref.dispatches);
        EXPECT_EQ(v("branches"), ref.branches);
        EXPECT_EQ(v("allocations"), ref.allocations);
        EXPECT_EQ(v("allocated_bytes"), ref.allocatedBytes);
        EXPECT_EQ(v("jit_compiles"), ref.jitCompiles);
        EXPECT_EQ(v("jit_compile_uops"), ref.jitCompileUops);
        EXPECT_EQ(v("guard_failures"), ref.guardFailures);
        // No event carries calls any more; the VM's count is the
        // only one, so check it is a pure function of the program.
        EXPECT_EQ(v("calls"), reference->stats().calls);
        EXPECT_GT(v("calls"), 1200u);

        if (tier == vm::Tier::Interp) {
            EXPECT_EQ(ref.jitCompiles, 0u);
            EXPECT_GT(ref.dispatches, 0u);
        } else {
            EXPECT_GT(ref.jitCompiles, 0u);
            EXPECT_GT(ref.guardFailures, 0u);
        }
        // All ten are present even when zero.
        EXPECT_EQ(reg.toJson().at("counters").size(), 10u);
    }
}

TEST(Observability, AbortedAttemptCountsTowardVmTotals)
{
    // A stall (1000x) blows invocation 1's first attempt past the
    // deadline in its first iteration; the retry then runs clean. The
    // aborted attempt did real VM work, so the totals must exceed the
    // clean run's.
    double slowest = 0.0;
    for (const auto &inv :
         runExperiment("sieve", obsConfig(nullptr, nullptr)).invocations) {
        double total = 0.0;
        for (double ms : inv.times())
            total += ms;
        slowest = std::max(slowest, total);
    }
    auto bytecodes = [slowest](const char *inject) {
        MetricsRegistry reg;
        TraceEmitter tr;
        auto cfg = obsConfig(&reg, &tr);
        cfg.deadlineMs = 2.0 * slowest;
        FaultPlan plan;
        if (inject)
            plan.add(inject);
        FaultInjector inj(std::move(plan), cfg.seed);
        cfg.faults = inject ? &inj : nullptr;
        RunResult run = runExperiment("sieve", cfg);
        EXPECT_EQ(run.invocations.size(), 3u);
        EXPECT_EQ(
            reg.counterValue("harness.failures.deadline-exceeded"),
            inject ? 1u : 0u);
        return reg.counterValue("vm.interp.bytecodes");
    };
    uint64_t clean = bytecodes(nullptr);
    uint64_t stalled = bytecodes("stall:inv=1:n=1");
    EXPECT_GT(clean, 0u);
    EXPECT_GT(stalled, clean);
}

} // namespace
} // namespace harness
} // namespace rigor
