/**
 * @file
 * Harness-observability integration tests: a metered/traced run must
 * produce nonzero VM counters, a well-formed span tree, fault-path
 * instants, and byte-identical artifacts across identical runs. The
 * vm.<tier>.* totals, derived at attempt end from the VM's and the
 * model's own counts, are checked against a per-record reference
 * count, also when the VM raises mid-iteration, and must include
 * aborted attempts.
 */

#include <algorithm>
#include <memory>
#include <numeric>

#include <gtest/gtest.h>

#include "harness/fault.hh"
#include "harness/runner.hh"
#include "support/json.hh"
#include "support/logging.hh"
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
 * Reference for the derived vm.<tier>.* totals: keeps every record
 * and counts each as it streams past.
 */
class RecordingSink : public vm::EventSink
{
  public:
    void
    consume(std::span<const vm::Record> records,
            const vm::InterpStats &) noexcept override
    {
        for (const vm::Record &r : records) {
            all.push_back(r);
            switch (r.kind) {
              case vm::Record::Kind::Dispatch: ++dispatches; break;
              case vm::Record::Kind::Branch: ++branches; break;
              case vm::Record::Kind::Alloc:
                ++allocations;
                allocatedBytes += r.size;
                break;
              case vm::Record::Kind::Guard: ++guardFailures; break;
              default: break;
            }
        }
    }

    std::vector<vm::Record> all;
    uint64_t dispatches = 0, branches = 0, allocations = 0,
             allocatedBytes = 0, guardFailures = 0;
};

TEST(Observability, DerivedVmTotalsMatchPerEventCounts)
{
    // Type-unstable arithmetic and comparisons after warmup: the
    // adaptive tier compiles run() and helper(), then every quickened
    // int fast path deopts on floats. Strings of varying length keep
    // allocation sizes off the 16-byte heap grid. With `stop` set,
    // helper() raises halfway through the third run(), so the VM
    // unwinds two frames in the middle of an iteration.
    const std::string body =
        "calls = 0\n"
        "def helper(x, y):\n"
        "    if y == -1:\n"
        "        raise 'stop'\n"
        "    return x + y\n"
        "def run(n):\n"
        "    global calls\n"
        "    calls = calls + 1\n"
        "    total = 0\n"
        "    acc = []\n"
        "    for i in range(n):\n"
        "        v = i\n"
        "        if i > n // 2:\n"
        "            v = i * 0.5\n"
        "        if stop and calls == 3 and i == n // 2 + 11:\n"
        "            v = -1\n"
        "        total = helper(total, v)\n"
        "        if v < n // 3:\n"
        "            acc.append('ab' * (i % 7 + 1))\n"
        "    return len(acc) + int(total)\n";
    for (bool stop : {false, true}) {
        vm::Program prog = vm::compileSource(
            (stop ? "stop = True\n" : "stop = False\n") + body);
        for (vm::Tier tier : {vm::Tier::Interp, vm::Tier::Adaptive,
                              vm::Tier::Threaded}) {
            SCOPED_TRACE(strprintf("%s stop=%d", vm::tierName(tier),
                                   stop));
            vm::InterpConfig icfg;
            icfg.tier = tier;
            icfg.jitThreshold = 20;
            icfg.hashSeed = 0x1234;
            icfg.aslrSeed = 0x5678;
            icfg.captureOutput = false;
            auto drive = [&](vm::EventSink *sink) {
                auto interp =
                    std::make_unique<vm::Interp>(prog, icfg, sink);
                interp->runModule();
                bool raised = false;
                try {
                    for (int it = 0; it < 3; ++it)
                        interp->callGlobal("run",
                                           {vm::Value::makeInt(400)});
                } catch (const vm::VmError &) {
                    raised = true;
                }
                EXPECT_EQ(raised, stop);
                return interp;
            };

            uarch::PerfModel model;
            auto measured = drive(&model);
            MetricsRegistry reg;
            recordVmTotals(reg, tier, measured->stats(),
                           model.snapshot());

            RecordingSink ref;
            auto reference = drive(&ref);
            const vm::InterpStats &rs = reference->stats();

            // Every record reached the sink, the last partial batch
            // included: the per-record counts equal the VM's own.
            EXPECT_EQ(ref.dispatches,
                      std::accumulate(rs.perOpDispatched.begin(),
                                      rs.perOpDispatched.end(),
                                      uint64_t{0}));
            EXPECT_EQ(ref.allocations, rs.allocations);
            EXPECT_EQ(ref.allocatedBytes, rs.objectBytes);
            EXPECT_EQ(ref.guardFailures, rs.guardFailures);

            std::string p =
                std::string("vm.") + vm::tierName(tier) + ".";
            auto v = [&](const char *name) {
                return reg.counterValue(p + name);
            };
            EXPECT_EQ(v("bytecodes"), rs.bytecodes);
            EXPECT_EQ(v("uops"), rs.uops - rs.jitCompileUops);
            EXPECT_EQ(v("dispatches"), ref.dispatches);
            EXPECT_EQ(v("branches"), ref.branches);
            EXPECT_EQ(v("allocations"), ref.allocations);
            EXPECT_EQ(v("allocated_bytes"), ref.allocatedBytes);
            EXPECT_EQ(v("jit_compiles"), rs.jitCompiles);
            EXPECT_EQ(v("jit_compile_uops"), rs.jitCompileUops);
            EXPECT_EQ(v("guard_failures"), ref.guardFailures);
            EXPECT_EQ(v("calls"), rs.calls);
            EXPECT_GT(v("calls"), stop ? 1000u : 1200u);

            // Batching does not change what the model computes: a
            // second model fed the same records one at a time agrees.
            uarch::PerfModel single;
            for (const vm::Record &r : ref.all)
                single.consume({&r, 1}, rs);
            uarch::CounterSet a = model.snapshot(),
                              b = single.snapshot();
            EXPECT_EQ(a.branches, b.branches);
            EXPECT_EQ(a.branchMisses, b.branchMisses);
            EXPECT_EQ(a.dispatchMisses, b.dispatchMisses);
            EXPECT_EQ(a.l1dAccesses, b.l1dAccesses);
            EXPECT_EQ(a.l1dMisses, b.l1dMisses);
            EXPECT_EQ(a.l1iMisses, b.l1iMisses);
            EXPECT_EQ(a.cycles, b.cycles);

            if (tier == vm::Tier::Interp) {
                EXPECT_EQ(rs.jitCompiles, 0u);
                EXPECT_GT(ref.dispatches, 0u);
            } else {
                EXPECT_GT(rs.jitCompiles, 0u);
                EXPECT_GT(ref.guardFailures, 0u);
            }
            // All ten are present even when zero.
            EXPECT_EQ(reg.toJson().at("counters").size(), 10u);
        }
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
