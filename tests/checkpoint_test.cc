/**
 * @file
 * Checkpoint/resume tests: metrics and trace snapshots must restore
 * bit-exactly and continue the original accumulation; a run that is
 * interrupted at a commit boundary, checkpointed, rebuilt from the
 * checkpoint and resumed must produce artifacts byte-identical to an
 * uninterrupted run — at any job count, under injected faults, and
 * regardless of which checkpoint the resume starts from (cadence
 * invariance).
 */

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "harness/fault.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "support/interrupt.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/trace.hh"

namespace rigor {
namespace harness {
namespace {

RunnerConfig
baseConfig(int jobs, MetricsRegistry *metrics, TraceEmitter *trace)
{
    RunnerConfig cfg;
    cfg.invocations = 6;
    cfg.iterations = 5;
    cfg.tier = vm::Tier::Interp;
    cfg.seed = 0xabc;
    cfg.jobs = jobs;
    cfg.size = workloads::findWorkload("sieve").testSize;
    cfg.metrics = metrics;
    cfg.trace = trace;
    return cfg;
}

/** Every artifact of one run, serialized for byte comparison. */
struct Artifacts
{
    std::string report;
    std::string metrics;
    std::string trace;
    std::string logs;
};

/** One onCheckpoint capture: exactly what the CLI persists. */
struct Snapshot
{
    Json run;
    Json metrics;
    Json trace;
};

/** Clears the process-wide interrupt flag even if a test fails. */
struct InterruptGuard
{
    InterruptGuard() { clearInterruptRequest(); }
    ~InterruptGuard() { clearInterruptRequest(); }
};

/** The uninterrupted reference run (same shape as parallel_test). */
Artifacts
referenceRun(int jobs, const FaultPlan *plan)
{
    MetricsRegistry reg;
    TraceEmitter tr;
    auto cfg = baseConfig(jobs, &reg, &tr);
    FaultInjector inj(plan ? *plan : FaultPlan(), cfg.seed);
    if (plan)
        cfg.faults = &inj;

    Artifacts a;
    LogSink prev = setLogSink(
        [&a](LogLevel level, const std::string &msg) {
            a.logs += logLevelName(level);
            a.logs += ": ";
            a.logs += msg;
            a.logs += "\n";
        });
    RunResult run = runExperiment("sieve", cfg);
    setLogSink(std::move(prev));

    a.report = runToJson(run).dump(2);
    a.metrics = reg.toJson().dump(2);
    a.trace = tr.toJson().dump(1);
    return a;
}

/**
 * Phase 1: run at `jobsFirst` with checkpointEvery == 2 and request
 * an interrupt from inside the first checkpoint, so the runner stops
 * at the next commit boundary (where it writes a final checkpoint).
 * Phase 2: rebuild run/metrics/trace from that final checkpoint into
 * fresh objects and resume at `jobsResume`. Log output of both phases
 * is concatenated: an interrupted-then-resumed run must produce the
 * same message stream as an uninterrupted one.
 */
Artifacts
interruptAndResume(int jobsFirst, int jobsResume,
                   const FaultPlan *plan)
{
    InterruptGuard guard;
    Artifacts a;
    LogSink prev = setLogSink(
        [&a](LogLevel level, const std::string &msg) {
            a.logs += logLevelName(level);
            a.logs += ": ";
            a.logs += msg;
            a.logs += "\n";
        });

    Snapshot snap;
    {
        MetricsRegistry reg;
        TraceEmitter tr;
        auto cfg = baseConfig(jobsFirst, &reg, &tr);
        FaultInjector inj(plan ? *plan : FaultPlan(), cfg.seed);
        if (plan)
            cfg.faults = &inj;
        cfg.checkpointEvery = 2;
        int fires = 0;
        cfg.onCheckpoint = [&](const RunResult &r) {
            snap.run = runToJson(r);
            snap.metrics = reg.toJson();
            snap.trace = tr.checkpointJson();
            if (++fires == 1)
                requestInterrupt();
        };
        RunResult first = runExperiment("sieve", cfg);
        EXPECT_TRUE(first.interrupted);
        EXPECT_LT(first.invocationsAttempted, cfg.invocations);
        clearInterruptRequest();
    }

    MetricsRegistry reg;
    TraceEmitter tr;
    auto cfg = baseConfig(jobsResume, &reg, &tr);
    FaultInjector inj(plan ? *plan : FaultPlan(), cfg.seed);
    if (plan)
        cfg.faults = &inj;
    RunResult run = runFromJson(snap.run);
    reg.restoreFromJson(snap.metrics);
    tr.restoreCheckpoint(snap.trace);
    resumeExperiment(workloads::findWorkload("sieve"), cfg, run);
    setLogSink(std::move(prev));

    a.report = runToJson(run).dump(2);
    a.metrics = reg.toJson().dump(2);
    a.trace = tr.toJson().dump(1);
    return a;
}

void
expectIdentical(const Artifacts &want, const Artifacts &got)
{
    EXPECT_EQ(want.report, got.report);
    EXPECT_EQ(want.metrics, got.metrics);
    EXPECT_EQ(want.trace, got.trace);
    EXPECT_EQ(want.logs, got.logs);
}

TEST(Checkpoint, MetricsRestoreIsBitExact)
{
    MetricsRegistry ref;
    ref.counter("c").inc(3);
    ref.gauge("g").set(2.5);
    Histogram &h = ref.histogram("h", {1.0, 10.0});
    for (double v : {0.1, 0.2, 5.0, 50.0})
        h.observe(v);

    Json snap = ref.toJson();
    MetricsRegistry restored;
    restored.restoreFromJson(snap);
    EXPECT_EQ(restored.toJson().dump(2), snap.dump(2));

    // Continued observations accumulate on the restored partial sums
    // exactly as they would have on the originals.
    for (MetricsRegistry *r : {&ref, &restored}) {
        r->counter("c").inc();
        r->gauge("g").set(9.0);
        r->histogram("h", {1.0, 10.0}).observe(0.3);
    }
    EXPECT_EQ(restored.toJson().dump(2), ref.toJson().dump(2));
}

TEST(Checkpoint, MetricsRestoreRequiresEmptyRegistry)
{
    MetricsRegistry ref;
    ref.counter("c").inc();
    Json snap = ref.toJson();
    MetricsRegistry dirty;
    dirty.counter("x").inc();
    EXPECT_THROW(dirty.restoreFromJson(snap), PanicError);
}

TEST(Checkpoint, TraceRestoreContinuesClockArithmetic)
{
    TraceEmitter ref;
    ref.advanceMs(0.1);
    ref.beginSpan("suite", "harness");
    ref.advanceMs(0.2);
    ref.instant("x", "t");

    // Snapshot mid-span, restore into a pristine emitter, then drive
    // both identically: documents must come out byte-identical (the
    // restored clock continues the same floating-point accumulation).
    Json snap = ref.checkpointJson();
    TraceEmitter restored;
    restored.restoreCheckpoint(snap);
    EXPECT_EQ(restored.openSpans(), ref.openSpans());
    for (TraceEmitter *t : {&ref, &restored}) {
        t->advanceMs(0.3);
        t->logInstant("info", "hello");
        t->endSpan();
    }
    EXPECT_EQ(restored.toJson().dump(1), ref.toJson().dump(1));
}

TEST(Checkpoint, TraceRestoreRequiresPristineEmitter)
{
    TraceEmitter ref;
    ref.instant("x", "t");
    Json snap = ref.checkpointJson();
    TraceEmitter dirty;
    dirty.advanceMs(1.0);
    EXPECT_THROW(dirty.restoreCheckpoint(snap), PanicError);
}

TEST(Checkpoint, InterruptResumeIsByteIdenticalSerial)
{
    Artifacts ref = referenceRun(1, nullptr);
    Artifacts resumed = interruptAndResume(1, 1, nullptr);
    expectIdentical(ref, resumed);
    EXPECT_NE(ref.report.find("invocations"), std::string::npos);
}

TEST(Checkpoint, InterruptResumeIsByteIdenticalAcrossJobCounts)
{
    // The acceptance criterion: interrupt at one job count, resume at
    // another, end up byte-identical to never having been interrupted.
    Artifacts ref = referenceRun(1, nullptr);
    expectIdentical(ref, interruptAndResume(1, 4, nullptr));
    expectIdentical(ref, interruptAndResume(4, 1, nullptr));
    expectIdentical(ref, interruptAndResume(4, 4, nullptr));
}

TEST(Checkpoint, InterruptResumeWithFaultsIsByteIdentical)
{
    FaultPlan plan;
    plan.add("throw:inv=1:n=1");
    plan.add("stall:inv=3:n=1:mag=4");
    Artifacts ref = referenceRun(1, &plan);
    Artifacts resumed = interruptAndResume(1, 4, &plan);
    expectIdentical(ref, resumed);
    EXPECT_NE(ref.logs.find("attempt 0 failed"), std::string::npos);
}

TEST(Checkpoint, ResumeFromAnyCheckpointMatchesReference)
{
    // Cadence invariance: checkpoint after every commit, then resume
    // from each snapshot in turn. Every resume must converge on the
    // same final report/metrics/trace (logs are excluded: the resumed
    // portion legitimately re-emits only its own messages).
    Artifacts ref = referenceRun(1, nullptr);

    std::vector<Snapshot> snaps;
    {
        MetricsRegistry reg;
        TraceEmitter tr;
        auto cfg = baseConfig(1, &reg, &tr);
        cfg.checkpointEvery = 1;
        cfg.onCheckpoint = [&](const RunResult &r) {
            snaps.push_back(
                {runToJson(r), reg.toJson(), tr.checkpointJson()});
        };
        (void)runExperiment("sieve", cfg);
    }
    ASSERT_EQ(snaps.size(), 6u);

    for (const Snapshot &snap : snaps) {
        MetricsRegistry reg;
        TraceEmitter tr;
        auto cfg = baseConfig(1, &reg, &tr);
        RunResult run = runFromJson(snap.run);
        reg.restoreFromJson(snap.metrics);
        tr.restoreCheckpoint(snap.trace);
        resumeExperiment(workloads::findWorkload("sieve"), cfg, run);
        EXPECT_EQ(ref.report, runToJson(run).dump(2));
        EXPECT_EQ(ref.metrics, reg.toJson().dump(2));
        EXPECT_EQ(ref.trace, tr.toJson().dump(1));
    }
}

TEST(Checkpoint, CheckpointCadenceDoesNotChangeArtifacts)
{
    // A run that merely *writes* checkpoints (at any cadence) must
    // produce the same artifacts as one that writes none.
    Artifacts ref = referenceRun(1, nullptr);
    for (int every : {1, 2, 5}) {
        MetricsRegistry reg;
        TraceEmitter tr;
        auto cfg = baseConfig(1, &reg, &tr);
        cfg.checkpointEvery = every;
        int fires = 0;
        cfg.onCheckpoint = [&fires](const RunResult &) { ++fires; };
        RunResult run = runExperiment("sieve", cfg);
        EXPECT_EQ(fires, cfg.invocations / every);
        EXPECT_EQ(ref.report, runToJson(run).dump(2));
        EXPECT_EQ(ref.metrics, reg.toJson().dump(2));
        EXPECT_EQ(ref.trace, tr.toJson().dump(1));
    }
}

} // namespace
} // namespace harness
} // namespace rigor
