/**
 * @file
 * Parallel-execution tests: a --jobs N run must produce artifacts
 * (report JSON, metrics snapshot, trace document, log output) that
 * are byte-identical to a serial run, including under injected
 * faults, misspeculation redo and quarantine; plus thread-safety
 * stress tests for the shared MetricsRegistry.
 */

#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "harness/fault.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
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

/**
 * Run the workload at the given job count and serialize everything.
 * Log output is captured through the process sink so the two runs'
 * message streams can be compared too.
 */
Artifacts
runWithJobs(const std::string &workload, int jobs,
            const FaultPlan *plan)
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
    RunResult run = runExperiment(workload, cfg);
    setLogSink(std::move(prev));

    a.report = runToJson(run).dump(2);
    a.metrics = reg.toJson().dump(2);
    a.trace = tr.toJson().dump(1);
    return a;
}

void
expectIdentical(const Artifacts &serial, const Artifacts &parallel)
{
    EXPECT_EQ(serial.report, parallel.report);
    EXPECT_EQ(serial.metrics, parallel.metrics);
    EXPECT_EQ(serial.trace, parallel.trace);
    EXPECT_EQ(serial.logs, parallel.logs);
}

TEST(Parallel, CleanRunIsByteIdenticalToSerial)
{
    Artifacts serial = runWithJobs("sieve", 1, nullptr);
    Artifacts parallel = runWithJobs("sieve", 4, nullptr);
    expectIdentical(serial, parallel);
    // Sanity: the run measured something.
    EXPECT_NE(serial.report.find("invocations"), std::string::npos);
}

TEST(Parallel, MoreJobsThanInvocationsIsByteIdentical)
{
    Artifacts serial = runWithJobs("sieve", 1, nullptr);
    Artifacts parallel = runWithJobs("sieve", 16, nullptr);
    expectIdentical(serial, parallel);
}

TEST(Parallel, FaultyRunWithRetriesIsByteIdenticalToSerial)
{
    FaultPlan plan;
    plan.add("throw:inv=1:n=1");
    plan.add("stall:inv=3:n=1:mag=4");
    Artifacts serial = runWithJobs("sieve", 1, &plan);
    Artifacts parallel = runWithJobs("sieve", 4, &plan);
    expectIdentical(serial, parallel);
    EXPECT_NE(serial.logs.find("attempt 0 failed"),
              std::string::npos);
}

// A checksum-corrupting fault makes a speculatively-executed slot's
// locally-successful result fail the committer's cross-invocation
// check, forcing the in-line redo path. The redo must replay the
// slot exactly as a serial run would have handled it.
TEST(Parallel, MisspeculatedChecksumRedoIsByteIdenticalToSerial)
{
    FaultPlan plan;
    plan.add("checksum:inv=2:n=1");
    Artifacts serial = runWithJobs("sieve", 1, &plan);
    Artifacts parallel = runWithJobs("sieve", 4, &plan);
    expectIdentical(serial, parallel);
    EXPECT_NE(serial.logs.find("checksum differs across invocations"),
              std::string::npos);
}

TEST(Parallel, QuarantineIsByteIdenticalToSerial)
{
    // Every invocation of every attempt throws: the workload hits the
    // consecutive-failure quarantine threshold. The committer must
    // stop the ordered stream at the same invocation a serial run
    // does, and the discarded in-flight slots must leave no residue
    // in any artifact.
    FaultPlan plan;
    plan.add("throw:n=1000");
    Artifacts serial = runWithJobs("sieve", 1, &plan);
    Artifacts parallel = runWithJobs("sieve", 4, &plan);
    expectIdentical(serial, parallel);
    EXPECT_NE(serial.logs.find("quarantined"), std::string::npos);
}

TEST(Parallel, ExtendContinuesTheSerialSequence)
{
    // Growing a run in batches (the sequential-stopping pattern) must
    // land on the same invocations whatever the job count.
    auto grow = [](int jobs) {
        auto cfg = baseConfig(jobs, nullptr, nullptr);
        const auto &spec = workloads::findWorkload("sieve");
        RunResult run;
        run.workload = spec.name;
        run.tier = cfg.tier;
        extendExperiment(spec, cfg, run, 3);
        extendExperiment(spec, cfg, run, 4);
        return runToJson(run).dump(2);
    };
    EXPECT_EQ(grow(1), grow(4));
}

TEST(Parallel, SharedRegistryStressTotalsAreExact)
{
    MetricsRegistry reg;
    constexpr int kThreads = 8;
    constexpr int kIters = 5000;
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&reg, &go, t]() {
            while (!go.load())
                std::this_thread::yield();
            // Shared metrics plus a thread-private name, so lookups
            // race with creation as well as with updates.
            Counter &mine = reg.counter(
                "stress.private." + std::to_string(t));
            for (int i = 0; i < kIters; ++i) {
                reg.counter("stress.shared").inc();
                mine.inc();
                reg.gauge("stress.gauge")
                    .set(static_cast<double>(i));
                reg.histogram("stress.hist", {1.0, 8.0, 64.0})
                    .observe(static_cast<double>(i % 100));
            }
        });
    }
    go.store(true);
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(reg.counterValue("stress.shared"),
              static_cast<uint64_t>(kThreads) * kIters);
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(reg.counterValue("stress.private." +
                                   std::to_string(t)),
                  static_cast<uint64_t>(kIters));
    Histogram &h = reg.histogram("stress.hist", {1.0, 8.0, 64.0});
    EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads) * kIters);
    uint64_t bucketTotal = 0;
    for (uint64_t c : h.bucketCounts())
        bucketTotal += c;
    EXPECT_EQ(bucketTotal, h.count());
    double g = reg.gauge("stress.gauge").value();
    EXPECT_GE(g, 0.0);
    EXPECT_LT(g, static_cast<double>(kIters));
}

} // namespace
} // namespace harness
} // namespace rigor
