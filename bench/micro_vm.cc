/**
 * @file
 * Google-benchmark microbenchmarks of framework primitives: VM
 * dispatch rate on both tiers, dict operations, compile time, the
 * statistics kernels, the cache/branch models, and the perf model
 * replaying a recorded record stream. These guard against performance
 * regressions in the framework itself.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>

#include "stats/ci.hh"
#include "stats/descriptive.hh"
#include "stats/steady_state.hh"
#include "support/rng.hh"
#include "uarch/branch.hh"
#include "uarch/cache.hh"
#include "uarch/perf_model.hh"
#include "vm/compiler.hh"
#include "vm/interp.hh"
#include "workloads/workloads.hh"

using namespace rigor;

namespace {

const char *kLoopSource =
    "def run(n):\n"
    "    total = 0\n"
    "    i = 0\n"
    "    while i < n:\n"
    "        total += i * 3 % 7\n"
    "        i += 1\n"
    "    return total\n";

void
BM_InterpLoop(benchmark::State &state)
{
    vm::Program prog = vm::compileSource(kLoopSource);
    vm::InterpConfig cfg;
    cfg.tier = vm::Tier::Interp;
    vm::Interp interp(prog, cfg);
    interp.runModule();
    for (auto _ : state) {
        benchmark::DoNotOptimize(interp.callGlobal(
            "run", {vm::Value::makeInt(state.range(0))}));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InterpLoop)->Arg(1000)->Arg(10000);

void
BM_AdaptiveLoop(benchmark::State &state)
{
    vm::Program prog = vm::compileSource(kLoopSource);
    vm::InterpConfig cfg;
    cfg.tier = vm::Tier::Adaptive;
    cfg.jitThreshold = 100;
    vm::Interp interp(prog, cfg);
    interp.runModule();
    for (auto _ : state) {
        benchmark::DoNotOptimize(interp.callGlobal(
            "run", {vm::Value::makeInt(state.range(0))}));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AdaptiveLoop)->Arg(1000)->Arg(10000);

void
BM_Compile(benchmark::State &state)
{
    std::string source;
    for (int i = 0; i < state.range(0); ++i) {
        source += "def f" + std::to_string(i) + "(x):\n"
                  "    return x * " + std::to_string(i) + " + 1\n";
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(vm::compileSource(source));
}
BENCHMARK(BM_Compile)->Arg(10)->Arg(100);

void
BM_DictSetGet(benchmark::State &state)
{
    vm::Program prog = vm::compileSource(
        "def run(n):\n"
        "    d = {}\n"
        "    i = 0\n"
        "    while i < n:\n"
        "        d[i] = i\n"
        "        i += 1\n"
        "    return len(d)\n");
    vm::Interp interp(prog, {});
    interp.runModule();
    for (auto _ : state) {
        benchmark::DoNotOptimize(interp.callGlobal(
            "run", {vm::Value::makeInt(state.range(0))}));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DictSetGet)->Arg(1000);

void
BM_TInterval(benchmark::State &state)
{
    Rng rng(1);
    std::vector<double> xs;
    for (int i = 0; i < state.range(0); ++i)
        xs.push_back(rng.nextGaussian(10.0, 1.0));
    for (auto _ : state)
        benchmark::DoNotOptimize(stats::tInterval(xs));
}
BENCHMARK(BM_TInterval)->Arg(30)->Arg(1000);

void
BM_Bootstrap(benchmark::State &state)
{
    Rng rng(2);
    std::vector<double> xs;
    for (int i = 0; i < 100; ++i)
        xs.push_back(rng.nextGaussian(10.0, 1.0));
    Rng boot(3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(stats::bootstrapInterval(
            xs,
            [](const std::vector<double> &v) {
                return stats::median(v);
            },
            boot, 0.95, static_cast<int>(state.range(0))));
    }
}
BENCHMARK(BM_Bootstrap)->Arg(200)->Arg(1000);

void
BM_HierarchicalRatio(benchmark::State &state)
{
    // Two-level samples shaped like a real run: 8 invocations of 20
    // iterations each, mild between-invocation drift.
    Rng rng(7);
    std::vector<std::vector<double>> numer, denom;
    for (int inv = 0; inv < 8; ++inv) {
        std::vector<double> a, b;
        double shift = 0.05 * inv;
        for (int it = 0; it < 20; ++it) {
            a.push_back(rng.nextGaussian(12.0 + shift, 0.4));
            b.push_back(rng.nextGaussian(10.0 + shift, 0.4));
        }
        numer.push_back(std::move(a));
        denom.push_back(std::move(b));
    }
    Rng boot(8);
    for (auto _ : state) {
        benchmark::DoNotOptimize(stats::hierarchicalRatioInterval(
            numer, denom, boot, 0.95,
            static_cast<int>(state.range(0))));
    }
}
BENCHMARK(BM_HierarchicalRatio)->Arg(200)->Arg(2000);

void
BM_SteadyStateDetect(benchmark::State &state)
{
    Rng rng(4);
    std::vector<double> xs;
    for (int i = 0; i < state.range(0); ++i)
        xs.push_back(rng.nextGaussian(i < 20 ? 20.0 : 10.0, 0.3));
    for (auto _ : state)
        benchmark::DoNotOptimize(stats::detectSteadyState(xs));
}
BENCHMARK(BM_SteadyStateDetect)->Arg(100)->Arg(1000);

void
BM_CacheAccess(benchmark::State &state)
{
    // Uniform over 4 MB: miss-dominated, unlike the model's traffic
    // (see BM_PerfModelReplay).
    auto h = uarch::CacheHierarchy::makeDefault();
    Rng rng(5);
    uint64_t addr = 0;
    for (auto _ : state) {
        addr = rng.nextBounded(1 << 22);
        benchmark::DoNotOptimize(h.access(addr));
    }
}
BENCHMARK(BM_CacheAccess);

/** Keeps every record and the VM's counters as of the last batch. */
struct StreamRecorder final : vm::EventSink
{
    void
    consume(std::span<const vm::Record> records,
            const vm::InterpStats &s) noexcept override
    {
        all.insert(all.end(), records.begin(), records.end());
        stats = s;
    }

    std::vector<vm::Record> all;
    vm::InterpStats stats;
};

void
BM_PerfModelReplay(benchmark::State &state)
{
    // The recorded stream of three full-size richards runs, replayed
    // through a fresh model in VM-sized batches: the traffic the model
    // serves.
    const auto &w = workloads::findWorkload("richards");
    vm::Program prog = vm::compileSource(w.source, w.name);
    StreamRecorder rec;
    {
        vm::InterpConfig cfg;
        cfg.captureOutput = false;
        vm::Interp interp(prog, cfg, &rec);
        interp.runModule();
        for (int r = 0; r < 3; ++r)
            interp.callGlobal("run",
                              {vm::Value::makeInt(w.defaultSize)});
    }
    std::span<const vm::Record> all(rec.all);
    for (auto _ : state) {
        state.PauseTiming();
        auto model = std::make_unique<uarch::PerfModel>();
        state.ResumeTiming();
        for (size_t i = 0; i < all.size(); i += vm::kRecordBatch)
            model->consume(all.subspan(i, std::min(vm::kRecordBatch,
                                                   all.size() - i)),
                           rec.stats);
        benchmark::DoNotOptimize(model->snapshot().cycles);
    }
    // Items are bytecodes, so the rate reads as model ns/bytecode.
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(rec.stats.bytecodes));
    state.counters["records"] = static_cast<double>(all.size());
}
BENCHMARK(BM_PerfModelReplay)->Unit(benchmark::kMillisecond);

void
BM_GsharePredict(benchmark::State &state)
{
    uarch::GsharePredictor g;
    Rng rng(6);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            g.predictAndUpdate(rng.nextBounded(256),
                               rng.nextBernoulli(0.7)));
    }
}
BENCHMARK(BM_GsharePredict);

} // namespace

BENCHMARK_MAIN();
