#include "harness/runner.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "harness/fault.hh"
#include "support/interrupt.hh"
#include "support/logging.hh"
#include "vm/compiler.hh"

namespace rigor {
namespace harness {

namespace {

uint64_t
deriveSeed(uint64_t master, uint64_t stream, uint64_t index)
{
    SplitMix64 sm(master ^ (stream * 0x9e3779b97f4a7c15ULL) ^
                  (index + 1));
    return sm.next();
}

/**
 * Seed for one invocation attempt. Attempt 0 reproduces the original
 * single-attempt derivation bit for bit (fault-free runs are
 * byte-identical to the pre-fault-tolerance harness); retries fork a
 * fresh stream off the invocation seed.
 */
uint64_t
attemptSeed(const RunnerConfig &config, int invocation, int attempt)
{
    uint64_t inv_seed =
        deriveSeed(config.seed, 1, static_cast<uint64_t>(invocation));
    if (attempt == 0)
        return inv_seed;
    return deriveSeed(inv_seed, 4, static_cast<uint64_t>(attempt));
}

/** Why an attempt failed; also thrown inside runAttempt() to end it. */
struct AttemptFailure
{
    FailureKind kind;
    std::string message;
};

/** Bucket bounds shared by the harness duration histograms. */
std::vector<double>
durationBucketsMs()
{
    return MetricsRegistry::exponentialBuckets(0.001, 4.0, 16);
}

/**
 * What one invocation attempt did, as plain data. Attempts touch no
 * metrics, trace or log sink (at --jobs N they run on worker
 * threads); commitAttempt() renders the record into the sinks on the
 * committing thread.
 */
struct AttemptRecord
{
    /** The fault armed for this attempt, if any. */
    const FaultSpec *fault = nullptr;
    /**
     * Seed, checksum, VM stats and the timed iteration samples. A
     * deadline-tripping iteration is timed, so it is among them.
     */
    InvocationResult result;
    /** Every iteration finished (before any cross-invocation check). */
    bool finished = false;
    /**
     * The model's counters at attempt end; unset when a Throw fault
     * fired before the VM started.
     */
    std::optional<uarch::CounterSet> counters;
    /** The VM's events in execution order. */
    std::vector<vm::VmEvent> vmEvents;
    /**
     * Index into vmEvents where each begun iteration's events start
     * (module setup's come before the first). It has one entry more
     * than result.samples when the last iteration threw before it was
     * timed.
     */
    std::vector<size_t> iterationEvents;
    /** Unset when the attempt succeeded. */
    std::optional<AttemptFailure> failure;
};

/** Execute one VM invocation attempt of the experiment design. */
AttemptRecord
runAttempt(const vm::Program &prog, const workloads::WorkloadSpec &spec,
           const RunnerConfig &config, int64_t size, int invocation,
           int attempt)
{
    AttemptRecord rec;
    uint64_t seed = attemptSeed(config, invocation, attempt);
    rec.result.invocationSeed = seed;
    rec.fault = config.faults
        ? config.faults->query(spec.name, invocation, attempt)
        : nullptr;
    if (rec.fault && rec.fault->kind == FaultKind::Throw) {
        rec.failure = AttemptFailure{
            FailureKind::VmError,
            strprintf("injected fault: VmError in %s invocation %d "
                      "attempt %d",
                      spec.name.c_str(), invocation, attempt)};
        return rec;
    }

    vm::InterpConfig icfg;
    icfg.tier = config.tier;
    icfg.jitThreshold = config.jitThreshold;
    icfg.hashSeed = deriveSeed(seed, 2, 0);
    icfg.aslrSeed = deriveSeed(seed, 3, 0);
    icfg.captureOutput = false;

    uarch::PerfModelConfig ucfg = config.uarch;
    if (config.tier == vm::Tier::Threaded) {
        icfg.dispatchUops = kThreadedDispatchUops;
        ucfg.dispatchHistoryOps = kThreadedDispatchHistoryOps;
    }

    uarch::PerfModel model(ucfg);
    vm::Interp interp(prog, icfg, &model);
    InvocationResult &r = rec.result;
    try {
        interp.runModule();
        NoiseModel noise(config.noise, seed);
        r.samples.reserve(static_cast<size_t>(config.iterations));
        double elapsed_ms = 0.0;
        uarch::CounterSet prev = model.snapshot();
        for (int it = 0; it < config.iterations; ++it) {
            rec.iterationEvents.push_back(interp.events().size());
            vm::Value v =
                interp.callGlobal("run", {vm::Value::makeInt(size)});

            int64_t checksum = v.isInt()
                ? v.asInt()
                : static_cast<int64_t>(v.numeric());
            if (r.samples.empty()) {
                r.checksum = checksum;
            } else if (r.checksum != checksum) {
                throw AttemptFailure{
                    FailureKind::ChecksumMismatch,
                    strprintf("workload %s: checksum changed between "
                              "iterations (%lld vs %lld)",
                              spec.name.c_str(),
                              static_cast<long long>(r.checksum),
                              static_cast<long long>(checksum))};
            }

            uarch::CounterSet now = model.snapshot();
            IterationSample sample;
            sample.counters = now.diff(prev);
            prev = now;
            sample.timeMs =
                static_cast<double>(sample.counters.cycles) /
                kCyclesPerMs * noise.nextIterationFactor();
            if (rec.fault)
                sample.timeMs *=
                    FaultInjector::timeFactor(*rec.fault, it);
            elapsed_ms += sample.timeMs;
            r.samples.push_back(std::move(sample));
            if (config.deadlineMs > 0.0 &&
                elapsed_ms > config.deadlineMs)
                throw AttemptFailure{
                    FailureKind::DeadlineExceeded,
                    strprintf("workload %s: invocation %d exceeded the "
                              "%.1f ms deadline after %d iterations "
                              "(%.1f ms modelled)",
                              spec.name.c_str(), invocation,
                              config.deadlineMs, it + 1, elapsed_ms)};
        }
        rec.finished = true;
        if (rec.fault && rec.fault->kind == FaultKind::CorruptChecksum)
            r.checksum ^= 0x5A5A5A5ALL;
    } catch (const vm::VmError &e) {
        rec.failure = AttemptFailure{FailureKind::VmError, e.what()};
    } catch (const AttemptFailure &f) {
        rec.failure = f;
    }
    // An aborted attempt's work was done too: its totals count.
    r.vmStats = interp.stats();
    rec.counters = model.snapshot();
    rec.vmEvents = interp.events();
    return rec;
}

/** Every attempt of one invocation slot, in order. */
struct SlotOutcome
{
    std::vector<AttemptRecord> attempts;

    /** The last attempt succeeded (the slot stops at a success). */
    bool succeeded() const { return !attempts.back().failure; }
};

/**
 * Run the attempt loop of one invocation slot: attempts until one
 * succeeds or maxRetries retries have failed.
 *
 * @param ref_checksum checksum of the run's first successful
 * invocation for cross-invocation verification, or nullptr if no
 * invocation has succeeded yet or, for a speculative slot, the
 * reference is not yet known (see extendExperiment()).
 */
SlotOutcome
runSlot(const vm::Program &prog, const workloads::WorkloadSpec &spec,
        const RunnerConfig &config, int64_t size, int inv,
        const int64_t *ref_checksum)
{
    SlotOutcome out;
    for (int attempt = 0; attempt <= config.maxRetries; ++attempt) {
        AttemptRecord rec =
            runAttempt(prog, spec, config, size, inv, attempt);
        // Cross-invocation checksum verification against the first
        // successful invocation. With a single prior invocation the
        // blame is ambiguous; we presume the established reference is
        // correct.
        if (!rec.failure && ref_checksum &&
            rec.result.checksum != *ref_checksum)
            rec.failure = AttemptFailure{
                FailureKind::ChecksumMismatch,
                strprintf("workload %s: checksum differs across "
                          "invocations (%lld vs %lld)",
                          spec.name.c_str(),
                          static_cast<long long>(rec.result.checksum),
                          static_cast<long long>(*ref_checksum))};
        out.attempts.push_back(std::move(rec));
        if (out.succeeded())
            break;
    }
    return out;
}

/** Capped exponential backoff charged before retry `attempt + 1`. */
double
backoffMs(int attempt)
{
    double delay = kBackoffBaseMs;
    for (int i = 0; i < attempt && delay < kBackoffCapMs; ++i)
        delay *= 2.0;
    return std::min(delay, kBackoffCapMs);
}

/**
 * warn() plus a mirror of the message into the trace as a "log"
 * instant at the current modelled time. Mirroring is owned by the
 * runner, not by whatever log sink is installed, so the instant lands
 * next to the events it narrates. Quiet runs mirror nothing, matching
 * the sink-after-setQuiet contract.
 */
__attribute__((format(printf, 2, 3))) void
warnTraced(TraceEmitter *tr, const char *fmt, ...)
{
    if (quietEnabled())
        return;
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrprintf(fmt, ap);
    va_end(ap);
    if (tr)
        tr->logInstant("warn", msg);
    warn("%s", msg.c_str());
}

/** Emit vmEvents[from, to) as trace instants. */
void
renderVmEvents(TraceEmitter &tr, const std::vector<vm::VmEvent> &events,
               size_t from, size_t to)
{
    for (size_t i = from; i < to; ++i) {
        const vm::VmEvent &e = events[i];
        Json args = Json::object();
        if (e.kind == vm::VmEvent::Kind::JitCompile) {
            args.set("code_id", static_cast<int64_t>(e.codeId));
            args.set("cost_uops", static_cast<int64_t>(e.costUops));
            tr.instant("jit_compile", "vm", std::move(args));
        } else {
            args.set("op", vm::opName(e.op));
            tr.instant("deopt", "vm", std::move(args));
        }
    }
}

/**
 * Render one attempt into the metrics, trace and log sinks and fold
 * it into the run: its result on success, its failure record
 * otherwise.
 * @return whether the attempt succeeded.
 */
bool
commitAttempt(const workloads::WorkloadSpec &spec,
              const RunnerConfig &config, RunResult &run,
              AttemptRecord &&rec, int inv, int attempt)
{
    MetricsRegistry *metrics = config.metrics;
    TraceEmitter *tr = config.trace;

    size_t spanDepth = tr ? tr->openSpans() : 0;
    if (tr) {
        Json args = Json::object();
        args.set("index", inv);
        args.set("attempt", attempt);
        tr->beginSpan("invocation", "harness", std::move(args));
    }
    if (rec.fault) {
        if (metrics)
            metrics->counter("harness.faults_injected").inc();
        if (tr) {
            Json args = Json::object();
            args.set("kind", faultKindName(rec.fault->kind));
            args.set("invocation", inv);
            args.set("attempt", attempt);
            tr->instant("fault_injected", "harness", std::move(args));
        }
    }

    const std::vector<vm::VmEvent> &events = rec.vmEvents;
    const std::vector<size_t> &starts = rec.iterationEvents;
    const std::vector<IterationSample> &samples = rec.result.samples;
    if (tr)
        renderVmEvents(*tr, events, 0,
                       starts.empty() ? events.size() : starts[0]);
    // The iteration that tripped the deadline stays open until the
    // failure below closes it.
    bool tripped = rec.failure &&
        rec.failure->kind == FailureKind::DeadlineExceeded;
    double elapsed_ms = 0.0;
    for (size_t it = 0; it < starts.size(); ++it) {
        if (tr) {
            Json args = Json::object();
            args.set("index", static_cast<int64_t>(it));
            tr->beginSpan("iteration", "harness", std::move(args));
            renderVmEvents(*tr, events, starts[it],
                           it + 1 < starts.size() ? starts[it + 1]
                                                  : events.size());
        }
        if (it == samples.size())
            break;  // began but threw before it was timed
        double ms = samples[it].timeMs;
        elapsed_ms += ms;
        if (tr)
            tr->advanceMs(ms);
        if (metrics) {
            metrics->counter("harness.iterations").inc();
            metrics
                ->histogram("harness.iteration_ms", durationBucketsMs())
                .observe(ms);
        }
        if (tr && !(tripped && it + 1 == samples.size()))
            tr->endSpan();
    }
    if (metrics && rec.finished)
        metrics->histogram("harness.invocation_ms", durationBucketsMs())
            .observe(elapsed_ms);
    if (metrics && rec.counters)
        recordVmTotals(*metrics, config.tier, rec.result.vmStats,
                       *rec.counters);

    if (!rec.failure) {
        if (metrics)
            metrics->counter("harness.invocations").inc();
        if (tr)
            tr->endSpan();
        run.invocations.push_back(std::move(rec.result));
        return true;
    }

    InvocationFailure failure;
    failure.kind = rec.failure->kind;
    failure.invocation = inv;
    failure.attempt = attempt;
    failure.seed = rec.result.invocationSeed;
    failure.message = std::move(rec.failure->message);
    bool retry = attempt < config.maxRetries;
    if (retry)
        failure.backoffMs = backoffMs(attempt);
    if (metrics) {
        metrics->counter("harness.failures").inc();
        metrics
            ->counter(strprintf("harness.failures.%s",
                                failureKindName(failure.kind)))
            .inc();
        if (retry)
            metrics->counter("harness.retries").inc();
    }
    if (tr) {
        Json args = Json::object();
        args.set("kind", failureKindName(failure.kind));
        args.set("invocation", inv);
        args.set("attempt", attempt);
        args.set("message", failure.message);
        tr->instant("invocation_failure", "harness", std::move(args));
        // Close the aborted iteration + invocation spans.
        tr->endSpansTo(spanDepth);
        if (retry) {
            tr->advanceMs(failure.backoffMs);
            Json rargs = Json::object();
            rargs.set("invocation", inv);
            rargs.set("next_attempt", attempt + 1);
            rargs.set("backoff_ms", failure.backoffMs);
            tr->instant("retry", "harness", std::move(rargs));
        }
    }
    warnTraced(tr,
               "workload %s: invocation %d attempt %d failed (%s): %s",
               spec.name.c_str(), inv, attempt,
               failureKindName(failure.kind), failure.message.c_str());
    run.failures.push_back(std::move(failure));
    return false;
}

/**
 * Fold one slot into the run: render each attempt, then apply the
 * consecutive-failure / quarantine accounting. Always runs on the
 * committing thread, in invocation order, against the shared sinks.
 */
void
commitSlot(const workloads::WorkloadSpec &spec,
           const RunnerConfig &config, RunResult &run,
           SlotOutcome &&out, int inv)
{
    MetricsRegistry *metrics = config.metrics;
    TraceEmitter *tr = config.trace;

    if (metrics)
        metrics->counter("harness.invocations_attempted").inc();
    bool succeeded = false;
    for (size_t a = 0; a < out.attempts.size(); ++a)
        succeeded = commitAttempt(spec, config, run,
                                  std::move(out.attempts[a]), inv,
                                  static_cast<int>(a));
    run.invocationsAttempted = inv + 1;
    if (succeeded) {
        run.consecutiveFailures = 0;
    } else if (++run.consecutiveFailures >= config.quarantineAfter &&
               config.quarantineAfter > 0) {
        run.quarantined = true;
        run.quarantineReason = strprintf(
            "%d consecutive invocations failed all %d attempt(s)",
            run.consecutiveFailures, config.maxRetries + 1);
        if (metrics)
            metrics->counter("harness.quarantines").inc();
        if (tr) {
            Json args = Json::object();
            args.set("workload", spec.name);
            args.set("reason", run.quarantineReason);
            tr->instant("quarantine", "harness", std::move(args));
        }
        warnTraced(tr, "workload %s quarantined: %s",
                   spec.name.c_str(), run.quarantineReason.c_str());
    }
}

/**
 * Commit-boundary bookkeeping: fire the periodic checkpoint callback
 * at the configured cadence and poll the interrupt flag. An interrupt
 * fires the callback too, regardless of cadence, so the final
 * checkpoint always reflects the last committed slot — and it fires
 * *before* the caller returns and runExperiment closes the workload
 * trace span, because the checkpoint must capture the span as still
 * open for the resume to continue it.
 *
 * @return true when the run should stop (interrupt requested).
 */
bool
afterCommit(const RunnerConfig &config, RunResult &run)
{
    if (config.onProgress)
        config.onProgress(run);
    bool stop = interruptRequested();
    if (config.onCheckpoint &&
        (stop ||
         (config.checkpointEvery > 0 &&
          run.invocationsAttempted % config.checkpointEvery == 0)))
        config.onCheckpoint(run);
    if (stop)
        run.interrupted = true;
    return stop;
}

/**
 * Worker threads that run invocation slots ahead of the committer.
 * Slot u of the pool is invocation `start + u`. Destruction stops
 * handing out slots and joins the workers.
 */
class SlotPool
{
  public:
    SlotPool(const workloads::WorkloadSpec &spec,
             const RunnerConfig &config, int64_t size, int start, int n,
             int threads)
        : units(static_cast<size_t>(n))
    {
        pool.reserve(static_cast<size_t>(threads));
        for (int t = 0; t < threads; ++t)
            pool.emplace_back([this, &spec, &config, size, start, n] {
                work(spec, config, size, start, n);
            });
    }

    ~SlotPool()
    {
        cancelled.store(true, std::memory_order_relaxed);
        for (auto &t : pool)
            t.join();
    }

    SlotPool(const SlotPool &) = delete;
    SlotPool &operator=(const SlotPool &) = delete;

    /** Wait for slot u and take its outcome (rethrows its error). */
    SlotOutcome
    take(int u)
    {
        Unit &unit = units[static_cast<size_t>(u)];
        {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [&] { return unit.done; });
        }
        if (unit.error)
            std::rethrow_exception(unit.error);
        return std::move(unit.outcome);
    }

  private:
    struct Unit
    {
        SlotOutcome outcome;
        std::exception_ptr error;
        bool done = false;  ///< guarded by mu
    };

    void
    work(const workloads::WorkloadSpec &spec, const RunnerConfig &config,
         int64_t size, int start, int n)
    {
        // Each worker compiles its own program: compiled constants
        // hold refcounted Values, and refcounts are not atomic, so a
        // Program must never be shared across threads.
        std::unique_ptr<vm::Program> prog;
        for (;;) {
            int u = next.fetch_add(1, std::memory_order_relaxed);
            if (u >= n || cancelled.load(std::memory_order_relaxed))
                return;
            Unit &unit = units[static_cast<size_t>(u)];
            try {
                if (!prog)
                    prog = std::make_unique<vm::Program>(
                        vm::compileSource(spec.source, spec.name));
                unit.outcome =
                    runSlot(*prog, spec, config, size, start + u, nullptr);
            } catch (...) {
                unit.error = std::current_exception();
            }
            {
                std::lock_guard<std::mutex> lock(mu);
                unit.done = true;
            }
            cv.notify_all();
        }
    }

    std::vector<Unit> units;
    std::mutex mu;
    std::condition_variable cv;
    std::atomic<int> next{0};
    std::atomic<bool> cancelled{false};
    std::vector<std::thread> pool;
};

} // namespace

void
recordVmTotals(MetricsRegistry &metrics, vm::Tier tier,
               const vm::InterpStats &vm_stats,
               const uarch::CounterSet &counters)
{
    std::string prefix = strprintf("vm.%s.", vm::tierName(tier));
    auto add = [&](const char *name, uint64_t n) {
        metrics.counter(prefix + name).inc(n);
    };
    add("bytecodes", counters.bytecodes);
    add("uops", vm_stats.uops - vm_stats.jitCompileUops);
    add("dispatches", counters.dispatches);
    add("branches", counters.branches);
    add("allocations", counters.allocations);
    add("allocated_bytes", counters.allocatedBytes);
    add("calls", vm_stats.calls);
    add("jit_compiles", vm_stats.jitCompiles);
    add("jit_compile_uops", vm_stats.jitCompileUops);
    add("guard_failures", vm_stats.guardFailures);
}

RunResult
runExperiment(const workloads::WorkloadSpec &spec,
              const RunnerConfig &config)
{
    RunResult result;
    result.workload = spec.name;
    result.tier = config.tier;
    result.size = config.size > 0 ? config.size : spec.defaultSize;

    TraceEmitter *tr = config.trace;
    size_t depth = tr ? tr->openSpans() : 0;
    if (tr) {
        Json args = Json::object();
        args.set("tier", vm::tierName(config.tier));
        args.set("size", result.size);
        tr->beginSpan(spec.name, "workload", std::move(args));
    }
    try {
        extendExperiment(spec, config, result, config.invocations);
    } catch (...) {
        if (tr)
            tr->endSpansTo(depth);
        throw;
    }
    if (tr)
        tr->endSpansTo(depth);
    return result;
}

void
extendExperiment(const workloads::WorkloadSpec &spec,
                 const RunnerConfig &config, RunResult &run,
                 int additional)
{
    if (run.quarantined)
        return;

    vm::Program prog = vm::compileSource(spec.source, spec.name);
    int64_t size = run.size > 0
        ? run.size
        : (config.size > 0 ? config.size : spec.defaultSize);
    run.size = size;

    int start = std::max(run.invocationsAttempted,
                         static_cast<int>(run.invocations.size()));
    int threads = std::min(config.jobs, additional);
    std::optional<SlotPool> pool;
    if (threads > 1)
        pool.emplace(spec, config, size, start, additional, threads);
    for (int u = 0; u < additional; ++u) {
        int inv = start + u;
        const int64_t *ref = run.invocations.empty()
            ? nullptr
            : &run.invocations.front().checksum;
        SlotOutcome out = pool
            ? pool->take(u)
            : runSlot(prog, spec, config, size, inv, ref);
        // A pooled slot ran before the reference checksum was known.
        // A success that fails the cross-invocation check is redone
        // here with the reference: attempt seeds are pure functions
        // of the config, so the redo repeats the speculative attempts
        // bit for bit before it takes the retry path.
        if (out.succeeded() && ref &&
            out.attempts.back().result.checksum != *ref)
            out = runSlot(prog, spec, config, size, inv, ref);
        commitSlot(spec, config, run, std::move(out), inv);
        if (afterCommit(config, run) || run.quarantined)
            return;
    }
}

void
resumeExperiment(const workloads::WorkloadSpec &spec,
                 const RunnerConfig &config, RunResult &run)
{
    TraceEmitter *tr = config.trace;
    // The restored checkpoint holds the workload span open (it was
    // open when the checkpoint was taken); close down to just outside
    // it on exit, mirroring runExperiment.
    size_t depth = tr && tr->openSpans() > 0 ? tr->openSpans() - 1 : 0;
    int additional = config.invocations - run.invocationsAttempted;
    try {
        if (additional > 0)
            extendExperiment(spec, config, run, additional);
    } catch (...) {
        if (tr)
            tr->endSpansTo(depth);
        throw;
    }
    if (tr)
        tr->endSpansTo(depth);
}

RunResult
runExperiment(const std::string &workload_name,
              const RunnerConfig &config)
{
    return runExperiment(workloads::findWorkload(workload_name),
                         config);
}

} // namespace harness
} // namespace rigor
