/**
 * @file
 * Job execution (moved from tools/rigorbench.cc so the daemon and the
 * one-shot CLI share one code path — see jobrun.hh). The bodies are
 * deliberately unchanged where possible: every output byte and every
 * checkpoint byte is part of the compatibility contract with state
 * files and test goldens written before the move.
 */

#include "serve/jobrun.hh"

#include <array>
#include <cstdarg>
#include <deque>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "archive/archive.hh"
#include "compare/compare.hh"
#include "explain/behavior_profile.hh"
#include "explain/explain.hh"
#include "harness/analysis.hh"
#include "harness/fault.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "support/durable_io.hh"
#include "support/interrupt.hh"
#include "support/logging.hh"
#include "support/schema.hh"
#include "support/str.hh"
#include "support/table.hh"

namespace rigor {
namespace serve {

namespace {

/** printf-style adapter over the caller's output hook. */
class Out
{
  public:
    explicit Out(
        const std::function<void(const std::string &)> &sink)
        : sink_(sink)
    {}

    __attribute__((format(printf, 2, 3))) void
    operator()(const char *fmt, ...) const
    {
        va_list ap;
        va_start(ap, fmt);
        std::string s = vstrprintf(fmt, ap);
        va_end(ap);
        sink_(s);
    }

  private:
    const std::function<void(const std::string &)> &sink_;
};

/** Everything one job execution threads through its helpers. */
struct JobEnv
{
    const JobSpec &spec;
    const JobHooks &hooks;
    Out out;

    // Observability sinks (set only when the spec requests them).
    MetricsRegistry *metrics = nullptr;
    TraceEmitter *trace = nullptr;
    const harness::FaultInjector *faults = nullptr;
};

harness::RunnerConfig
makeConfig(const JobEnv &env, vm::Tier tier)
{
    harness::RunnerConfig cfg = makeRunnerConfig(
        env.spec, tier, env.faults, env.metrics, env.trace);
    if (env.hooks.progress) {
        auto progress = env.hooks.progress;
        int total = env.spec.invocations;
        cfg.onProgress = [progress,
                          total](const harness::RunResult &r) {
            progress(r, total);
        };
    }
    return cfg;
}

// Defined with the other archive plumbing below.
void archiveAppend(const JobEnv &env,
                   const std::vector<harness::RunResult> &runs);

void
dumpOutputs(const JobEnv &env, const harness::RunResult &run)
{
    writeRunArtifacts(env.spec, run, [&env](const std::string &s) {
        env.out("%s", s.c_str());
    });
}

/**
 * inform()/warn() plus a mirror of the message into the trace as a
 * "log" instant, so suite progress lands next to the spans it
 * narrates. The runner mirrors its own messages the same way
 * (caller-owned mirroring keeps serial and parallel traces
 * byte-identical; a sink cannot, because parallel workers buffer
 * their messages and replay them later). The suite heartbeat goes
 * through here — i.e. through the LogSink seam — so a daemon job's
 * heartbeats land in the job's captured log stream, never interleaved
 * into another client's output, and --quiet silences them entirely.
 */
__attribute__((format(printf, 3, 4))) void
logTraced(const JobEnv &env, LogLevel level, const char *fmt, ...)
{
    if (env.spec.quiet)
        return;
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrprintf(fmt, ap);
    va_end(ap);
    if (env.trace)
        env.trace->logInstant(logLevelName(level), msg);
    if (level == LogLevel::Warn)
        warn("%s", msg.c_str());
    else
        inform("%s", msg.c_str());
}

/**
 * The tiers a suite measures, in execution order. The order is part
 * of the resume-state contract: checkpoints identify the tier in
 * flight by name, and a resumed process walks this list to find where
 * the interrupted one stopped.
 */
constexpr vm::Tier kSuiteTiers[] = {vm::Tier::Interp,
                                    vm::Tier::Adaptive,
                                    vm::Tier::Threaded};
constexpr size_t kSuiteTierCount =
    sizeof(kSuiteTiers) / sizeof(kSuiteTiers[0]);

/**
 * The archived configuration: the resume fingerprint plus what it
 * leaves implicit — which workloads ran on which tiers, and the run
 * schema version. Two entries with equal fingerprints measured the
 * same experiment, so `compare` can promise that any difference is a
 * performance change.
 */
Json
archiveConfigJson(const JobSpec &spec)
{
    Json c = configJson(spec);
    c.set("schema_version", kRunSchemaVersion);
    Json wls = Json::array();
    Json tiers = Json::array();
    if (spec.command == "suite") {
        for (const auto &w : workloads::suite())
            wls.push(w.name);
        for (vm::Tier tier : kSuiteTiers)
            tiers.push(vm::tierName(tier));
    } else {
        wls.push(spec.workload);
        tiers.push(vm::tierName(spec.tier));
    }
    c.set("workloads", std::move(wls));
    c.set("tiers", std::move(tiers));
    return c;
}

/**
 * Append completed runs to --archive DIR and say where they went.
 * Each run is archived with its behavior profile so a later
 * `explain` can attribute measured differences; the profile is a
 * pure function of the committed run, hence byte-identical across
 * repeats and --jobs values. (--archive excludes --resume, so runs
 * here always come from this process with live VM statistics.)
 */
void
archiveAppend(const JobEnv &env,
              const std::vector<harness::RunResult> &runs)
{
    archive::RunArchive ar(env.spec.archiveDir);
    std::vector<Json> profiles;
    for (const auto &r : runs) {
        // Only the uarch/clock parameters matter for the profile;
        // they are tier- and fault-independent.
        harness::RunnerConfig cfg = makeRunnerConfig(
            env.spec, r.tier, nullptr, nullptr, nullptr);
        profiles.push_back(
            explain::profileToJson(explain::buildProfile(r, cfg)));
    }
    int id = ar.append(archiveConfigJson(env.spec), env.spec.label,
                       env.spec.command, runs, profiles);
    env.out("archived as #%d in %s (%zu run(s) with behavior "
            "profiles)\n",
            id, env.spec.archiveDir.c_str(), runs.size());
}

/**
 * Writes the suite's checksummed resume state (durable_io envelope).
 * A checkpoint captures everything a resumed process needs to
 * continue byte-identically: the completed-workload table, the
 * partial run(s) of the workload in flight, and snapshots of the
 * shared metrics registry and trace emitter taken at the same commit
 * boundary (the runner invokes writeInProgress on the committing
 * thread while the shared sinks are quiescent, so the snapshot is
 * race-free at any --jobs value).
 */
class SuiteCheckpointer
{
  public:
    SuiteCheckpointer(const JobEnv &env,
                      const harness::SuiteState &state)
        : env_(env), state_(state)
    {}

    /** A workload's measurement is starting (no tier in flight yet). */
    void beginWorkload(const std::string &name)
    {
        currentName_ = name;
        currentTier_.clear();
        doneTiers_.clear();
    }

    /** The named tier's run is starting; it is now the one in flight. */
    void beginTier(vm::Tier tier) { currentTier_ = vm::tierName(tier); }

    /**
     * The in-flight tier's run finished; `run` outlives the
     * remaining tier runs of this workload.
     */
    void setTierDone(const harness::RunResult *run)
    {
        doneTiers_.emplace_back(vm::tierName(run->tier), run);
        currentTier_.clear();
    }

    /** The workload finished (or failed); nothing is in flight. */
    void endWorkload()
    {
        currentName_.clear();
        currentTier_.clear();
        doneTiers_.clear();
    }

    /** Checkpoint between workloads (after a completed one commits). */
    void writeCompleted() { write(nullptr); }

    /** Mid-run checkpoint (the runner's onCheckpoint callback). */
    void writeInProgress(const harness::RunResult &run)
    {
        write(&run);
    }

  private:
    void
    write(const harness::RunResult *current)
    {
        Json payload = Json::object();
        payload.set("kind", "suite");
        payload.set("config", configJson(env_.spec));
        payload.set("suite", harness::suiteStateToJson(state_));
        if (current) {
            Json ip = Json::object();
            ip.set("name", currentName_);
            // Completed tiers first, then the partial run of the tier
            // in flight — each under its tier name, so a resumed
            // process can walk kSuiteTiers and find where this one
            // stopped.
            for (const auto &[tier, run] : doneTiers_)
                ip.set(tier, harness::runToJson(*run));
            ip.set(currentTier_, harness::runToJson(*current));
            payload.set("in_progress", std::move(ip));
        }
        if (env_.metrics)
            payload.set("metrics", env_.metrics->toJson());
        if (env_.trace)
            payload.set("trace", env_.trace->checkpointJson());
        writeStateFile(env_.spec.resumePath, payload);
    }

    const JobEnv &env_;
    const harness::SuiteState &state_;
    std::string currentName_;
    /** Tier name of the run in flight (empty between tier runs). */
    std::string currentTier_;
    /** Completed (tier name, run) pairs of the current workload. */
    std::vector<std::pair<std::string, const harness::RunResult *>>
        doneTiers_;
};

/** Outcome of measuring (or resuming) one suite workload. */
struct SuiteStep
{
    harness::SuiteWorkloadState ws;
    /** True when an interrupt stopped the measurement mid-way. */
    bool interrupted = false;
    /** Full runs, kept only when the suite is being archived. */
    std::vector<harness::RunResult> runs;
};

/** Runner config for one suite run, wired to the checkpointer. */
harness::RunnerConfig
suiteRunConfig(const JobEnv &env, vm::Tier tier,
               SuiteCheckpointer *ckpt)
{
    harness::RunnerConfig cfg = makeConfig(env, tier);
    if (ckpt) {
        cfg.checkpointEvery = env.spec.checkpointEvery;
        cfg.onCheckpoint = [ckpt](const harness::RunResult &r) {
            ckpt->writeInProgress(r);
        };
    }
    return cfg;
}

/** Estimates and bookkeeping once all tier runs are complete. */
void
finishWorkloadState(harness::SuiteWorkloadState &ws,
                    const harness::RunResult &interp,
                    const harness::RunResult &jit,
                    const harness::RunResult &threaded)
{
    ws.quarantined = interp.quarantined || jit.quarantined ||
        threaded.quarantined;
    ws.failureCount = static_cast<int>(interp.failures.size() +
                                       jit.failures.size() +
                                       threaded.failures.size());
    ws.modelledMs = interp.totalModelledMs() + jit.totalModelledMs() +
        threaded.totalModelledMs();
    if (interp.invocations.size() < 2 || jit.invocations.size() < 2 ||
        threaded.invocations.size() < 2) {
        ws.failed = true;
        return;
    }
    ws.interpMs = harness::rigorousEstimate(interp).ci.estimate;
    ws.adaptiveMs = harness::rigorousEstimate(jit).ci.estimate;
    ws.threadedMs = harness::rigorousEstimate(threaded).ci.estimate;
    ws.speedup = harness::rigorousSpeedup(interp, jit);
    ws.threadedSpeedup = harness::rigorousSpeedup(interp, threaded);
}

/**
 * Measure one workload on every suite tier. Degrades gracefully:
 * failures and quarantines are recorded in the returned state instead
 * of propagating, so one broken workload cannot sink the suite.
 */
SuiteStep
runSuiteWorkload(const workloads::WorkloadSpec &w, const JobEnv &env,
                 SuiteCheckpointer *ckpt)
{
    SuiteStep step;
    step.ws.name = w.name;
    if (ckpt)
        ckpt->beginWorkload(w.name);
    try {
        // Deque, not vector: setTierDone keeps a pointer into the
        // container, so earlier runs must not move when later tiers
        // are appended.
        std::deque<harness::RunResult> runs;
        for (vm::Tier tier : kSuiteTiers) {
            if (ckpt)
                ckpt->beginTier(tier);
            runs.push_back(harness::runExperiment(
                w, suiteRunConfig(env, tier, ckpt)));
            if (runs.back().interrupted) {
                step.interrupted = true;
                return step;
            }
            if (ckpt)
                ckpt->setTierDone(&runs.back());
        }
        if (ckpt)
            ckpt->endWorkload();
        finishWorkloadState(step.ws, runs[0], runs[1], runs[2]);
        if (!env.spec.archiveDir.empty())
            for (auto &r : runs)
                step.runs.push_back(std::move(r));
    } catch (const FatalError &) {
        // Infrastructure failure (a checkpoint write died on a full
        // disk, say), not a workload failure: recording it as
        // "workload failed" would let the suite carry on without the
        // durability the user asked for. Abort loudly instead.
        throw;
    } catch (const std::exception &e) {
        if (ckpt)
            ckpt->endWorkload();
        logTraced(env, LogLevel::Warn, "workload %s failed: %s",
                  w.name.c_str(), e.what());
        step.ws.failed = true;
    }
    return step;
}

/** A checkpointed run is done once every slot ran (or quarantine). */
bool
runComplete(const harness::RunResult &run, const JobSpec &spec)
{
    return run.quarantined ||
        run.invocationsAttempted >= spec.invocations;
}

/**
 * When --trace is given on resume but the checkpoint carried no trace
 * snapshot (the interrupted process ran without --trace), the restored
 * partial run has no open workload span; open one so the span nesting
 * resumeExperiment expects holds. The resulting trace is well formed
 * but starts mid-suite — byte-identity needs identical flags across
 * the interruption, which the config fingerprint cannot enforce for
 * observability sinks.
 */
void
ensureWorkloadSpanOpen(const JobEnv &env,
                       const workloads::WorkloadSpec &w,
                       const harness::RunResult &run)
{
    if (!env.trace || env.trace->openSpans() > 1)
        return;
    Json args = Json::object();
    args.set("tier", vm::tierName(run.tier));
    args.set("size", run.size);
    env.trace->beginSpan(w.name, "workload", std::move(args));
}

/**
 * Continue the workload a checkpoint left in flight. The partial
 * run(s) come from the checkpoint's in_progress record; invocation
 * seeds are pure functions of (seed, slot, attempt), so extending the
 * restored run reproduces exactly what the uninterrupted run would
 * have measured — estimates, metrics and trace come out
 * byte-identical.
 */
SuiteStep
resumeSuiteWorkload(const workloads::WorkloadSpec &w,
                    const JobEnv &env, SuiteCheckpointer *ckpt,
                    const Json &ip)
{
    SuiteStep step;
    step.ws.name = w.name;
    // Deserialize the checkpointed partial run(s) before entering the
    // degrade-gracefully region: a record that cannot be restored
    // (e.g. an unknown tier string in a hand-edited file) means the
    // checkpoint itself cannot be trusted, so the resume must abort
    // loudly instead of re-measuring the workload as merely "failed".
    std::array<std::optional<harness::RunResult>, kSuiteTierCount>
        restored;
    for (size_t i = 0; i < kSuiteTierCount; ++i)
        if (const Json *tj = ip.get(vm::tierName(kSuiteTiers[i])))
            restored[i] = harness::runFromJson(*tj);
    if (ckpt)
        ckpt->beginWorkload(w.name);
    try {
        // Deque for pointer stability, as in runSuiteWorkload.
        std::deque<harness::RunResult> runs;
        for (size_t i = 0; i < kSuiteTierCount; ++i) {
            vm::Tier tier = kSuiteTiers[i];
            if (restored[i]) {
                runs.push_back(std::move(*restored[i]));
                auto &run = runs.back();
                if (!runComplete(run, env.spec)) {
                    ensureWorkloadSpanOpen(env, w, run);
                    if (ckpt)
                        ckpt->beginTier(tier);
                    harness::resumeExperiment(
                        w, suiteRunConfig(env, tier, ckpt), run);
                    if (run.interrupted) {
                        step.interrupted = true;
                        return step;
                    }
                }
                // A restored-complete run still has its workload span
                // open in the restored trace (the checkpoint fired at
                // the final commit boundary, before the span closed);
                // emit the close the uninterrupted run would have
                // emitted. Only when the next tier's run had not
                // started yet, though: once it has, this tier's span
                // was closed before the checkpoint and the open span
                // belongs to the next tier's run.
                bool nextRestored = i + 1 < kSuiteTierCount &&
                    restored[i + 1].has_value();
                if (env.trace && !nextRestored)
                    env.trace->endSpansTo(1);
            } else {
                if (ckpt)
                    ckpt->beginTier(tier);
                runs.push_back(harness::runExperiment(
                    w, suiteRunConfig(env, tier, ckpt)));
                if (runs.back().interrupted) {
                    step.interrupted = true;
                    return step;
                }
            }
            if (ckpt)
                ckpt->setTierDone(&runs.back());
        }
        if (ckpt)
            ckpt->endWorkload();
        finishWorkloadState(step.ws, runs[0], runs[1], runs[2]);
    } catch (const FatalError &) {
        // As in runSuiteWorkload: a dead checkpoint write must stop
        // the suite, not degrade to a "failed" workload.
        throw;
    } catch (const std::exception &e) {
        if (ckpt)
            ckpt->endWorkload();
        logTraced(env, LogLevel::Warn, "workload %s failed: %s",
                  w.name.c_str(), e.what());
        step.ws.failed = true;
    }
    return step;
}

int
runRunJob(JobEnv &env)
{
    auto run = harness::runExperiment(env.spec.workload,
                                      makeConfig(env, env.spec.tier));
    env.out("%s", renderEstimate(run).c_str());
    dumpOutputs(env, run);
    if (run.interrupted)
        return kExitInterrupted;
    if (run.invocations.empty())
        return kExitFailure;
    // Only completed runs are archived: a partial run would later
    // compare as if it were the whole measurement.
    if (!env.spec.archiveDir.empty())
        archiveAppend(env, {run});
    return kExitSuccess;
}

int
runSuiteJob(JobEnv &env)
{
    const JobSpec &spec = env.spec;
    harness::SuiteState state;
    state.seed = spec.seed;
    state.invocations = spec.invocations;
    state.iterations = spec.iterations;

    std::unique_ptr<SuiteCheckpointer> ckpt;
    Json inProgress;  // null unless a checkpoint left a run in flight
    bool resuming = false;
    if (!spec.resumePath.empty()) {
        ckpt = std::make_unique<SuiteCheckpointer>(env, state);
        if (stateFileExists(spec.resumePath)) {
            StateLoad load = loadStateFile(spec.resumePath);
            if (load.usedBackup)
                warn("%s", load.warning.c_str());
            const Json &payload = load.payload;
            if (!payload.has("kind") ||
                payload.at("kind").asString() != "suite")
                fatal("%s does not hold suite resume state",
                      spec.resumePath.c_str());
            Json current = configJson(spec);
            if (payload.at("config").dump() != current.dump())
                fatal("%s was recorded with a different "
                      "configuration; refusing to mix incomparable "
                      "measurements\n  recorded: %s\n  current:  %s",
                      spec.resumePath.c_str(),
                      payload.at("config").dump().c_str(),
                      current.dump().c_str());
            state = harness::suiteStateFromJson(payload.at("suite"));
            if (env.metrics)
                if (const Json *m = payload.get("metrics"))
                    env.metrics->restoreFromJson(*m);
            if (env.trace)
                if (const Json *t = payload.get("trace"))
                    env.trace->restoreCheckpoint(*t);
            if (const Json *ip = payload.get("in_progress"))
                inProgress = *ip;
            resuming = true;
            // Plain inform(), not logTraced(): the bookkeeping
            // message must not land in the trace, or a resumed trace
            // would differ from an uninterrupted one.
            if (!spec.quiet)
                inform("resuming from %s: %zu workload(s) already "
                       "done%s",
                       spec.resumePath.c_str(),
                       state.workloads.size(),
                       inProgress.isNull() ? ""
                                           : ", one in progress");
        }
    }

    // A restored trace checkpoint already has the suite span open.
    if (env.trace && env.trace->openSpans() == 0)
        env.trace->beginSpan("suite", "harness");

    // Heartbeat bookkeeping: long sweeps print one progress line per
    // workload so a terminal (or a daemon client's event stream)
    // shows where the suite is and how much modelled time and how
    // many failures have accumulated.
    size_t total = workloads::suite().size();
    size_t done = 0;
    double modelledMsTotal = 0.0;
    int failuresTotal = 0;
    bool interrupted = false;
    std::vector<harness::RunResult> archiveRuns;
    for (const auto &w : workloads::suite()) {
        ++done;
        if (resuming && state.find(w.name)) {
            const auto *ws = state.find(w.name);
            modelledMsTotal += ws->modelledMs;
            failuresTotal += ws->failureCount;
            continue;
        }
        // Poll between workloads too, so a signal caught outside a
        // run (e.g. while estimates were computed) stops the suite
        // before more measurement work starts.
        if (interruptRequested()) {
            interrupted = true;
            break;
        }
        SuiteStep step;
        if (!inProgress.isNull() &&
            inProgress.at("name").asString() == w.name) {
            Json ip = std::move(inProgress);
            inProgress = Json();
            step = resumeSuiteWorkload(w, env, ckpt.get(), ip);
        } else {
            step = runSuiteWorkload(w, env, ckpt.get());
        }
        if (step.interrupted) {
            // The final checkpoint was already written at the commit
            // boundary that observed the interrupt (with the partial
            // run attached); writing another here would capture
            // post-run state instead.
            interrupted = true;
            break;
        }
        for (auto &r : step.runs)
            archiveRuns.push_back(std::move(r));
        state.workloads.push_back(std::move(step.ws));
        const auto &ws = state.workloads.back();
        modelledMsTotal += ws.modelledMs;
        failuresTotal += ws.failureCount;
        logTraced(env, LogLevel::Info,
                  "suite [%zu/%zu] %s: %s; %.1f ms modelled, "
                  "%d failure(s) so far",
                  done, total, w.name.c_str(),
                  ws.quarantined ? "quarantined"
                      : ws.failed ? "failed"
                                  : "ok",
                  modelledMsTotal, failuresTotal);
        if (env.metrics) {
            env.metrics->gauge("suite.workloads_done")
                .set(static_cast<double>(done));
            env.metrics->gauge("suite.modelled_ms_total")
                .set(modelledMsTotal);
        }
        if (ckpt)
            ckpt->writeCompleted();
    }

    if (env.trace)
        env.trace->endSpansTo(0);

    Table t({"benchmark", "interp ms", "adaptive ms", "threaded ms",
             "adaptive speedup (95% CI)", "sig",
             "threaded speedup (95% CI)", "sig"});
    std::vector<harness::SpeedupResult> speedups;
    std::vector<harness::SpeedupResult> threadedSpeedups;
    int degraded = 0;
    for (const auto &w : workloads::suite()) {
        const auto *ws = state.find(w.name);
        if (!ws)
            continue;
        if (ws->failed) {
            t.addRow({ws->name, "-", "-", "-",
                      ws->quarantined ? "(quarantined)" : "(failed)",
                      "-", "-", "-"});
            ++degraded;
            continue;
        }
        speedups.push_back(ws->speedup);
        threadedSpeedups.push_back(ws->threadedSpeedup);
        t.addRow({ws->name, fmtDouble(ws->interpMs, 4),
                  fmtDouble(ws->adaptiveMs, 4),
                  fmtDouble(ws->threadedMs, 4),
                  harness::formatCi(ws->speedup.ci, 2),
                  ws->speedup.significant ? "y" : "n",
                  harness::formatCi(ws->threadedSpeedup.ci, 2),
                  ws->threadedSpeedup.significant ? "y" : "n"});
        if (ws->quarantined || ws->failureCount > 0)
            ++degraded;
    }
    env.out("%s", t.render().c_str());
    if (!speedups.empty()) {
        auto geo = harness::geomeanSpeedup(speedups);
        env.out("geomean speedup (adaptive over interp): %s\n",
                harness::formatCi(geo, 2).c_str());
        auto tgeo = harness::geomeanSpeedup(threadedSpeedups);
        env.out("geomean speedup (threaded over interp): %s\n",
                harness::formatCi(tgeo, 2).c_str());
    }

    if (degraded > 0) {
        Table ft({"benchmark", "status", "failures"});
        for (const auto &ws : state.workloads) {
            if (!ws.failed && !ws.quarantined &&
                ws.failureCount == 0)
                continue;
            const char *status = ws.quarantined ? "quarantined"
                : ws.failed                     ? "failed"
                                                : "degraded";
            ft.addRow({ws.name, status,
                       std::to_string(ws.failureCount)});
        }
        env.out("\nfailure summary (%d of %zu workloads "
                "affected):\n%s",
                degraded, state.workloads.size(),
                ft.render().c_str());
    }

    if (interrupted) {
        if (!spec.quiet) {
            if (!spec.resumePath.empty())
                inform("interrupted; resume with: rigorbench suite "
                       "--resume %s",
                       spec.resumePath.c_str());
            else
                inform("interrupted; rerun with --resume FILE to "
                       "make interruptions resumable");
        }
        return kExitInterrupted;
    }
    // Partial results are a success; only a suite where *nothing*
    // could be measured exits nonzero.
    if (speedups.empty())
        return kExitFailure;
    if (!spec.archiveDir.empty() && !archiveRuns.empty())
        archiveAppend(env, archiveRuns);
    return kExitSuccess;
}

} // namespace

Json
configJson(const JobSpec &spec)
{
    Json c = Json::object();
    c.set("seed", strprintf("0x%016llx",
                            static_cast<unsigned long long>(
                                spec.seed)));
    c.set("invocations", spec.invocations);
    c.set("iterations", spec.iterations);
    c.set("size", spec.size);
    c.set("jit_threshold", spec.jitThreshold);
    c.set("max_retries", spec.maxRetries);
    c.set("deadline_ms", spec.deadlineMs);
    c.set("no_noise", spec.noNoise);
    // Cosmetic at first sight, but --quiet suppresses the log-mirror
    // instants in the trace, so it changes artifact bytes.
    c.set("quiet", spec.quiet);
    Json inj = Json::array();
    // io:* specs are excluded: they perturb the durability layer,
    // never the measurements, and the main reason to resume is a
    // crash one of them injected — the resume command won't (and must
    // not need to) repeat the flag.
    for (const auto &s : spec.injectSpecs)
        if (!startsWith(s, "io:"))
            inj.push(s);
    c.set("inject", std::move(inj));
    return c;
}

harness::RunnerConfig
makeRunnerConfig(const JobSpec &spec, vm::Tier tier,
                 const harness::FaultInjector *faults,
                 MetricsRegistry *metrics, TraceEmitter *trace)
{
    harness::RunnerConfig cfg;
    cfg.invocations = spec.invocations;
    cfg.iterations = spec.iterations;
    cfg.tier = tier;
    cfg.size = spec.size;
    cfg.seed = spec.seed;
    cfg.jobs = spec.jobs;
    cfg.jitThreshold = spec.jitThreshold;
    cfg.noise.enabled = !spec.noNoise;
    cfg.maxRetries = spec.maxRetries;
    cfg.deadlineMs = spec.deadlineMs;
    cfg.faults = faults;
    cfg.metrics = metrics;
    cfg.trace = trace;
    return cfg;
}

std::string
renderEstimate(const harness::RunResult &run)
{
    std::string s;
    auto add = [&s](const std::string &chunk) { s += chunk; };
    // Failure/quarantine bookkeeping appended after a degraded run.
    auto addFailures = [&]() {
        if (run.failures.empty() && !run.quarantined)
            return;
        add(strprintf("  failures: %zu recorded, %zu invocation(s) "
                      "succeeded of %d attempted\n",
                      run.failures.size(), run.invocations.size(),
                      run.invocationsAttempted));
        for (const auto &f : run.failures)
            add(strprintf("    inv %d attempt %d [%s]: %s\n",
                          f.invocation, f.attempt,
                          harness::failureKindName(f.kind),
                          f.message.c_str()));
        if (run.quarantined)
            add(strprintf("  QUARANTINED: %s\n",
                          run.quarantineReason.c_str()));
    };
    if (run.invocations.empty()) {
        add(strprintf("%s / %s: no successful invocations\n",
                      run.workload.c_str(), vm::tierName(run.tier)));
        addFailures();
        return s;
    }
    auto est = harness::rigorousEstimate(run);
    const auto &ss = est.steadyState;
    add(strprintf("%s / %s  (%zu invocations x %zu iterations, "
                  "size %lld)\n",
                  run.workload.c_str(), vm::tierName(run.tier),
                  run.invocations.size(),
                  run.invocations.front().samples.size(),
                  static_cast<long long>(run.size)));
    add(strprintf("  time/iter: %s ms   (%s)\n",
                  harness::formatCi(est.ci, 4).c_str(),
                  harness::formatCiPercent(est.ci, 4).c_str()));
    add(strprintf("  series: %d flat, %d warmup, %d slowdown, "
                  "%d no-steady-state; mean warmup %.1f iters\n",
                  ss.flat, ss.warmup, ss.slowdown, ss.noSteadyState,
                  ss.meanSteadyStart));
    add(strprintf("  first invocation: %s\n",
                  harness::sparkline(run.invocations.front().times())
                      .c_str()));
    addFailures();
    return s;
}

void
writeRunArtifacts(const JobSpec &spec, const harness::RunResult &run,
                  const std::function<void(const std::string &)> &out)
{
    if (!spec.jsonPath.empty()) {
        atomicWriteFile(spec.jsonPath,
                        harness::runToJson(run).dump(2) + "\n");
        out(strprintf("wrote %s\n", spec.jsonPath.c_str()));
    }
    if (!spec.csvPath.empty()) {
        std::ostringstream os;
        harness::writeSeriesCsv(os, run);
        atomicWriteFile(spec.csvPath, os.str());
        out(strprintf("wrote %s\n", spec.csvPath.c_str()));
    }
}

void
writeObservability(MetricsRegistry *metrics, TraceEmitter *trace,
                   const std::string &metricsPath,
                   const std::string &tracePath,
                   const std::function<void(const std::string &)> &out)
{
    if (metrics && !metricsPath.empty()) {
        atomicWriteFile(metricsPath, metrics->toJson().dump(2) + "\n");
        out(strprintf("wrote %s\n", metricsPath.c_str()));
    }
    if (trace && !tracePath.empty()) {
        trace->endSpansTo(0);
        atomicWriteFile(tracePath, trace->toJson().dump(1) + "\n");
        out(strprintf("wrote %s\n", tracePath.c_str()));
    }
}

int
executeJob(const JobSpec &spec, const JobHooks &hooks)
{
    if (!hooks.output)
        panic("executeJob needs an output hook");
    // The same invariant the CLI enforces at flag-parse time: a
    // resumed suite only re-measures what the interrupted process
    // left unfinished, so archiving it would record a partial picture
    // of the suite as if it were complete.
    if (!spec.archiveDir.empty() && !spec.resumePath.empty())
        fatal("a job cannot both archive and resume; archive the "
              "suite in a single uninterrupted run");

    harness::FaultPlan plan;
    for (const auto &s : spec.injectSpecs)
        plan.add(s);
    harness::FaultInjector injector(plan, spec.seed);

    MetricsRegistry metrics;
    TraceEmitter trace;
    JobEnv env{spec, hooks, Out(hooks.output)};
    if (!spec.metricsPath.empty())
        env.metrics = &metrics;
    if (!spec.tracePath.empty())
        env.trace = &trace;
    env.faults = plan.empty() ? nullptr : &injector;

    int rc = spec.command == "suite" ? runSuiteJob(env)
                                     : runRunJob(env);
    // Partial artifacts are flushed even after an interrupt, so what
    // was measured is never lost.
    writeObservability(env.metrics, env.trace, spec.metricsPath,
                       spec.tracePath, hooks.output);
    return rc;
}

QueryResult
runQuery(const QuerySpec &query)
{
    compare::CompareConfig cfg;
    cfg.confidence = query.confidence;
    cfg.resamples = query.resamples;
    cfg.seed = query.seed;
    cfg.baselineTier = query.baseTier;
    cfg.candidateTier = query.candTier;

    // `gate` defaults the candidate to the newest entry.
    std::string candRef = query.candRef;
    if (candRef.empty() && query.kind == "gate")
        candRef = "HEAD";
    // The same checks the CLI makes before dispatching here, repeated
    // for specs that arrived over the socket.
    if (query.archiveDir.empty())
        fatal("comparing archive entries requires --archive DIR");
    if (query.baseRef.empty() || candRef.empty())
        fatal("%s takes two entry refs, e.g. '%s HEAD~1 HEAD "
              "--archive DIR'",
              query.kind.c_str(), query.kind.c_str());

    archive::RunArchive ar(query.archiveDir);
    archive::Entry base = ar.resolve(query.baseRef);
    archive::Entry cand = ar.resolve(candRef);
    auto report = compare::compareEntries(base, cand, cfg);
    report.baselineRef = query.baseRef;
    report.candidateRef = candRef;

    QueryResult res;
    if (query.kind == "compare") {
        res.text = compare::renderMarkdown(report);
        res.doc = compare::reportToJson(report);
        return res;
    }
    if (query.kind == "explain") {
        auto ex = explain::explainEntries(base, cand, report);
        res.text = explain::renderMarkdown(ex);
        res.doc = explain::reportToJson(ex);
        return res;
    }
    // gate
    auto gate = compare::evaluateGate(report, query.gateThresholdPct);
    res.text = compare::renderGate(gate, report);
    if (query.explainGate && !gate.pass) {
        // Root-cause every failing pair, worst first (the gate's
        // regression order), straight into the CI log.
        auto ex = explain::explainEntries(base, cand, report);
        res.text += "\n";
        for (const auto &r : gate.regressions) {
            const explain::PairExplanation *pe =
                explain::findPair(ex, r.workload, r.tier);
            if (pe)
                res.text += explain::renderPair(*pe) + "\n";
        }
    }
    Json root = compare::reportToJson(report);
    Json g = Json::object();
    g.set("pass", gate.pass);
    g.set("threshold_pct", gate.thresholdPct);
    Json regs = Json::array();
    for (const auto &r : gate.regressions) {
        Json j = Json::object();
        j.set("workload", r.workload);
        j.set("tier", r.tier);
        j.set("slowdown_pct", r.slowdownPct);
        regs.push(std::move(j));
    }
    g.set("regressions", std::move(regs));
    root.set("gate", std::move(g));
    res.doc = std::move(root);
    res.exitCode = gate.pass ? kExitSuccess : kExitRegression;
    return res;
}

} // namespace serve
} // namespace rigor
