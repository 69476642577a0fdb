/**
 * @file
 * The job execution engine shared by the one-shot CLI and the serve
 * daemon.
 *
 * Everything that turns a JobSpec into measurements and artifacts —
 * runner configuration, the resume-config fingerprint, the suite
 * loop with its checkpointer, archive appends, report rendering —
 * lives here, moved out of tools/rigorbench.cc. The CLI calls
 * executeJob with an output hook that writes to stdout; the daemon
 * calls the *same function* on a worker thread with hooks that stream
 * the output and progress to subscribed clients. That shared path is
 * the multi-tenant determinism guarantee: a job submitted over the
 * socket produces report text, --json/--csv/--metrics/--trace
 * artifacts and archive entries byte-identical to the same
 * configuration run at a shell (docs/METHODOLOGY.md §17).
 */

#ifndef RIGOR_SERVE_JOBRUN_HH
#define RIGOR_SERVE_JOBRUN_HH

#include <functional>
#include <string>

#include "harness/measurement.hh"
#include "serve/jobspec.hh"
#include "support/json.hh"

namespace rigor {
namespace serve {

/**
 * Exit codes shared by the one-shot CLI, daemon-executed jobs and the
 * client mode. The canonical table lives in README.md ("Exit codes");
 * 3 (interrupted) is declared in support/interrupt.hh and 6 (injected
 * crash) in harness/fault.hh, next to the machinery that raises them.
 */
inline constexpr int kExitSuccess = 0;
inline constexpr int kExitUsage = 1;
inline constexpr int kExitFailure = 2;
/** `gate` found a regression beyond the threshold. */
inline constexpr int kExitRegression = 4;
/** `fsck` found corruption (or failed to repair it). */
inline constexpr int kExitCorruption = 5;
/** Client mode: daemon unreachable or spoke a different protocol. */
inline constexpr int kExitServeUnavailable = 7;
/** Client mode: the daemon's admission control rejected the job. */
inline constexpr int kExitRejected = 8;

/** Hooks a caller wires into a job's execution. */
struct JobHooks
{
    /**
     * Receives the job's report stream — exactly the bytes the
     * one-shot CLI writes to stdout. Required.
     */
    std::function<void(const std::string &chunk)> output;
    /**
     * Optional: called after every committed invocation slot with the
     * partial run and the configured total (on the committing thread;
     * see RunnerConfig::onProgress). Purely observational.
     */
    std::function<void(const harness::RunResult &run, int total)>
        progress;
};

/**
 * Execute a run/suite job: measure, render the report through
 * hooks.output, write every requested artifact.
 * @return the exit code the one-shot CLI would have returned
 * (kExitSuccess, kExitFailure, or kExitInterrupted).
 * @throws FatalError for configuration errors (unknown workload,
 * unusable resume state, artifact write failure).
 */
int executeJob(const JobSpec &spec, const JobHooks &hooks);

/** Outcome of an archive query (compare / gate / explain). */
struct QueryResult
{
    /** kExitSuccess, or kExitRegression for a failed gate. */
    int exitCode = kExitSuccess;
    /** The rendered report, as the CLI prints it to stdout. */
    std::string text;
    /** The machine-readable report (--json payload). */
    Json doc;
};

/**
 * Run an archive query. Read-only: safe to run concurrently with
 * appenders — archive scans degrade to read-only while a writer
 * holds the directory lock.
 * @throws FatalError when a ref does not resolve or the archive is
 * unusable.
 */
QueryResult runQuery(const QuerySpec &query);

/**
 * The measurement-determining configuration fingerprint stored in
 * every suite checkpoint and compared verbatim on resume (exposed for
 * the daemon's drain bookkeeping and for tests).
 */
Json configJson(const JobSpec &spec);

/** Render the estimate block `run`/`compare` print per run. */
std::string renderEstimate(const harness::RunResult &run);

/**
 * Runner configuration for one (spec, tier) measurement. Exposed so
 * the CLI's non-queueable commands (`sequential`, the one-shot
 * `compare`) share the exact config mapping queued jobs use.
 */
harness::RunnerConfig
makeRunnerConfig(const JobSpec &spec, vm::Tier tier,
                 const harness::FaultInjector *faults,
                 MetricsRegistry *metrics, TraceEmitter *trace);

/**
 * Write the --json/--csv artifacts `spec` requests for `run`, with a
 * "wrote PATH" line per file through `out`.
 */
void writeRunArtifacts(const JobSpec &spec,
                       const harness::RunResult &run,
                       const std::function<void(const std::string &)>
                           &out);

/**
 * Flush the --metrics / --trace files after a command finished (the
 * trace's open spans are closed first), with a "wrote PATH" line per
 * file through `out`. A null sink or an empty path writes nothing.
 */
void writeObservability(MetricsRegistry *metrics, TraceEmitter *trace,
                        const std::string &metricsPath,
                        const std::string &tracePath,
                        const std::function<void(const std::string &)>
                            &out);

} // namespace serve
} // namespace rigor

#endif // RIGOR_SERVE_JOBRUN_HH
