/**
 * @file
 * rigorbench — command-line front end to the framework.
 *
 *   rigorbench list
 *   rigorbench env
 *   rigorbench version
 *   rigorbench disasm <workload>
 *   rigorbench run <workload> [options]
 *   rigorbench compare <workload> [options]
 *   rigorbench compare <baseline> <candidate> --archive DIR
 *   rigorbench sequential <workload> [options]
 *   rigorbench profile <workload> [options]
 *   rigorbench suite [options]
 *   rigorbench gate <baseline> [<candidate>] --archive DIR
 *   rigorbench explain <baseline> <candidate> --archive DIR
 *   rigorbench archive list|prune --archive DIR
 *   rigorbench fsck --archive DIR [--repair]
 *   rigorbench serve --socket PATH [options]
 *   rigorbench submit run <workload>|suite --socket PATH [options]
 *   rigorbench status [<job-id>] --socket PATH
 *   rigorbench cancel <job-id> --socket PATH
 *   rigorbench shutdown [--now] --socket PATH
 *   rigorbench help
 *
 * Common options:
 *   --tier interp|adaptive|threaded
 *                            (run only; default interp,
 *                            profile defaults to adaptive)
 *   --invocations N          (default 8)
 *   --iterations N           (default 20)
 *   --size N                 (default: workload's defaultSize)
 *   --seed S                 (default 0xc0ffee)
 *   --jobs N                 (default 1) worker threads; artifacts
 *                            are byte-identical for every N
 *   --jit-threshold N        (default kDefaultJitThreshold)
 *   --target PCT             (sequential only; default 2)
 *   --json FILE              dump the raw run as JSON
 *                            (archive list: the machine-readable
 *                            listing; '-' prints it to stdout)
 *   --csv FILE               dump per-iteration samples as CSV
 *   --no-noise               disable the measurement-noise model
 *   --quiet                  silence warn()/inform() status output
 *
 * Observability (see docs/OBSERVABILITY.md):
 *   --metrics FILE           write a metrics-registry JSON snapshot
 *   --trace FILE             write a Chrome trace-event JSON
 *                            (Perfetto-loadable, modelled clock)
 *
 * Fault tolerance:
 *   --inject SPEC            inject a fault (repeatable); SPEC is
 *                            kind[:key=value]... with kind one of
 *                            throw|checksum|stall|ramp and keys
 *                            wl=NAME inv=N n=COUNT p=PROB mag=X;
 *                            or an I/O fault io:subkind[:key=value]...
 *                            with subkind one of short-write|enospc|
 *                            torn-rename|fsync-fail|crash-at=N and
 *                            keys at=N n=COUNT p=PROB op=NAME
 *                            path=SUBSTR mag=X (armed on the durable-
 *                            I/O operations; crash-at kills the
 *                            process with exit 6 at matching call N)
 *   --max-retries N          retries per invocation (default 2)
 *   --deadline-ms X          per-invocation modelled-time deadline
 *
 * Durability (see docs/METHODOLOGY.md §12):
 *   --resume FILE            (suite only) persist checksummed state
 *                            after every workload and skip completed
 *                            ones on restart; a checkpoint interrupted
 *                            mid-write falls back to FILE.bak
 *   --checkpoint-every N     (suite, needs --resume) additionally
 *                            checkpoint every N committed invocations,
 *                            so an interrupted *run* resumes mid-
 *                            workload; final artifacts are invariant
 *                            under the checkpoint cadence
 *
 * Archive & comparison (see docs/METHODOLOGY.md §13):
 *   --archive DIR            (run/suite) append the completed run(s)
 *                            to the archive at DIR; (compare/gate/
 *                            archive) the archive to operate on
 *   --label NAME             label the appended entry
 *   --resamples N            bootstrap resamples (default 2000)
 *   --confidence C           interval confidence (default 0.95)
 *   --gate-threshold PCT     gate regression threshold (default 5)
 *   --keep N                 (archive prune) entries to keep
 *   fsck --archive DIR       verify every file in the archive (CRC
 *                            envelopes, schema versions, naming,
 *                            orphaned temporaries/backups); exit 5
 *                            when corruption is found
 *   --repair                 (fsck) fix what is mechanically fixable:
 *                            restore from valid backups, sweep
 *                            orphaned temporaries, quarantine the
 *                            rest; exit 0 when the archive is clean
 *                            afterwards
 *   --base-tier T --cand-tier T
 *                            (compare/gate/explain on archives)
 *                            cross-tier pairing: baseline runs on
 *                            tier T1 vs candidate runs on tier T2,
 *                            paired by workload (both flags or
 *                            neither)
 *
 * Differential profiling (see docs/METHODOLOGY.md §14):
 *   explain A B              attribute the measured ratio of every
 *                            paired (workload, tier) to opcode-mix,
 *                            tier/deopt, branch and cache components
 *                            (plus an explicit unattributed
 *                            remainder), from the behavior profiles
 *                            archived with each entry
 *   --explain                (gate) append the per-pair attribution
 *                            for every failing pair
 *
 * Daemon mode (see docs/METHODOLOGY.md §17):
 *   serve                    run the multi-tenant benchmarking daemon
 *                            on a Unix-domain socket; submitted jobs
 *                            produce artifacts byte-identical to the
 *                            same flags run one-shot
 *   --socket PATH            the daemon's socket (serve and every
 *                            client command; compare/gate/explain
 *                            with --socket route through the daemon)
 *   --state-dir DIR          (serve) durable queue/checkpoint state
 *                            (default: SOCKET.d)
 *   --max-queue N            (serve) admission limit on waiting jobs
 *                            (default 16; excess submits exit 8)
 *   --max-active N           (serve) concurrent job executions
 *                            (default 1)
 *   serve --resume           restore the persisted queue after a
 *                            drain (SIGINT/SIGTERM exits 3 with the
 *                            queue durably checkpointed)
 *   --priority N             (submit) lower runs first (default 10)
 *   --client NAME            (submit) label shown in `status`
 *   --no-wait                (submit) print the job id and return
 *                            instead of streaming the report
 *   --now                    (shutdown) interrupt running jobs at the
 *                            next commit boundary instead of draining
 *
 * Entry refs: HEAD (newest), HEAD~N, a decimal id, or a label.
 *
 * Exit codes (stable; scripts may rely on them — the canonical table
 * lives in README.md "Exit codes"):
 *   0  success
 *   1  usage error (bad flags/arguments)
 *   2  runtime or suite failure (nothing measurable, I/O error)
 *   3  interrupted (SIGINT/SIGTERM); state is resumable when
 *      --resume was given (serve: the queue is resumable)
 *   4  regression: gate found a workload slower than the baseline
 *      beyond the threshold at the configured confidence
 *   5  corruption: fsck found (or could not repair) archive damage
 *   6  injected crash: an io:crash-at fault killed the process at
 *      the requested call (torture harnesses rely on this code to
 *      tell an injected crash from a real failure)
 *   7  daemon unavailable: no daemon at --socket (or it spoke a
 *      different protocol version)
 *   8  rejected: the daemon's admission control refused the job
 *      (queue full, draining, or an io:* fault spec)
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "archive/archive.hh"
#include "archive/fsck.hh"
#include "harness/analysis.hh"
#include "harness/envcheck.hh"
#include "harness/fault.hh"
#include "harness/profile.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "harness/sequential.hh"
#include "serve/client.hh"
#include "serve/jobrun.hh"
#include "serve/jobspec.hh"
#include "serve/server.hh"
#include "support/durable_io.hh"
#include "support/interrupt.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/schema.hh"
#include "support/str.hh"
#include "support/table.hh"
#include "support/trace.hh"
#include "vm/compiler.hh"

using namespace rigor;

namespace {

// Exit-code table (see the file header). The codes themselves live in
// serve/jobrun.hh so the CLI, the daemon and the client mode agree;
// kExitInterrupted (3) is in support/interrupt.hh with the signal
// handler and kExitCrashInjected (6) in harness/fault.hh with the
// io:crash-at machinery.
using serve::kExitCorruption;
using serve::kExitFailure;
using serve::kExitRegression;
using serve::kExitSuccess;
using serve::kExitUsage;

struct Options
{
    std::string command;
    std::string workload;
    /** Second positional (compare/gate candidate ref, submit's
     * workload name, ...). */
    std::string workload2;
    vm::Tier tier = vm::Tier::Interp;
    /** True once --tier was given (profile defaults differently). */
    bool tierSet = false;
    /** Cross-tier pairing for compare/gate/explain (both or none). */
    std::string baseTier, candTier;
    int invocations = 8;
    int iterations = 20;
    int jobs = 1;
    int64_t size = 0;
    uint64_t seed = 0xc0ffee;
    int jitThreshold = harness::kDefaultJitThreshold;
    double targetPct = 2.0;
    std::string jsonPath;
    std::string csvPath;
    bool noNoise = false;
    bool quiet = false;
    harness::FaultPlan faultPlan;
    /** Raw --inject specs, kept for the resume-config fingerprint. */
    std::vector<std::string> injectSpecs;
    int maxRetries = 2;
    double deadlineMs = 0.0;
    std::string resumePath;
    int checkpointEvery = 0;
    std::string metricsPath;
    std::string tracePath;
    std::string archiveDir;
    std::string label;
    int resamples = 2000;
    double confidence = 0.95;
    double gateThresholdPct = 5.0;
    int keep = 0;
    /** `gate --explain`: attribute every failing pair. */
    bool explainGate = false;
    /** `fsck --repair`: fix what is mechanically fixable. */
    bool repair = false;

    // Daemon mode (serve and its client commands).
    std::string socketPath;
    std::string stateDir;
    int maxQueue = 16;
    int maxActive = 1;
    /** `serve --resume`: restore the persisted queue. */
    bool serveResume = false;
    int priority = 10;
    std::string clientName;
    /** `submit --no-wait`: detach instead of streaming the report. */
    bool noWait = false;
    /** `shutdown --now`: interrupt instead of draining. */
    bool shutdownNow = false;

    // Observability sinks, shared by every run of the command
    // (not owned; set up in main when requested).
    MetricsRegistry *metrics = nullptr;
    TraceEmitter *trace = nullptr;
};

void
printUsage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: rigorbench <command> [args] [options]\n"
        "\n"
        "commands:\n"
        "  list                      list the workload suite\n"
        "  env                       report environment hygiene\n"
        "  version                   print binary and artifact-schema "
        "versions\n"
        "  disasm <workload>         disassemble a workload\n"
        "  run <workload>            measure one workload\n"
        "  compare <workload>        interp-vs-adaptive speedup\n"
        "  compare <base> <cand>     compare two archive entries\n"
        "                            (needs --archive DIR)\n"
        "  sequential <workload>     run until the CI is tight\n"
        "  profile <workload>        per-opcode/JIT profile\n"
        "  suite                     measure the whole suite\n"
        "  gate <base> [<cand>]      fail (exit 4) on regression vs\n"
        "                            base; cand defaults to HEAD\n"
        "  explain <base> <cand>     attribute the measured ratio to\n"
        "                            behavior components\n"
        "                            (needs --archive DIR)\n"
        "  archive list|prune        inspect / trim an archive\n"
        "                            (list --json FILE|- for the\n"
        "                            machine-readable form)\n"
        "  fsck                      verify an archive (--repair to\n"
        "                            fix); needs --archive DIR\n"
        "  serve                     run the benchmarking daemon on\n"
        "                            --socket PATH (--resume after a\n"
        "                            drain)\n"
        "  submit run <wl>|suite     queue a job on the daemon\n"
        "  status [<job-id>]         list the daemon's jobs (or one)\n"
        "  cancel <job-id>           cancel a queued job\n"
        "  shutdown                  drain the daemon (--now to\n"
        "                            interrupt running jobs)\n"
        "  help                      this text\n"
        "\n"
        "entry refs: HEAD, HEAD~N, a decimal id, or a --label name\n"
        "\n"
        "options: --tier interp|adaptive|threaded --invocations N "
        "--iterations N --size N --jobs N\n"
        "         --seed S --jit-threshold N --target PCT "
        "--json FILE --csv FILE --no-noise\n"
        "         --inject SPEC --max-retries N --deadline-ms X "
        "--resume FILE\n"
        "         --checkpoint-every N --metrics FILE --trace FILE "
        "--quiet\n"
        "         --archive DIR --label NAME --resamples N "
        "--confidence C\n"
        "         --gate-threshold PCT --keep N --explain "
        "--repair\n"
        "         --base-tier TIER --cand-tier TIER\n"
        "         --socket PATH --state-dir DIR --max-queue N "
        "--max-active N\n"
        "         --priority N --client NAME --no-wait --now\n"
        "\n"
        "exit codes: 0 success, 1 usage error, 2 runtime failure,\n"
        "            3 interrupted (resumable with --resume),\n"
        "            4 regression detected by gate,\n"
        "            5 corruption found by fsck,\n"
        "            6 injected crash (io:crash-at fault),\n"
        "            7 daemon unavailable at --socket,\n"
        "            8 job rejected by daemon admission control\n");
}

[[noreturn]] void
usage()
{
    printUsage(stderr);
    std::exit(kExitUsage);
}

/**
 * Strict integer parsing: rejects garbage instead of yielding 0 and
 * overflow instead of silently clamping to LLONG_MAX (strtoll sets
 * errno=ERANGE but still returns a "valid-looking" value, so e.g.
 * --invocations 99999999999999999999 used to be accepted).
 */
int64_t
parseInt(const char *flag, const char *text, int64_t min_value)
{
    char *end = nullptr;
    errno = 0;
    long long v = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0')
        fatal("%s expects an integer, got '%s'", flag, text);
    if (errno == ERANGE)
        fatal("%s out of range: '%s'", flag, text);
    if (v < min_value)
        fatal("%s must be >= %lld, got %lld", flag,
              static_cast<long long>(min_value), v);
    return v;
}

double
parseDouble(const char *flag, const char *text, double min_value)
{
    char *end = nullptr;
    errno = 0;
    double v = std::strtod(text, &end);
    if (end == text || *end != '\0')
        fatal("%s expects a number, got '%s'", flag, text);
    if (errno == ERANGE)
        fatal("%s out of range: '%s'", flag, text);
    if (v < min_value)
        fatal("%s must be >= %g, got %g", flag, min_value, v);
    return v;
}

/** Strict seed parsing (decimal, hex or octal; full uint64 range). */
uint64_t
parseSeed(const char *flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    uint64_t v = std::strtoull(text, &end, 0);
    if (end == text || *end != '\0')
        fatal("%s expects an integer, got '%s'", flag, text);
    if (errno == ERANGE)
        fatal("%s out of range: '%s'", flag, text);
    return v;
}

/**
 * A mistyped tier value is a runtime failure (exit 2), not a usage
 * error: the flag itself was recognized, its value wasn't. Name the
 * offending value instead of drowning it in the usage wall.
 */
vm::Tier
parseTier(const char *text)
{
    std::string t = text;
    if (t == "interp")
        return vm::Tier::Interp;
    if (t == "adaptive")
        return vm::Tier::Adaptive;
    if (t == "threaded")
        return vm::Tier::Threaded;
    std::fprintf(stderr,
                 "unknown tier '%s' (expected "
                 "interp|adaptive|threaded)\n",
                 t.c_str());
    std::exit(kExitFailure);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    if (argc < 2)
        usage();
    opt.command = argv[1];
    if (opt.command == "help" || opt.command == "--help" ||
        opt.command == "-h") {
        printUsage(stdout);
        std::exit(0);
    }
    if (opt.command == "--version")
        opt.command = "version";
    int i = 2;
    if (i < argc && argv[i][0] != '-')
        opt.workload = argv[i++];
    if (i < argc && argv[i][0] != '-')
        opt.workload2 = argv[i++];
    for (; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (a == "--help" || a == "-h") {
            printUsage(stdout);
            std::exit(0);
        } else if (a == "--tier") {
            opt.tier = parseTier(next());
            opt.tierSet = true;
        } else if (a == "--base-tier") {
            opt.baseTier = vm::tierName(parseTier(next()));
        } else if (a == "--cand-tier") {
            opt.candTier = vm::tierName(parseTier(next()));
        } else if (a == "--invocations") {
            opt.invocations = static_cast<int>(
                parseInt("--invocations", next(), 1));
        } else if (a == "--iterations") {
            opt.iterations = static_cast<int>(
                parseInt("--iterations", next(), 1));
        } else if (a == "--size") {
            opt.size = parseInt("--size", next(), 1);
        } else if (a == "--seed") {
            opt.seed = parseSeed("--seed", next());
        } else if (a == "--jobs") {
            opt.jobs =
                static_cast<int>(parseInt("--jobs", next(), 1));
        } else if (a == "--jit-threshold") {
            opt.jitThreshold = static_cast<int>(
                parseInt("--jit-threshold", next(), 1));
        } else if (a == "--target") {
            opt.targetPct = parseDouble("--target", next(), 1e-6);
        } else if (a == "--json") {
            opt.jsonPath = next();
        } else if (a == "--csv") {
            opt.csvPath = next();
        } else if (a == "--no-noise") {
            opt.noNoise = true;
        } else if (a == "--quiet") {
            opt.quiet = true;
        } else if (a == "--metrics") {
            opt.metricsPath = next();
        } else if (a == "--trace") {
            opt.tracePath = next();
        } else if (a == "--inject") {
            const char *spec = next();
            opt.faultPlan.add(spec);
            opt.injectSpecs.push_back(spec);
        } else if (a == "--max-retries") {
            opt.maxRetries = static_cast<int>(
                parseInt("--max-retries", next(), 0));
        } else if (a == "--deadline-ms") {
            opt.deadlineMs = parseDouble("--deadline-ms", next(),
                                         1e-9);
        } else if (a == "--resume") {
            // For `serve`, --resume is a flag (restore the queue);
            // everywhere else it names the suite state file.
            if (opt.command == "serve")
                opt.serveResume = true;
            else
                opt.resumePath = next();
        } else if (a == "--checkpoint-every") {
            opt.checkpointEvery = static_cast<int>(
                parseInt("--checkpoint-every", next(), 1));
        } else if (a == "--archive") {
            opt.archiveDir = next();
        } else if (a == "--label") {
            opt.label = next();
        } else if (a == "--resamples") {
            opt.resamples = static_cast<int>(
                parseInt("--resamples", next(), 10));
        } else if (a == "--confidence") {
            opt.confidence =
                parseDouble("--confidence", next(), 1e-6);
            if (opt.confidence >= 1.0)
                fatal("--confidence must be < 1, got %g",
                      opt.confidence);
        } else if (a == "--gate-threshold") {
            opt.gateThresholdPct =
                parseDouble("--gate-threshold", next(), 0.0);
        } else if (a == "--keep") {
            opt.keep =
                static_cast<int>(parseInt("--keep", next(), 1));
        } else if (a == "--explain") {
            opt.explainGate = true;
        } else if (a == "--repair") {
            opt.repair = true;
        } else if (a == "--socket") {
            opt.socketPath = next();
        } else if (a == "--state-dir") {
            opt.stateDir = next();
        } else if (a == "--max-queue") {
            opt.maxQueue = static_cast<int>(
                parseInt("--max-queue", next(), 1));
        } else if (a == "--max-active") {
            opt.maxActive = static_cast<int>(
                parseInt("--max-active", next(), 1));
        } else if (a == "--priority") {
            opt.priority = static_cast<int>(
                parseInt("--priority", next(), 0));
        } else if (a == "--client") {
            opt.clientName = next();
        } else if (a == "--no-wait") {
            opt.noWait = true;
        } else if (a == "--now") {
            opt.shutdownNow = true;
        } else {
            usage();
        }
    }
    // --checkpoint-every needs a durable home for the checkpoints: a
    // local suite's --resume file, or the daemon-assigned resume path
    // a submitted suite gets at admission.
    bool checkpointable =
        (opt.command == "suite" && !opt.resumePath.empty()) ||
        (opt.command == "submit" && opt.workload == "suite");
    if (opt.checkpointEvery > 0 && !checkpointable)
        fatal("--checkpoint-every requires 'suite' with --resume "
              "(checkpoints are written to the resume state file)");
    // A resumed suite only re-measures what the interrupted process
    // left unfinished; archiving it would record a partial picture of
    // the suite as if it were complete.
    if (!opt.archiveDir.empty() && !opt.resumePath.empty())
        fatal("--archive cannot be combined with --resume; "
              "archive the suite in a single uninterrupted run");
    if (!opt.workload2.empty() && opt.command != "compare" &&
        opt.command != "gate" && opt.command != "explain" &&
        opt.command != "submit")
        fatal("unexpected extra argument '%s'",
              opt.workload2.c_str());
    if (opt.explainGate && opt.command != "gate")
        fatal("--explain only applies to 'gate' (use the 'explain' "
              "command for a standalone report)");
    if (opt.repair && opt.command != "fsck")
        fatal("--repair only applies to 'fsck'");
    if (opt.command == "fsck" && !opt.workload.empty())
        fatal("fsck takes no positional argument (got '%s'); the "
              "archive comes from --archive DIR",
              opt.workload.c_str());
    if (opt.command == "fsck" && opt.archiveDir.empty())
        fatal("fsck requires --archive DIR");
    if (opt.baseTier.empty() != opt.candTier.empty())
        fatal("cross-tier comparison needs both --base-tier and "
              "--cand-tier (got baseline '%s', candidate '%s')",
              opt.baseTier.c_str(), opt.candTier.c_str());
    if (!opt.baseTier.empty() && opt.command != "compare" &&
        opt.command != "gate" && opt.command != "explain")
        fatal("--base-tier/--cand-tier only apply to "
              "'compare', 'gate' and 'explain'");
    if (!opt.socketPath.empty() && opt.command != "serve" &&
        opt.command != "submit" && opt.command != "status" &&
        opt.command != "cancel" && opt.command != "shutdown" &&
        opt.command != "compare" && opt.command != "gate" &&
        opt.command != "explain")
        fatal("--socket only applies to serve/submit/status/cancel/"
              "shutdown and to archive queries (compare/gate/"
              "explain)");
    if (opt.command == "submit") {
        if (opt.workload != "run" && opt.workload != "suite")
            fatal("submit expects 'run <workload>' or 'suite', got "
                  "'%s'",
                  opt.workload.c_str());
        if (opt.workload == "run" && opt.workload2.empty())
            fatal("submit run requires a workload name");
        if (opt.workload == "suite" && !opt.workload2.empty())
            fatal("submit suite takes no workload argument (got "
                  "'%s')",
                  opt.workload2.c_str());
        if (!opt.resumePath.empty())
            fatal("submit does not take --resume; the daemon "
                  "assigns queued suites a durable resume path "
                  "itself");
    }
    if (opt.serveResume && opt.command != "serve")
        panic("serveResume set outside 'serve'");
    return opt;
}

/**
 * The Options fields a JobSpec carries, with the caller naming the
 * command and workload (local `run`/`suite` use them verbatim;
 * `submit` maps its positionals).
 */
serve::JobSpec
specFromOptions(const Options &opt, const std::string &command,
                const std::string &workload)
{
    serve::JobSpec s;
    s.command = command;
    s.workload = workload;
    s.tier = opt.tier;
    s.invocations = opt.invocations;
    s.iterations = opt.iterations;
    s.jobs = opt.jobs;
    s.size = opt.size;
    s.seed = opt.seed;
    s.jitThreshold = opt.jitThreshold;
    s.noNoise = opt.noNoise;
    s.quiet = opt.quiet;
    s.maxRetries = opt.maxRetries;
    s.deadlineMs = opt.deadlineMs;
    s.injectSpecs = opt.injectSpecs;
    s.jsonPath = opt.jsonPath;
    s.csvPath = opt.csvPath;
    s.metricsPath = opt.metricsPath;
    s.tracePath = opt.tracePath;
    s.archiveDir = opt.archiveDir;
    s.label = opt.label;
    s.resumePath = opt.resumePath;
    s.checkpointEvery = opt.checkpointEvery;
    return s;
}

harness::RunnerConfig
makeConfig(const Options &opt, vm::Tier tier,
           const harness::FaultInjector *faults)
{
    return serve::makeRunnerConfig(
        specFromOptions(opt, opt.command, opt.workload), tier, faults,
        opt.metrics, opt.trace);
}

/** Output hook for the engine's report and "wrote PATH" lines. */
void
printChunk(const std::string &chunk)
{
    std::fwrite(chunk.data(), 1, chunk.size(), stdout);
}

void
printEstimate(const harness::RunResult &run)
{
    std::printf("%s", serve::renderEstimate(run).c_str());
}

int
cmdEnv()
{
    harness::EnvReport report = harness::collectEnvironment();
    std::printf("%s", report.render().c_str());
    std::printf("%d warning(s)\n", report.warningCount());
    return kExitSuccess;
}

int
cmdList()
{
    Table t({"name", "category", "default size", "description"});
    for (const auto &w : workloads::suite()) {
        t.addRow({w.name, workloads::categoryName(w.category),
                  std::to_string(w.defaultSize), w.description});
    }
    std::printf("%s", t.render().c_str());
    return kExitSuccess;
}

/**
 * `version`: the binary version plus every artifact/protocol schema
 * this build reads and writes, one per line, so "which schema does
 * this binary emit?" never requires reading the source.
 */
int
cmdVersion()
{
    std::printf("rigorbench %s\n", kRigorbenchVersion);
    std::printf("schemas:\n");
    struct Row
    {
        const char *what;
        const char *name;
        int version;
        int minVersion;
    };
    const Row rows[] = {
        {"state envelope (durable files)", kStateFormat,
         kStateVersion, kStateVersion},
        {"run (--json)", kRunSchema, kRunSchemaVersion,
         kRunSchemaVersion},
        {"series CSV (--csv)", kSeriesCsvSchema, kSeriesCsvVersion,
         kSeriesCsvVersion},
        {"archive entry", kArchiveEntrySchema, kArchiveEntryVersion,
         kArchiveEntryMinVersion},
        {"archive list (--json)", kArchiveListSchema,
         kArchiveListVersion, kArchiveListVersion},
        {"compare report", kCompareReportSchema,
         kCompareReportVersion, kCompareReportVersion},
        {"behavior profile", kBehaviorProfileSchema,
         kBehaviorProfileVersion, kBehaviorProfileVersion},
        {"explain report", kExplainReportSchema,
         kExplainReportVersion, kExplainReportVersion},
        {"fsck report", kFsckReportSchema, kFsckReportVersion,
         kFsckReportVersion},
        {"job spec (serve)", kJobSpecSchema, kJobSpecVersion,
         kJobSpecVersion},
        {"serve protocol", kServeProtocolSchema,
         kServeProtocolVersion, kServeProtocolVersion},
        {"serve queue state", kServeQueueSchema, kServeQueueVersion,
         kServeQueueVersion},
    };
    for (const auto &r : rows) {
        if (r.minVersion != r.version)
            std::printf("  %-33s %s v%d (reads v%d..%d)\n", r.what,
                        r.name, r.version, r.minVersion, r.version);
        else
            std::printf("  %-33s %s v%d\n", r.what, r.name,
                        r.version);
    }
    return kExitSuccess;
}

int
cmdDisasm(const Options &opt)
{
    const auto &spec = workloads::findWorkload(opt.workload);
    vm::Program prog = vm::compileSource(spec.source, spec.name);
    std::printf("%s", prog.module->disassemble().c_str());
    return kExitSuccess;
}

/**
 * `run` and `suite`: hand the job to the shared execution engine with
 * an output hook that writes straight to stdout. The daemon runs the
 * same engine with a streaming hook — that shared path is what makes
 * daemon-submitted artifacts byte-identical to one-shot runs.
 */
int
runLocalJob(const Options &opt)
{
    serve::JobSpec spec =
        specFromOptions(opt, opt.command, opt.workload);
    serve::JobHooks hooks;
    hooks.output = printChunk;
    return serve::executeJob(spec, hooks);
}

int
cmdProfile(const Options &opt)
{
    harness::ProfileConfig pcfg;
    // Profiling is mostly about explaining warmup/JIT behaviour, so
    // the adaptive tier is the default here (run's default stays
    // interp); --tier still overrides.
    pcfg.tier = opt.tierSet ? opt.tier : vm::Tier::Adaptive;
    pcfg.iterations = opt.iterations;
    pcfg.size = opt.size;
    pcfg.seed = opt.seed;
    pcfg.jitThreshold = opt.jitThreshold;
    auto prof = harness::profileWorkload(opt.workload, pcfg);
    std::printf("%s", harness::renderProfile(prof).c_str());
    return kExitSuccess;
}

int
cmdCompare(const Options &opt, const harness::FaultInjector *faults)
{
    auto interp = harness::runExperiment(
        opt.workload, makeConfig(opt, vm::Tier::Interp, faults));
    if (interp.interrupted) {
        printEstimate(interp);
        return kExitInterrupted;
    }
    auto jit = harness::runExperiment(
        opt.workload, makeConfig(opt, vm::Tier::Adaptive, faults));
    printEstimate(interp);
    printEstimate(jit);
    if (jit.interrupted)
        return kExitInterrupted;
    if (interp.invocations.empty() || jit.invocations.empty())
        return kExitFailure;
    auto s = harness::rigorousSpeedup(interp, jit);
    std::printf("speedup (adaptive over interp): %s %s\n",
                harness::formatCi(s.ci, 3).c_str(),
                s.significant ? "(significant)"
                              : "(not significant)");
    return kExitSuccess;
}

int
cmdSequential(const Options &opt,
              const harness::FaultInjector *faults)
{
    harness::SequentialConfig seq;
    seq.targetRelativeHalfWidth = opt.targetPct / 100.0;
    seq.maxInvocations = std::max(opt.invocations, 8);
    auto res = harness::runSequential(
        opt.workload, makeConfig(opt, opt.tier, faults), seq);
    printEstimate(res.run);
    if (!res.run.invocations.empty() && !res.run.interrupted) {
        std::printf("  sequential: %s after %d invocations "
                    "(target ±%.1f%%)\n",
                    res.converged ? "converged" : "budget exhausted",
                    res.invocationsUsed, opt.targetPct);
        std::printf("  width trajectory:");
        for (double w : res.widthTrajectory)
            std::printf(" %.2f%%", 100.0 * w);
        std::printf("\n");
    }
    serve::writeRunArtifacts(
        specFromOptions(opt, opt.command, opt.workload), res.run,
        printChunk);
    if (res.run.interrupted)
        return kExitInterrupted;
    return res.run.invocations.empty() ? kExitFailure
                                       : kExitSuccess;
}

/**
 * compare/gate/explain on archive entries: build the query, run it
 * locally — or, with --socket, on the daemon, whose answer renders
 * identically (it runs the same engine against the same archive).
 */
int
runQueryCommand(const Options &opt, const std::string &kind)
{
    serve::QuerySpec q;
    q.kind = kind;
    q.baseRef = opt.workload;
    q.candRef = opt.workload2;
    q.archiveDir = opt.archiveDir;
    q.resamples = opt.resamples;
    q.confidence = opt.confidence;
    q.gateThresholdPct = opt.gateThresholdPct;
    q.baseTier = opt.baseTier;
    q.candTier = opt.candTier;
    q.explainGate = opt.explainGate;
    q.seed = opt.seed;
    if (!opt.socketPath.empty())
        return serve::remoteQuery(opt.socketPath, q, opt.jsonPath);
    serve::QueryResult res = serve::runQuery(q);
    std::fputs(res.text.c_str(), stdout);
    if (!opt.jsonPath.empty()) {
        atomicWriteFile(opt.jsonPath, res.doc.dump(2) + "\n");
        std::printf("wrote %s\n", opt.jsonPath.c_str());
    }
    return res.exitCode;
}

/** The machine-readable `archive list --json` document. */
Json
archiveListJson(const std::string &dir,
                const archive::ScanResult &scan)
{
    Json doc = Json::object();
    doc.set("schema", kArchiveListSchema);
    doc.set("version", kArchiveListVersion);
    doc.set("archive", dir);
    Json entries = Json::array();
    for (const auto &e : scan.entries) {
        Json j = Json::object();
        j.set("id", e.id);
        j.set("label", e.label);
        j.set("command", e.command);
        j.set("runs", e.runCount);
        j.set("profiles", e.profileCount);
        j.set("bytes", static_cast<int64_t>(e.sizeBytes));
        j.set("fingerprint", e.fingerprint);
        Json tiers = Json::array();
        for (const auto &t : e.tiers)
            tiers.push(t);
        j.set("tiers", std::move(tiers));
        entries.push(std::move(j));
    }
    doc.set("entries", std::move(entries));
    doc.set("quarantined_present", scan.quarantinedPresent);
    return doc;
}

/** `archive list|prune --archive DIR`: hygiene operations. */
int
cmdArchive(const Options &opt)
{
    if (opt.archiveDir.empty())
        fatal("'archive %s' requires --archive DIR",
              opt.workload.c_str());
    archive::RunArchive ar(opt.archiveDir);
    if (opt.workload == "list") {
        archive::ScanResult scan = ar.scan();
        // `--json -` replaces the table with the document on stdout
        // (for pipelines); `--json FILE` writes it alongside.
        if (opt.jsonPath == "-") {
            std::printf(
                "%s\n",
                archiveListJson(opt.archiveDir, scan).dump(2)
                    .c_str());
            return kExitSuccess;
        }
        Table t({"id", "label", "command", "runs", "profile",
                 "bytes", "fingerprint"});
        for (const auto &e : scan.entries) {
            // "profile" says whether `explain` can attribute this
            // entry: every run profiled, some, or none (legacy v1).
            const char *profile =
                e.profileCount == 0 ? "no"
                : e.profileCount >= e.runCount ? "yes"
                                               : "partial";
            t.addRow({std::to_string(e.id),
                      e.label.empty() ? "-" : e.label, e.command,
                      std::to_string(e.runCount), profile,
                      fmtCount(e.sizeBytes), e.fingerprint});
        }
        std::printf("%s", t.render().c_str());
        std::printf("%zu entr%s in %s", scan.entries.size(),
                    scan.entries.size() == 1 ? "y" : "ies",
                    opt.archiveDir.c_str());
        if (!scan.quarantined.empty())
            std::printf(", %zu quarantined this scan",
                        scan.quarantined.size());
        if (scan.quarantinedPresent > 0)
            std::printf(", %d quarantined file(s) present "
                        "(see 'rigorbench fsck')",
                        scan.quarantinedPresent);
        std::printf("\n");
        if (!opt.jsonPath.empty()) {
            atomicWriteFile(
                opt.jsonPath,
                archiveListJson(opt.archiveDir, scan).dump(2) +
                    "\n");
            std::printf("wrote %s\n", opt.jsonPath.c_str());
        }
        return kExitSuccess;
    }
    if (opt.workload == "prune") {
        if (opt.keep < 1)
            fatal("'archive prune' requires --keep N");
        int removed = ar.prune(opt.keep);
        std::printf("pruned %d entr%s from %s (kept newest %d)\n",
                    removed, removed == 1 ? "y" : "ies",
                    opt.archiveDir.c_str(), opt.keep);
        return kExitSuccess;
    }
    fatal("unknown archive action '%s' (expected list or prune)",
          opt.workload.c_str());
}

/** `fsck --archive DIR [--repair]`: verify / repair an archive. */
int
cmdFsck(const Options &opt)
{
    archive::FsckReport report =
        archive::fsckArchive(opt.archiveDir, opt.repair, opt.metrics);
    std::printf("%s", archive::renderFsck(report).c_str());
    if (!opt.jsonPath.empty()) {
        atomicWriteFile(opt.jsonPath,
                        archive::fsckToJson(report).dump(2) + "\n");
        std::printf("wrote %s\n", opt.jsonPath.c_str());
    }
    // The verdict is about the archive's state *now*: a repaired
    // archive exits 0 even though defects were found, an unrepaired
    // (or unrepairable) one exits 5 so scripts can gate on it.
    return report.clean() ? kExitSuccess : kExitCorruption;
}

int
cmdServe(const Options &opt)
{
    if (opt.socketPath.empty())
        fatal("serve requires --socket PATH");
    serve::ServerConfig cfg;
    cfg.socketPath = opt.socketPath;
    cfg.stateDir = opt.stateDir.empty() ? opt.socketPath + ".d"
                                        : opt.stateDir;
    cfg.maxQueue = opt.maxQueue;
    cfg.maxActive = opt.maxActive;
    cfg.resume = opt.serveResume;
    return serve::runServer(cfg);
}

int
cmdSubmit(const Options &opt)
{
    serve::JobSpec spec =
        specFromOptions(opt, opt.workload, opt.workload2);
    serve::SubmitOptions so;
    so.priority = opt.priority;
    so.client = opt.clientName;
    so.wait = !opt.noWait;
    return serve::submitJob(opt.socketPath, spec, so);
}

int
cmdStatus(const Options &opt)
{
    int jobId = -1;
    if (!opt.workload.empty())
        jobId = static_cast<int>(
            parseInt("status", opt.workload.c_str(), 0));
    return serve::requestStatus(opt.socketPath, jobId);
}

int
cmdCancel(const Options &opt)
{
    if (opt.workload.empty())
        fatal("cancel requires a job id");
    return serve::cancelJob(
        opt.socketPath,
        static_cast<int>(
            parseInt("cancel", opt.workload.c_str(), 0)));
}

/**
 * Commands whose measurement/observability sinks the shared execution
 * engine owns (serve::executeJob creates and flushes them itself, on
 * whichever process runs the job).
 */
bool
engineOwnsJob(const Options &opt)
{
    return opt.command == "run" || opt.command == "suite" ||
        opt.command == "submit" || opt.command == "serve" ||
        opt.command == "status" || opt.command == "cancel" ||
        opt.command == "shutdown";
}

int
dispatch(const Options &opt, const harness::FaultInjector *faults)
{
    if (opt.command == "disasm")
        return cmdDisasm(opt);
    if (opt.command == "run" || opt.command == "suite")
        return runLocalJob(opt);
    if (opt.command == "compare") {
        // One positional: the legacy interp-vs-adaptive measurement.
        // Two positionals: compare two archived entries.
        if (!opt.workload2.empty())
            return runQueryCommand(opt, "compare");
        if (!opt.archiveDir.empty())
            fatal("compare with --archive takes two entry refs, "
                  "e.g. 'compare HEAD~1 HEAD --archive DIR'");
        return cmdCompare(opt, faults);
    }
    if (opt.command == "gate")
        return runQueryCommand(opt, "gate");
    if (opt.command == "explain")
        return runQueryCommand(opt, "explain");
    if (opt.command == "archive")
        return cmdArchive(opt);
    if (opt.command == "fsck")
        return cmdFsck(opt);
    if (opt.command == "sequential")
        return cmdSequential(opt, faults);
    if (opt.command == "profile")
        return cmdProfile(opt);
    if (opt.command == "serve")
        return cmdServe(opt);
    if (opt.command == "submit")
        return cmdSubmit(opt);
    if (opt.command == "status")
        return cmdStatus(opt);
    if (opt.command == "cancel")
        return cmdCancel(opt);
    if (opt.command == "shutdown")
        return serve::shutdownDaemon(opt.socketPath,
                                     opt.shutdownNow);
    usage();
}

} // namespace

int
main(int argc, char **argv)
{
    installInterruptHandlers();
    Options opt;
    try {
        opt = parseArgs(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return kExitUsage;
    }
    try {
        if (opt.quiet)
            setQuiet(true);
        harness::FaultInjector injector(opt.faultPlan, opt.seed);
        const harness::FaultInjector *faults =
            opt.faultPlan.empty() ? nullptr : &injector;
        // io:* faults arm on durable-I/O calls, not invocations, so
        // they install into the process-wide FsOps seam before any
        // durable work starts. Never uninstalled: the injector must
        // outlive every write, including the observability flush.
        harness::FaultyFsOps faultyFs(opt.faultPlan.ioFaults,
                                      opt.seed);
        if (!opt.faultPlan.ioFaults.empty())
            setFsOps(&faultyFs);
        if (opt.command == "list")
            return cmdList();
        if (opt.command == "env")
            return cmdEnv();
        if (opt.command == "version")
            return cmdVersion();
        if (opt.workload.empty() && opt.command != "suite" &&
            opt.command != "fsck" && opt.command != "serve" &&
            opt.command != "status" && opt.command != "shutdown")
            usage();

        // run/suite (local or daemon-side) create their own sinks
        // inside serve::executeJob; wiring these too would write the
        // files twice.
        MetricsRegistry metrics;
        TraceEmitter trace;
        bool ownSinks = !engineOwnsJob(opt);
        if (ownSinks && !opt.metricsPath.empty())
            opt.metrics = &metrics;
        if (ownSinks && !opt.tracePath.empty())
            opt.trace = &trace;

        int rc = dispatch(opt, faults);
        // Partial artifacts are flushed even after an interrupt, so
        // what was measured is never lost.
        if (ownSinks)
            serve::writeObservability(
                opt.metrics, opt.trace, opt.metricsPath,
                opt.tracePath, printChunk);
        // stdout itself is an artifact consumers parse; a full disk
        // or closed pipe must be a loud failure, not silence.
        if (std::fflush(stdout) != 0 || std::ferror(stdout)) {
            std::fprintf(stderr,
                         "error: writing to stdout failed\n");
            return kExitFailure;
        }
        return rc;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return kExitFailure;
    }
}
