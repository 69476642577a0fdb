/**
 * @file
 * rigorbench — command-line front end to the framework: argument
 * parsing, then serve::executeJob for measurements, serve::runQuery
 * for archive queries, or one of the small local commands below.
 * `rigorbench help` lists every command with the flags it accepts;
 * README.md ("Command-line tool", "Exit codes") documents them.
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "archive/archive.hh"
#include "archive/fsck.hh"
#include "harness/envcheck.hh"
#include "harness/fault.hh"
#include "harness/profile.hh"
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
#include "vm/compiler.hh"

using namespace rigor;

namespace {

// The exit codes live in serve/jobrun.hh so the CLI, the daemon and
// the client mode agree; kExitInterrupted (3) is in
// support/interrupt.hh with the signal handler and kExitCrashInjected
// (6) in harness/fault.hh with the io:crash-at machinery.
using serve::kExitCorruption;
using serve::kExitFailure;
using serve::kExitSuccess;
using serve::kExitUsage;

struct CommandForm;

/**
 * A parsed command line. Flags go straight into the job and query
 * specs the engine runs; the remaining fields are settings only the
 * CLI itself reads.
 */
struct Options
{
    std::string command;
    /** Positional arguments after the command. */
    std::vector<std::string> args;
    /** The form the command line matched (see kForms). */
    const CommandForm *form = nullptr;
    /** Measurement jobs, and the artifact paths of every command. */
    serve::JobSpec job;
    /** compare <base> <cand>, gate, explain. */
    serve::QuerySpec query;
    /** True once --tier was given (profile defaults differently). */
    bool tierSet = false;
    /** `archive prune --keep N`. */
    int keep = 0;
    /** `fsck --repair`: fix what is mechanically fixable. */
    bool repair = false;

    // Daemon mode (serve and its client commands).
    std::string socketPath;
    /** serve; its socketPath comes from socketPath above. */
    serve::ServerConfig server;
    serve::SubmitOptions submit;
    /** `shutdown --now`: interrupt instead of draining. */
    bool shutdownNow = false;
    /** `status <job-id>` / `cancel <job-id>` (-1: every job). */
    int jobId = -1;
};

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

/** Write a JSON artifact and confirm it on stdout. */
void
writeJson(const std::string &path, const Json &doc)
{
    atomicWriteFile(path, doc.dump(2) + "\n");
    std::printf("wrote %s\n", path.c_str());
}

int
cmdEnv(const Options &)
{
    harness::EnvReport report = harness::collectEnvironment();
    std::printf("%s", report.render().c_str());
    std::printf("%d warning(s)\n", report.warningCount());
    return kExitSuccess;
}

int
cmdList(const Options &)
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
cmdVersion(const Options &)
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
    const auto &spec = workloads::findWorkload(opt.job.workload);
    vm::Program prog = vm::compileSource(spec.source, spec.name);
    std::printf("%s", prog.module->disassemble().c_str());
    return kExitSuccess;
}

int
cmdProfile(const Options &opt)
{
    harness::ProfileConfig pcfg;
    // Profiling is mostly about explaining warmup/JIT behaviour, so
    // the adaptive tier is the default here (run's default stays
    // interp); --tier still overrides.
    pcfg.tier = opt.tierSet ? opt.job.tier : vm::Tier::Adaptive;
    pcfg.iterations = opt.job.iterations;
    pcfg.size = opt.job.size;
    pcfg.seed = opt.job.seed;
    pcfg.jitThreshold = opt.job.jitThreshold;
    auto prof = harness::profileWorkload(opt.job.workload, pcfg);
    std::printf("%s", harness::renderProfile(prof).c_str());
    return kExitSuccess;
}

/**
 * run, suite, compare <workload>, sequential: hand the job to the
 * execution engine with an output hook that writes straight to
 * stdout. The daemon runs the same engine with a streaming hook —
 * that shared path is what makes daemon-submitted artifacts
 * byte-identical to one-shot runs.
 */
int
runJob(const Options &opt)
{
    serve::JobHooks hooks;
    hooks.output = [](const std::string &chunk) {
        std::fwrite(chunk.data(), 1, chunk.size(), stdout);
    };
    return serve::executeJob(opt.job, hooks);
}

/**
 * compare/gate/explain on archive entries: run the query locally —
 * or, with --socket, on the daemon, whose answer renders identically
 * (it runs the same engine against the same archive).
 */
int
runQueryCommand(const Options &opt)
{
    if (!opt.socketPath.empty())
        return serve::remoteQuery(opt.socketPath, opt.query,
                                  opt.job.jsonPath);
    serve::QueryResult res = serve::runQuery(opt.query);
    std::fputs(res.text.c_str(), stdout);
    if (!opt.job.jsonPath.empty())
        writeJson(opt.job.jsonPath, res.doc);
    return res.exitCode;
}

const std::string &
archiveDir(const Options &opt)
{
    if (opt.job.archiveDir.empty())
        fatal("'archive %s' requires --archive DIR",
              opt.args[0].c_str());
    return opt.job.archiveDir;
}

int
cmdArchiveList(const Options &opt)
{
    const std::string &dir = archiveDir(opt);
    archive::ScanResult scan = archive::RunArchive(dir).scan();
    // `--json -` replaces the table with the document on stdout (for
    // pipelines); `--json FILE` writes it alongside.
    if (opt.job.jsonPath == "-") {
        std::printf("%s\n",
                    archive::archiveListToJson(dir, scan).dump(2)
                        .c_str());
        return kExitSuccess;
    }
    std::fputs(archive::renderArchiveList(dir, scan).c_str(), stdout);
    if (!opt.job.jsonPath.empty())
        writeJson(opt.job.jsonPath,
                  archive::archiveListToJson(dir, scan));
    return kExitSuccess;
}

int
cmdArchivePrune(const Options &opt)
{
    const std::string &dir = archiveDir(opt);
    if (opt.keep < 1)
        fatal("'archive prune' requires --keep N");
    int removed = archive::RunArchive(dir).prune(opt.keep);
    std::printf("pruned %d entr%s from %s (kept newest %d)\n", removed,
                removed == 1 ? "y" : "ies", dir.c_str(), opt.keep);
    return kExitSuccess;
}

/** `fsck --archive DIR [--repair]`: verify / repair an archive. */
int
cmdFsck(const Options &opt)
{
    // Not a job, so fsck owns the registry of its fsck.* counters.
    MetricsRegistry metrics;
    bool wantMetrics = !opt.job.metricsPath.empty();
    archive::FsckReport report = archive::fsckArchive(
        opt.job.archiveDir, opt.repair, wantMetrics ? &metrics : nullptr);
    std::printf("%s", archive::renderFsck(report).c_str());
    if (!opt.job.jsonPath.empty())
        writeJson(opt.job.jsonPath, archive::fsckToJson(report));
    if (wantMetrics)
        writeJson(opt.job.metricsPath, metrics.toJson());
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
    serve::ServerConfig cfg = opt.server;
    cfg.socketPath = opt.socketPath;
    if (cfg.stateDir.empty())
        cfg.stateDir = opt.socketPath + ".d";
    return serve::runServer(cfg);
}

int
cmdSubmit(const Options &opt)
{
    return serve::submitJob(opt.socketPath, opt.job, opt.submit);
}

/**
 * One way to invoke a command: its positional arguments, the flags it
 * accepts and the code that runs it. A flag outside the list is a
 * usage error rather than silently ignored.
 */
struct CommandForm
{
    /** How help and errors name the form. */
    const char *synopsis;
    const char *command;
    /** First positional when it selects the form (`submit run`). */
    const char *action;
    /** Positional arguments, the action included. */
    int minArgs, maxArgs;
    /** Accepted flags, each followed by its value's metavariable. */
    std::string flags;
    int (*run)(const Options &);
};

/** Flags every form accepts (as well as --help, checked first). */
const std::string kCommonFlags = "--quiet";

const std::string kMeasureFlags =
    "--invocations N --iterations N --size N --seed S --jobs N "
    "--jit-threshold N --no-noise --inject SPEC --max-retries N "
    "--deadline-ms X --metrics FILE --trace FILE";
const std::string kRunFlags =
    kMeasureFlags + " --tier T --json FILE --csv FILE --archive DIR "
                    "--label NAME";
const std::string kSuiteFlags =
    kMeasureFlags + " --archive DIR --label NAME --checkpoint-every N";
const std::string kQueryFlags =
    "--archive DIR --seed S --resamples N --confidence C "
    "--base-tier T --cand-tier T --json FILE --socket PATH";
const std::string kSubmitFlags =
    " --socket PATH --priority N --client NAME --no-wait";

const CommandForm kForms[] = {
    {"list", "list", nullptr, 0, 0, "", cmdList},
    {"env", "env", nullptr, 0, 0, "", cmdEnv},
    {"version", "version", nullptr, 0, 0, "", cmdVersion},
    {"disasm <workload>", "disasm", nullptr, 1, 1, "", cmdDisasm},
    {"run <workload>", "run", nullptr, 1, 1, kRunFlags, runJob},
    {"compare <workload>", "compare", nullptr, 1, 1, kMeasureFlags,
     runJob},
    {"compare <base> <cand>", "compare", nullptr, 2, 2, kQueryFlags,
     runQueryCommand},
    {"sequential <workload>", "sequential", nullptr, 1, 1,
     kMeasureFlags + " --tier T --target PCT --json FILE --csv FILE",
     runJob},
    {"profile <workload>", "profile", nullptr, 1, 1,
     "--tier T --iterations N --size N --seed S --jit-threshold N",
     cmdProfile},
    {"suite", "suite", nullptr, 0, 0, kSuiteFlags + " --resume FILE",
     runJob},
    {"gate <base> [<cand>]", "gate", nullptr, 1, 2,
     kQueryFlags + " --gate-threshold PCT --explain", runQueryCommand},
    // explain's second ref is checked by runQuery, for local and
    // daemon queries alike.
    {"explain <base> <cand>", "explain", nullptr, 1, 2, kQueryFlags,
     runQueryCommand},
    {"archive list", "archive", "list", 1, 1,
     "--archive DIR --json FILE|-", cmdArchiveList},
    {"archive prune", "archive", "prune", 1, 1, "--archive DIR --keep N",
     cmdArchivePrune},
    {"fsck", "fsck", nullptr, 0, 0,
     "--archive DIR --repair --json FILE --metrics FILE", cmdFsck},
    {"serve", "serve", nullptr, 0, 0,
     "--socket PATH --state-dir DIR --max-queue N --max-active N "
     "--resume",
     cmdServe},
    {"submit run <workload>", "submit", "run", 2, 2,
     kRunFlags + kSubmitFlags, cmdSubmit},
    {"submit suite", "submit", "suite", 1, 1, kSuiteFlags + kSubmitFlags,
     cmdSubmit},
    {"status [<job-id>]", "status", nullptr, 0, 1, "--socket PATH",
     [](const Options &o) {
         return serve::requestStatus(o.socketPath, o.jobId);
     }},
    {"cancel <job-id>", "cancel", nullptr, 1, 1, "--socket PATH",
     [](const Options &o) {
         return serve::cancelJob(o.socketPath, o.jobId);
     }},
    {"shutdown", "shutdown", nullptr, 0, 0, "--socket PATH --now",
     [](const Options &o) {
         return serve::shutdownDaemon(o.socketPath, o.shutdownNow);
     }},
};

/** True when `flag` is one of the words of `flags`. */
bool
listsFlag(const std::string &flags, const std::string &flag)
{
    std::istringstream in(flags);
    for (std::string word; in >> word;)
        if (word == flag)
            return true;
    return false;
}

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
        "flags by command (every command also takes %s and --help;\n"
        "any other flag exits 1):\n",
        kCommonFlags.c_str());
    for (const auto &f : kForms) {
        if (f.flags.empty())
            continue;
        std::fprintf(out, "  %s\n", f.synopsis);
        // Wrap before a flag, so no flag is split from its value.
        std::string line = "     ";
        std::istringstream in(f.flags);
        for (std::string word; in >> word;) {
            if (word.compare(0, 2, "--") == 0 && line.size() > 60) {
                std::fprintf(out, "%s\n", line.c_str());
                line = "     ";
            }
            line += " " + word;
        }
        std::fprintf(out, "%s\n", line.c_str());
    }
    std::fprintf(out,
                 "\n"
                 "exit codes: 0 success, 1 usage error, 2 runtime "
                 "failure,\n"
                 "            3 interrupted (resumable with --resume),\n"
                 "            4 regression detected by gate,\n"
                 "            5 corruption found by fsck,\n"
                 "            6 injected crash (io:crash-at fault),\n"
                 "            7 daemon unavailable at --socket,\n"
                 "            8 job rejected by daemon admission "
                 "control\n");
}

[[noreturn]] void
usage()
{
    printUsage(stderr);
    std::exit(kExitUsage);
}

/** The form `command args...` matches; a usage error when none does. */
const CommandForm &
findForm(const std::string &command,
         const std::vector<std::string> &args)
{
    std::string expected;
    for (const auto &f : kForms) {
        if (command != f.command)
            continue;
        int n = static_cast<int>(args.size());
        if ((!f.action || (n > 0 && args[0] == f.action)) &&
            n >= f.minArgs && n <= f.maxArgs)
            return f;
        expected += std::string(expected.empty() ? "" : " | ") +
            "rigorbench " + f.synopsis;
    }
    if (expected.empty())
        usage();
    fatal("bad arguments for '%s'; usage: %s", command.c_str(),
          expected.c_str());
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    if (argc < 2)
        usage();
    for (int k = 1; k < argc; ++k) {
        std::string a = argv[k];
        if (a == "--help" || a == "-h" || (k == 1 && a == "help")) {
            printUsage(stdout);
            std::exit(0);
        }
    }
    opt.command = argv[1];
    if (opt.command == "--version")
        opt.command = "version";
    int i = 2;
    for (; i < argc && argv[i][0] != '-'; ++i)
        opt.args.push_back(argv[i]);
    opt.form = &findForm(opt.command, opt.args);
    auto arg = [&opt](size_t k) {
        return k < opt.args.size() ? opt.args[k] : std::string();
    };
    bool submit = opt.command == "submit";
    opt.job.command = submit ? arg(0) : opt.command;
    opt.job.workload = arg(submit ? 1 : 0);
    opt.query.kind = opt.command;
    opt.query.baseRef = arg(0);
    opt.query.candRef = arg(1);
    if ((opt.command == "status" || opt.command == "cancel") &&
        !opt.args.empty())
        opt.jobId = static_cast<int>(
            parseInt(opt.command.c_str(), opt.args[0].c_str(), 0));

    for (; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (!listsFlag(kCommonFlags, a) &&
            !listsFlag(opt.form->flags, a)) {
            bool known = false;
            for (const auto &f : kForms)
                known = known || listsFlag(f.flags, a);
            if (!known)
                usage();
            fatal("%s does not apply to 'rigorbench %s' (see "
                  "'rigorbench help')",
                  a.c_str(), opt.form->synopsis);
        }
        if (a == "--tier") {
            opt.job.tier = parseTier(next());
            opt.tierSet = true;
        } else if (a == "--base-tier") {
            opt.query.baseTier = vm::tierName(parseTier(next()));
        } else if (a == "--cand-tier") {
            opt.query.candTier = vm::tierName(parseTier(next()));
        } else if (a == "--invocations") {
            opt.job.invocations = static_cast<int>(
                parseInt("--invocations", next(), 1));
        } else if (a == "--iterations") {
            opt.job.iterations = static_cast<int>(
                parseInt("--iterations", next(), 1));
        } else if (a == "--size") {
            opt.job.size = parseInt("--size", next(), 1);
        } else if (a == "--seed") {
            opt.job.seed = opt.query.seed = parseSeed("--seed", next());
        } else if (a == "--jobs") {
            opt.job.jobs =
                static_cast<int>(parseInt("--jobs", next(), 1));
        } else if (a == "--jit-threshold") {
            opt.job.jitThreshold = static_cast<int>(
                parseInt("--jit-threshold", next(), 1));
        } else if (a == "--target") {
            opt.job.targetPct = parseDouble("--target", next(), 1e-6);
        } else if (a == "--json") {
            opt.job.jsonPath = next();
        } else if (a == "--csv") {
            opt.job.csvPath = next();
        } else if (a == "--no-noise") {
            opt.job.noNoise = true;
        } else if (a == "--quiet") {
            opt.job.quiet = true;
        } else if (a == "--metrics") {
            opt.job.metricsPath = next();
        } else if (a == "--trace") {
            opt.job.tracePath = next();
        } else if (a == "--inject") {
            const char *spec = next();
            harness::FaultPlan().add(spec);  // reject malformed specs
            opt.job.injectSpecs.push_back(spec);
        } else if (a == "--max-retries") {
            opt.job.maxRetries = static_cast<int>(
                parseInt("--max-retries", next(), 0));
        } else if (a == "--deadline-ms") {
            opt.job.deadlineMs =
                parseDouble("--deadline-ms", next(), 1e-9);
        } else if (a == "--resume") {
            // For `serve`, --resume is a flag (restore the queue);
            // for `suite` it names the state file.
            if (opt.command == "serve")
                opt.server.resume = true;
            else
                opt.job.resumePath = next();
        } else if (a == "--checkpoint-every") {
            opt.job.checkpointEvery = static_cast<int>(
                parseInt("--checkpoint-every", next(), 1));
        } else if (a == "--archive") {
            opt.job.archiveDir = opt.query.archiveDir = next();
        } else if (a == "--label") {
            opt.job.label = next();
        } else if (a == "--resamples") {
            opt.query.resamples = static_cast<int>(
                parseInt("--resamples", next(), 10));
        } else if (a == "--confidence") {
            opt.query.confidence =
                parseDouble("--confidence", next(), 1e-6);
            if (opt.query.confidence >= 1.0)
                fatal("--confidence must be < 1, got %g",
                      opt.query.confidence);
        } else if (a == "--gate-threshold") {
            opt.query.gateThresholdPct =
                parseDouble("--gate-threshold", next(), 0.0);
        } else if (a == "--keep") {
            opt.keep =
                static_cast<int>(parseInt("--keep", next(), 1));
        } else if (a == "--explain") {
            opt.query.explainGate = true;
        } else if (a == "--repair") {
            opt.repair = true;
        } else if (a == "--socket") {
            opt.socketPath = next();
        } else if (a == "--state-dir") {
            opt.server.stateDir = next();
        } else if (a == "--max-queue") {
            opt.server.maxQueue = static_cast<int>(
                parseInt("--max-queue", next(), 1));
        } else if (a == "--max-active") {
            opt.server.maxActive = static_cast<int>(
                parseInt("--max-active", next(), 1));
        } else if (a == "--priority") {
            opt.submit.priority = static_cast<int>(
                parseInt("--priority", next(), 0));
        } else if (a == "--client") {
            opt.submit.client = next();
        } else if (a == "--no-wait") {
            opt.submit.wait = false;
        } else if (a == "--now") {
            opt.shutdownNow = true;
        } else {
            panic("flag %s is in the command table but not parsed",
                  a.c_str());
        }
    }
    // Rules that span flags. A submitted suite's checkpoints go to
    // the resume path the daemon assigns at admission.
    if (opt.command == "suite" && opt.job.checkpointEvery > 0 &&
        opt.job.resumePath.empty())
        fatal("--checkpoint-every requires 'suite' with --resume "
              "(checkpoints are written to the resume state file)");
    // A resumed suite only re-measures what the interrupted process
    // left unfinished; archiving it would record a partial picture of
    // the suite as if it were complete.
    if (!opt.job.archiveDir.empty() && !opt.job.resumePath.empty())
        fatal("--archive cannot be combined with --resume; "
              "archive the suite in a single uninterrupted run");
    if (opt.query.baseTier.empty() != opt.query.candTier.empty())
        fatal("cross-tier comparison needs both --base-tier and "
              "--cand-tier (got baseline '%s', candidate '%s')",
              opt.query.baseTier.c_str(), opt.query.candTier.c_str());
    if (opt.command == "fsck" && opt.job.archiveDir.empty())
        fatal("fsck requires --archive DIR");
    return opt;
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
        if (opt.job.quiet)
            setQuiet(true);
        int rc = opt.form->run(opt);
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
