/**
 * @file
 * Host-clock benchmark of rigorbench itself.
 *
 * Runs one of three workloads through the public entry points the CLI
 * and the daemon use, and prints every metric named in BENCHMARK.json
 * with its unit and sample count. The last line of stdout is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}.
 *
 *   measure  serial `run` jobs (serve::executeJob, jobs=1), no
 *            artifacts: VM dispatch and the uarch model do the work.
 *   record   the same jobs at jobs=2 with every artifact requested
 *            (--json/--csv/--metrics/--trace/--archive): observation
 *            and durable persistence on top of the same VM work.
 *   query    one client sends compare/gate/explain queries to a
 *            `rigorbench serve` child over its Unix socket, against an
 *            archive built during set-up: the archive's read side and
 *            the hierarchical bootstrap.
 *
 * Every workload is a closed loop with one client. The workload seed
 * (--seed) fixes the order of each round of operations and the
 * measurement seeds of the jobs; a run always completes whole rounds,
 * so every run measures the same population of operations.
 *
 * With --trace 1 the benchmark instead runs one untraced and one
 * traced round, the latter through the layer entry points with spans
 * recorded around each call, and then probes each module's public
 * functions for the per-layer metrics.
 *
 * Usage (normally through hostbench/run.py, which builds this):
 *   hostbench --workload measure|record|query --seed N --seconds S
 *             --trace 0|1 [--tiny] [--corrupt-expected]
 *   hostbench --write-expected hostbench/expected.json
 */

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "archive/archive.hh"
#include "compare/compare.hh"
#include "explain/behavior_profile.hh"
#include "explain/explain.hh"
#include "harness/analysis.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "serve/jobrun.hh"
#include "serve/jobspec.hh"
#include "serve/protocol.hh"
#include "support/durable_io.hh"
#include "support/fingerprint.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/schema.hh"
#include "support/str.hh"
#include "support/unix_socket.hh"
#include "uarch/perf_model.hh"
#include "vm/compiler.hh"
#include "vm/interp.hh"
#include "workloads/workloads.hh"

namespace fs = std::filesystem;
using namespace rigor;

namespace {

using Clock = std::chrono::steady_clock;

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

double
msSince(int64_t startNs)
{
    return static_cast<double>(nowNs() - startNs) / 1e6;
}

/** Linear-interpolation quantile (q in [0,1]) of unsorted values. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

/** Median wall ms of `reps` calls of fn. */
double
medianMs(int reps, const std::function<void()> &fn)
{
    std::vector<double> t;
    for (int i = 0; i < reps; ++i) {
        int64_t t0 = nowNs();
        fn();
        t.push_back(msSince(t0));
    }
    return median(t);
}

uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::string
digest(const std::string &bytes)
{
    return strprintf("%016llx",
                     static_cast<unsigned long long>(fnv1a64(bytes)));
}

std::string
slurp(const std::string &path)
{
    std::string s;
    if (!readFile(path, s))
        throw std::runtime_error("cannot read " + path);
    return s;
}

// --- spans ---------------------------------------------------------

/**
 * In-memory span recorder. Spans nest on the thread that enabled the
 * recorder; calls from other threads are ignored. Written out when
 * the run ends.
 */
class SpanRecorder
{
  public:
    struct Span
    {
        std::string name;
        int64_t startNs = 0;
        int64_t endNs = 0;
        int parent = -1;
        int64_t op = -1;
    };

    void
    enable()
    {
        owner_ = std::this_thread::get_id();
        on_ = true;
    }

    void disable() { on_ = false; }

    bool
    active() const
    {
        return on_ && std::this_thread::get_id() == owner_;
    }

    void
    begin(std::string name, int64_t op)
    {
        Span s;
        s.name = std::move(name);
        s.parent = open_.empty() ? -1 : open_.back();
        s.op = op;
        s.startNs = nowNs();
        spans_.push_back(std::move(s));
        open_.push_back(static_cast<int>(spans_.size() - 1));
    }

    void
    end()
    {
        spans_[static_cast<size_t>(open_.back())].endNs = nowNs();
        open_.pop_back();
    }

    double
    durationMs(const Span &s) const
    {
        return static_cast<double>(s.endNs - s.startNs) / 1e6;
    }

    /**
     * Self ms per layer (the span name up to its first '.'; root
     * spans count as "bench") over the spans under roots named
     * `root`. Self time is a span's duration minus its children's.
     */
    std::map<std::string, double>
    selfMsByLayer(const std::string &root) const
    {
        std::vector<double> self(spans_.size());
        std::vector<int> rootOf(spans_.size(), -1);
        for (size_t i = 0; i < spans_.size(); ++i) {
            self[i] = durationMs(spans_[i]);
            int p = spans_[i].parent;
            rootOf[i] = p < 0 ? static_cast<int>(i) : rootOf[p];
            if (p >= 0)
                self[static_cast<size_t>(p)] -= durationMs(spans_[i]);
        }
        std::map<std::string, double> out;
        for (size_t i = 0; i < spans_.size(); ++i) {
            if (spans_[static_cast<size_t>(rootOf[i])].name != root)
                continue;
            const std::string &n = spans_[i].name;
            std::string layer = spans_[i].parent < 0
                ? "bench"
                : n.substr(0, n.find('.'));
            out[layer] += self[i];
        }
        return out;
    }

    /** Total duration of the root spans named `root`. */
    double
    rootMs(const std::string &root) const
    {
        double t = 0.0;
        for (const auto &s : spans_)
            if (s.parent < 0 && s.name == root)
                t += durationMs(s);
        return t;
    }

    /** Chrome trace-event file of every span. */
    void
    write(const std::string &path) const
    {
        Json events = Json::array();
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            Json e = Json::object();
            e.set("name", s.name);
            e.set("ph", "X");
            e.set("ts", static_cast<double>(s.startNs) / 1e3);
            e.set("dur", static_cast<double>(s.endNs - s.startNs) / 1e3);
            e.set("pid", 1);
            e.set("tid", 1);
            Json args = Json::object();
            args.set("id", static_cast<int64_t>(i));
            args.set("parent", s.parent);
            args.set("op", s.op);
            e.set("args", std::move(args));
            events.push(std::move(e));
        }
        Json doc = Json::object();
        doc.set("traceEvents", std::move(events));
        atomicWriteFile(path, doc.dump() + "\n");
    }

  private:
    /** Read by runner worker threads through the FsOps wrapper. */
    std::atomic<bool> on_{false};
    std::thread::id owner_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

SpanRecorder gSpans;
/** Id of the operation in flight (job or query), for span records. */
int64_t gOp = -1;

class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name)
        : on_(gSpans.active())
    {
        if (on_)
            gSpans.begin(name, gOp);
    }
    ~ScopedSpan()
    {
        if (on_)
            gSpans.end();
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    bool on_;
};

// --- counting filesystem seam --------------------------------------

/**
 * Counts and times the durable-I/O syscalls through the public
 * setFsOps seam, and records a span per call while tracing.
 */
class CountingFsOps : public FsOps
{
  public:
    std::atomic<int64_t> opens{0}, writes{0}, fsyncs{0}, renames{0};
    std::atomic<int64_t> bytes{0}, fsyncNs{0};

    int
    open(const char *path, int flags, mode_t mode) override
    {
        ScopedSpan s("support.fs.open");
        ++opens;
        return FsOps::open(path, flags, mode);
    }

    ssize_t
    write(int fd, const void *buf, size_t n) override
    {
        ScopedSpan s("support.fs.write");
        ++writes;
        ssize_t r = FsOps::write(fd, buf, n);
        if (r > 0)
            bytes += r;
        return r;
    }

    int
    fsync(int fd) override
    {
        ScopedSpan s("support.fs.fsync");
        ++fsyncs;
        int64_t t0 = nowNs();
        int r = FsOps::fsync(fd);
        fsyncNs += nowNs() - t0;
        return r;
    }

    int
    rename(const char *from, const char *to) override
    {
        ScopedSpan s("support.fs.rename");
        ++renames;
        return FsOps::rename(from, to);
    }
};

CountingFsOps gFs;

// --- options and bookkeeping --------------------------------------

/** The workload seed whose job outputs expected.json pins. */
constexpr uint64_t kDefaultSeed = 1;
/** Fixed locations inside the checkout; reports echo these paths. */
const std::string kWork = ".bench_work";
const std::string kExpectedPath = "hostbench/expected.json";

struct Options
{
    std::string workload;
    uint64_t seed = kDefaultSeed;
    int seconds = 20;
    bool trace = false;
    bool tiny = false;
    bool corruptExpected = false;
    std::string writeExpected;
    std::string commit = "unknown";
};

/** Attempted and failed operations, with the first few reasons. */
struct Tally
{
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<std::string> reasons;

    /** Count one operation; `errors` empty means it succeeded. */
    void
    add(const std::vector<std::string> &errors)
    {
        ++attempted;
        if (errors.empty())
            return;
        ++failed;
        for (const auto &e : errors)
            if (reasons.size() < 10)
                reasons.push_back(e);
    }
};

/**
 * The expected outputs (hostbench/expected.json): run(n) checksums
 * per (program, size), and digests of every job's report and --json
 * artifact and every query's --json doc and exit code at the default
 * seed. In recording mode (--write-expected) digests are stored
 * instead of checked.
 */
struct Expected
{
    bool recording = false;
    Json checksums = Json::object();
    Json digests = Json::object();

    void
    load(const std::string &path)
    {
        Json doc = Json::parse(slurp(path));
        if (doc.at("format").asString() != "hostbench-expected" ||
            doc.at("version").asInt() != 1)
            throw std::runtime_error(path + ": not a hostbench-expected "
                                            "v1 file");
        checksums = doc.at("checksums");
        digests = doc.at("digests");
    }

    void
    save(const std::string &path) const
    {
        Json doc = Json::object();
        doc.set("format", "hostbench-expected");
        doc.set("version", 1);
        doc.set("default_seed", static_cast<int64_t>(kDefaultSeed));
        doc.set("checksums", checksums);
        doc.set("digests", digests);
        atomicWriteFile(path, doc.dump(1) + "\n");
    }

    /**
     * Make the first expected digest under `prefix` wrong, to prove
     * the check counts a mismatch as a failure.
     */
    void
    corrupt(const std::string &prefix)
    {
        for (const auto &k : digests.keys())
            if (startsWith(k, prefix)) {
                digests.set(k, "0000000000000000");
                return;
            }
        throw std::runtime_error("no expected digest under " + prefix);
    }

    void
    checkChecksum(const std::string &program, int64_t size,
                  int64_t got, std::vector<std::string> &errors) const
    {
        std::string key = strprintf("%s/%lld", program.c_str(),
                                    static_cast<long long>(size));
        const Json *want = checksums.get(key);
        if (!want)
            errors.push_back("no expected checksum for " + key);
        else if (want->asInt() != got)
            errors.push_back(strprintf(
                "%s: checksum %lld, expected %lld", key.c_str(),
                static_cast<long long>(got),
                static_cast<long long>(want->asInt())));
    }

    void
    checkDigest(const std::string &key, const std::string &got,
                std::vector<std::string> &errors)
    {
        if (recording) {
            digests.set(key, got);
            return;
        }
        const Json *want = digests.get(key);
        if (!want)
            errors.push_back("no expected digest for " + key);
        else if (want->asString() != got)
            errors.push_back(key + ": digest " + got + ", expected " +
                             want->asString());
    }
};

// --- the job draw (measure / record) ---------------------------------

constexpr vm::Tier kTiers[] = {vm::Tier::Interp, vm::Tier::Adaptive,
                               vm::Tier::Threaded};

struct Pair
{
    const workloads::WorkloadSpec *w = nullptr;
    vm::Tier tier = vm::Tier::Interp;
    /** Position in the canonical program x tier order. */
    size_t index = 0;

    std::string
    key() const
    {
        return w->name + "/" + vm::tierName(tier);
    }
};

/** Programs x tiers in suite order; tiny keeps two cheap programs. */
std::vector<Pair>
allPairs(bool tiny)
{
    std::vector<Pair> pairs;
    size_t i = 0;
    for (const auto &w : workloads::suite())
        for (vm::Tier t : kTiers) {
            ++i;
            if (tiny && w.name != "sieve" && w.name != "string_ops")
                continue;
            pairs.push_back(Pair{&w, t, i - 1});
        }
    return pairs;
}

/** Seeded Fisher-Yates shuffle (stable across standard libraries). */
template <typename T>
void
shuffle(std::vector<T> &v, uint64_t &state)
{
    for (size_t i = v.size(); i > 1; --i) {
        state = splitmix64(state);
        std::swap(v[i - 1], v[state % i]);
    }
}

/** Design of every measure/record job. */
constexpr int kJobInvocations = 2;
constexpr int kJobIterations = 3;

std::string
recordDir()
{
    return kWork + "/record";
}

serve::JobSpec
jobSpec(const Options &opt, const Pair &p, bool record)
{
    serve::JobSpec s;
    s.command = "run";
    s.workload = p.w->name;
    s.tier = p.tier;
    s.invocations = kJobInvocations;
    s.iterations = kJobIterations;
    s.size = opt.tiny ? p.w->testSize : 0;
    s.seed = splitmix64(opt.seed * 0x100 + p.index);
    s.quiet = true;
    if (record) {
        s.jobs = 2;
        std::string d = recordDir();
        s.jsonPath = d + "/run.json";
        s.csvPath = d + "/run.csv";
        s.metricsPath = d + "/metrics.json";
        s.tracePath = d + "/trace.json";
        s.archiveDir = d + "/archive";
    }
    return s;
}

int64_t
effectiveSize(const serve::JobSpec &s, const workloads::WorkloadSpec &w)
{
    return s.size > 0 ? s.size : w.defaultSize;
}

/** What a job returned, captured through the public hooks. */
struct JobOutcome
{
    int rc = -1;
    std::string text;
    std::vector<int64_t> checksums;
    int retries = 0;
    double ms = 0.0;
};

JobOutcome
executeTimed(const serve::JobSpec &spec)
{
    JobOutcome o;
    serve::JobHooks hooks;
    hooks.output = [&o](const std::string &c) { o.text += c; };
    hooks.progress = [&o](const harness::RunResult &r, int) {
        o.checksums.clear();
        for (const auto &inv : r.invocations)
            o.checksums.push_back(inv.checksum);
        o.retries = static_cast<int>(r.failures.size());
    };
    int64_t t0 = nowNs();
    o.rc = serve::executeJob(spec, hooks);
    o.ms = msSince(t0);
    return o;
}

/** Drop the "archived as #N ..." line; return N (or -1). */
int
stripArchivedLine(std::string &text)
{
    size_t at = text.find("archived as #");
    if (at == std::string::npos)
        return -1;
    size_t eol = text.find('\n', at);
    int id = std::atoi(text.c_str() + at + 13);
    text.erase(at, eol == std::string::npos ? std::string::npos
                                            : eol - at + 1);
    return id;
}

// --- the daemon (query workload, serve probes) -----------------------

/** The rigorbench CLI, built next to this binary. */
std::string
rigorbenchPath()
{
    return (fs::read_symlink("/proc/self/exe").parent_path() / "rigor" /
            "tools" / "rigorbench")
        .string();
}

/** A `rigorbench serve` child and one client connection to it. */
class Daemon
{
  public:
    explicit Daemon(const std::string &dir) : sock_(dir + "/serve.sock")
    {
        fs::create_directories(dir);
        std::string state = dir + "/state";
        std::string out = dir + "/daemon.log";
        std::vector<std::string> args = {
            rigorbenchPath(), "serve",       "--socket",
            sock_,            "--state-dir", state,
            "--max-queue",    "4",           "--max-active",
            "1"};
        std::vector<char *> argv;
        for (auto &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        pid_ = fork();
        if (pid_ < 0)
            throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            // Never outlive the benchmark.
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            int fd = ::open(out.c_str(),
                            O_WRONLY | O_CREAT | O_TRUNC, 0644);
            if (fd >= 0) {
                dup2(fd, 1);
                dup2(fd, 2);
            }
            execv(argv[0], argv.data());
            _exit(127);
        }
        for (int i = 0; i < 1000; ++i) {
            int fd = connectUnixSocket(sock_);
            if (fd >= 0) {
                ch_ = std::make_unique<LineChannel>(fd);
                return;
            }
            int status = 0;
            if (waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                throw std::runtime_error("daemon died at start-up; see " +
                                         out);
            }
            usleep(10000);
        }
        throw std::runtime_error("daemon never answered on " + sock_);
    }

    ~Daemon()
    {
        if (pid_ > 0) {
            kill(pid_, SIGKILL);
            waitpid(pid_, nullptr, 0);
        }
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    Json
    request(const Json &req)
    {
        std::string line;
        if (!ch_->writeLine(req.dump()) || !ch_->readLine(line))
            throw std::runtime_error("lost the daemon connection");
        Json resp = Json::parse(line);
        serve::checkProtocolHeader(resp);
        return resp;
    }

    /** Drain and reap the daemon; returns its peak RSS in MB. */
    double
    stop()
    {
        Json req = serve::makeRequest("shutdown");
        req.set("mode", "drain");
        request(req);
        ch_.reset();
        int status = 0;
        struct rusage ru = {};
        pid_t r = wait4(pid_, &status, 0, &ru);
        pid_ = -1;
        if (r < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
            throw std::runtime_error("daemon did not exit cleanly");
        return static_cast<double>(ru.ru_maxrss) / 1024.0;
    }

  private:
    std::string sock_;
    pid_t pid_ = -1;
    std::unique_ptr<LineChannel> ch_;
};

/** A query's reply: exit code, rendered report and --json doc. */
struct QueryReply
{
    int rc = 0;
    std::string text;
    Json doc;
};

QueryReply
socketQuery(Daemon &d, const serve::QuerySpec &q)
{
    ScopedSpan s("serve.query");
    Json req = serve::makeRequest("query");
    req.set("query", serve::querySpecToJson(q));
    Json resp = d.request(req);
    if (!resp.at("ok").asBool())
        throw std::runtime_error("query refused: " +
                                 resp.at("message").asString());
    return {static_cast<int>(resp.at("exit_code").asInt()),
            resp.at("text").asString(), resp.at("doc")};
}

// --- the query archive ---------------------------------------------

/**
 * Archive entries built at set-up: two JIT-enabled entries at
 * different measurement seeds and one de-JIT'd entry, each a suite of
 * cheap programs at their test size. A low JIT threshold lets the
 * adaptive tier compile at test size, so gating the de-JIT'd entry
 * against a JIT'd one regresses (exit 4) by construction.
 */
struct EntryPlan
{
    const char *label;
    uint64_t seed;
    int jitThreshold;
};
constexpr EntryPlan kEntries[] = {{"base", 0x1001, 100},
                                  {"cand", 0x1002, 100},
                                  {"nojit", 0x1002, 1 << 30}};

std::vector<const workloads::WorkloadSpec *>
queryPrograms(bool tiny)
{
    std::vector<const workloads::WorkloadSpec *> ws;
    for (const char *n : {"sieve", "string_ops", "richards", "hashtable"})
        if (!tiny || ws.size() < 2)
            ws.push_back(&workloads::findWorkload(n));
    return ws;
}

/** Archived configuration as jobrun.cc records it for a suite. */
Json
archiveConfig(const serve::JobSpec &spec,
              const std::vector<std::string> &programs,
              const std::vector<std::string> &tiers)
{
    Json c = serve::configJson(spec);
    c.set("schema_version", kRunSchemaVersion);
    Json wls = Json::array();
    for (const auto &p : programs)
        wls.push(p);
    Json ts = Json::array();
    for (const auto &t : tiers)
        ts.push(t);
    c.set("workloads", std::move(wls));
    c.set("tiers", std::move(ts));
    return c;
}

std::vector<Json>
profilesFor(const serve::JobSpec &spec,
            const std::vector<harness::RunResult> &runs)
{
    std::vector<Json> profiles;
    for (const auto &r : runs) {
        ScopedSpan s("explain.build_profile");
        harness::RunnerConfig cfg =
            serve::makeRunnerConfig(spec, r.tier, nullptr, nullptr, nullptr);
        profiles.push_back(
            explain::profileToJson(explain::buildProfile(r, cfg)));
    }
    return profiles;
}

/**
 * Build the query archive in `dir` from real runs; checksums of the
 * runs are checked into `tally`.
 */
void
buildQueryArchive(const std::string &dir, bool tiny,
                  const Expected &exp, Tally &tally)
{
    fs::remove_all(dir);
    archive::RunArchive ar(dir);
    auto programs = queryPrograms(tiny);
    std::vector<std::string> names, tiers;
    for (const auto *w : programs)
        names.push_back(w->name);
    for (vm::Tier t : kTiers)
        tiers.push_back(vm::tierName(t));
    for (const EntryPlan &e : kEntries) {
        serve::JobSpec spec;
        spec.command = "suite";
        spec.invocations = tiny ? 3 : 6;
        spec.iterations = tiny ? 5 : 20;
        spec.seed = e.seed;
        spec.jitThreshold = e.jitThreshold;
        spec.quiet = true;
        std::vector<harness::RunResult> runs;
        for (const auto *w : programs)
            for (vm::Tier t : kTiers) {
                harness::RunnerConfig cfg = serve::makeRunnerConfig(
                    spec, t, nullptr, nullptr, nullptr);
                cfg.size = w->testSize;
                runs.push_back(harness::runExperiment(*w, cfg));
                std::vector<std::string> errors;
                if (runs.back().invocations.size() !=
                    static_cast<size_t>(spec.invocations))
                    errors.push_back("archive run " + w->name +
                                     " lost invocations");
                for (const auto &inv : runs.back().invocations)
                    exp.checkChecksum(w->name, w->testSize, inv.checksum,
                                      errors);
                tally.add(errors);
            }
        ar.append(archiveConfig(spec, names, tiers), e.label, "suite",
                  runs, profilesFor(spec, runs));
    }
}

/** The fixed query pool; the seed orders it. */
std::vector<std::pair<std::string, serve::QuerySpec>>
queryPool(const std::string &archiveDir)
{
    std::vector<std::pair<std::string, serve::QuerySpec>> pool;
    auto add = [&](const std::string &name, const char *kind,
                   const char *base, const char *cand,
                   const char *baseTier = "", const char *candTier = "",
                   bool explainGate = false) {
        serve::QuerySpec q;
        q.kind = kind;
        q.baseRef = base;
        q.candRef = cand;
        q.archiveDir = archiveDir;
        q.baseTier = baseTier;
        q.candTier = candTier;
        q.explainGate = explainGate;
        pool.emplace_back(name, q);
    };
    const std::pair<const char *, const char *> sameTier[] = {
        {"base", "cand"}, {"cand", "base"}, {"base", "nojit"},
        {"nojit", "base"}, {"cand", "nojit"}};
    for (const auto &[b, c] : sameTier) {
        std::string pair = std::string(b) + "-" + c;
        add("compare." + pair, "compare", b, c);
        add("gate." + pair, "gate", b, c);
    }
    add("gate-explain.base-nojit", "gate", "base", "nojit", "", "", true);
    add("gate-explain.cand-nojit", "gate", "cand", "nojit", "", "", true);
    add("explain.base-cand", "explain", "base", "cand");
    add("explain.base-nojit", "explain", "base", "nojit");
    add("explain.cand-nojit", "explain", "cand", "nojit");
    // Cross-tier pairings within one entry (--base-tier/--cand-tier).
    add("compare.base.interp-threaded", "compare", "base", "base",
        "interp", "threaded");
    add("compare.cand.adaptive-threaded", "compare", "cand", "cand",
        "adaptive", "threaded");
    add("compare.nojit.interp-adaptive", "compare", "nojit", "nojit",
        "interp", "adaptive");
    add("explain.base.interp-adaptive", "explain", "base", "base",
        "interp", "adaptive");
    add("explain.nojit.adaptive-threaded", "explain", "nojit", "nojit",
        "adaptive", "threaded");
    return pool;
}

// --- metrics output ------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    int64_t samples = 1;
};

void
printResult(const std::vector<Metric> &metrics, const Tally &tally)
{
    std::printf("\n%-28s %16s  %-8s %s\n", "metric", "value", "unit",
                "samples");
    for (const auto &m : metrics)
        std::printf("%-28s %16.6g  %-8s %lld\n", m.name.c_str(), m.value,
                    m.unit.c_str(), static_cast<long long>(m.samples));
    double failRatio = tally.attempted
        ? static_cast<double>(tally.failed) /
            static_cast<double>(tally.attempted)
        : 0.0;
    std::printf("%-28s %16.6g  %-8s %lld\n", "fail_ratio", failRatio,
                "ratio", static_cast<long long>(tally.attempted));
    for (const auto &r : tally.reasons)
        std::printf("FAILED: %s\n", r.c_str());
    double load[3] = {0, 0, 0};
    if (getloadavg(load, 3) == 3)
        std::printf("env: load_end=%.2f,%.2f,%.2f\n", load[0], load[1],
                    load[2]);
    std::string js = strprintf(
        "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
        "\"metrics\": {",
        tally.failed == 0 ? "true" : "false",
        static_cast<long long>(tally.attempted),
        static_cast<long long>(tally.failed));
    for (size_t i = 0; i < metrics.size(); ++i)
        js += strprintf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i ? ", " : "", metrics[i].name.c_str(),
                        metrics[i].value, metrics[i].unit.c_str());
    js += "}}";
    std::printf("%s\n", js.c_str());
    std::fflush(stdout);
}

void
printHeader(const Options &opt)
{
    double load[3] = {0, 0, 0};
    getloadavg(load, 3);
    std::string buildType = HOSTBENCH_BUILD_TYPE;
    std::printf("hostbench: workload=%s seed=%llu seconds=%d trace=%d%s\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0, opt.tiny ? " tiny" : "");
    std::printf("env: nproc=%ld load_start=%.2f,%.2f,%.2f "
                "build_type=%s compiler=\"%s\" commit=%s\n",
                sysconf(_SC_NPROCESSORS_ONLN), load[0], load[1], load[2],
                buildType.c_str(), __VERSION__, opt.commit.c_str());
    std::string unfit;
    if (buildType == "Debug" || buildType.empty())
        unfit = buildType.empty() ? "unoptimized" : "Debug";
#ifndef NDEBUG
    unfit += unfit.empty() ? "assert-enabled" : ", assert-enabled";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    unfit += unfit.empty() ? "sanitizer" : ", sanitizer";
#endif
    if (!unfit.empty())
        std::printf("!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!\n"
                    "!! WARNING: %s build. These numbers are NOT a\n"
                    "!! baseline and must never be recorded as one.\n"
                    "!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!\n",
                    unfit.c_str());
}

double
selfPeakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// --- workloads -----------------------------------------------------

/** Operation timings of one loop over whole rounds. */
struct LoopResult
{
    /** Host ms of every operation, in execution order. */
    std::vector<double> opMs;
    /** The same, by job pair or query name. */
    std::map<std::string, std::vector<double>> byKey;

    void
    add(const std::string &key, double ms)
    {
        opMs.push_back(ms);
        byKey[key].push_back(ms);
    }

    /**
     * Median ms of each distinct operation over the rounds: a burst
     * of host contention during one round does not move it.
     */
    std::vector<double>
    typicalMs() const
    {
        std::vector<double> t;
        for (const auto &kv : byKey)
            t.push_back(median(kv.second));
        return t;
    }
};

class Bench
{
  public:
    Bench(const Options &opt, Expected &exp) : opt_(opt), exp_(exp)
    {
        rng_ = splitmix64(opt.seed ^ 0x686f737462656e63ULL);
    }

    /** Run the untraced (end-to-end) benchmark. */
    std::vector<Metric> endToEnd();
    /** Run the traced benchmark and the layer probes. */
    std::vector<Metric> perLayer();

    Tally tally;

    /** Key of an expected digest of this workload. */
    std::string
    digestKey(const std::string &what) const
    {
        return (opt_.tiny ? "tiny/" : "") + opt_.workload + "/" + what;
    }

  private:
    bool isJobs() const { return opt_.workload != "query"; }
    bool record() const { return opt_.workload == "record"; }
    /** Digests are pinned only for the default seed. */
    bool pinned() const { return opt_.seed == kDefaultSeed; }

    double setupOnce();
    LoopResult loop(double seconds, bool traced);
    double jobOp(const Pair &p, bool traced);
    double tracedJob(const serve::JobSpec &spec, const Pair &p,
                     std::vector<std::string> &errors);
    double queryOp(const std::string &name, const serve::QuerySpec &q,
                   bool traced);
    void layerTable(const LoopResult &plain, const LoopResult &traced,
                    std::vector<Metric> &out);
    void probes(std::vector<Metric> &out);

    const Options &opt_;
    Expected &exp_;
    uint64_t rng_;
    int64_t jobsDone_ = 0;
    /** Invocation retries seen in measured jobs. */
    int retries_ = 0;
    std::unique_ptr<Daemon> daemon_;
    std::vector<std::pair<std::string, serve::QuerySpec>> pool_;
};

double
Bench::setupOnce()
{
    int64_t t0 = nowNs();
    daemon_.reset();
    fs::remove_all(kWork + "/" + opt_.workload);
    fs::create_directories(kWork + "/" + opt_.workload);
    if (!isJobs()) {
        std::string dir = kWork + "/query";
        buildQueryArchive(dir + "/archive", opt_.tiny, exp_, tally);
        daemon_ = std::make_unique<Daemon>(dir);
        Json st = daemon_->request(serve::makeRequest("status"));
        if (!st.at("ok").asBool())
            throw std::runtime_error("daemon status failed");
        pool_ = queryPool(dir + "/archive");
        return msSince(t0) / 1e3;
    }
    // Warm-up: one short job per pair at test size, which compiles
    // every program and touches every tier and artifact path.
    for (const Pair &p : allPairs(opt_.tiny)) {
        serve::JobSpec spec = jobSpec(opt_, p, record());
        spec.size = p.w->testSize;
        spec.iterations = 1;
        if (executeTimed(spec).rc != 0)
            throw std::runtime_error("warm-up job " + p.key() + " failed");
    }
    fs::remove_all(recordDir() + "/archive");
    jobsDone_ = 0;
    return msSince(t0) / 1e3;
}

/** One measure/record job; returns its host ms. */
double
Bench::jobOp(const Pair &p, bool traced)
{
    serve::JobSpec spec = jobSpec(opt_, p, record());
    std::vector<std::string> errors;
    double ms = 0.0;
    try {
        if (traced) {
            ms = tracedJob(spec, p, errors);
        } else {
            JobOutcome o = executeTimed(spec);
            ms = o.ms;
            retries_ += o.retries;
            if (o.rc != 0)
                errors.push_back(strprintf("%s: exit %d", p.key().c_str(),
                                           o.rc));
            if (o.checksums.size() != static_cast<size_t>(kJobInvocations))
                errors.push_back(p.key() + ": lost invocations");
            for (int64_t c : o.checksums)
                exp_.checkChecksum(p.w->name, effectiveSize(spec, *p.w), c,
                                   errors);
            if (record()) {
                int id = stripArchivedLine(o.text);
                if (id != jobsDone_ + 1)
                    errors.push_back(strprintf(
                        "%s: archived as #%d, expected #%lld",
                        p.key().c_str(), id,
                        static_cast<long long>(jobsDone_ + 1)));
            }
            if (pinned()) {
                exp_.checkDigest(digestKey(p.key() + "/text"),
                                 digest(o.text), errors);
                if (record())
                    exp_.checkDigest(digestKey(p.key() + "/json"),
                                     digest(slurp(spec.jsonPath)), errors);
            }
        }
    } catch (const std::exception &e) {
        errors.push_back(p.key() + ": " + e.what());
    }
    ++jobsDone_;
    tally.add(errors);
    return ms;
}

/**
 * The same work executeJob does for `spec`, called layer by layer
 * with a span around each call.
 */
double
Bench::tracedJob(const serve::JobSpec &spec, const Pair &p,
                 std::vector<std::string> &errors)
{
    int64_t t0 = nowNs();
    std::optional<ScopedSpan> op(std::in_place, "op");
    MetricsRegistry metrics;
    TraceEmitter trace;
    bool rec = record();
    harness::RunResult run;
    {
        ScopedSpan s("harness.run_experiment");
        run = harness::runExperiment(
            *p.w, serve::makeRunnerConfig(spec, p.tier, nullptr,
                                          rec ? &metrics : nullptr,
                                          rec ? &trace : nullptr));
    }
    std::string text;
    {
        ScopedSpan s("serve.render_estimate");
        text = serve::renderEstimate(run);
    }
    int id = -1;
    if (rec) {
        {
            ScopedSpan s("serve.write_artifacts");
            serve::writeRunArtifacts(spec, run,
                                     [](const std::string &) {});
        }
        std::vector<Json> profiles = profilesFor(spec, {run});
        {
            ScopedSpan s("archive.append");
            archive::RunArchive ar(spec.archiveDir);
            id = ar.append(archiveConfig(spec, {spec.workload},
                                         {vm::tierName(spec.tier)}),
                           spec.label, spec.command, {run}, profiles);
        }
        {
            ScopedSpan s("support.write_observability");
            atomicWriteFile(spec.metricsPath,
                            metrics.toJson().dump(2) + "\n");
            trace.endSpansTo(0);
            atomicWriteFile(spec.tracePath, trace.toJson().dump(1) + "\n");
        }
    }
    op.reset();
    double ms = msSince(t0);

    retries_ += static_cast<int>(run.failures.size());
    if (run.invocations.size() != static_cast<size_t>(kJobInvocations))
        errors.push_back(p.key() + ": lost invocations");
    for (const auto &inv : run.invocations)
        exp_.checkChecksum(p.w->name, effectiveSize(spec, *p.w),
                           inv.checksum, errors);
    if (pinned()) {
        if (rec)
            exp_.checkDigest(digestKey(p.key() + "/json"),
                             digest(slurp(spec.jsonPath)), errors);
        else
            exp_.checkDigest(digestKey(p.key() + "/text"),
                             digest(text), errors);
    }
    if (rec && id != jobsDone_ + 1)
        errors.push_back(strprintf("%s: archived as #%d, expected #%lld",
                                   p.key().c_str(), id,
                                   static_cast<long long>(jobsDone_ + 1)));
    return ms;
}

/** One query over the socket; returns its host ms. */
double
Bench::queryOp(const std::string &name, const serve::QuerySpec &q,
               bool traced)
{
    std::vector<std::string> errors;
    double ms = 0.0;
    try {
        int64_t t0 = nowNs();
        QueryReply reply;
        {
            ScopedSpan op("op");
            reply = socketQuery(*daemon_, q);
        }
        ms = msSince(t0);
        exp_.checkDigest(digestKey(name),
                         strprintf("%d:", reply.rc) +
                             digest(reply.text + reply.doc.dump()),
                         errors);
        if (traced) {
            // The same query decomposed in process, under its own
            // root: attributes the socket time to the layers.
            ScopedSpan replica("replica");
            archive::RunArchive ar(q.archiveDir);
            archive::Entry base, cand;
            {
                ScopedSpan s("archive.resolve");
                base = ar.resolve(q.baseRef);
                cand = ar.resolve(q.candRef);
            }
            compare::CompareConfig cfg;
            cfg.resamples = q.resamples;
            cfg.confidence = q.confidence;
            cfg.seed = q.seed;
            cfg.baselineTier = q.baseTier;
            cfg.candidateTier = q.candTier;
            compare::CompareReport report;
            {
                ScopedSpan s("compare.compare_entries");
                report = compare::compareEntries(base, cand, cfg);
            }
            bool needExplain = q.kind == "explain";
            {
                ScopedSpan s("compare.render");
                if (q.kind == "gate") {
                    auto g = compare::evaluateGate(report,
                                                   q.gateThresholdPct);
                    compare::renderGate(g, report);
                    needExplain = q.explainGate && !g.pass;
                }
                compare::reportToJson(report);
                if (q.kind == "compare")
                    compare::renderMarkdown(report);
            }
            if (needExplain) {
                ScopedSpan s("explain.explain_entries");
                auto ex = explain::explainEntries(base, cand, report);
                explain::renderMarkdown(ex);
                explain::reportToJson(ex);
            }
        }
    } catch (const std::exception &e) {
        errors.push_back(name + ": " + e.what());
    }
    tally.add(errors);
    return ms;
}

/**
 * Whole rounds of operations until `seconds` have passed (at least
 * one round). Each round is a fresh seeded shuffle of the population.
 */
LoopResult
Bench::loop(double seconds, bool traced)
{
    LoopResult res;
    int64_t start = nowNs();
    std::vector<Pair> pairs = allPairs(opt_.tiny);
    std::vector<size_t> queries(pool_.size());
    for (size_t i = 0; i < queries.size(); ++i)
        queries[i] = i;
    if (traced)
        gSpans.enable();
    do {
        if (isJobs()) {
            shuffle(pairs, rng_);
            for (const Pair &p : pairs) {
                ++gOp;
                res.add(p.key(), jobOp(p, traced));
            }
        } else {
            shuffle(queries, rng_);
            for (size_t i : queries) {
                ++gOp;
                res.add(pool_[i].first,
                        queryOp(pool_[i].first, pool_[i].second, traced));
            }
        }
    } while (msSince(start) < seconds * 1e3);
    gSpans.disable();
    return res;
}

std::vector<Metric>
Bench::endToEnd()
{
    // Set up several times; the last set-up is the one measured.
    constexpr int reps = 5;
    std::vector<double> setups;
    for (int i = 0; i < reps; ++i)
        setups.push_back(setupOnce());
    LoopResult r = loop(opt_.seconds, false);
    double peakRss = selfPeakRssMb();
    if (daemon_) {
        peakRss = daemon_->stop();
        daemon_.reset();
    }
    // Latency and throughput come from each distinct operation's
    // median over the rounds; the sample count is every operation.
    auto n = static_cast<int64_t>(r.opMs.size());
    std::vector<double> typical = r.typicalMs();
    double perOp = sum(typical) / static_cast<double>(typical.size());
    std::vector<Metric> m = {
        {"setup_s", median(setups), "s", reps},
        {"ops_per_s", 1e3 / perOp, "1/s", n},
        {"op_ms_p50", quantile(typical, 0.5), "ms", n},
        {"op_ms_p90", quantile(typical, 0.9), "ms", n},
        {"peak_rss_mb", peakRss, "MB", 1},
    };
    std::printf("info: %lld operations = %zu distinct x %.1f rounds "
                "(closed loop, 1 client)\n",
                static_cast<long long>(n), typical.size(),
                static_cast<double>(n) / static_cast<double>(typical.size()));
    if (isJobs())
        std::printf("info: iters_per_s=%.6g (modelled iterations "
                    "committed per host second)\n",
                    1e3 * kJobInvocations * kJobIterations / perOp);
    return m;
}

std::vector<Metric>
Bench::perLayer()
{
    setupOnce();
    FsOps *prev = setFsOps(&gFs);
    LoopResult plain = loop(0, false);
    LoopResult traced = loop(0, true);
    setFsOps(prev);
    std::vector<Metric> out;
    layerTable(plain, traced, out);
    probes(out);
    if (daemon_) {
        daemon_->stop();
        daemon_.reset();
    }
    gSpans.write(kWork + "/" + opt_.workload + "/spans.json");
    return out;
}

void
Bench::layerTable(const LoopResult &plain, const LoopResult &traced,
                  std::vector<Metric> &out)
{
    double plainMs = sum(plain.opMs);
    double tracedMs = sum(traced.opMs);
    double opMs = gSpans.rootMs("op");
    auto layers = gSpans.selfMsByLayer("op");
    double remainder = layers["bench"];
    layers.erase("bench");
    if (!isJobs()) {
        // The socket op is one span; its in-process replica splits
        // it, and the serve layer is what the replica does not cover.
        double replica = gSpans.rootMs("replica");
        layers = gSpans.selfMsByLayer("replica");
        remainder += layers["bench"];
        layers.erase("bench");
        layers["serve"] = opMs - replica;
    }
    std::printf("\nlayer self time, traced round (%zu ops, %.1f ms "
                "spanned):\n",
                traced.opMs.size(), opMs);
    std::printf("  %-10s %12s %8s\n", "layer", "self ms", "share");
    double accounted = 0.0;
    for (const auto &[layer, ms] : layers) {
        std::printf("  %-10s %12.3f %7.2f%%\n", layer.c_str(), ms,
                    100.0 * ms / opMs);
        accounted += ms;
    }
    std::printf("  %-10s %12.3f %7.2f%%  (benchmark code between "
                "spans)\n",
                "remainder", remainder, 100.0 * remainder / opMs);
    if (isJobs())
        std::printf("  note: vm and uarch run inside "
                    "harness.run_experiment; the vm.* and uarch.* probes "
                    "give their split\n");
    std::printf("  fs during traced round: open=%lld write=%lld "
                "fsync=%lld rename=%lld bytes=%lld fsync_ms=%.3f\n",
                static_cast<long long>(gFs.opens.load()),
                static_cast<long long>(gFs.writes.load()),
                static_cast<long long>(gFs.fsyncs.load()),
                static_cast<long long>(gFs.renames.load()),
                static_cast<long long>(gFs.bytes.load()),
                static_cast<double>(gFs.fsyncNs.load()) / 1e6);
    double overhead = 100.0 * (tracedMs - plainMs) / plainMs;
    std::printf("tracing overhead: traced %.1f ms - untraced %.1f ms = "
                "%+.2f%% (%zu ops each)\n",
                tracedMs, plainMs, overhead, plain.opMs.size());
    out.push_back({"trace.overhead_pct", overhead, "%",
                   static_cast<int64_t>(traced.opMs.size())});
    out.push_back({"trace.remainder_pct",
                   100.0 * (opMs - accounted) / opMs, "%",
                   static_cast<int64_t>(traced.opMs.size())});
}

/** Samples the hierarchical bootstrap draws for one compared pair. */
int64_t
pairSamples(const archive::Entry &e, const std::string &workload,
            const std::string &tier)
{
    int64_t n = 0;
    for (const auto &r : e.runs)
        if (r.workload == workload && tier == vm::tierName(r.tier))
            for (const auto &inv : r.invocations)
                n += static_cast<int64_t>(inv.samples.size());
    return n;
}

/**
 * Per-layer probes: each module's public functions timed on fixed
 * inputs, the same on every workload.
 */
void
Bench::probes(std::vector<Metric> &out)
{
    auto add = [&out](const std::string &name, double v,
                      const char *unit, int64_t n) {
        out.push_back({name, v, unit, n});
    };
    const auto &suite = workloads::suite();
    auto nSuite = static_cast<int64_t>(suite.size());

    // vm + uarch: every program at its test size, bare and modelled.
    std::vector<vm::Program> progs;
    double compileMs = medianMs(3, [&] {
        progs.clear();
        for (const auto &w : suite)
            progs.push_back(vm::compileSource(w.source, w.name));
    });
    add("vm.compile_us", 1e3 * compileMs / static_cast<double>(nSuite),
        "us", 3 * nSuite);
    uint64_t bytecodes = 0, l1d = 0;
    double bareAll = 0.0, modelAll = 0.0;
    for (vm::Tier tier : kTiers) {
        vm::InterpConfig icfg;
        icfg.tier = tier;
        icfg.captureOutput = false;
        uarch::PerfModelConfig ucfg;
        if (tier == vm::Tier::Threaded) {
            icfg.dispatchUops = harness::kThreadedDispatchUops;
            ucfg.dispatchHistoryOps = harness::kThreadedDispatchHistoryOps;
        }
        double bareNs = 0.0, modelNs = 0.0;
        uint64_t bc = 0;
        for (size_t i = 0; i < suite.size(); ++i)
            for (bool withModel : {false, true}) {
                uarch::PerfModel model(ucfg);
                int64_t t0 = nowNs();
                vm::Interp interp(progs[i], icfg,
                                  withModel ? &model : nullptr);
                interp.runModule();
                for (int r = 0; r < 3; ++r)
                    interp.callGlobal(
                        "run", {vm::Value::makeInt(suite[i].testSize)});
                auto ns = static_cast<double>(nowNs() - t0);
                if (withModel) {
                    modelNs += ns;
                    l1d += model.snapshot().l1dAccesses;
                } else {
                    bareNs += ns;
                    bc += interp.stats().bytecodes;
                }
            }
        std::string t = vm::tierName(tier);
        auto n = static_cast<int64_t>(bc);
        add("vm." + t + ".ns_per_bc", bareNs / static_cast<double>(bc),
            "ns", n);
        add("uarch." + t + ".ns_per_bc",
            (modelNs - bareNs) / static_cast<double>(bc), "ns", n);
        bytecodes += bc;
        bareAll += bareNs;
        modelAll += modelNs;
    }
    add("vm.bytecodes", static_cast<double>(bytecodes), "count", 1);
    add("uarch.share", (modelAll - bareAll) / modelAll, "ratio",
        static_cast<int64_t>(bytecodes));
    volatile uint64_t sink = 0;
    add("uarch.setup_us", 1e3 * medianMs(9, [&sink] {
            uarch::PerfModel m;
            sink = sink + m.snapshot().cycles;
        }),
        "us", 9);
    add("uarch.l1d_accesses", static_cast<double>(l1d), "count", 1);

    // harness: one short job's runExperiment, and the same compile +
    // VM + model work done without the harness.
    const auto &hw = workloads::findWorkload("richards");
    serve::JobSpec hs;
    hs.workload = hw.name;
    hs.invocations = 4;
    hs.iterations = 10;
    hs.size = hw.testSize;
    hs.quiet = true;
    auto cfgFor = [&hs](int jobs, MetricsRegistry *m, TraceEmitter *t) {
        harness::RunnerConfig c = serve::makeRunnerConfig(
            hs, vm::Tier::Interp, nullptr, m, t);
        c.jobs = jobs;
        return c;
    };
    harness::RunResult run;
    double runMs = medianMs(9, [&] {
        run = harness::runExperiment(hw, cfgFor(1, nullptr, nullptr));
    });
    double bareMs = medianMs(9, [&] {
        vm::Program prog = vm::compileSource(hw.source, hw.name);
        for (int i = 0; i < hs.invocations; ++i) {
            uarch::PerfModel model;
            vm::InterpConfig icfg;
            icfg.captureOutput = false;
            vm::Interp interp(prog, icfg, &model);
            interp.runModule();
            for (int it = 0; it < hs.iterations; ++it)
                interp.callGlobal("run", {vm::Value::makeInt(hs.size)});
        }
    });
    add("harness.run_ms", runMs, "ms", 9);
    add("harness.self_ms", runMs - bareMs, "ms", 9);
    add("harness.estimate_ms", medianMs(5, [&run] {
            harness::rigorousEstimate(run);
            serve::renderEstimate(run);
        }),
        "ms", 5);
    add("harness.observe_ms", medianMs(5, [&] {
            MetricsRegistry m;
            TraceEmitter t;
            harness::runExperiment(hw, cfgFor(1, &m, &t));
        }) - runMs,
        "ms", 5);
    double parallelMs = medianMs(5, [&] {
        harness::runExperiment(hw, cfgFor(2, nullptr, nullptr));
    });
    add("harness.parallel_speedup", runMs / parallelMs, "x", 5);
    add("harness.retries", retries_, "count", tally.attempted);

    // support: persisting that job as a record job does, through a
    // counting FsOps; JSON throughput on its --json document.
    std::string pd = kWork + "/" + opt_.workload + "/probe";
    fs::remove_all(pd);
    fs::create_directories(pd);
    serve::JobSpec ps = hs;
    ps.jsonPath = pd + "/run.json";
    ps.csvPath = pd + "/run.csv";
    ps.metricsPath = pd + "/metrics.json";
    ps.tracePath = pd + "/trace.json";
    ps.archiveDir = pd + "/archive";
    MetricsRegistry pm;
    TraceEmitter pt;
    harness::RunResult prun =
        harness::runExperiment(hw, cfgFor(1, &pm, &pt));
    pt.endSpansTo(0);
    std::string mtext = pm.toJson().dump(2) + "\n";
    std::string ttext = pt.toJson().dump(1) + "\n";
    std::vector<Json> profiles = profilesFor(ps, {prun});
    Json acfg = archiveConfig(ps, {hw.name}, {"interp"});
    archive::RunArchive ar(ps.archiveDir);
    constexpr int kPersist = 3;
    CountingFsOps counter;
    FsOps *prevFs = setFsOps(&counter);
    std::vector<double> appendMs;
    for (int k = 0; k < kPersist; ++k) {
        serve::writeRunArtifacts(ps, prun, [](const std::string &) {});
        atomicWriteFile(ps.metricsPath, mtext);
        atomicWriteFile(ps.tracePath, ttext);
        int64_t t0 = nowNs();
        ar.append(acfg, "", "run", {prun}, profiles);
        appendMs.push_back(msSince(t0));
    }
    setFsOps(prevFs);
    auto perJob = [&](const std::atomic<int64_t> &c) {
        return static_cast<double>(c.load()) / kPersist;
    };
    add("support.fs.open", perJob(counter.opens), "count", kPersist);
    add("support.fs.write", perJob(counter.writes), "count", kPersist);
    add("support.fs.fsync", perJob(counter.fsyncs), "count", kPersist);
    add("support.fs.rename", perJob(counter.renames), "count", kPersist);
    add("support.fsync_ms", perJob(counter.fsyncNs) / 1e6, "ms",
        kPersist);
    add("support.bytes_written", perJob(counter.bytes), "count",
        kPersist);
    Json doc = harness::runToJson(prun);
    std::string text = doc.dump(2);
    auto mbPerS = [&text](const std::function<void()> &fn) {
        int reps = 0;
        int64_t t0 = nowNs();
        do {
            fn();
            ++reps;
        } while (msSince(t0) < 30.0);
        return static_cast<double>(text.size()) * reps / 1e6 /
            (msSince(t0) / 1e3);
    };
    add("support.json_dump_mb_per_s",
        mbPerS([&doc] { doc.dump(2); }), "MB/s", 1);
    add("support.json_parse_mb_per_s",
        mbPerS([&text] { Json::parse(text); }), "MB/s", 1);

    // archive, compare, explain: two three-program entries.
    add("archive.append_ms", median(appendMs), "ms", kPersist);
    std::vector<std::string> names, tierNames;
    for (const char *n : {"richards", "sieve", "hashtable"})
        names.push_back(n);
    for (vm::Tier t : kTiers)
        tierNames.push_back(vm::tierName(t));
    for (const char *label : {"pa", "pb"}) {
        serve::JobSpec es = hs;
        es.command = "suite";
        es.seed = label[1] == 'a' ? 0x2001 : 0x2002;
        std::vector<harness::RunResult> runs;
        for (const auto &n : names)
            for (vm::Tier t : kTiers) {
                harness::RunnerConfig c =
                    serve::makeRunnerConfig(es, t, nullptr, nullptr, nullptr);
                c.size = workloads::findWorkload(n).testSize;
                runs.push_back(harness::runExperiment(n, c));
            }
        ar.append(archiveConfig(es, names, tierNames), label, "suite", runs,
                  profilesFor(es, runs));
    }
    archive::ScanResult scan = ar.scan();
    add("archive.entry_kb",
        static_cast<double>(scan.entries.back().sizeBytes) / 1024.0, "KB",
        1);
    add("archive.scan_ms", medianMs(5, [&ar] { ar.scan(); }), "ms", 5);
    archive::Entry pa, pb;
    add("archive.load_ms", medianMs(5, [&] {
            pa = ar.load(scan.entries[scan.entries.size() - 2]);
        }),
        "ms", 5);
    pb = ar.load(scan.entries.back());
    compare::CompareConfig ccfg;
    compare::CompareReport report;
    add("compare.entries_ms", medianMs(3, [&] {
            report = compare::compareEntries(pa, pb, ccfg);
        }),
        "ms", 3);
    int64_t resampled = 0;
    for (const auto &w : report.workloads)
        resampled += static_cast<int64_t>(ccfg.resamples) *
            (pairSamples(pa, w.workload, w.tier) +
             pairSamples(pb, w.workload, w.tier));
    add("compare.pairs", static_cast<double>(report.workloads.size()),
        "count", 1);
    add("compare.resampled_samples", static_cast<double>(resampled),
        "count", 1);
    add("compare.gate_ms", medianMs(5, [&report] {
            compare::renderGate(compare::evaluateGate(report, 5.0), report);
        }),
        "ms", 5);
    add("compare.render_ms", medianMs(5, [&report] {
            compare::renderMarkdown(report);
            compare::reportToJson(report);
        }),
        "ms", 5);
    add("explain.profile_ms", medianMs(5, [&] {
            harness::RunnerConfig c = cfgFor(1, nullptr, nullptr);
            explain::profileToJson(explain::buildProfile(prun, c));
        }),
        "ms", 5);
    add("explain.entries_ms", medianMs(3, [&] {
            explain::explainEntries(pa, pb, report);
        }),
        "ms", 3);

    // serve: a socket query minus the same query in process, and the
    // round trip of a status op.
    std::unique_ptr<Daemon> own;
    Daemon *d = daemon_.get();
    serve::QuerySpec q;
    q.kind = "compare";
    q.baseRef = "pa";
    q.candRef = "pb";
    q.archiveDir = ps.archiveDir;
    if (!d) {
        own = std::make_unique<Daemon>(pd + "/serve");
        d = own.get();
    }
    double socketMs = medianMs(5, [&] { socketQuery(*d, q); });
    double localMs = medianMs(5, [&q] { serve::runQuery(q); });
    add("serve.rtt_ms", socketMs - localMs, "ms", 5);
    add("serve.status_ms", medianMs(20, [d] {
            d->request(serve::makeRequest("status"));
        }),
        "ms", 20);
    if (own)
        own->stop();
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: hostbench --workload measure|record|query "
                 "--seed N --seconds S --trace 0|1 [--tiny] "
                 "[--corrupt-expected] "
                 "[--commit SHA]\n"
                 "       hostbench --write-expected FILE\n");
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::runtime_error(a + " needs a value");
            return argv[++i];
        };
        if (a == "--workload") {
            o.workload = next();
            haveWorkload = true;
        } else if (a == "--seed") {
            o.seed = std::stoull(next());
        } else if (a == "--seconds") {
            o.seconds = std::stoi(next());
        } else if (a == "--trace") {
            o.trace = next() == "1";
        } else if (a == "--tiny") {
            o.tiny = true;
        } else if (a == "--corrupt-expected") {
            o.corruptExpected = true;
        } else if (a == "--write-expected") {
            o.writeExpected = next();
        } else if (a == "--commit") {
            o.commit = next();
        } else {
            throw std::runtime_error("unknown argument " + a);
        }
    }
    if (o.writeExpected.empty() &&
        (!haveWorkload ||
         (o.workload != "measure" && o.workload != "record" &&
          o.workload != "query")))
        throw std::runtime_error("--workload must be measure, record or "
                                 "query");
    if (o.seconds < 0)
        throw std::runtime_error("--seconds must be >= 0");
    return o;
}

/**
 * Regenerate expected.json at the default seed: checksums of every
 * program at its default and test size, then one round of each
 * workload, full and tiny, with digests recorded instead of checked.
 */
int
writeExpected(Options opt)
{
    Expected exp;
    exp.recording = true;
    for (const auto &w : workloads::suite())
        for (int64_t size : {w.defaultSize, w.testSize}) {
            harness::RunnerConfig cfg;
            cfg.invocations = 1;
            cfg.iterations = 1;
            cfg.size = size;
            auto run = harness::runExperiment(w, cfg);
            exp.checksums.set(strprintf("%s/%lld", w.name.c_str(),
                                        static_cast<long long>(size)),
                              run.invocations.at(0).checksum);
        }
    opt.seed = kDefaultSeed;
    opt.seconds = 0;
    for (bool tiny : {false, true})
        for (const char *wl : {"measure", "record", "query"}) {
            opt.workload = wl;
            opt.tiny = tiny;
            Bench b(opt, exp);
            b.endToEnd();
            if (b.tally.failed) {
                for (const auto &r : b.tally.reasons)
                    std::fprintf(stderr, "hostbench: %s\n", r.c_str());
                return 1;
            }
        }
    exp.save(opt.writeExpected);
    std::printf("wrote %s\n", opt.writeExpected.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Options opt = parseArgs(argc, argv);
        if (!opt.writeExpected.empty())
            return writeExpected(opt);
        printHeader(opt);
        Expected exp;
        exp.load(kExpectedPath);
        Bench b(opt, exp);
        if (opt.corruptExpected)
            exp.corrupt(b.digestKey(""));
        std::vector<Metric> metrics = opt.trace ? b.perLayer()
                                                : b.endToEnd();
        printResult(metrics, b.tally);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "hostbench: %s\n", e.what());
        usage();
        return 1;
    }
}
