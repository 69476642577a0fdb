#include "harness/report.hh"

#include <algorithm>
#include <cmath>

#include "support/csv.hh"
#include "support/logging.hh"
#include "support/schema.hh"
#include "support/str.hh"

namespace rigor {
namespace harness {

std::string
formatCi(const stats::ConfidenceInterval &ci, int places)
{
    return fmtDouble(ci.estimate, places) + " [" +
        fmtDouble(ci.lower, places) + ", " +
        fmtDouble(ci.upper, places) + "]";
}

std::string
formatCiPercent(const stats::ConfidenceInterval &ci, int places)
{
    return fmtDouble(ci.estimate, places) + " ±" +
        fmtDouble(100.0 * ci.relativeHalfWidth(), 1) + "%";
}

std::string
asciiSeries(const std::vector<double> &values, int height,
            int max_width)
{
    if (values.empty())
        return "(empty series)\n";
    // Downsample to max_width columns by averaging buckets.
    size_t n = values.size();
    size_t width = std::min<size_t>(n, static_cast<size_t>(max_width));
    std::vector<double> cols(width, 0.0);
    for (size_t c = 0; c < width; ++c) {
        size_t lo = c * n / width;
        size_t hi = std::max(lo + 1, (c + 1) * n / width);
        double sum = 0.0;
        for (size_t i = lo; i < hi; ++i)
            sum += values[i];
        cols[c] = sum / static_cast<double>(hi - lo);
    }
    double vmin = *std::min_element(cols.begin(), cols.end());
    double vmax = *std::max_element(cols.begin(), cols.end());
    double span = vmax - vmin;
    if (span <= 0.0)
        span = 1.0;

    std::string out;
    for (int row = height - 1; row >= 0; --row) {
        double threshold = vmin + span * (row + 0.5) / height;
        std::string line;
        for (size_t c = 0; c < width; ++c)
            line += cols[c] >= threshold ? '#' : ' ';
        out += "  |" + line + "\n";
    }
    out += "  +" + repeat('-', width) + "\n";
    out += "   min=" + fmtDouble(vmin, 4) + "  max=" +
        fmtDouble(vmax, 4) + "  n=" + std::to_string(n) + "\n";
    return out;
}

std::string
sparkline(const std::vector<double> &values, int max_width)
{
    static const char *levels[] = {"▁", "▂", "▃",
                                   "▄", "▅", "▆",
                                   "▇", "█"};
    if (values.empty())
        return "";
    size_t n = values.size();
    size_t width = std::min<size_t>(n, static_cast<size_t>(max_width));
    std::string out;
    double vmin = *std::min_element(values.begin(), values.end());
    double vmax = *std::max_element(values.begin(), values.end());
    double span = vmax - vmin > 0.0 ? vmax - vmin : 1.0;
    for (size_t c = 0; c < width; ++c) {
        size_t lo = c * n / width;
        size_t hi = std::max(lo + 1, (c + 1) * n / width);
        double sum = 0.0;
        for (size_t i = lo; i < hi; ++i)
            sum += values[i];
        double v = sum / static_cast<double>(hi - lo);
        int level = static_cast<int>((v - vmin) / span * 7.0 + 0.5);
        level = std::clamp(level, 0, 7);
        out += levels[level];
    }
    return out;
}

void
writeSeriesCsv(std::ostream &os, const RunResult &run)
{
    // Self-describing artifact: a comment line names the schema and
    // version before the column header, so an archived CSV can be
    // identified (and rejected on mismatch) without guessing from its
    // columns. Readers that choke on comments skip one line.
    os << "# schema=" << kSeriesCsvSchema
       << " version=" << kSeriesCsvVersion << "\n";
    CsvWriter csv(os);
    csv.writeRow({"workload", "tier", "invocation", "iteration",
                  "time_ms", "sim_cycles", "instructions", "ipc",
                  "branch_mpki", "l1d_mpki", "llc_mpki"});
    for (size_t inv = 0; inv < run.invocations.size(); ++inv) {
        const auto &samples = run.invocations[inv].samples;
        for (size_t it = 0; it < samples.size(); ++it) {
            const auto &s = samples[it];
            csv.field(run.workload)
                .field(std::string(vm::tierName(run.tier)))
                .field(static_cast<uint64_t>(inv))
                .field(static_cast<uint64_t>(it))
                .field(s.timeMs)
                .field(s.counters.cycles)
                .field(s.counters.instructions)
                .field(s.counters.ipc())
                .field(s.counters.branchMpki())
                .field(s.counters.l1dMpki())
                .field(s.counters.llcMpki());
            csv.endRow();
        }
    }
}

Json
runToJson(const RunResult &run)
{
    Json root = Json::object();
    root.set("schema", kRunSchema);
    root.set("version", kRunSchemaVersion);
    root.set("workload", run.workload);
    root.set("tier", std::string(vm::tierName(run.tier)));
    root.set("size", run.size);
    Json invs = Json::array();
    for (const auto &inv : run.invocations) {
        Json j = Json::object();
        j.set("seed", strprintf("0x%016llx",
                                static_cast<unsigned long long>(
                                    inv.invocationSeed)));
        j.set("checksum", inv.checksum);
        Json times = Json::array();
        Json cycles = Json::array();
        for (const auto &s : inv.samples) {
            times.push(s.timeMs);
            cycles.push(s.counters.cycles);
        }
        j.set("times_ms", std::move(times));
        j.set("sim_cycles", std::move(cycles));
        invs.push(std::move(j));
    }
    root.set("invocations", std::move(invs));
    // Failure bookkeeping is only emitted when present, so clean
    // dumps stay free of all-zero boilerplate.
    if (!run.failures.empty()) {
        Json fails = Json::array();
        for (const auto &f : run.failures) {
            Json j = Json::object();
            j.set("kind", std::string(failureKindName(f.kind)));
            j.set("invocation", f.invocation);
            j.set("attempt", f.attempt);
            j.set("seed", strprintf("0x%016llx",
                                    static_cast<unsigned long long>(
                                        f.seed)));
            j.set("backoff_ms", f.backoffMs);
            j.set("message", f.message);
            fails.push(std::move(j));
        }
        root.set("failures", std::move(fails));
    }
    if (run.invocationsAttempted >
        static_cast<int>(run.invocations.size()))
        root.set("invocations_attempted", run.invocationsAttempted);
    // The consecutive-failure streak feeds quarantine accounting when
    // a checkpointed run is extended; omitted when zero.
    if (run.consecutiveFailures > 0)
        root.set("consecutive_failures", run.consecutiveFailures);
    if (run.quarantined) {
        root.set("quarantined", true);
        root.set("quarantine_reason", run.quarantineReason);
    }
    return root;
}

namespace {

FailureKind
failureKindFromName(const std::string &name)
{
    if (name == "vm-error")
        return FailureKind::VmError;
    if (name == "checksum-mismatch")
        return FailureKind::ChecksumMismatch;
    if (name == "deadline-exceeded")
        return FailureKind::DeadlineExceeded;
    fatal("unknown failure kind '%s'", name.c_str());
}

} // namespace

RunResult
runFromJson(const Json &doc)
{
    // Reject a document that *claims* to be something else or a
    // future layout; accept documents with no schema field at all
    // (artifacts from before runs were self-describing).
    if (const Json *schema = doc.get("schema")) {
        if (schema->asString() != kRunSchema)
            fatal("runFromJson: document schema is '%s', expected "
                  "'%s'",
                  schema->asString().c_str(), kRunSchema);
        int64_t v = doc.at("version").asInt();
        if (v != kRunSchemaVersion)
            fatal("runFromJson: unsupported %s version %lld (this "
                  "build reads version %d)",
                  kRunSchema, static_cast<long long>(v),
                  kRunSchemaVersion);
    }
    RunResult run;
    run.workload = doc.at("workload").asString();
    run.tier = vm::tierFromName(doc.at("tier").asString());
    run.size = doc.at("size").asInt();

    const Json &invs = doc.at("invocations");
    for (size_t i = 0; i < invs.size(); ++i) {
        const Json &j = invs.at(i);
        InvocationResult inv;
        inv.invocationSeed = static_cast<uint64_t>(
            std::strtoull(j.at("seed").asString().c_str(), nullptr,
                          0));
        inv.checksum = j.at("checksum").asInt();
        const Json &times = j.at("times_ms");
        const Json &cycles = j.at("sim_cycles");
        if (times.size() != cycles.size())
            fatal("runFromJson: times/cycles length mismatch");
        for (size_t k = 0; k < times.size(); ++k) {
            IterationSample s;
            s.timeMs = times.at(k).asDouble();
            s.counters.cycles =
                static_cast<uint64_t>(cycles.at(k).asInt());
            inv.samples.push_back(std::move(s));
        }
        if (inv.samples.empty())
            fatal("runFromJson: invocation %zu has no samples", i);
        run.invocations.push_back(std::move(inv));
    }
    if (const Json *fails = doc.get("failures")) {
        for (size_t i = 0; i < fails->size(); ++i) {
            const Json &j = fails->at(i);
            InvocationFailure f;
            f.kind = failureKindFromName(j.at("kind").asString());
            f.invocation =
                static_cast<int>(j.at("invocation").asInt());
            f.attempt = static_cast<int>(j.at("attempt").asInt());
            f.seed = static_cast<uint64_t>(
                std::strtoull(j.at("seed").asString().c_str(),
                              nullptr, 0));
            f.backoffMs = j.at("backoff_ms").asDouble();
            f.message = j.at("message").asString();
            run.failures.push_back(std::move(f));
        }
    }
    run.invocationsAttempted =
        static_cast<int>(run.invocations.size());
    if (const Json *attempted = doc.get("invocations_attempted"))
        run.invocationsAttempted =
            static_cast<int>(attempted->asInt());
    if (const Json *cf = doc.get("consecutive_failures"))
        run.consecutiveFailures = static_cast<int>(cf->asInt());
    if (const Json *q = doc.get("quarantined"))
        run.quarantined = q->asBool();
    if (const Json *r = doc.get("quarantine_reason"))
        run.quarantineReason = r->asString();
    // A run with zero successful invocations is only meaningful if it
    // carries the failure records explaining why.
    if (run.invocations.empty() && run.failures.empty())
        fatal("runFromJson: no invocations");
    return run;
}

namespace {

Json
speedupToJson(const SpeedupResult &sp)
{
    Json s = Json::object();
    s.set("estimate", sp.ci.estimate);
    s.set("lower", sp.ci.lower);
    s.set("upper", sp.ci.upper);
    s.set("confidence", sp.ci.confidence);
    s.set("significant", sp.significant);
    return s;
}

SpeedupResult
speedupFromJson(const Json &s)
{
    SpeedupResult sp;
    sp.ci.estimate = s.at("estimate").asDouble();
    sp.ci.lower = s.at("lower").asDouble();
    sp.ci.upper = s.at("upper").asDouble();
    sp.ci.confidence = s.at("confidence").asDouble();
    sp.significant = s.at("significant").asBool();
    return sp;
}

} // namespace

const SuiteWorkloadState *
SuiteState::find(const std::string &name) const
{
    for (const auto &w : workloads)
        if (w.name == name)
            return &w;
    return nullptr;
}

Json
suiteStateToJson(const SuiteState &state)
{
    Json root = Json::object();
    root.set("seed", strprintf("0x%016llx",
                               static_cast<unsigned long long>(
                                   state.seed)));
    root.set("invocations", state.invocations);
    root.set("iterations", state.iterations);
    Json wls = Json::array();
    for (const auto &w : state.workloads) {
        Json j = Json::object();
        j.set("name", w.name);
        j.set("failed", w.failed);
        j.set("quarantined", w.quarantined);
        j.set("failures", w.failureCount);
        j.set("modelled_ms", w.modelledMs);
        if (!w.failed) {
            j.set("interp_ms", w.interpMs);
            j.set("adaptive_ms", w.adaptiveMs);
            j.set("threaded_ms", w.threadedMs);
            j.set("speedup", speedupToJson(w.speedup));
            j.set("threaded_speedup",
                  speedupToJson(w.threadedSpeedup));
        }
        wls.push(std::move(j));
    }
    root.set("workloads", std::move(wls));
    return root;
}

SuiteState
suiteStateFromJson(const Json &doc)
{
    SuiteState state;
    state.seed = static_cast<uint64_t>(
        std::strtoull(doc.at("seed").asString().c_str(), nullptr, 0));
    state.invocations =
        static_cast<int>(doc.at("invocations").asInt());
    state.iterations = static_cast<int>(doc.at("iterations").asInt());
    const Json &wls = doc.at("workloads");
    for (size_t i = 0; i < wls.size(); ++i) {
        const Json &j = wls.at(i);
        SuiteWorkloadState w;
        w.name = j.at("name").asString();
        if (w.name.empty())
            fatal("suiteStateFromJson: workload %zu has no name", i);
        w.failed = j.at("failed").asBool();
        w.quarantined = j.at("quarantined").asBool();
        w.failureCount = static_cast<int>(j.at("failures").asInt());
        // Absent in state files from before the heartbeat existed.
        if (const Json *ms = j.get("modelled_ms"))
            w.modelledMs = ms->asDouble();
        if (!w.failed) {
            w.interpMs = j.at("interp_ms").asDouble();
            w.adaptiveMs = j.at("adaptive_ms").asDouble();
            // Strict: pre-threaded-tier state files are rejected here
            // (their measurements cover two tiers, not three; resuming
            // would record a suite that never measured threaded).
            w.threadedMs = j.at("threaded_ms").asDouble();
            w.speedup = speedupFromJson(j.at("speedup"));
            w.threadedSpeedup =
                speedupFromJson(j.at("threaded_speedup"));
        }
        state.workloads.push_back(std::move(w));
    }
    return state;
}

} // namespace harness
} // namespace rigor
