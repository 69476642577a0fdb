/**
 * @file
 * Golden artifacts: pinned digests of what a fixed set of `run` jobs
 * writes. Each case's --json report, --metrics snapshot, --trace
 * document, log stream and stdout (with the exit code) are hashed
 * with FNV-1a and compared with digests captured from a known-good
 * build. Every case runs at --jobs 1 and --jobs 4, and both must
 * match the same digests.
 *
 * --jobs 1 and --jobs N render through the same commit path, so
 * comparing them with each other cannot show that the emission order
 * of metrics, trace events and log lines is unchanged. These pins
 * can. A deliberate change to an artifact format must update them
 * and say so.
 *
 * Two more pins cover what `run` artifacts do not show: the
 * profiler's branch and allocation site tables (`rigorbench profile`)
 * and the archived behaviour profile, whose `vm.allocated_bytes`
 * (16 B-rounded) and `counters.allocated_bytes` (unrounded) come from
 * different VM totals.
 */

#include <cstdlib>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "explain/behavior_profile.hh"
#include "harness/profile.hh"
#include "serve/jobrun.hh"
#include "serve/jobspec.hh"
#include "support/durable_io.hh"
#include "support/fingerprint.hh"
#include "support/logging.hh"

namespace rigor {
namespace serve {
namespace {

/** Fresh scratch directory, removed on destruction. */
class ScratchDir
{
  public:
    ScratchDir()
    {
        char tmpl[] = "/tmp/rigor_golden_XXXXXX";
        const char *d = ::mkdtemp(tmpl);
        EXPECT_NE(d, nullptr);
        dir_ = d ? d : ".";
    }

    ~ScratchDir()
    {
        std::string cmd = "rm -rf '" + dir_ + "'";
        int rc = std::system(cmd.c_str());
        (void)rc;
    }

    std::string path(const std::string &name) const
    {
        return dir_ + "/" + name;
    }

    const std::string &dir() const { return dir_; }

  private:
    std::string dir_;
};

std::string
digest(const std::string &bytes)
{
    return strprintf("%016llx",
                     static_cast<unsigned long long>(fnv1a64(bytes)));
}

std::string
fileDigest(const std::string &path)
{
    std::string bytes;
    EXPECT_TRUE(readFile(path, bytes)) << path;
    return digest(bytes);
}

/** Replace every occurrence of `from` in `s` with `to`. */
std::string
replaceAll(std::string s, const std::string &from,
           const std::string &to)
{
    for (size_t at = s.find(from); at != std::string::npos;
         at = s.find(from, at + to.size()))
        s.replace(at, from.size(), to);
    return s;
}

/** One fault configuration and the digests it must reproduce. */
struct Golden
{
    const char *inject;  ///< --inject spec ("" = clean)
    /** --deadline-ms (0 = none). The stall rows trip it after two or
     *  more iterations, one of them on the last iteration. */
    double deadlineMs;
    /** "json metrics trace log stdout" digests, space-separated. */
    const char *digests;
};

/**
 * Run one `run` job with every artifact and return its digests in
 * Golden::digests order. Artifact paths are replaced by a fixed
 * placeholder in stdout so the digest does not depend on the scratch
 * directory.
 */
std::string
runDigests(const char *workload, vm::Tier tier, int jit_threshold,
           const Golden &g, int jobs)
{
    ScratchDir dir;
    JobSpec spec;
    spec.command = "run";
    spec.workload = workload;
    spec.tier = tier;
    spec.invocations = 6;
    spec.iterations = 5;
    spec.size = 10;
    spec.seed = 0xabc;
    spec.jitThreshold = jit_threshold;
    spec.jobs = jobs;
    spec.deadlineMs = g.deadlineMs;
    if (*g.inject)
        spec.injectSpecs.push_back(g.inject);
    spec.jsonPath = dir.path("run.json");
    spec.metricsPath = dir.path("metrics.json");
    spec.tracePath = dir.path("trace.json");

    std::string out, log;
    JobHooks hooks;
    hooks.output = [&out](const std::string &chunk) { out += chunk; };
    LogSink prev =
        setLogSink([&log](LogLevel level, const std::string &msg) {
            log += strprintf("%s: %s\n", logLevelName(level),
                             msg.c_str());
        });
    int rc = executeJob(spec, hooks);
    setLogSink(std::move(prev));
    out = replaceAll(out, dir.dir(), "DIR");
    out += strprintf("exit %d\n", rc);

    return fileDigest(spec.jsonPath) + " " +
        fileDigest(spec.metricsPath) + " " +
        fileDigest(spec.tracePath) + " " + digest(log) + " " +
        digest(out);
}

void
expectGolden(const char *workload, vm::Tier tier, int jit_threshold,
             const std::vector<Golden> &table)
{
    for (const Golden &g : table) {
        for (int jobs : {1, 4}) {
            SCOPED_TRACE(strprintf("%s/%s inject='%s' deadline=%g "
                                   "jobs=%d",
                                   workload, vm::tierName(tier),
                                   g.inject, g.deadlineMs, jobs));
            EXPECT_EQ(
                runDigests(workload, tier, jit_threshold, g, jobs),
                g.digests);
        }
    }
}

// Threshold 100 makes nbody compile on the adaptive tier at size 10;
// the other tiers ignore it.
constexpr int kNbodyJitThreshold = 100;

TEST(GoldenArtifacts, NbodyInterp)
{
    expectGolden("nbody", vm::Tier::Interp, kNbodyJitThreshold, {
        {"", 0,
         "a52ccf9d4aee94da a0c7cfe9579e7254 343186c77fe6825d "
         "cbf29ce484222325 f246f4be124d0333"},
        {"throw:inv=1:n=1", 0,
         "2224bfa3ba200eda 2517684622872263 cd93497889bcce0a "
         "3500bc64ee68e574 5247aca20c5b79ca"},
        {"checksum:inv=2:n=1", 0,
         "6ad9620312e4a1ac 6df60e0384b9c45c 4b256fd38c44e969 "
         "774bebfd21a3e6cc cebc120db8e112e8"},
        {"stall:inv=1:n=1", 60,
         "79a44a1f905e0ef5 b9b5f358afd6c528 c95acfafac02ab8f "
         "14facedecd83ccdb 8c56be5f69f432d9"},
        {"ramp", 0,
         "9f579cf550963e08 005928fce95dc983 8dd883fbabe9cab8 "
         "cbf29ce484222325 610fe63678d37350"},
        {"throw:n=1000", 0,
         "edead4a05d31d90f 23eb72852cdc3bc7 aa11202b363dbb8b "
         "13d7c75ca0b7dae5 26dbb6345f309152"},
    });
}

TEST(GoldenArtifacts, NbodyAdaptive)
{
    expectGolden("nbody", vm::Tier::Adaptive, kNbodyJitThreshold, {
        {"", 0,
         "e251f5ae1cb374dc 1239649e49c15009 52fac43f8a361acd "
         "cbf29ce484222325 62768d2bf2f59b6a"},
        {"throw:inv=1:n=1", 0,
         "56815ef6c52af120 9396d0ef18852697 be9378df06c9366e "
         "3500bc64ee68e574 f39d6fe2d8b35457"},
        {"checksum:inv=2:n=1", 0,
         "10deca6dbe4de4b6 d2711125f920c0bf e8f15bbf67613c73 "
         "774bebfd21a3e6cc 621722955247cb0a"},
        {"stall:inv=1:n=1", 75,
         "8a59d079b85b3a9a c76230e6adb45387 46b992046aca3eca "
         "080348beb3b3cdbe 5a78da04b8333e65"},
        {"stall:inv=1:n=1", 90,
         "0c860720dd0ee2bc 651e3bfb0ab1fbd7 1357baba4c4d5a4a "
         "d74a61314fe58048 098304383078a71f"},
        {"ramp", 0,
         "b6548e36ed2e28b5 4610b3f0078d4733 07892e192ba9556d "
         "cbf29ce484222325 f7403e254275dfc1"},
        {"throw:n=1000", 0,
         "b3a7554418c11c0f 23eb72852cdc3bc7 f094499ea73671df "
         "13d7c75ca0b7dae5 d6755baa376ca652"},
    });
}

TEST(GoldenArtifacts, NbodyThreaded)
{
    expectGolden("nbody", vm::Tier::Threaded, kNbodyJitThreshold, {
        {"", 0,
         "1f15f1393aa8e436 2d97732da7d5d5cf 483d4236a54318b9 "
         "cbf29ce484222325 391db7bd2ce1ca98"},
        {"throw:inv=1:n=1", 0,
         "f11f16e5dd764be3 960740a034282645 081bbea67309e1a8 "
         "3500bc64ee68e574 dd99beadb40340f4"},
        {"checksum:inv=2:n=1", 0,
         "b855e3db8fb45121 4faaab319e31e582 795078369020fcec "
         "774bebfd21a3e6cc 22507c9acee28489"},
        {"stall:inv=1:n=1", 30,
         "76a0ae5a1bf7caae 52181de013179f2e 565034a97e7c893a "
         "feea75f4ac87a7a9 c046cb95b9e93cdd"},
        {"ramp", 0,
         "aa0c29ee167fc104 19186f897a05f261 19fc41602f7478f3 "
         "cbf29ce484222325 792ae2cd709356be"},
        {"throw:n=1000", 0,
         "15fde68adf948d56 23eb72852cdc3bc7 c4b7548aa0da9172 "
         "13d7c75ca0b7dae5 640d33d4f6923c7d"},
    });
}

// richards at threshold 50 fails more than kMaxDeoptInstants guards
// per invocation, so the deopt cap shapes the trace.
TEST(GoldenArtifacts, RichardsAdaptiveDeoptCap)
{
    expectGolden("richards", vm::Tier::Adaptive, 50, {
        {"", 0,
         "9d84c8355d1bc285 1958066c2ae58f23 2b70496a0d087499 "
         "cbf29ce484222325 bc3133f6f6d01b24"},
        {"throw:inv=1:n=1", 0,
         "a428bae2a2111102 2e2dd1beee6efca5 28cb7613839865fa "
         "f8b25e52648c2c48 af2cdd7f674fcc8a"},
        {"checksum:inv=2:n=1", 0,
         "a710a9ae7e24daf9 725de32838e67069 5c6d9b0e903572bc "
         "c75d880b340a2c2b 284a24cd29bcb561"},
        {"stall:inv=1:n=1", 30,
         "4aa5384fc0dfa5e3 571038c6a99632e8 0194a67d4ab538fa "
         "9a6a1482773b48db a3ecbec3f44c52ad"},
        {"ramp", 0,
         "53804576a0cabaa0 55dd32baec5ae4df 2dae25d1775cfd9b "
         "cbf29ce484222325 0aca9d065fd96394"},
        {"throw:n=1000", 0,
         "be0db3a77157a5af 23eb72852cdc3bc7 ed870bb05c84019d "
         "4763b3dd0f602a53 4a876e6788795712"},
    });
}

// The rendered profile of sieve and richards on every tier. Threshold
// 50 makes both compile on the adaptive tier (richards also fails
// guards there), so compiled-code fetches and deopts are in the mix.
TEST(GoldenArtifacts, ProfileSiteTables)
{
    struct Case
    {
        const char *workload;
        vm::Tier tier;
        const char *digest;
    };
    const Case cases[] = {
        {"sieve", vm::Tier::Interp, "5583d38851301419"},
        {"sieve", vm::Tier::Adaptive, "61b97171e950abfe"},
        {"sieve", vm::Tier::Threaded, "f90648001fe848e0"},
        {"richards", vm::Tier::Interp, "916537befe66e091"},
        {"richards", vm::Tier::Adaptive, "02aa3cdc64b446d9"},
        {"richards", vm::Tier::Threaded, "b79afcd81e567695"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(strprintf("%s/%s", c.workload,
                               vm::tierName(c.tier)));
        harness::ProfileConfig cfg;
        cfg.tier = c.tier;
        cfg.iterations = 4;
        cfg.size = workloads::findWorkload(c.workload).testSize;
        cfg.jitThreshold = 50;
        EXPECT_EQ(digest(harness::renderProfile(
                      harness::profileWorkload(c.workload, cfg))),
                  c.digest);
    }
}

// The archived behaviour profile of one adaptive run.
TEST(GoldenArtifacts, BehaviorProfileAdaptive)
{
    harness::RunnerConfig cfg;
    cfg.invocations = 3;
    cfg.iterations = 5;
    cfg.tier = vm::Tier::Adaptive;
    cfg.jitThreshold = 50;
    cfg.seed = 0xabc;
    cfg.size = workloads::findWorkload("richards").testSize;
    harness::RunResult run = harness::runExperiment("richards", cfg);
    Json j = explain::profileToJson(explain::buildProfile(run, cfg));
    EXPECT_NE(j.at("vm").at("allocated_bytes").dump(),
              j.at("counters").at("allocated_bytes").dump());
    EXPECT_EQ(digest(j.dump(2)), "2a7e93474655f09d");
}

} // namespace
} // namespace serve
} // namespace rigor
