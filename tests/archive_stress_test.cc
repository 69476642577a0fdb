/**
 * @file
 * Concurrent-archive stress test: several forked appender processes
 * race several forked reader processes against one archive directory.
 * The advisory lock must serialize the appends (ids dense, none lost
 * or duplicated), while readers — scans, HEAD resolution, full entry
 * loads — never block on the lock, never observe a torn entry, and
 * never quarantine anything merely because a writer was mid-append.
 * This is the multi-tenant guarantee the serve daemon leans on when
 * it answers `query` ops while worker threads append results
 * (docs/METHODOLOGY.md §17).
 */

#include <sys/types.h>
#include <sys/wait.h>

#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "archive/archive.hh"
#include "archive/fsck.hh"
#include "support/json.hh"
#include "support/logging.hh"

namespace rigor {
namespace archive {
namespace {

constexpr int kAppenders = 4;
constexpr int kAppendsEach = 6;
constexpr int kReaders = 3;

/** Fresh scratch directory, removed on destruction. */
class ScratchDir
{
  public:
    ScratchDir()
    {
        char tmpl[] = "/tmp/rigor_stress_XXXXXX";
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

    const std::string &dir() const { return dir_; }

    std::string path(const std::string &name) const
    {
        return dir_ + "/" + name;
    }

  private:
    std::string dir_;
};

harness::RunResult
makeRun(const std::string &workload)
{
    harness::RunResult run;
    run.workload = workload;
    run.tier = vm::Tier::Interp;
    run.size = 10;
    harness::InvocationResult ir;
    ir.invocationSeed = 7;
    harness::IterationSample s;
    s.timeMs = 1.25;
    ir.samples.push_back(s);
    run.invocations.push_back(ir);
    run.invocationsAttempted = 1;
    return run;
}

/**
 * Run `fn` in a forked child. The child _exit()s with 0 on clean
 * completion and a nonzero code on any thrown exception, so a failure
 * inside a child surfaces as a waitpid status in the parent (gtest
 * assertions do not propagate across fork).
 */
template <typename Fn>
::pid_t
spawn(Fn fn)
{
    ::pid_t pid = ::fork();
    EXPECT_GE(pid, 0);
    if (pid == 0) {
        // Children must not warn onto the test's stderr: a reader
        // racing a writer is *expected* to retry, not to narrate.
        setQuiet(true);
        int rc = 0;
        try {
            rc = fn();
        } catch (...) {
            rc = 9;
        }
        ::_exit(rc);
    }
    return pid;
}

int
reap(::pid_t pid)
{
    int status = 0;
    ::waitpid(pid, &status, 0);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/** Appender child: `kAppendsEach` labeled appends, ids recorded. */
int
appenderBody(const std::string &dir, int who)
{
    RunArchive ar(dir);
    int previous = 0;
    for (int i = 0; i < kAppendsEach; ++i) {
        int id = ar.append(Json::object(),
                           strprintf("w%d", who), "run",
                           {makeRun(strprintf("wl%d", i))});
        // Ids grow monotonically even from this single process's
        // point of view; going backwards would mean a lost update.
        if (id <= previous)
            return 4;
        previous = id;
    }
    return 0;
}

/**
 * Reader child: scan/resolve/load in a loop while writers are busy.
 * Every observation must be internally consistent — strictly
 * ascending unique ids, loadable newest entry — and nothing may be
 * quarantined, because concurrent appends leave only complete,
 * checksummed entries behind.
 */
int
readerBody(const std::string &dir)
{
    RunArchive ar(dir);
    for (int round = 0; round < 25; ++round) {
        ScanResult scan = ar.scan();
        if (!scan.quarantined.empty())
            return 5;
        int previous = 0;
        for (const EntrySummary &e : scan.entries) {
            if (e.id <= previous)
                return 6;
            previous = e.id;
        }
        if (!scan.entries.empty()) {
            // A full load of the newest entry: a torn write would
            // fail its checksum and throw (mapped to exit 9).
            Entry head = ar.resolve("HEAD");
            if (head.runs.empty())
                return 7;
            if (head.summary.id != scan.entries.back().id &&
                head.summary.id < scan.entries.back().id)
                return 8;
        }
    }
    return 0;
}

TEST(ArchiveStress, ForkedAppendersAndReadersStayConsistent)
{
    ScratchDir scratch;
    std::string dir = scratch.path("archive");
    {
        // Seed one entry (and the directory) so readers start with
        // something to resolve and neither child races mkdir.
        RunArchive ar(dir);
        ASSERT_EQ(ar.append(Json::object(), "seed", "run",
                            {makeRun("seed")}),
                  1);
    }

    std::vector<::pid_t> children;
    for (int w = 0; w < kAppenders; ++w)
        children.push_back(
            spawn([&dir, w] { return appenderBody(dir, w); }));
    for (int r = 0; r < kReaders; ++r)
        children.push_back(spawn([&dir] { return readerBody(dir); }));
    for (::pid_t pid : children)
        EXPECT_EQ(reap(pid), 0);

    // Final accounting: every append landed exactly once, ids dense
    // from 1, per-writer counts intact, and fsck agrees the
    // directory is clean.
    RunArchive ar(dir);
    ScanResult scan = ar.scan();
    const size_t expected = 1 + kAppenders * kAppendsEach;
    ASSERT_EQ(scan.entries.size(), expected);
    EXPECT_EQ(scan.quarantinedPresent, 0);
    std::set<int> ids;
    std::vector<int> perWriter(kAppenders, 0);
    for (size_t i = 0; i < scan.entries.size(); ++i) {
        const EntrySummary &e = scan.entries[i];
        EXPECT_EQ(e.id, static_cast<int>(i) + 1);
        EXPECT_TRUE(ids.insert(e.id).second);
        for (int w = 0; w < kAppenders; ++w)
            perWriter[w] += e.label == strprintf("w%d", w);
    }
    for (int w = 0; w < kAppenders; ++w)
        EXPECT_EQ(perWriter[w], kAppendsEach);
    EXPECT_TRUE(fsckArchive(dir, false).clean());
}

} // namespace
} // namespace archive
} // namespace rigor
