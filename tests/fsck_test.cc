/**
 * @file
 * Archive fsck tests: one test per defect class (verify-only reports
 * the defect with the action it *would* take; --repair fixes it and a
 * second pass comes back clean), plus the notice classes that must
 * never count as damage, the fsck.* metrics, and the JSON report
 * schema. The last tests hold RunArchive::scan to fsck's verdicts:
 * both read entries by the one rule in archive/entry_format.hh.
 */

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <string>

#include <unistd.h>

#include <gtest/gtest.h>

#include "archive/archive.hh"
#include "archive/entry_format.hh"
#include "archive/fsck.hh"
#include "support/durable_io.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/schema.hh"

namespace rigor {
namespace archive {
namespace {

/** Fresh scratch directory, removed on destruction. */
class ScratchDir
{
  public:
    ScratchDir()
    {
        char tmpl[] = "/tmp/rigor_fsck_XXXXXX";
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
    ir.invocationSeed = 3;
    harness::IterationSample s;
    s.timeMs = 2.0;
    ir.samples.push_back(s);
    run.invocations.push_back(ir);
    run.invocationsAttempted = 1;
    return run;
}

/** An archive with `n` healthy entries (ids 1..n). */
void
seedArchive(const std::string &dir, int n)
{
    RunArchive ar(dir);
    for (int i = 1; i <= n; ++i)
        ASSERT_EQ(ar.append(Json::object(), "", "run",
                            {makeRun(strprintf("w%d", i))}),
                  i);
}

void
writeRaw(const std::string &path, const std::string &content)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << content;
    ASSERT_TRUE(os.good());
}

std::string
readRaw(const std::string &path)
{
    std::string out;
    EXPECT_TRUE(readFile(path, out));
    return out;
}

/** The single finding of kind `kind`, or nullptr. */
const FsckFinding *
findingOf(const FsckReport &report, const std::string &kind)
{
    const FsckFinding *found = nullptr;
    for (const auto &f : report.findings)
        if (f.kind == kind) {
            EXPECT_EQ(found, nullptr)
                << "duplicate " << kind << " finding";
            found = &f;
        }
    return found;
}

TEST(Fsck, CleanArchiveIsClean)
{
    ScratchDir scratch;
    seedArchive(scratch.dir(), 2);
    FsckReport report = fsckArchive(scratch.dir(), false);
    EXPECT_EQ(report.entriesScanned, 2);
    EXPECT_EQ(report.entriesOk, 2);
    EXPECT_EQ(report.defects(), 0);
    EXPECT_EQ(report.headId, 2);
    EXPECT_TRUE(report.clean());
    EXPECT_TRUE(report.findings.empty());
    EXPECT_NE(renderFsck(report).find("archive is clean"),
              std::string::npos);
}

TEST(Fsck, MissingDirectoryIsFatal)
{
    EXPECT_THROW(fsckArchive("/tmp/rigor_fsck_does_not_exist_42",
                             false),
                 FatalError);
}

TEST(Fsck, OrphanTmpIsReportedThenSwept)
{
    ScratchDir scratch;
    seedArchive(scratch.dir(), 1);
    std::string tmp = scratch.path("entry-000002.json.tmp");
    writeRaw(tmp, "half-written");

    FsckReport verify = fsckArchive(scratch.dir(), false);
    const FsckFinding *f = findingOf(verify, "orphan-tmp");
    ASSERT_NE(f, nullptr);
    EXPECT_FALSE(f->repaired);
    EXPECT_EQ(f->action, "remove");
    EXPECT_FALSE(verify.clean());
    // Verify-only never touches the directory.
    EXPECT_EQ(::access(tmp.c_str(), F_OK), 0);

    FsckReport repair = fsckArchive(scratch.dir(), true);
    ASSERT_NE(findingOf(repair, "orphan-tmp"), nullptr);
    EXPECT_TRUE(findingOf(repair, "orphan-tmp")->repaired);
    EXPECT_TRUE(repair.clean());
    EXPECT_NE(::access(tmp.c_str(), F_OK), 0);
    EXPECT_TRUE(fsckArchive(scratch.dir(), false).clean());
}

TEST(Fsck, CorruptMainIsRestoredFromBackup)
{
    ScratchDir scratch;
    seedArchive(scratch.dir(), 1);
    std::string main = scratch.path("entry-000001.json");
    std::string good = readRaw(main);
    writeRaw(main + ".bak", good);
    writeRaw(main, good.substr(0, good.size() / 2)); // torn main

    FsckReport verify = fsckArchive(scratch.dir(), false);
    const FsckFinding *f = findingOf(verify, "corrupt-main");
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->action, "restore from backup");
    EXPECT_FALSE(verify.clean());

    FsckReport repair = fsckArchive(scratch.dir(), true);
    EXPECT_TRUE(repair.clean());
    EXPECT_EQ(repair.entriesOk, 1);
    EXPECT_EQ(repair.headId, 1);
    // The restored main verifies on its own, no backup fallback.
    EXPECT_FALSE(loadStateFile(main).usedBackup);
    RunArchive ar(scratch.dir());
    ScanResult scan = ar.scan();
    ASSERT_EQ(scan.entries.size(), 1u);
    EXPECT_EQ(ar.load(scan.entries[0]).runs[0].workload, "w1");
}

TEST(Fsck, MissingMainIsRestoredFromBackup)
{
    ScratchDir scratch;
    seedArchive(scratch.dir(), 2);
    std::string main = scratch.path("entry-000002.json");
    writeRaw(main + ".bak", readRaw(main));
    ASSERT_EQ(::unlink(main.c_str()), 0);

    FsckReport verify = fsckArchive(scratch.dir(), false);
    const FsckFinding *f = findingOf(verify, "missing-main");
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->action, "restore from backup");

    FsckReport repair = fsckArchive(scratch.dir(), true);
    EXPECT_TRUE(repair.clean());
    EXPECT_EQ(repair.headId, 2);
    EXPECT_EQ(::access(main.c_str(), F_OK), 0);
    RunArchive ar(scratch.dir());
    EXPECT_EQ(ar.scan().entries.size(), 2u);
}

TEST(Fsck, CorruptEntryWithoutBackupIsQuarantined)
{
    ScratchDir scratch;
    seedArchive(scratch.dir(), 2);
    std::string main = scratch.path("entry-000001.json");
    writeRaw(main, "not json at all");
    writeRaw(main + ".bak", "also damaged"); // backup unusable too

    FsckReport verify = fsckArchive(scratch.dir(), false);
    const FsckFinding *f = findingOf(verify, "corrupt-entry");
    ASSERT_NE(f, nullptr);
    EXPECT_NE(f->detail.find("backup:"), std::string::npos);
    EXPECT_EQ(f->action, "quarantine");

    FsckReport repair = fsckArchive(scratch.dir(), true);
    EXPECT_TRUE(repair.clean());
    // Both damaged copies moved aside, still visible for forensics.
    EXPECT_EQ(repair.quarantinedPresent, 2);
    EXPECT_NE(::access(main.c_str(), F_OK), 0);
    EXPECT_EQ(::access((main + ".quarantine").c_str(), F_OK), 0);
    EXPECT_EQ(
        ::access((main + ".bak.quarantine").c_str(), F_OK), 0);
    // Entry 2 is untouched and HEAD.
    EXPECT_EQ(repair.headId, 2);
}

TEST(Fsck, OrphanBackupIsQuarantined)
{
    ScratchDir scratch;
    seedArchive(scratch.dir(), 1);
    std::string bak = scratch.path("entry-000005.json.bak");
    writeRaw(bak, "stale damaged backup");

    FsckReport verify = fsckArchive(scratch.dir(), false);
    ASSERT_NE(findingOf(verify, "orphan-bak"), nullptr);

    FsckReport repair = fsckArchive(scratch.dir(), true);
    EXPECT_TRUE(repair.clean());
    EXPECT_NE(::access(bak.c_str(), F_OK), 0);
    EXPECT_EQ(::access((bak + ".quarantine").c_str(), F_OK), 0);
}

TEST(Fsck, NonCanonicalNameIsRenamed)
{
    ScratchDir scratch;
    seedArchive(scratch.dir(), 1);
    // A hand-renamed (or ancient-tool) entry: valid content, sloppy
    // digit count. Its id (5) is otherwise unused.
    writeRaw(scratch.path("entry-5.json"),
             readRaw(scratch.path("entry-000001.json")));

    FsckReport verify = fsckArchive(scratch.dir(), false);
    const FsckFinding *f = findingOf(verify, "non-canonical-name");
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->action, "rename to entry-000005.json");

    FsckReport repair = fsckArchive(scratch.dir(), true);
    EXPECT_TRUE(repair.clean());
    EXPECT_EQ(repair.entriesOk, 2);
    EXPECT_EQ(repair.headId, 5);
    EXPECT_EQ(
        ::access(scratch.path("entry-000005.json").c_str(), F_OK),
        0);
    RunArchive ar(scratch.dir());
    ScanResult scan = ar.scan();
    ASSERT_EQ(scan.entries.size(), 2u);
    EXPECT_EQ(scan.entries[1].id, 5);
}

TEST(Fsck, DuplicateIdIsQuarantined)
{
    ScratchDir scratch;
    seedArchive(scratch.dir(), 1);
    // entry-1.json aliases entry-000001.json's id; renaming would
    // clobber the canonical file, so fsck moves the alias aside.
    writeRaw(scratch.path("entry-1.json"),
             readRaw(scratch.path("entry-000001.json")));

    FsckReport verify = fsckArchive(scratch.dir(), false);
    const FsckFinding *f = findingOf(verify, "duplicate-id");
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->action, "quarantine");

    FsckReport repair = fsckArchive(scratch.dir(), true);
    EXPECT_TRUE(repair.clean());
    EXPECT_NE(::access(scratch.path("entry-1.json").c_str(), F_OK),
              0);
    EXPECT_EQ(
        ::access(scratch.path("entry-1.json.quarantine").c_str(),
                 F_OK),
        0);
    EXPECT_EQ(repair.entriesOk, 1);
}

TEST(Fsck, FutureVersionIsANoticeLeftInPlace)
{
    ScratchDir scratch;
    seedArchive(scratch.dir(), 1);
    Json payload = Json::object();
    payload.set("schema", kArchiveEntrySchema);
    payload.set("version", 999);
    std::string p = scratch.path("entry-000002.json");
    writeStateFile(p, payload);
    std::string before = readRaw(p);

    FsckReport repair = fsckArchive(scratch.dir(), true);
    const FsckFinding *f = findingOf(repair, "future-version");
    ASSERT_NE(f, nullptr);
    EXPECT_TRUE(f->notice);
    EXPECT_EQ(f->action, "left in place");
    // Notices never make the archive unhealthy and repair never
    // touches data a newer build owns.
    EXPECT_TRUE(repair.clean());
    EXPECT_EQ(repair.defects(), 0);
    EXPECT_EQ(readRaw(p), before);
    // The future entry is scanned but not "ok for this build".
    EXPECT_EQ(repair.entriesScanned, 2);
    EXPECT_EQ(repair.entriesOk, 1);
    EXPECT_EQ(repair.headId, 1);
}

TEST(Fsck, StrayFileIsANotice)
{
    ScratchDir scratch;
    seedArchive(scratch.dir(), 1);
    writeRaw(scratch.path("notes.txt"), "lab notebook");

    FsckReport repair = fsckArchive(scratch.dir(), true);
    const FsckFinding *f = findingOf(repair, "stray-file");
    ASSERT_NE(f, nullptr);
    EXPECT_TRUE(f->notice);
    EXPECT_TRUE(repair.clean());
    EXPECT_EQ(::access(scratch.path("notes.txt").c_str(), F_OK), 0);
}

TEST(Fsck, MetricsCountersArePopulated)
{
    ScratchDir scratch;
    seedArchive(scratch.dir(), 2);
    writeRaw(scratch.path("entry-000003.json.tmp"), "torn");
    writeRaw(scratch.path("entry-000001.json"), "garbage");

    MetricsRegistry metrics;
    FsckReport repair = fsckArchive(scratch.dir(), true, &metrics);
    EXPECT_TRUE(repair.clean());
    EXPECT_EQ(metrics.counter("fsck.entries_scanned").value(), 2u);
    EXPECT_EQ(metrics.counter("fsck.entries_ok").value(), 1u);
    EXPECT_EQ(metrics.counter("fsck.defects").value(), 2u);
    EXPECT_EQ(metrics.counter("fsck.repaired").value(), 2u);
    EXPECT_EQ(metrics.counter("fsck.orphan_tmp").value(), 1u);
    EXPECT_EQ(metrics.counter("fsck.quarantined_present").value(),
              1u);
}

TEST(Fsck, JsonReportHasTheStableSchema)
{
    ScratchDir scratch;
    seedArchive(scratch.dir(), 1);
    writeRaw(scratch.path("entry-000002.json.tmp"), "torn");

    Json doc = fsckToJson(fsckArchive(scratch.dir(), false));
    EXPECT_EQ(doc.at("schema").asString(), kFsckReportSchema);
    EXPECT_EQ(doc.at("version").asInt(), kFsckReportVersion);
    EXPECT_EQ(doc.at("dir").asString(), scratch.dir());
    EXPECT_FALSE(doc.at("repair").asBool());
    EXPECT_EQ(doc.at("entries_scanned").asInt(), 1);
    EXPECT_EQ(doc.at("entries_ok").asInt(), 1);
    EXPECT_EQ(doc.at("defects").asInt(), 1);
    EXPECT_EQ(doc.at("repaired").asInt(), 0);
    EXPECT_EQ(doc.at("unrepaired").asInt(), 1);
    EXPECT_EQ(doc.at("head_id").asInt(), 1);
    ASSERT_EQ(doc.at("findings").size(), 1u);
    const Json &f = doc.at("findings").at(0);
    EXPECT_EQ(f.at("kind").asString(), "orphan-tmp");
    EXPECT_FALSE(f.at("notice").asBool());
    EXPECT_FALSE(f.at("repaired").asBool());
    EXPECT_EQ(f.at("action").asString(), "remove");
}

TEST(Fsck, RepairIsIdempotentAcrossDefectMix)
{
    ScratchDir scratch;
    seedArchive(scratch.dir(), 3);
    std::string e1 = scratch.path("entry-000001.json");
    std::string e2 = scratch.path("entry-000002.json");
    writeRaw(e1 + ".bak", readRaw(e1));
    writeRaw(e1, "torn");                               // restore
    writeRaw(e2, "garbage");                            // quarantine
    writeRaw(scratch.path("entry-000004.json.tmp"), "x"); // sweep

    FsckReport first = fsckArchive(scratch.dir(), true);
    EXPECT_TRUE(first.clean());
    EXPECT_EQ(first.repairedCount(), 3);

    // A second pass finds a healthy archive: the quarantine copies
    // are inventory, not defects.
    FsckReport second = fsckArchive(scratch.dir(), true);
    EXPECT_TRUE(second.clean());
    EXPECT_EQ(second.defects(), 0);
    EXPECT_EQ(second.repairedCount(), 0);
    EXPECT_EQ(second.entriesOk, 2);
    EXPECT_EQ(second.quarantinedPresent, 1);
    EXPECT_EQ(second.headId, 3);
}

/** Payload defects a CRC cannot catch: the envelope still verifies. */
enum class PayloadDefect
{
    NoCommand,
    IntFingerprint,
    NoRuns,
};

const char *
defectName(PayloadDefect d)
{
    switch (d) {
      case PayloadDefect::NoCommand: return "no-command";
      case PayloadDefect::IntFingerprint: return "int-fingerprint";
      case PayloadDefect::NoRuns: return "empty-runs";
    }
    return "?";
}

constexpr PayloadDefect kPayloadDefects[] = {
    PayloadDefect::NoCommand,
    PayloadDefect::IntFingerprint,
    PayloadDefect::NoRuns,
};

/**
 * Re-wrap the healthy entry at `path` with `defect` in a fresh,
 * CRC-valid envelope. writeStateFile rotates the healthy copy to
 * `.bak`; without `keepBackup` that backup is removed.
 */
void
plantPayloadDefect(const std::string &path, PayloadDefect defect,
                   bool keepBackup)
{
    Json payload = loadStateFile(path).payload;
    switch (defect) {
      case PayloadDefect::NoCommand:
        payload.erase("command");
        break;
      case PayloadDefect::IntFingerprint:
        payload.set("fingerprint", 42);
        break;
      case PayloadDefect::NoRuns:
        payload.set("runs", Json::array());
        break;
    }
    writeStateFile(path, payload);
    std::string bak = stateBackupPath(path);
    ASSERT_EQ(::access(bak.c_str(), F_OK), 0);
    if (!keepBackup) {
        ASSERT_EQ(::unlink(bak.c_str()), 0);
    }
}

TEST(EntryRule, PayloadDefectWithBackupIsListedFromTheBackup)
{
    for (PayloadDefect defect : kPayloadDefects) {
        SCOPED_TRACE(defectName(defect));
        ScratchDir scratch;
        seedArchive(scratch.dir(), 3);
        plantPayloadDefect(scratch.path("entry-000002.json"), defect,
                           true);

        RunArchive ar(scratch.dir());
        ScanResult scan;
        ASSERT_NO_THROW(scan = ar.scan());
        ASSERT_EQ(scan.entries.size(), 3u);
        EXPECT_TRUE(scan.quarantined.empty());
        EXPECT_EQ(scan.entries[1].command, "run");
        EXPECT_EQ(ar.resolve("2").runs[0].workload, "w2");
        EXPECT_EQ(ar.resolve("HEAD").runs[0].workload, "w3");
    }
}

TEST(EntryRule, PayloadDefectWithoutBackupIsQuarantined)
{
    for (PayloadDefect defect : kPayloadDefects) {
        SCOPED_TRACE(defectName(defect));
        ScratchDir scratch;
        seedArchive(scratch.dir(), 3);
        std::string bad = scratch.path("entry-000002.json");
        plantPayloadDefect(bad, defect, false);

        RunArchive ar(scratch.dir());
        ScanResult scan;
        ASSERT_NO_THROW(scan = ar.scan());
        ASSERT_EQ(scan.entries.size(), 2u);
        EXPECT_EQ(scan.entries[0].id, 1);
        EXPECT_EQ(scan.entries[1].id, 3);
        ASSERT_EQ(scan.quarantined.size(), 1u);
        EXPECT_EQ(scan.quarantined[0], bad + ".quarantine");
        EXPECT_EQ(ar.resolve("HEAD").runs[0].workload, "w3");
        EXPECT_THROW(ar.resolve("2"), FatalError);
    }
}

TEST(EntryRule, CorruptMainWithFutureBackupIsLeftInPlace)
{
    ScratchDir scratch;
    seedArchive(scratch.dir(), 1);
    std::string main = scratch.path("entry-000002.json");
    Json future = Json::object();
    future.set("schema", kArchiveEntrySchema);
    future.set("version", 999);
    writeStateFile(main + ".bak", future);
    writeRaw(main, "torn");

    FsckReport repair = fsckArchive(scratch.dir(), true);
    const FsckFinding *f = findingOf(repair, "future-version");
    ASSERT_NE(f, nullptr);
    EXPECT_TRUE(f->notice);
    EXPECT_EQ(f->path, main);
    EXPECT_TRUE(repair.clean());

    ScanResult scan = RunArchive(scratch.dir()).scan();
    ASSERT_EQ(scan.entries.size(), 1u);
    EXPECT_TRUE(scan.quarantined.empty());
    EXPECT_EQ(readRaw(main), "torn");
    EXPECT_EQ(::access((main + ".bak").c_str(), F_OK), 0);
}

TEST(EntryRule, ScanAgreesWithFsckAcrossDefectMix)
{
    ScratchDir scratch;
    seedArchive(scratch.dir(), 9);
    // The RepairIsIdempotentAcrossDefectMix setup...
    std::string e1 = scratch.path("entry-000001.json");
    writeRaw(e1 + ".bak", readRaw(e1));
    writeRaw(e1, "torn");
    writeRaw(scratch.path("entry-000002.json"), "garbage");
    writeRaw(scratch.path("entry-000010.json.tmp"), "x");
    // ... plus every payload defect, with and without a backup
    // (entry 3 stays healthy).
    int id = 4;
    for (PayloadDefect defect : kPayloadDefects)
        for (bool keepBackup : {true, false})
            plantPayloadDefect(scratch.path(entryFileName(id++)),
                               defect, keepBackup);

    std::set<std::string> flagged;
    std::set<int> fsckListed;
    std::set<std::string> fsckQuarantined;
    FsckReport verify = fsckArchive(scratch.dir(), false);
    for (const auto &f : verify.findings) {
        flagged.insert(f.path);
        int fid = entryIdFromName(f.path.substr(f.path.rfind('/') + 1));
        if (f.kind == "corrupt-main")
            fsckListed.insert(fid);
        if (f.kind == "corrupt-entry")
            fsckQuarantined.insert(f.path);
    }
    for (const auto &[mid, name] : listDir(scratch.dir()).mains)
        if (!flagged.count(scratch.path(name)))
            fsckListed.insert(mid);
    EXPECT_EQ(fsckListed, (std::set<int>{1, 3, 4, 6, 8}));
    EXPECT_EQ(fsckQuarantined.size(), 4u);

    ScanResult scan = RunArchive(scratch.dir()).scan();
    std::set<int> scanListed;
    for (const auto &e : scan.entries)
        scanListed.insert(e.id);
    std::set<std::string> scanQuarantined;
    for (const auto &aside : scan.quarantined) {
        ASSERT_TRUE(endsWith(aside, kQuarantineSuffix)) << aside;
        scanQuarantined.insert(aside.substr(
            0, aside.size() - std::strlen(kQuarantineSuffix)));
    }
    EXPECT_EQ(scanListed, fsckListed);
    EXPECT_EQ(scanQuarantined, fsckQuarantined);
}

} // namespace
} // namespace archive
} // namespace rigor
