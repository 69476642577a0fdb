#include "archive/archive.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "archive/entry_format.hh"
#include "harness/report.hh"
#include "support/durable_io.hh"
#include "support/filelock.hh"
#include "support/fingerprint.hh"
#include "support/logging.hh"
#include "support/schema.hh"
#include "support/str.hh"
#include "support/table.hh"

namespace fs = std::filesystem;

namespace rigor {
namespace archive {

namespace {

EntrySummary
summaryFromPayload(const Json &payload, int id,
                   const std::string &path)
{
    EntrySummary s;
    s.id = id;
    s.path = path;
    s.fingerprint = payload.at("fingerprint").asString();
    if (const Json *label = payload.get("label"))
        s.label = label->asString();
    s.command = payload.at("command").asString();
    s.runCount = static_cast<int>(payload.at("runs").size());
    // v2 entries carry a profiles array aligned with runs; a v1
    // entry (or a null slot) simply has no profile for that run.
    if (const Json *profiles = payload.get("profiles"))
        for (size_t i = 0; i < profiles->size(); ++i)
            if (!profiles->at(i).isNull())
                ++s.profileCount;
    // The config's tier list, for machine-readable listings. Guarded:
    // a hand-built or future entry without one still lists.
    if (const Json *config = payload.get("config"))
        if (const Json *tiers = config->get("tiers"))
            for (size_t i = 0; i < tiers->size(); ++i)
                s.tiers.push_back(tiers->at(i).asString());
    std::error_code ec;
    uintmax_t size = fs::file_size(path, ec);
    s.sizeBytes = ec ? 0 : static_cast<uint64_t>(size);
    return s;
}

/** The recovery note scan and load print for a restored entry. */
void
warnIfBackupUsed(const std::string &path, const EntryRead &read)
{
    if (read.usedBackup)
        warn("state file %s is unusable (%s); recovered the last "
             "good checkpoint from %s",
             path.c_str(), read.why.c_str(),
             stateBackupPath(path).c_str());
}

} // namespace

RunArchive::RunArchive(std::string dir) : dir_(std::move(dir))
{
    if (dir_.empty())
        fatal("archive directory must not be empty");
}

std::string
RunArchive::entryPath(int id) const
{
    return dir_ + "/" + entryFileName(id);
}

std::string
RunArchive::lockPath() const
{
    return dir_ + "/" + kLockFileName;
}

int
RunArchive::append(const Json &config, const std::string &label,
                   const std::string &command,
                   const std::vector<harness::RunResult> &runs,
                   const std::vector<Json> &profiles)
{
    if (runs.empty())
        fatal("refusing to archive an entry with no runs");
    if (!profiles.empty() && profiles.size() != runs.size())
        fatal("profiles (%zu) do not align with runs (%zu)",
              profiles.size(), runs.size());
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        fatal("cannot create archive directory %s: %s", dir_.c_str(),
              ec.message().c_str());

    // The scan-then-write below is what the lock protects: two
    // unlocked appenders would compute the same next id and one
    // entry would silently clobber the other.
    FileLock lock = FileLock::acquire(lockPath());
    if (!lock.held())
        fatal("archive %s is locked by another process (lock file "
              "%s); giving up after retries",
              dir_.c_str(), lockPath().c_str());

    DirListing listing = listDir(dir_);
    int maxId = 0;
    for (const auto &name : listing.names)
        maxId = std::max(maxId, anyIdFromName(name));
    int id = maxId + 1;

    // Sweep staging files orphaned by interrupted writes — but only
    // now, after their ids were counted above, so a crash between
    // staging and rename can never cause an id to be handed out
    // twice.
    for (const auto &name : listing.tmps) {
        std::string tmp = (fs::path(dir_) / name).string();
        if (fsOps().unlink(tmp.c_str()) == 0)
            warn("removed orphaned temporary %s left by an "
                 "interrupted write",
                 tmp.c_str());
    }

    Json payload = Json::object();
    payload.set("schema", kArchiveEntrySchema);
    payload.set("version", kArchiveEntryVersion);
    payload.set("fingerprint", fingerprintJson(config));
    if (!label.empty())
        payload.set("label", label);
    payload.set("command", command);
    payload.set("config", config);
    Json rs = Json::array();
    for (const auto &r : runs)
        rs.push(harness::runToJson(r));
    payload.set("runs", std::move(rs));
    if (!profiles.empty()) {
        Json ps = Json::array();
        for (const auto &p : profiles)
            ps.push(p);
        payload.set("profiles", std::move(ps));
    }
    writeStateFile(entryPath(id), payload);
    return id;
}

ScanResult
RunArchive::scan() const
{
    DirListing listing = listDir(dir_);
    ScanResult out;
    out.quarantinedPresent = listing.quarantineCount;

    // The lock is taken lazily, only if something needs
    // quarantining: clean archives — the overwhelmingly common case —
    // scan without touching the lock at all.
    FileLock lock;
    bool lockTried = false;

    for (const auto &[id, name] : listing.mains) {
        std::string path = (fs::path(dir_) / name).string();
        EntryRead read = readEntry(path);
        if (read.state == EntryState::Ok) {
            warnIfBackupUsed(path, read);
            out.entries.push_back(
                summaryFromPayload(read.payload, id, path));
            continue;
        }
        if (read.state == EntryState::Future) {
            // Perfectly healthy data this build cannot interpret.
            // Skip, never quarantine — downgrades must not eat
            // archives.
            warn("archive entry %s is from a newer build (%s); "
                 "leaving it in place",
                 path.c_str(), read.why.c_str());
            continue;
        }
        // Both the file and its backup are unusable: quarantine
        // instead of aborting the scan — one rotten entry must not
        // hide the healthy rest of the archive. The rename keeps the
        // bytes around for forensics while taking the file out of
        // future scans.
        if (!lockTried) {
            lockTried = true;
            lock = FileLock::tryAcquire(lockPath());
        }
        if (!lock.held()) {
            warn("archive entry %s is unusable (%s); the archive is "
                 "locked by a writer, leaving the file in place "
                 "(read-only scan)",
                 path.c_str(), read.why.c_str());
            continue;
        }
        std::string aside = quarantineFile(path);
        if (!aside.empty()) {
            warn("archive entry %s is unusable (%s); quarantined as %s",
                 path.c_str(), read.why.c_str(), aside.c_str());
            out.quarantined.push_back(aside);
            ++out.quarantinedPresent;
        } else {
            warn("archive entry %s is unusable (%s) and could not be "
                 "quarantined: %s",
                 path.c_str(), read.why.c_str(), std::strerror(errno));
        }
    }
    return out;
}

Entry
RunArchive::load(const EntrySummary &summary) const
{
    EntryRead read = readEntry(summary.path);
    if (read.state != EntryState::Ok)
        fatal("archive entry %s is %s (%s)", summary.path.c_str(),
              read.state == EntryState::Future ? "from a newer build"
                                               : "unusable",
              read.why.c_str());
    warnIfBackupUsed(summary.path, read);
    const Json &payload = read.payload;
    Entry entry;
    entry.summary = summaryFromPayload(payload, summary.id,
                                       summary.path);
    entry.config = payload.at("config");
    const Json &rs = payload.at("runs");
    for (size_t i = 0; i < rs.size(); ++i)
        entry.runs.push_back(harness::runFromJson(rs.at(i)));
    if (const Json *ps = payload.get("profiles")) {
        for (size_t i = 0; i < ps->size(); ++i)
            entry.profiles.push_back(ps->at(i));
        // Keep the alignment invariant even for a short array
        // written by a buggy producer: pad with nulls, never guess.
        while (entry.profiles.size() < entry.runs.size())
            entry.profiles.push_back(Json());
    }
    return entry;
}

Entry
RunArchive::resolve(const std::string &ref) const
{
    ScanResult scanned = scan();
    const auto &entries = scanned.entries;
    if (entries.empty())
        fatal("archive %s holds no usable entries", dir_.c_str());

    const EntrySummary *hit = nullptr;
    size_t back = 0;
    bool isHead = ref == "HEAD";
    if (!isHead && startsWith(ref, "HEAD~")) {
        std::string digits = ref.substr(5);
        isHead = !digits.empty() &&
            digits.find_first_not_of("0123456789") ==
                std::string::npos;
        if (isHead)
            back = static_cast<size_t>(
                std::strtoul(digits.c_str(), nullptr, 10));
    }
    if (isHead) {
        if (back >= entries.size())
            fatal("ref '%s' reaches past the oldest of %zu "
                  "archived entries",
                  ref.c_str(), entries.size());
        hit = &entries[entries.size() - 1 - back];
    } else if (!ref.empty() &&
               ref.find_first_not_of("0123456789") ==
                   std::string::npos) {
        int id = static_cast<int>(
            std::strtol(ref.c_str(), nullptr, 10));
        for (const auto &e : entries)
            if (e.id == id)
                hit = &e;
        if (!hit)
            fatal("no archive entry with id %d in %s", id,
                  dir_.c_str());
    } else {
        // Labels may be re-used across entries; the newest wins, so a
        // rolling label like "baseline" always names the latest run
        // that was blessed with it.
        for (const auto &e : entries)
            if (e.label == ref)
                hit = &e;
        if (!hit) {
            std::vector<std::string> labels;
            for (const auto &e : entries)
                if (!e.label.empty())
                    labels.push_back(e.label);
            fatal("no archive entry labeled '%s' in %s "
                  "(labels: %s; ids 1..%d; HEAD/HEAD~N)",
                  ref.c_str(), dir_.c_str(),
                  labels.empty() ? "none"
                                 : join(labels, ", ").c_str(),
                  entries.back().id);
        }
    }
    return load(*hit);
}

int
RunArchive::prune(int keep)
{
    if (keep < 1)
        fatal("prune must keep at least one entry (got %d)", keep);
    // Lock before scanning: two unlocked pruners would race to
    // remove the same files and the loser would die on a vanished
    // path. Holding the lock also makes the in-process scan() below
    // read-only (its lazy tryAcquire fails), which is correct —
    // entries it cannot read are not prunable anyway.
    FileLock lock = FileLock::acquire(lockPath());
    if (!lock.held())
        fatal("archive %s is locked by another process (lock file "
              "%s); giving up after retries",
              dir_.c_str(), lockPath().c_str());
    ScanResult scanned = scan();
    int removed = 0;
    size_t n = scanned.entries.size();
    for (size_t i = 0; i + static_cast<size_t>(keep) < n; ++i) {
        const auto &e = scanned.entries[i];
        if (fsOps().unlink(e.path.c_str()) != 0)
            fatal("cannot remove archive entry %s: %s",
                  e.path.c_str(), std::strerror(errno));
        // best-effort: a missing backup is no error
        (void)fsOps().unlink(stateBackupPath(e.path).c_str());
        ++removed;
    }
    return removed;
}

std::string
renderArchiveList(const std::string &dir, const ScanResult &scan)
{
    Table t({"id", "label", "command", "runs", "profile", "bytes",
             "fingerprint"});
    for (const auto &e : scan.entries) {
        // Every run profiled, some, or none (legacy v1).
        const char *profile = e.profileCount == 0 ? "no"
            : e.profileCount >= e.runCount      ? "yes"
                                                : "partial";
        t.addRow({std::to_string(e.id), e.label.empty() ? "-" : e.label,
                  e.command, std::to_string(e.runCount), profile,
                  fmtCount(e.sizeBytes), e.fingerprint});
    }
    std::string out = t.render();
    out += strprintf("%zu entr%s in %s", scan.entries.size(),
                     scan.entries.size() == 1 ? "y" : "ies",
                     dir.c_str());
    if (!scan.quarantined.empty())
        out += strprintf(", %zu quarantined this scan",
                         scan.quarantined.size());
    if (scan.quarantinedPresent > 0)
        out += strprintf(", %d quarantined file(s) present "
                         "(see 'rigorbench fsck')",
                         scan.quarantinedPresent);
    return out + "\n";
}

Json
archiveListToJson(const std::string &dir, const ScanResult &scan)
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
        for (const auto &tier : e.tiers)
            tiers.push(tier);
        j.set("tiers", std::move(tiers));
        entries.push(std::move(j));
    }
    doc.set("entries", std::move(entries));
    doc.set("quarantined_present", scan.quarantinedPresent);
    return doc;
}

} // namespace archive
} // namespace rigor
