/**
 * @file
 * Archive fsck: offline verification and repair of a run archive
 * directory.
 *
 * The scan-time quarantine in RunArchive handles damage lazily, as it
 * is met; fsck is the eager counterpart a user reaches for after a
 * crash, a disk scare or a suspicious diff: walk *everything* in the
 * directory — entries, backups, staging temporaries, quarantine
 * copies, strays — classify each defect, and under `--repair` fix
 * what is mechanically fixable (restore a corrupt entry from its
 * valid backup, sweep orphaned temporaries, rename non-canonical
 * filenames, quarantine what nothing can save).
 *
 * Entries are judged by the same rule the scan applies
 * (readEntry() in archive/entry_format.hh): what the scan lists is ok
 * or corrupt-main here, what it quarantines is corrupt-entry.
 *
 * fsck never invents data: every repair either copies bytes that
 * verified against their checksum or moves damage aside where `scan`
 * will no longer trip over it. Healthy entries written by a *newer*
 * build (main or backup) are reported as notices and left strictly
 * alone.
 */

#ifndef RIGOR_ARCHIVE_FSCK_HH
#define RIGOR_ARCHIVE_FSCK_HH

#include <string>
#include <vector>

#include "support/json.hh"
#include "support/metrics.hh"

namespace rigor {
namespace archive {

/** One classified observation about one file. */
struct FsckFinding
{
    /** Path of the offending (or notable) file. */
    std::string path;
    /**
     * Defect class: corrupt-entry, corrupt-main, missing-main,
     * orphan-bak, orphan-tmp, non-canonical-name, duplicate-id; or
     * the notice classes future-version and stray-file.
     */
    std::string kind;
    /** One-line diagnosis. */
    std::string detail;
    /** Informational only — does not make the archive unhealthy. */
    bool notice = false;
    /** True when --repair fixed (or safely quarantined) it. */
    bool repaired = false;
    /** What repair did, or would do ("restore from backup", ...). */
    std::string action;
};

/** Outcome of one fsck pass. */
struct FsckReport
{
    std::string dir;
    /** True when the pass ran with --repair. */
    bool repairMode = false;
    /** entry-NNNNNN.json files examined (readable or not). */
    int entriesScanned = 0;
    /** Entries that verified end-to-end (schema included). */
    int entriesOk = 0;
    /** Quarantine copies present in the directory after the pass. */
    int quarantinedPresent = 0;
    /** Newest valid entry id after the pass (-1 when none). */
    int headId = -1;
    std::vector<FsckFinding> findings;

    /** Findings that are defects (notices excluded). */
    int defects() const;
    /** Defects --repair dealt with. */
    int repairedCount() const;
    /** Defects still standing after the pass. */
    int unrepaired() const { return defects() - repairedCount(); }
    /** True when no defect is left standing. */
    bool clean() const { return unrepaired() == 0; }
};

/**
 * Verify (and with `repair`, fix) the archive at `dir`. Without
 * repair the pass is strictly read-only and takes no lock; with
 * repair it holds the archive lock for the duration, exactly like a
 * writer.
 * @param metrics when non-null, receives fsck.* counters
 * (entries_scanned, entries_ok, defects, repaired, orphan_tmp,
 * quarantined_present).
 * @throws FatalError when `dir` does not exist or the lock cannot be
 * acquired in repair mode.
 */
FsckReport fsckArchive(const std::string &dir, bool repair,
                       MetricsRegistry *metrics = nullptr);

/** Human-readable multi-line report. */
std::string renderFsck(const FsckReport &report);

/** Machine-readable report (stable schema, see docs). */
Json fsckToJson(const FsckReport &report);

} // namespace archive
} // namespace rigor

#endif // RIGOR_ARCHIVE_FSCK_HH
