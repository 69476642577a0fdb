/**
 * @file
 * On-disk rules of the run archive, shared by the archive proper and
 * its fsck: what a filename means, and what makes an entry readable.
 *
 * An archive directory holds `entry-NNNNNN.json` state envelopes plus
 * the sidecar files the durability machinery creates around them:
 * `.bak` rotations, `.tmp` staging files from interrupted atomic
 * writes, `.quarantine` copies of entries too damaged to read, and
 * one `.lock` file for advisory inter-process locking. Everything
 * that parses or constructs those names lives here so the archive and
 * fsck can never disagree about what a filename means.
 *
 * The same goes for content. verifyEntryFile() is the one definition
 * of a readable entry (envelope plus payload header) and readEntry()
 * the one backup fallback; listDir() is the one directory walk.
 * RunArchive::scan/load/append and fsckArchive all go through them,
 * so a file fsck calls healthy is exactly a file the archive lists.
 */

#ifndef RIGOR_ARCHIVE_ENTRY_FORMAT_HH
#define RIGOR_ARCHIVE_ENTRY_FORMAT_HH

#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "support/json.hh"
#include "support/logging.hh"
#include "support/str.hh"

namespace rigor {
namespace archive {

inline constexpr const char *kEntryPrefix = "entry-";
inline constexpr const char *kEntrySuffix = ".json";
/** Suffix appended (possibly with ".2", ".3"...) when quarantining. */
inline constexpr const char *kQuarantineSuffix = ".quarantine";
/** Pre-fsck spelling, still recognized so old archives stay valid. */
inline constexpr const char *kQuarantineSuffixLegacy = ".quarantined";
/** Advisory lock file taken by append/prune/fsck --repair. */
inline constexpr const char *kLockFileName = ".lock";

/** Canonical filename of entry `id` (zero-padded to six digits). */
inline std::string
entryFileName(int id)
{
    return strprintf("%s%06d%s", kEntryPrefix, id, kEntrySuffix);
}

/**
 * Parse an entry id out of a filename of the form entry-DIGITS.json;
 * returns -1 for everything else (backups, temporaries, quarantined
 * files, stray data). Non-canonical digit counts (entry-3.json) still
 * parse — fsck flags them, the scanner must at least see them.
 */
inline int
entryIdFromName(const std::string &name)
{
    if (!startsWith(name, kEntryPrefix) ||
        !endsWith(name, kEntrySuffix))
        return -1;
    std::string digits = name.substr(
        std::strlen(kEntryPrefix),
        name.size() - std::strlen(kEntryPrefix) -
            std::strlen(kEntrySuffix));
    if (digits.empty() || digits.size() > 9)
        return -1;
    int id = 0;
    for (char c : digits) {
        if (c < '0' || c > '9')
            return -1;
        id = id * 10 + (c - '0');
    }
    return id;
}

/**
 * Any id-bearing filename, *including* backup, temporary and
 * quarantined copies (whatever trails the ".json" core). append()
 * uses this so a pruned-then-quarantined id is never reused for a new
 * entry — refs must stay unambiguous forever.
 */
inline int
anyIdFromName(const std::string &name)
{
    auto pos = name.find(kEntrySuffix);
    if (pos == std::string::npos)
        return -1;
    return entryIdFromName(
        name.substr(0, pos + std::strlen(kEntrySuffix)));
}

/** True when `name` is a quarantined copy (either spelling). */
inline bool
isQuarantineName(const std::string &name)
{
    return name.find(kQuarantineSuffix) != std::string::npos;
}

/** True for an interrupted atomic write's staging file. */
inline bool
isTmpName(const std::string &name)
{
    return endsWith(name, ".tmp") && !isQuarantineName(name);
}

/**
 * Rename `path` aside to its first free quarantine name: the plain
 * suffix, then numbered variants, so repeated damage at one path never
 * overwrites earlier forensic copies and re-quarantining is
 * idempotent.
 * @return the new name, or "" when the rename failed (errno says why).
 */
std::string quarantineFile(const std::string &path);

/** How an entry file (or one copy of it) relates to this build. */
enum class EntryState
{
    Ok,     ///< readable by this build
    Future, ///< healthy data from a newer build: hands off
    Bad,    ///< unusable: broken envelope, or not a readable entry
};

/**
 * Verify one file: the durable_io envelope (format, version, CRC),
 * then the payload header (schema, version range, a string
 * `fingerprint` and `command`, a non-empty `runs` array).
 * @param payload when non-null, receives the payload whenever the
 * envelope verifies.
 * @param why receives a one-line reason unless the file is Ok.
 */
EntryState verifyEntryFile(const std::string &path, Json *payload,
                           std::string *why);

/** What readEntry() decided for one entry. */
struct EntryRead
{
    EntryState state = EntryState::Bad;
    /** Payload of the copy the state describes (unless Bad). */
    Json payload;
    /** True when the main file is Bad and its `.bak` was Ok. */
    bool usedBackup = false;
    /**
     * Unless the main file is Ok: its reason, or for a Bad main with
     * a non-Ok backup "main: ...; backup: ..." ("; no backup" when
     * there is none).
     */
    std::string why;
};

/**
 * Read the entry at `path` by the rule scan, load and fsck share:
 * the main file if it is Ok (or Future: left in place), otherwise its
 * `.bak` if that is Ok (or Future), otherwise Bad.
 */
EntryRead readEntry(const std::string &path);

/** Every file in an archive directory, by category. */
struct DirListing
{
    /** (id, filename) of every entry-DIGITS.json, sorted. */
    std::vector<std::pair<int, std::string>> mains;
    /** Filenames of entry backups (entry-DIGITS.json.bak). */
    std::vector<std::string> baks;
    /** Staging files from interrupted atomic writes. */
    std::vector<std::string> tmps;
    /** Files that belong to no known category. */
    std::vector<std::string> strays;
    /** Every filename present (for id counting and collisions). */
    std::set<std::string> names;
    /** Quarantined copies (either spelling). */
    int quarantineCount = 0;
};

/**
 * List `dir` once.
 * @throws FatalError when the directory cannot be read.
 */
DirListing listDir(const std::string &dir);

} // namespace archive
} // namespace rigor

#endif // RIGOR_ARCHIVE_ENTRY_FORMAT_HH
