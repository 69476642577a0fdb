#include "archive/entry_format.hh"

#include <algorithm>
#include <filesystem>

#include "support/durable_io.hh"
#include "support/schema.hh"

namespace fs = std::filesystem;

namespace rigor {
namespace archive {

namespace {

EntryState
checkPayload(const Json &payload, std::string *why)
{
    const Json *schema = payload.get("schema");
    if (!schema || schema->type() != Json::Type::String ||
        schema->asString() != kArchiveEntrySchema) {
        *why = strprintf("payload is not a %s document",
                         kArchiveEntrySchema);
        return EntryState::Bad;
    }
    const Json *version = payload.get("version");
    if (!version || version->type() != Json::Type::Int) {
        *why = "payload has no integer version";
        return EntryState::Bad;
    }
    int64_t v = version->asInt();
    if (v > kArchiveEntryVersion) {
        *why = strprintf("version %lld is newer than this build's "
                         "%d..%d",
                         static_cast<long long>(v),
                         kArchiveEntryMinVersion,
                         kArchiveEntryVersion);
        return EntryState::Future;
    }
    if (v < kArchiveEntryMinVersion) {
        *why = strprintf("version %lld predates the supported "
                         "%d..%d",
                         static_cast<long long>(v),
                         kArchiveEntryMinVersion,
                         kArchiveEntryVersion);
        return EntryState::Bad;
    }
    const Json *fp = payload.get("fingerprint");
    const Json *command = payload.get("command");
    const Json *runs = payload.get("runs");
    if (!fp || fp->type() != Json::Type::String) {
        *why = "payload has no fingerprint";
        return EntryState::Bad;
    }
    if (!command || command->type() != Json::Type::String) {
        *why = "payload has no command";
        return EntryState::Bad;
    }
    if (!runs || runs->type() != Json::Type::Array ||
        runs->size() == 0) {
        *why = "payload has no runs";
        return EntryState::Bad;
    }
    return EntryState::Ok;
}

} // namespace

EntryState
verifyEntryFile(const std::string &path, Json *payload,
                std::string *why)
{
    std::string text;
    if (!readFile(path, text)) {
        *why = "cannot read file";
        return EntryState::Bad;
    }
    Json inner;
    if (!verifyStateText(text, &inner, why))
        return EntryState::Bad;
    EntryState state = checkPayload(inner, why);
    if (payload)
        *payload = std::move(inner);
    return state;
}

EntryRead
readEntry(const std::string &path)
{
    EntryRead out;
    out.state = verifyEntryFile(path, &out.payload, &out.why);
    if (out.state != EntryState::Bad)
        return out;
    std::string bak = stateBackupPath(path);
    std::error_code ec;
    if (!fs::exists(bak, ec)) {
        out.why = strprintf("main: %s; no backup", out.why.c_str());
        return out;
    }
    std::string bakWhy;
    out.state = verifyEntryFile(bak, &out.payload, &bakWhy);
    if (out.state == EntryState::Ok)
        out.usedBackup = true;
    else
        out.why = strprintf("main: %s; backup: %s", out.why.c_str(),
                            bakWhy.c_str());
    return out;
}

std::string
quarantineFile(const std::string &path)
{
    std::string aside = path + kQuarantineSuffix;
    for (int i = 2; fs::exists(aside); ++i)
        aside = path + kQuarantineSuffix + "." + std::to_string(i);
    if (fsOps().rename(path.c_str(), aside.c_str()) != 0)
        return "";
    return aside;
}

DirListing
listDir(const std::string &dir)
{
    DirListing out;
    std::error_code ec;
    for (const auto &e : fs::directory_iterator(dir, ec)) {
        std::string name = e.path().filename().string();
        out.names.insert(name);
        if (name == kLockFileName)
            continue;
        if (isQuarantineName(name)) {
            ++out.quarantineCount;
            continue;
        }
        if (isTmpName(name)) {
            out.tmps.push_back(name);
            continue;
        }
        if (endsWith(name, ".bak") &&
            entryIdFromName(name.substr(0, name.size() - 4)) >= 0) {
            out.baks.push_back(name);
            continue;
        }
        int id = entryIdFromName(name);
        if (id >= 0) {
            out.mains.emplace_back(id, name);
            continue;
        }
        out.strays.push_back(name);
    }
    if (ec)
        fatal("cannot scan archive directory %s: %s", dir.c_str(),
              ec.message().c_str());
    std::sort(out.mains.begin(), out.mains.end());
    std::sort(out.baks.begin(), out.baks.end());
    std::sort(out.tmps.begin(), out.tmps.end());
    std::sort(out.strays.begin(), out.strays.end());
    return out;
}

} // namespace archive
} // namespace rigor
