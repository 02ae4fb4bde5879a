#include "corpus/corpus_store.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "corpus/serde.hh"
#include "runtime/fault.hh"

namespace fs = std::filesystem;

namespace amulet::corpus
{

namespace
{

std::string
metaPath(const std::string &dir)
{
    return (fs::path(dir) / "meta.json").string();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw CorpusError("cannot read " + path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Result of scanning a journal file. */
struct JournalScan
{
    /** Byte length of the valid prefix (everything parseable). */
    std::uintmax_t validBytes = 0;
    /** True when the valid prefix ends with a line terminator. */
    bool terminated = true;
};

/**
 * Walk journal lines, calling @p per_line for each parsed document. A
 * hard kill can leave one torn (partially flushed) final line; journal
 * readers tolerate it — previously confirmed records must stay
 * reachable — by stopping at the valid prefix instead of throwing. A
 * final line that parses but lacks its '\n' is valid data with a torn
 * terminator (reported via `terminated`). Corruption anywhere *before*
 * the final line is real damage and does throw, with file:line context.
 */
template <typename PerLine>
JournalScan
walkJournal(const std::string &path, PerLine per_line)
{
    JournalScan scan;
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return scan; // no journal yet: empty corpus
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();

    std::size_t pos = 0;
    std::size_t lineno = 0;
    while (pos < text.size()) {
        const std::size_t nl = text.find('\n', pos);
        const bool complete = nl != std::string::npos;
        const std::string line =
            text.substr(pos, complete ? nl - pos : std::string::npos);
        ++lineno;
        if (!line.empty()) {
            try {
                per_line(Json::parse(line));
            } catch (const CorpusError &e) {
                // A torn write is exactly an unterminated final line
                // (the '\n' is the last byte of a complete append); a
                // *terminated* bad line is real corruption.
                if (!complete)
                    return scan; // valid prefix ends before the torn tail
                throw CorpusError(path + ":" + std::to_string(lineno) +
                                  ": " + e.what());
            }
        }
        if (!complete) {
            scan.validBytes = text.size();
            scan.terminated = false;
            break;
        }
        pos = nl + 1;
        scan.validBytes = pos;
    }
    return scan;
}

/** True for a v3 `"kind":"quarantine"` journal line (record lines
 *  carry no "kind" member). */
bool
isQuarantineLine(const Json &json)
{
    const Json *kind = json.find("kind");
    return kind && kind->asStr() == "quarantine";
}

/** Dedup key straight off a parsed journal line — no full record
 *  deserialization (no program re-assembly, no context decoding), so
 *  opening a store stays cheap on corpora grown over many runs. */
std::string
keyFromJson(const Json &json)
{
    if (isQuarantineLine(json))
        return "q/" + std::to_string(json.at("programIndex").asU64());
    std::ostringstream os;
    os << json.at("programIndex").asU64() << "/"
       << json.at("inputA").at("id").asU64() << "/"
       << json.at("inputB").at("id").asU64() << "/"
       << json.at("signature").asStr();
    return os.str();
}

bool
isQuarantineKey(const std::string &key)
{
    return key.size() >= 2 && key[0] == 'q' && key[1] == '/';
}

} // namespace

CorpusStore::CorpusStore(std::string dir,
                         const core::CampaignConfig &config)
    : dir_(std::move(dir)), fingerprint_(configFingerprint(config))
{
    fs::create_directories(dir_);
    const std::string meta_path = metaPath(dir_);
    if (fs::exists(meta_path)) {
        const Json meta = Json::parse(readFile(meta_path));
        const std::string existing = meta.at("fingerprint").asStr();
        if (existing != fingerprint_) {
            throw CorpusError(
                "corpus at " + dir_ + " was built by a different campaign "
                "config (fingerprint " + existing + ", this campaign is " +
                fingerprint_ + ")");
        }
    } else {
        Json meta = Json::object();
        meta.set("version", Json::number(std::uint64_t{kFormatVersion}));
        meta.set("fingerprint", Json::str(fingerprint_));
        meta.set("config", configToJson(config));
        std::ofstream out(meta_path, std::ios::binary);
        out << meta.dump() << "\n";
        if (!out)
            throw CorpusError("cannot write " + meta_path);
    }

    // Seed the dedup index from whatever a previous run journaled, and
    // repair a torn tail (partially flushed final line from a hard
    // kill) by truncating to the valid prefix — appending after a torn
    // fragment would otherwise poison the next record's line.
    const JournalScan scan = walkJournal(
        journalPath(), [this](const Json &j) { index_.insert(keyFromJson(j)); });
    for (const std::string &key : index_)
        if (!isQuarantineKey(key))
            ++count_;
    std::error_code ec;
    const std::uintmax_t size = fs::file_size(journalPath(), ec);
    if (!ec && size > scan.validBytes) {
        fs::resize_file(journalPath(), scan.validBytes, ec);
        // Appending after an un-truncated fragment would fuse it with
        // the next record into a *terminated* corrupt line — permanent
        // damage instead of a tolerated torn tail. Refuse to open.
        if (ec) {
            throw CorpusError("cannot truncate torn journal tail in " +
                              dir_ + ": " + ec.message());
        }
    }

    journal_ = std::fopen(journalPath().c_str(), "ab");
    if (!journal_)
        throw CorpusError("cannot open journal in " + dir_);
    validBytes_ = scan.validBytes;
    if (scan.validBytes > 0 && !scan.terminated) {
        std::fputc('\n', journal_); // re-terminate a valid torn tail
        ++validBytes_;
    }
}

CorpusStore::~CorpusStore()
{
    if (journal_)
        std::fclose(journal_);
}

std::string
CorpusStore::journalPath() const
{
    return (fs::path(dir_) / "journal.jsonl").string();
}

std::string
CorpusStore::recordKey(const core::ViolationRecord &record)
{
    std::ostringstream os;
    os << record.programIndex << "/" << record.inputA.id << "/"
       << record.inputB.id << "/" << record.signature;
    return os.str();
}

bool
CorpusStore::append(const core::ViolationRecord &record)
{
    if (appendLine(toJson(record).dump(), recordKey(record),
                   record.programIndex)) {
        std::lock_guard<std::mutex> lock(mu_);
        ++count_;
        return true;
    }
    return false;
}

bool
CorpusStore::appendQuarantine(unsigned programIndex,
                              const std::string &reason)
{
    Json j = Json::object();
    j.set("kind", Json::str("quarantine"));
    j.set("version", Json::number(std::uint64_t{kFormatVersion}));
    j.set("programIndex", Json::number(std::uint64_t{programIndex}));
    j.set("reason", Json::str(reason));
    // Quarantine lines are exempt from the injected-ENOSPC chaos site:
    // they are the containment of a fault, and faulting the containment
    // itself is the campaign-abort path, not a survivable one.
    return appendLine(j.dump(), "q/" + std::to_string(programIndex),
                      kNoFaultKey);
}

bool
CorpusStore::appendLine(const std::string &line, const std::string &key,
                        std::uint64_t faultProgram)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (broken_)
        throw CorpusError("journal in " + dir_ +
                          " is disabled after an unhealable append "
                          "failure");
    if (!index_.insert(key).second)
        return false;
    // Deterministic chaos site (src/runtime/fault.hh): tear the write —
    // half the line reaches the disk, then the device reports ENOSPC —
    // exercising exactly the short-write path a full disk produces.
    if (faultProgram != kNoFaultKey) {
        if (const auto *plan = runtime::fault::FaultPlan::active()) {
            if (plan->journalAppendFault(faultProgram)) {
                std::fwrite(line.data(), 1, line.size() / 2, journal_);
                std::fflush(journal_);
                index_.erase(key);
                healTornAppend();
                throw CorpusError("journal append failed in " + dir_ +
                                  " (injected ENOSPC)");
            }
        }
    }
    // Flush per record: the journal must already hold everything a
    // checkpoint can claim as completed when the process dies. An I/O
    // failure (disk full, error) must not let the index/checkpoint
    // claim durability the journal does not have.
    const bool ok =
        std::fwrite(line.data(), 1, line.size(), journal_) ==
            line.size() &&
        std::fputc('\n', journal_) != EOF &&
        std::fflush(journal_) == 0;
    if (!ok) {
        index_.erase(key);
        healTornAppend();
        throw CorpusError("journal append failed in " + dir_ +
                          " (disk full?)");
    }
    validBytes_ += line.size() + 1;
    return true;
}

void
CorpusStore::healTornAppend()
{
    // A failed append may have left a torn fragment past the last good
    // line. Truncate back so the *next* append cannot fuse with the
    // fragment into a terminated — permanently corrupt — line; the
    // store then survives a transient ENOSPC at the cost of the one
    // record (whose program stays unreported and is re-run). If even
    // the truncate fails, poison the store: refusing later appends is
    // recoverable (reopen repairs the tail), silent corruption is not.
    std::fflush(journal_);
    clearerr(journal_);
    if (ftruncate(fileno(journal_), static_cast<off_t>(validBytes_)) != 0)
        broken_ = true;
}

std::size_t
CorpusStore::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
}

void
CorpusStore::writeMetrics(const std::string &json)
{
    const std::string path = (fs::path(dir_) / "metrics.json").string();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << json << "\n";
    if (!out)
        throw CorpusError("cannot write " + path);
}

std::string
CorpusStore::readMetricsText(const std::string &dir)
{
    const std::string path = (fs::path(dir) / "metrics.json").string();
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return "";
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

core::CampaignConfig
CorpusStore::readConfig(const std::string &dir)
{
    const Json meta = Json::parse(readFile(metaPath(dir)));
    checkFormatVersion(meta, "corpus meta.json");
    core::CampaignConfig config = configFromJson(meta.at("config"));
    // An edited or mis-decoded config must not replay silently under
    // another definition than the one the corpus was written with.
    if (configFingerprint(config) != meta.at("fingerprint").asStr())
        throw CorpusError("corpus at " + dir + ": config does not match "
                          "its stored fingerprint");
    return config;
}

std::vector<core::ViolationRecord>
CorpusStore::readJournal(const std::string &dir)
{
    std::vector<core::ViolationRecord> records;
    std::set<std::string> keys;
    walkJournal((fs::path(dir) / "journal.jsonl").string(),
                [&](const Json &j) {
                    if (isQuarantineLine(j))
                        return; // facts, not records: see readQuarantined
                    core::ViolationRecord rec = recordFromJson(j);
                    if (keys.insert(recordKey(rec)).second)
                        records.push_back(std::move(rec));
                });
    return records;
}

std::vector<CorpusStore::QuarantineEntry>
CorpusStore::readQuarantined(const std::string &dir)
{
    std::map<unsigned, std::string> by_program;
    walkJournal((fs::path(dir) / "journal.jsonl").string(),
                [&](const Json &j) {
                    if (!isQuarantineLine(j))
                        return;
                    checkFormatVersion(j, "quarantine line");
                    by_program.emplace(j.at("programIndex").asUnsigned(),
                                       j.at("reason").asStr());
                });
    std::vector<QuarantineEntry> entries;
    entries.reserve(by_program.size());
    for (auto &[program, reason] : by_program)
        entries.push_back({program, std::move(reason)});
    return entries;
}

std::string
CorpusStore::exportCanonical(const std::string &dir)
{
    return exportCanonical(dir, readJournal(dir));
}

std::string
CorpusStore::exportCanonical(const std::string &dir,
                             std::vector<core::ViolationRecord> records)
{
    const Json meta = Json::parse(readFile(metaPath(dir)));
    std::sort(records.begin(), records.end(),
              [](const core::ViolationRecord &a,
                 const core::ViolationRecord &b) {
                  return recordKey(a) < recordKey(b);
              });

    Json header = Json::object();
    header.set("type", Json::str("corpus-export"));
    header.set("version", Json::number(std::uint64_t{kFormatVersion}));
    header.set("fingerprint", meta.at("fingerprint"));
    header.set("records", Json::number(std::uint64_t{records.size()}));

    std::string out = header.dump() + "\n";
    for (core::ViolationRecord &rec : records) {
        // detectSeconds is the only wall-clock field in a record; zero
        // it so exports are byte-identical across jobs/kill/resume.
        rec.detectSeconds = 0;
        out += toJson(rec).dump() + "\n";
    }
    return out;
}

std::size_t
CorpusStore::mergeInto(const std::string &dst_dir,
                       const std::vector<std::string> &src_dirs)
{
    if (src_dirs.empty())
        throw CorpusError("merge: no source corpora given");
    CorpusStore dst(dst_dir, readConfig(src_dirs.front()));
    std::size_t appended = 0;
    for (const std::string &src : src_dirs) {
        // The store constructor pinned dst's fingerprint; verify each
        // source against it before touching its journal.
        const std::string src_fp =
            configFingerprint(readConfig(src));
        if (src_fp != dst.fingerprint_) {
            throw CorpusError("merge: " + src +
                              " has fingerprint " + src_fp +
                              ", expected " + dst.fingerprint_);
        }
        for (const core::ViolationRecord &rec : readJournal(src)) {
            if (dst.append(rec))
                ++appended;
        }
        // Quarantine facts travel with a shard's journal: the merged
        // corpus must know which programs never produced results.
        for (const QuarantineEntry &q : readQuarantined(src))
            dst.appendQuarantine(q.programIndex, q.reason);
    }
    return appended;
}

} // namespace amulet::corpus
