#include "corpus/checkpoint.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "corpus/fields.hh"
#include "runtime/fault.hh"

namespace fs = std::filesystem;

namespace amulet::corpus
{

namespace
{

std::string
checkpointPath(const std::string &dir)
{
    return (fs::path(dir) / "checkpoint.json").string();
}

} // namespace

std::string
checkpointEntry(unsigned programIndex, const runtime::ProgramOutcome &outcome)
{
    Json entry = Json::object();
    entry.set("programIndex", Json::number(std::uint64_t{programIndex}));
    entry.set("outcome", encode(outcome));
    return entry.dump();
}

void
writeCheckpoint(const std::string &dir, const core::CampaignConfig &config,
                const CompletedOutcomes &completed)
{
    std::string entries;
    for (const auto &[index, outcome] : completed) {
        if (!entries.empty())
            entries += ',';
        entries += checkpointEntry(index, outcome);
    }
    writeCheckpointEntries(dir, config, entries);
}

void
writeCheckpointEntries(const std::string &dir,
                       const core::CampaignConfig &config,
                       const std::string &entries)
{
    Json j = Json::object();
    j.set("version", Json::number(std::uint64_t{kFormatVersion}));
    // The fingerprint covers the whole campaign definition (including
    // numPrograms), so no further identity fields are needed here.
    j.set("fingerprint", Json::str(configFingerprint(config)));
    j.set("outcomes", Json::array());
    // The canonical dump of the document with the entries as the items
    // of "outcomes", which its dump ends in: "[]}".
    std::string dump = j.dump();
    dump.insert(dump.size() - 2, entries);

    const std::string path = checkpointPath(dir);
    const std::string tmp = path + ".tmp";
    // Deterministic chaos site (src/runtime/fault.hh): fail the write
    // inside the crash window the tmp+rename dance protects against — a
    // torn tmp file and no rename. The previous checkpoint must stay
    // intact and the campaign must keep running (the scheduler treats a
    // failed checkpoint write as lost progress-markers, not lost data).
    if (const auto *plan = runtime::fault::FaultPlan::active()) {
        if (plan->fires("checkpoint.fail",
                        plan->occurrence("checkpoint.fail"))) {
            std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
            out << dump.substr(0, dump.size() / 2);
            throw CorpusError("cannot write " + tmp +
                              " (injected ENOSPC)");
        }
    }
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        out << dump << "\n";
        out.flush();
        if (!out)
            throw CorpusError("cannot write " + tmp);
    }
    // Atomic within one filesystem: a reader sees the old checkpoint or
    // the new one, never a torn file.
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec)
        throw CorpusError("cannot rename " + tmp + ": " + ec.message());
}

CompletedOutcomes
loadCheckpoint(const std::string &dir, const core::CampaignConfig &config)
{
    CompletedOutcomes completed;
    const std::string path = checkpointPath(dir);
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return completed; // no checkpoint yet: resume from scratch

    std::ostringstream os;
    os << in.rdbuf();
    const Json j = Json::parse(os.str());
    checkFormatVersion(j, "checkpoint");
    const std::string fingerprint = configFingerprint(config);
    if (j.at("fingerprint").asStr() != fingerprint) {
        throw CorpusError("checkpoint in " + dir +
                          " belongs to a different campaign config");
    }
    for (const Json &entry : j.at("outcomes").items()) {
        const unsigned index = entry.at("programIndex").asUnsigned();
        if (index >= config.numPrograms)
            throw CorpusError("checkpoint program index out of range");
        completed[index] =
            decode<runtime::ProgramOutcome>(entry.at("outcome"));
    }
    return completed;
}

} // namespace amulet::corpus
