#include "runtime/violation_sink.hh"

#include <stdexcept>

namespace amulet::runtime
{

ViolationSink::ViolationSink(unsigned numPrograms, unsigned maxRecords)
    : outcomes_(numPrograms), reported_(numPrograms, false),
      maxRecords_(maxRecords)
{
}

void
ViolationSink::report(unsigned programIndex, ProgramOutcome outcome)
{
    // Encoded before taking the lock (the encoder is fixed before the
    // first report), and kept under it with the reported flag.
    std::string entry =
        encodeEntry_ ? encodeEntry_(programIndex, outcome) : std::string();
    std::lock_guard<std::mutex> lock(mu_);
    // A hard error even in release builds: an out-of-range or duplicate
    // report means the scheduler handed out a bad program index, and
    // silently merging it would corrupt campaign results.
    if (programIndex >= outcomes_.size() || reported_[programIndex]) {
        throw std::logic_error(
            "ViolationSink: out-of-range or duplicate program report");
    }
    // Stream records *before* marking the program reported: if the
    // journal append throws (disk full), the program must not look
    // completed — a checkpoint taken concurrently would otherwise claim
    // records the journal never received. A partial append is harmless:
    // the program stays unreported, re-runs on resume, and the store's
    // dedup index drops the re-derived duplicates.
    if (onRecord_) {
        for (const core::ViolationRecord &rec : outcome.records)
            onRecord_(programIndex, rec);
    }
    if (encodeEntry_)
        entries_[programIndex] = std::move(entry);
    reported_[programIndex] = true;
    outcomes_[programIndex] = std::move(outcome);
}

void
ViolationSink::setEntryEncoder(EntryEncoder encoder)
{
    std::lock_guard<std::mutex> lock(mu_);
    encodeEntry_ = std::move(encoder);
    entries_.resize(outcomes_.size());
}

std::string
ViolationSink::checkpointEntries() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t size = 0;
    for (unsigned p = 0; p < entries_.size(); ++p)
        size += reported_[p] ? entries_[p].size() + 1 : 0;
    std::string out;
    out.reserve(size);
    for (unsigned p = 0; p < entries_.size(); ++p) {
        if (!reported_[p])
            continue;
        if (!out.empty())
            out += ',';
        out += entries_[p];
    }
    return out;
}

void
ViolationSink::setRecordCallback(RecordCallback callback)
{
    std::lock_guard<std::mutex> lock(mu_);
    onRecord_ = std::move(callback);
}

std::map<unsigned, ProgramOutcome>
ViolationSink::snapshotReported() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::map<unsigned, ProgramOutcome> snapshot;
    for (unsigned p = 0; p < outcomes_.size(); ++p) {
        if (!reported_[p])
            continue;
        const ProgramOutcome &out = outcomes_[p];
        ProgramOutcome copy;
        copy.ran = out.ran;
        copy.skippedProgram = out.skippedProgram;
        copy.testCases = out.testCases;
        copy.filteredTestCases = out.filteredTestCases;
        copy.effectiveClasses = out.effectiveClasses;
        copy.candidateViolations = out.candidateViolations;
        copy.validationRuns = out.validationRuns;
        copy.violatingTestCases = out.violatingTestCases;
        copy.confirmedViolations = out.confirmedViolations;
        copy.firstDetectSeconds = out.firstDetectSeconds;
        copy.testGenSec = out.testGenSec;
        copy.ctraceSec = out.ctraceSec;
        copy.filterSec = out.filterSec;
        copy.signatureCounts = out.signatureCounts;
        copy.formatTallies = out.formatTallies;
        copy.quarantined = out.quarantined;
        copy.quarantineReason = out.quarantineReason;
        // records intentionally omitted (see header).
        snapshot[p] = std::move(copy);
    }
    return snapshot;
}

core::CampaignStats
ViolationSink::finalize() const
{
    std::lock_guard<std::mutex> lock(mu_);
    core::CampaignStats stats;
    for (const ProgramOutcome &out : outcomes_) {
        stats.times.testGenSec += out.testGenSec;
        stats.times.ctraceSec += out.ctraceSec;
        stats.times.filterSec += out.filterSec;
        // Skips are counted whether or not the program's counters merge
        // (a cycle-cap abort has ran == false but is still a skip).
        if (out.skippedProgram)
            ++stats.skippedPrograms;
        // Quarantined programs contribute exactly one fact — the
        // quarantine — and no counters (ran stays false).
        if (out.quarantined)
            ++stats.quarantinedPrograms;
        if (!out.ran)
            continue;
        ++stats.programs;
        stats.testCases += out.testCases;
        stats.filteredTestCases += out.filteredTestCases;
        stats.effectiveClasses += out.effectiveClasses;
        stats.candidateViolations += out.candidateViolations;
        stats.validationRuns += out.validationRuns;
        stats.violatingTestCases += out.violatingTestCases;
        stats.confirmedViolations += out.confirmedViolations;
        if (out.firstDetectSeconds >= 0 &&
            (stats.firstDetectSeconds < 0 ||
             out.firstDetectSeconds < stats.firstDetectSeconds)) {
            stats.firstDetectSeconds = out.firstDetectSeconds;
        }
        for (const auto &[sig, count] : out.signatureCounts)
            stats.signatureCounts[sig] += count;
        for (const auto &[fmt, tally] : out.formatTallies) {
            core::FormatTally &merged = stats.formatTallies[fmt];
            merged.violatingTestCases += tally.violatingTestCases;
            merged.coveredByBaseline += tally.coveredByBaseline;
        }
        for (const core::ViolationRecord &rec : out.records) {
            if (stats.records.size() >= maxRecords_)
                break;
            stats.records.push_back(rec);
        }
    }
    return stats;
}

} // namespace amulet::runtime
