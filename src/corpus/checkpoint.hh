/**
 * @file
 * Campaign checkpoints: resume an interrupted campaign mid-stream.
 *
 * A checkpoint is the merged sink state of every *completed* program —
 * counters, signature counts, format tallies, and that program's
 * violation records — keyed by program index. On resume the scheduler
 * preloads these outcomes into the ViolationSink and only runs the
 * missing indices; because a program's outcome is a pure function of
 * (config, program index, RNG stream) and streams are pre-split in
 * program order, the merged result equals an uninterrupted run on every
 * deterministic field (the jobs-invariant determinism contract extends
 * to kill/resume — see src/corpus/README.md).
 *
 * Writes are atomic (temp file + rename) and always ordered after the
 * journal appends of the programs they cover, so a checkpoint never
 * claims a program whose records the journal is missing.
 */

#ifndef AMULET_CORPUS_CHECKPOINT_HH
#define AMULET_CORPUS_CHECKPOINT_HH

#include <map>
#include <string>

#include "core/campaign.hh"
#include "runtime/violation_sink.hh"

namespace amulet::corpus
{

/** Completed outcomes keyed by program index. */
using CompletedOutcomes = std::map<unsigned, runtime::ProgramOutcome>;

/**
 * Atomically (re)write checkpoint.json in @p dir with the outcomes of
 * all completed programs of campaign @p config.
 */
void writeCheckpoint(const std::string &dir,
                     const core::CampaignConfig &config,
                     const CompletedOutcomes &completed);

/** One program's entry in checkpoint.json, as writeCheckpoint lists it
 *  (counters only: the records are journaled). */
std::string checkpointEntry(unsigned programIndex,
                            const runtime::ProgramOutcome &outcome);

/**
 * writeCheckpoint from @p entries, checkpointEntry() texts in program
 * order joined by commas, writing the same bytes. A campaign encodes
 * each program's entry once, when the program is reported or restored
 * (runtime::ViolationSink::setEntryEncoder), so a checkpoint costs one
 * join and one write instead of re-encoding every completed program.
 */
void writeCheckpointEntries(const std::string &dir,
                            const core::CampaignConfig &config,
                            const std::string &entries);

/**
 * Load the checkpoint in @p dir, or an empty map when none exists.
 * Throws CorpusError when the checkpoint belongs to a different campaign
 * config fingerprint (resuming someone else's campaign would silently
 * corrupt results).
 */
CompletedOutcomes loadCheckpoint(const std::string &dir,
                                 const core::CampaignConfig &config);

} // namespace amulet::corpus

#endif // AMULET_CORPUS_CHECKPOINT_HH
