/**
 * @file
 * Exact violation replay (§3.3).
 *
 * A journaled ViolationRecord carries everything its detection depended
 * on: the program (as disassembly), the input pair, and the starting
 * μarch contexts of both runs. The replayer reassembles the program,
 * re-runs the pair on a SimHarness built from the corpus config, each
 * input from its recorded context (SimHarness::replayPair), and checks
 * bit for bit that (a) each replayed trace equals the recorded one and
 * (b) the pair still diverges. This is what makes a corpus a regression
 * suite: `campaign_cli replay` confirms every record, `replay
 * --minimize` shrinks it (minimizeViolation), and `campaign_cli inspect`
 * renders its pipeline traces and side-by-side event table from one
 * traced, event-logged replay.
 */

#ifndef AMULET_CORPUS_REPLAYER_HH
#define AMULET_CORPUS_REPLAYER_HH

#include <string>

#include "core/violation.hh"
#include "executor/sim_harness.hh"

namespace amulet::corpus
{

/** Verdict of one record replay. */
struct ReplayOutcome
{
    bool reproducedA = false; ///< replayed trace A == recorded trace A
    bool reproducedB = false; ///< replayed trace B == recorded trace B
    bool diverges = false;    ///< replayed traces differ (the violation)

    /** The record replays exactly and still violates. */
    bool
    confirmed() const
    {
        return reproducedA && reproducedB && diverges;
    }

    /** Human-readable explanation when not confirmed. */
    std::string detail;

    /** The replay's two runs, with their event logs when asked. */
    executor::SimHarness::PairOutput runs;
};

/**
 * Replay @p record on @p harness, which must have been built from the
 * corpus' campaign config; @p logEvents keeps each run's event log. The
 * harness' loaded program is replaced. Throws CorpusError when the
 * recorded program no longer assembles or a recorded context does not
 * fit the configured core.
 */
ReplayOutcome replayViolation(executor::SimHarness &harness,
                              const core::ViolationRecord &record,
                              bool logEvents = false);

/** Reassemble a record's program — shared by replay and offline
 *  minimization. Throws CorpusError when it no longer assembles. */
isa::Program reparseProgram(const core::ViolationRecord &record);

} // namespace amulet::corpus

#endif // AMULET_CORPUS_REPLAYER_HH
