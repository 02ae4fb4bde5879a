/**
 * @file
 * Exact violation replay (§3.3).
 *
 * A journaled ViolationRecord carries everything its detection depended
 * on: the program (as disassembly), the input pair, and the starting
 * μarch contexts of both runs. The replayer reassembles the program,
 * rebuilds a SimHarness from the corpus config, restores each recorded
 * context, re-executes both inputs, and checks bit-for-bit that (a) each
 * replayed trace equals the recorded one and (b) the pair still
 * diverges. This is what makes a corpus a regression suite: minimization
 * (minimizeViolation) and root-causing (renderSideBySide) run offline
 * from journaled records instead of only inside a live campaign.
 */

#ifndef AMULET_CORPUS_REPLAYER_HH
#define AMULET_CORPUS_REPLAYER_HH

#include <string>

#include "core/campaign.hh"
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
};

/**
 * Replay @p record on @p harness (which must have been built from the
 * corpus' campaign config — use the convenience overload otherwise).
 * The harness' loaded program is replaced. Throws CorpusError when the
 * recorded program no longer assembles or a recorded context does not
 * fit the configured core.
 */
ReplayOutcome replayViolation(executor::SimHarness &harness,
                              const core::ViolationRecord &record);

/** Convenience: boot a fresh harness from @p config and replay. */
ReplayOutcome replayViolation(const core::CampaignConfig &config,
                              const core::ViolationRecord &record);

/**
 * Reassemble and flatten a record's program at the config's code base —
 * shared by replay, offline minimization, and root-cause rendering.
 */
isa::Program reparseProgram(const core::ViolationRecord &record);

} // namespace amulet::corpus

#endif // AMULET_CORPUS_REPLAYER_HH
