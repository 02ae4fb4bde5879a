/**
 * @file
 * Thread-safe collection point for parallel campaign results.
 *
 * Workers publish one ProgramOutcome per test program; the sink merges
 * them into a single CampaignStats:
 *
 *  - counters are sum-merged,
 *  - firstDetectSeconds is min-merged,
 *  - violations are deduplicated by signature into signatureCounts,
 *  - records are emitted in *program order* with the global cap applied,
 *    so the merged result is identical for any worker count or
 *    completion order (the runtime's determinism contract).
 */

#ifndef AMULET_RUNTIME_VIOLATION_SINK_HH
#define AMULET_RUNTIME_VIOLATION_SINK_HH

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/campaign.hh"
#include "core/violation.hh"
#include "executor/sim_harness.hh"

namespace amulet::runtime
{

/** The per-program stats unit the sink merges. Defined in core (it is
 *  the product of the src/pipeline/ stages); aliased here because the
 *  runtime and corpus layers historically name it through runtime::. */
using ProgramOutcome = core::ProgramOutcome;

/** Thread-safe, order-insensitive campaign-stats merger. */
class ViolationSink
{
  public:
    ViolationSink(unsigned numPrograms, unsigned maxRecords);

    /** Publish the outcome of program @p programIndex. Thread-safe;
     *  each index must be reported at most once. */
    void report(unsigned programIndex, ProgramOutcome outcome);

    /** Streamed per confirmed record as its outcome is reported. */
    using RecordCallback =
        std::function<void(unsigned programIndex,
                           const core::ViolationRecord &record)>;

    /**
     * Stream every subsequently reported record to @p callback (invoked
     * under the sink lock, in within-program detection order). The
     * corpus store subscribes here; outcomes preloaded from a checkpoint
     * are reported *before* the subscription so their records — already
     * journaled by the killed run — are not streamed twice.
     */
    void setRecordCallback(RecordCallback callback);

    /** Copy of all reported outcomes keyed by program index — a
     *  checkpoint payload, so the records vectors are left out: they
     *  are journaled separately, and deep-copying every record under
     *  the sink lock would stall workers for data the checkpoint
     *  serializer discards anyway. Thread-safe. */
    std::map<unsigned, ProgramOutcome> snapshotReported() const;

    /** A program's checkpoint entry (corpus::checkpointEntry). */
    using EntryEncoder = std::function<std::string(
        unsigned programIndex, const ProgramOutcome &outcome)>;

    /** Encode every subsequently reported outcome (a restored one too)
     *  once, as it is reported, and keep the text for
     *  checkpointEntries(). Set it before the first report; reporters
     *  call it outside the sink lock, concurrently. */
    void setEntryEncoder(EntryEncoder encoder);

    /** The kept entries of every reported program in program order,
     *  joined by commas: the payload of corpus::writeCheckpointEntries,
     *  built without encoding anything. Thread-safe. */
    std::string checkpointEntries() const;

    /**
     * Deterministic merge of all reported outcomes, in program order.
     * Call after all workers finished. The scheduler owns wallSeconds /
     * jobs and overwrites the whole TimeBreakdown from the telemetry
     * registry (src/telemetry/), which also tracks the harness sections
     * the outcomes do not carry; the campaign-phase sums computed here
     * keep the class coherent for standalone (test) use.
     */
    core::CampaignStats finalize() const;

  private:
    mutable std::mutex mu_;
    std::vector<ProgramOutcome> outcomes_; ///< indexed by program
    std::vector<bool> reported_;
    unsigned maxRecords_;
    RecordCallback onRecord_;
    EntryEncoder encodeEntry_;
    std::vector<std::string> entries_; ///< indexed by program when encoding
};

} // namespace amulet::runtime

#endif // AMULET_RUNTIME_VIOLATION_SINK_HH
