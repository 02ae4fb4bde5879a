/**
 * @file
 * Microarchitectural introspection: per-instruction pipeline lifecycle
 * tracing.
 *
 * A UarchTracer attaches to uarch::Pipeline (Pipeline::setTracer) and
 * records one InstLifecycle per fetched instruction, runahead NOPs past
 * the program's end included — fetch/issue/complete/commit/squash ticks,
 * squash cause and trigger, branch-prediction outcome, the effective
 * memory address, and the defense annotations (taint, undo-log,
 * spec-buffer, LFB) present when the instruction left the ROB or the
 * runahead tail. Squashed (transient) instructions are first-class records:
 * they are exactly the mis-speculation window the defenses exist to
 * police, and what Spectector-style leak localization diffs.
 *
 * Three exporters turn a finished run into standard visualizer inputs:
 *  - exportKanata:        Konata's native log (Kanata 0004)
 *  - exportO3PipeView:    gem5's O3PipeView lines (Konata reads these
 *                         too)
 *  - exportUarchChromeTrace: Chrome trace-event JSON (Perfetto), one
 *                         track per run, one complete event per inst
 *
 * Like the rest of src/telemetry/, tracing is observability only: the
 * tracer is attached around exactly the test-program run (never boot or
 * priming), hooks fire after the pipeline's own state updates, and no
 * recorded value feeds back — campaign exports are byte-identical with
 * tracing on or off (tests/test_uarch_trace.cc, verify.sh smoke).
 */

#ifndef AMULET_TELEMETRY_UARCH_TRACE_HH
#define AMULET_TELEMETRY_UARCH_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "uarch/dyn_inst.hh"

namespace amulet::telemetry
{

/** Why an in-flight instruction was squashed. */
enum class SquashCause : std::uint8_t
{
    None = 0,
    BranchMispredict, ///< wrong-path fetch past a mispredicted branch
    MemOrder,         ///< load read memory past an older aliasing store
};

/** Stable token for reports ("none", "branch-mispredict",
 *  "mem-order"). */
const char *squashCauseName(SquashCause cause);

/** Lifecycle of one dynamic instruction, as observed by the tracer. */
struct InstLifecycle
{
    SeqNum seq = 0;
    std::uint64_t idx = 0; ///< static instruction index
    Addr pc = 0;

    /** @name Stage ticks (a tick is only meaningful when the matching
     *  flag below is set) */
    /// @{
    Cycle fetchCycle = 0;
    Cycle issueCycle = 0;
    Cycle completeCycle = 0; ///< execution finished (value/branch final)
    Cycle commitCycle = 0;
    Cycle squashCycle = 0;
    /// @}

    bool issued = false;
    bool completed = false;
    bool committed = false;
    bool squashed = false;
    SquashCause squashCause = SquashCause::None;
    SeqNum squashTrigger = 0; ///< seq of the branch/store that squashed us

    /** @name Kind + branch outcome */
    /// @{
    bool isLoad = false;
    bool isStore = false;
    bool isBranch = false;
    bool predTaken = false;
    bool actualTaken = false;
    bool mispredicted = false;
    /// @}

    /** @name Memory */
    /// @{
    bool memAddrKnown = false; ///< address was generated before removal
    Addr memAddr = 0;
    /// @}

    /** @name Defense / speculation annotations (state at completion,
     *  commit, or squash — whichever came last) */
    /// @{
    bool wasUnsafeAtIssue = false;
    bool tainted = false;       ///< STT
    bool exposePending = false; ///< InvisiSpec
    bool inSpecBuffer = false;  ///< InvisiSpec
    bool lfbHeld = false;       ///< SpecLFB
    bool undoLogged = false;    ///< CleanupSpec
    bool forwardedFromStore = false;
    bool bypassedUnknownStore = false;
    /// @}

    bool operator==(const InstLifecycle &) const = default;
};

/** One traced pipeline run: every fetched instruction in fetch order,
 *  plus a self-contained disassembly table indexed by static idx. */
struct UarchRunTrace
{
    std::string label; ///< consumer-assigned ("inputA", …); not recorded
    Cycle cycles = 0;  ///< run length (RunResult::cycles)
    /** "label: mnemonic …" per static instruction; runahead fetches can
     *  carry idx >= disasm.size() (treated as runahead NOPs). */
    std::vector<std::string> disasm;
    std::vector<InstLifecycle> insts; ///< fetch order, seq ascending

    bool operator==(const UarchRunTrace &) const = default;
};

/**
 * The tracer. Thread-confined like a TelemetrySink: owned by whoever
 * drives the harness, attached to the pipeline only for the runs to
 * observe. Hooks are O(1): per-run seq numbers start at 1 and fetch
 * order is seq order, so the record for seq s lives at insts[s - s0].
 */
class UarchTracer
{
  public:
    /** Begin observing one run. @p disasm is the loaded program's
     *  per-idx disassembly (copied into the finished trace). */
    void beginRun(const std::vector<std::string> &disasm);

    /** Finish the current run and file it (takeRuns returns it). */
    void endRun(Cycle cycles);

    /** A run is being recorded (between beginRun and endRun). */
    bool inRun() const { return inRun_; }

    /** @name Pipeline hooks (called by uarch::Pipeline when attached) */
    /// @{
    void onFetch(const uarch::DynInst &d, Cycle now);
    void onIssue(const uarch::DynInst &d, Cycle now);
    void onComplete(const uarch::DynInst &d, Cycle now);
    void onSquash(const uarch::DynInst &d, Cycle now, SquashCause cause,
                  SeqNum trigger);
    void onCommit(const uarch::DynInst &d, Cycle now);
    /// @}

    /** Finished runs in execution order; clears the store. */
    std::vector<UarchRunTrace> takeRuns();

  private:
    InstLifecycle *recordFor(SeqNum seq);

    UarchRunTrace current_;
    SeqNum firstSeq_ = 0; ///< seq of the run's first fetched inst
    bool inRun_ = false;
    std::vector<UarchRunTrace> runs_;
};

/** @name Exporters */
/// @{
/** Konata's native format: "Kanata\t0004" header, one lane of
 *  F/X/CM stage spans per instruction, R retire/flush terminators.
 *  Every S (stage begin) is balanced by an E (stage end) before the
 *  instruction retires or flushes. */
std::string exportKanata(const UarchRunTrace &run);

/** gem5 O3PipeView lines (Konata's second input format; 1000 ticks per
 *  cycle, tick 0 = stage skipped / squashed-before). */
std::string exportO3PipeView(const UarchRunTrace &run);

/** Chrome trace-event JSON: one track (tid) per run, one complete
 *  ("X") event per instruction spanning fetch → last lifecycle tick.
 *  Events are emitted in fetch order, so ts is monotonic per tid.
 *  Loadable by Perfetto and chrome://tracing. */
std::string
exportUarchChromeTrace(const std::vector<UarchRunTrace> &runs);
/// @}

/** First point where two runs of the same program diverge
 *  (Spectector-style leak localization on μarch observations). */
struct Divergence
{
    bool found = false;
    /** Where the diverging observation happened. */
    std::uint64_t idx = 0; ///< static instruction index
    Addr pc = 0;
    std::string disasm;
    /** What differed ("memory access #k address", "branch direction",
     *  …) plus the per-run values. */
    std::string what;
    std::string detailA;
    std::string detailB;
};

/**
 * Locate the first divergent instruction between two traced runs:
 * compares the issue-ordered load/store observations (squashed
 * transient accesses included — they are the leak), then branch
 * resolution, then raw lifecycles. Not found means the runs are
 * μarch-indistinguishable at this granularity.
 */
Divergence firstDivergence(const UarchRunTrace &a,
                           const UarchRunTrace &b);

} // namespace amulet::telemetry

#endif // AMULET_TELEMETRY_UARCH_TRACE_HH
