/**
 * @file
 * Out-of-order speculative pipeline (the gem5-O3 substitute).
 *
 * A cycle-stepped core with: fetch along the predicted path (stalling on
 * L1I misses and running ahead past the test's HALT), register renaming,
 * dataflow issue, a load-store queue with store-to-load forwarding and
 * memory-dependence speculation (Spectre-v4), branch-misprediction and
 * memory-order squashes, and in-order commit. The memory side runs through
 * MemSystem's in-order L1D controller queue with finite MSHRs.
 *
 * The ROB holds program instructions only. The NOPs fetched past the
 * program's end occupy ROB capacity and issue width but are counted in a
 * runahead tail behind the last entry, not built as DynInsts
 * (src/uarch/README.md has why that is exact).
 *
 * Execution is execute-at-issue: architectural values are computed from
 * the dataflow graph while the memory system provides timing and the
 * cache/TLB state that μarch traces snapshot. A Defense object is
 * consulted at fixed hook points (see defense/defense.hh).
 */

#ifndef AMULET_UARCH_PIPELINE_HH
#define AMULET_UARCH_PIPELINE_HH

#include <array>
#include <memory>
#include <vector>

#include "common/event_log.hh"
#include "common/ring_deque.hh"
#include "common/types.hh"
#include "isa/program.hh"
#include "mem/memory_image.hh"
#include "uarch/dyn_inst.hh"
#include "uarch/mem_system.hh"
#include "uarch/params.hh"
#include "uarch/predictors.hh"

namespace amulet::defense
{
class Defense;
} // namespace amulet::defense

namespace amulet::telemetry
{
class UarchTracer;
} // namespace amulet::telemetry

namespace amulet::uarch
{

/** Outcome of one test-case run. */
struct RunResult
{
    bool halted = false;        ///< HALT committed
    Cycle cycles = 0;
    std::uint64_t committedInsts = 0;
    std::uint64_t squashes = 0;
    bool hitCycleCap = false;

    bool operator==(const RunResult &) const = default;
};

/** One dynamic memory access, in execution order (μarch trace format 3). */
struct AccessRecord
{
    Addr pc;
    Addr addr;
    bool isStore;
    SeqNum seq;
    Cycle cycle;

    bool
    operator==(const AccessRecord &o) const
    {
        // Trace equality ignores seq/cycle: the observable is the ordered
        // list of (pc, addr, kind) transactions.
        return pc == o.pc && addr == o.addr && isStore == o.isStore;
    }
};

/** One fetch-time branch prediction (μarch trace format 4). */
struct BranchPredRecord
{
    Addr pc;
    Addr predTargetPc;

    bool operator==(const BranchPredRecord &) const = default;
};

/** The out-of-order core. */
class Pipeline
{
  public:
    Pipeline(const CoreParams &params, mem::MemoryImage &memory,
             EventLog &log);
    ~Pipeline();

    /** Attach the countermeasure under test (must outlive the pipeline).
     */
    void setDefense(defense::Defense *defense);

    /** Select the program to run (must outlive the run). */
    void setProgram(const isa::FlatProgram *prog);

    /** Attach a lifecycle tracer (nullptr to detach). Observability
     *  only: hooks fire after the pipeline's own bookkeeping and feed
     *  nothing back, so a run behaves identically traced or not. */
    void setTracer(telemetry::UarchTracer *tracer) { tracer_ = tracer; }

    /** Initialize the committed architectural register/flag state. */
    void setArchRegs(const std::array<RegVal, isa::kNumRegs> &regs,
                     isa::Flags flags);

    /** Run from instruction 0 until HALT commits (or the cycle cap).
     *  @p cycle_cap overrides params().maxCyclesPerRun when nonzero —
     *  the harness uses it to run its fixed, known-terminating
     *  boot/priming programs under a bound proportional to their own
     *  length, so a deliberately tight test-run cap cannot truncate
     *  startup or cache priming. */
    RunResult run(Cycle cycle_cap = 0);

    /** @name State access */
    /// @{
    MemSystem &memSys() { return mem_; }
    const MemSystem &memSys() const { return mem_; }
    BranchPredictor &branchPredictor() { return bp_; }
    MemDepPredictor &memDepPredictor() { return mdp_; }
    const std::array<RegVal, isa::kNumRegs> &archRegs() const
    {
        return committedRegs_;
    }
    isa::Flags archFlags() const { return committedFlags_; }
    const CoreParams &params() const { return params_; }
    Cycle now() const { return now_; }
    EventLog &log() { return log_; }
    /// @}

    /** @name Execution-order logs (alternative μarch trace formats) */
    /// @{
    const std::vector<AccessRecord> &accessOrder() const
    {
        return accessOrder_;
    }
    const std::vector<BranchPredRecord> &branchPredOrder() const
    {
        return branchPredOrder_;
    }
    /// @}

    /** @name Cycle skipping (event-horizon fast-forward)
     *  Results-invariant: with skipping on, quiescent cycles — cycles
     *  in which no pipeline, memory-system, or defense state can change
     *  — are elided by jumping now_ to the next scheduled event, so
     *  committed-instruction cycles, EventLog timestamps, tracer
     *  lifecycles, and traces are byte-identical either way
     *  (tests/test_equivalence.cc; src/uarch/README.md has the soundness
     *  argument). */
    /// @{
    void setCycleSkip(bool on) { cycleSkip_ = on; }
    bool cycleSkip() const { return cycleSkip_; }
    /** @name Per-run skip statistics (reset at each run()) */
    /// @{
    std::uint64_t skippedCycles() const { return skippedCycles_; }
    std::uint64_t skipWindows() const { return skipWindows_; }
    const std::vector<Cycle> &skipLengths() const { return skipLengths_; }
    /// @}
    /// @}

    /** @name Defense support */
    /// @{
    /** In-flight instruction by sequence number (nullptr if retired,
     *  squashed, or never existed). */
    DynInst *entry(SeqNum seq);
    const DynInst *entry(SeqNum seq) const;
    /** O(1) producer resolution through the rename-time slot link
     *  (nullptr: producer retired — read committed state). */
    const DynInst *producerOf(const DynInst::SrcReg &src) const
    {
        if (src.producer == kNoSeq)
            return nullptr;
        const DynInst *p = rob_.atSlot(src.producerSlot);
        return p && p->seq == src.producer ? p : nullptr;
    }
    const DynInst *flagsProducerOf(const DynInst &inst) const
    {
        if (inst.flagsProducer == kNoSeq)
            return nullptr;
        const DynInst *p = rob_.atSlot(inst.flagsProducerSlot);
        return p && p->seq == inst.flagsProducer ? p : nullptr;
    }
    /** The live entry @p ref names (nullptr: committed or squashed). */
    DynInst *
    liveAt(const SlotRef &ref)
    {
        DynInst *e = rob_.atSlot(ref.slot);
        return e && e->seq == ref.seq ? e : nullptr;
    }
    const DynInst *
    liveAt(const SlotRef &ref) const
    {
        const DynInst *e = rob_.atSlot(ref.slot);
        return e && e->seq == ref.seq ? e : nullptr;
    }
    /** Dataflow edges: the younger entries that named @p producer at
     *  rename, as a register source or (needsFlags) as flags producer,
     *  once each, in seq order. Squashed consumers leave stale handles
     *  (liveAt fails) at the tail until the next consumer links. */
    const std::vector<SlotRef> &
    consumers(const DynInst &producer) const
    {
        return consumers_[producer.robSlot];
    }
    /** The reorder buffer, oldest first: program instructions only (the
     *  runahead NOPs past the program's end are counted, not stored). */
    RingDeque<DynInst> &rob() { return rob_; }
    /** The program being run (nullptr before setProgram). */
    const isa::FlatProgram *program() const { return prog_; }
    /** Is there an older in-flight load than @p seq marked unsafe-held?
     *  (SpecLFB's isPrevNoUnsafe check.) */
    bool olderUnsafeLoadExists(SeqNum seq) const;
    /** Resolve the value of one renamed source (producer must be executed
     *  or retired). */
    std::uint64_t readSrcValue(const DynInst::SrcReg &src) const;
    /// @}

  private:
    /** @name Per-cycle stages */
    /// @{
    void computeSafety();
    void commitStage();
    void executeStage();
    void issueStage();
    void advanceMemOps();
    void fetchStage();
    /// @}

    /** @name Helpers */
    /// @{
    void reset();
    DynInst makeDynInst(std::size_t idx);
    /** Would fetching @p idx overflow the load or store queue? */
    bool
    lsqFullFor(std::size_t idx) const
    {
        if (idx >= prog_->numInsts())
            return false; // a runahead NOP
        const isa::Inst &si = prog_->inst(idx);
        return (si.isLoad() && loadsInFlight_ >= params_.lqSize) ||
               (si.isStore() && storesInFlight_ >= params_.sqSize);
    }
    /** The @p k-th runahead NOP as the tracer records it. */
    DynInst tailInst(std::size_t k) const;
    void issueTail(unsigned budget);
    isa::Flags readFlagsValue(const DynInst &inst) const;
    bool srcsReady(const DynInst &inst, bool address_only) const;
    bool srcsReadyScan(const DynInst &inst, bool address_only) const;
    void linkConsumer(std::uint32_t producer_slot, const DynInst &consumer);
    bool consumersMatchScan(const DynInst &producer) const;
    void broadcastExecuted(const DynInst &producer);
    bool tryIssue(DynInst &inst);
    void issueStageWithFences();
    static void insertBySeq(std::vector<SlotRef> &list,
                            std::uint32_t slot, SeqNum seq);
    Cycle nextLocalEventCycle() const;
    void skipToNextEvent(Cycle cap);
    /** Does @p e keep every younger entry unsafe? */
    bool
    isSafetyRisk(const DynInst &e) const
    {
        return ((e.isBranch() || e.si.op == isa::Op::Fence) &&
                !e.executed) ||
               (specMode_ == SpecMode::Futuristic && e.isStore &&
                !e.addrReady);
    }
    std::size_t safeFrontierIndex() const;
    bool safetyMatchesScan() const;
    /** Issued memory op still owed work by advanceMemOps: translation
     *  or an older store (loads), translation (pure stores). */
    static bool
    waitsOnMemSide(const DynInst &e)
    {
        if (e.isLoad)
            return e.loadPhase == LoadPhase::WaitTlb ||
                   e.loadPhase == LoadPhase::WaitStore;
        return e.isStore && !e.addrReady;
    }
    bool memWorkMatchesScan() const;
    Addr computeEffAddr(const DynInst &inst) const;
    void finalizeData(DynInst &inst);
    void resolveBranch(DynInst &inst);
    void squashAfter(SeqNum keep_up_to, std::size_t new_fetch_idx,
                     std::uint32_t restore_ghr, EventKind reason,
                     SeqNum trigger_seq);
    void rebuildRenameTable();
    void storeResolved(DynInst &store);
    void tryStartLoadAccess(DynInst &inst);
    void onMemReqComplete(const MemReq &req);
    bool
    rangesOverlap(Addr a, unsigned asz, Addr b, unsigned bsz) const
    {
        return a < b + bsz && b < a + asz;
    }
    /// @}

    const CoreParams &params_;
    mem::MemoryImage &memory_;
    EventLog &log_;
    MemSystem mem_;
    BranchPredictor bp_;
    MemDepPredictor mdp_;
    defense::Defense *defense_ = nullptr;
    std::unique_ptr<defense::Defense> defaultDefense_;
    telemetry::UarchTracer *tracer_ = nullptr;

    const isa::FlatProgram *prog_ = nullptr;

    /** @name Run state */
    /// @{
    /** Ring buffer sized to robSize up front: per-input reset keeps the
     *  slots, so steady-state fetch/commit never allocates. */
    RingDeque<DynInst> rob_;
    SeqNum nextSeq_ = 1;
    std::size_t fetchIdx_ = 0;
    bool fetchStalledOnL1i_ = false;
    std::array<SeqNum, isa::kNumRegs> renameReg_{};
    SeqNum renameFlags_ = kNoSeq;
    /** ROB physical slot of each rename-table producer (kNoSlot where
     *  renameReg_/renameFlags_ is kNoSeq); consulted at rename so every
     *  SrcReg carries its producer's slot link. */
    std::array<std::uint32_t, isa::kNumRegs> renameRegSlot_{};
    std::uint32_t renameFlagsSlot_ = DynInst::kNoSlot;

    /** @name Wakeup scoreboard ready lists (seq-sorted, lazily
     *  validated). issueReady_: not-yet-issued entries whose relevant
     *  pending counter is zero (defense-blocked entries stay and are
     *  retried). execList_: issued-not-yet-executed entries. With any
     *  fence in flight issueStage falls back to the full in-order scan
     *  (the fence barrier needs cumulative older-executed state); the
     *  lists stay maintained throughout so the walk resumes complete. */
    /// @{
    std::vector<SlotRef> issueReady_;
    std::vector<SlotRef> execList_;
    unsigned fencesInFlight_ = 0;
    /// @}

    /** Consumer lists (see consumers()), indexed by the producer's ROB
     *  slot and cleared when the slot's next owner is fetched. Each is
     *  reserved to robSize up front: after a link it holds only live
     *  consumers, so it never outgrows that. */
    std::vector<std::vector<SlotRef>> consumers_;

    /** @name Incremental bookkeeping (src/uarch/README.md)
     *  safeFrontier_: every live entry older than this seq is safe and
     *  can never become a safety risk again, so computeSafety resumes
     *  here. memWork_: issued memory ops still waiting on translation
     *  or an older store, seq-sorted and lazily validated like the
     *  ready lists; advanceMemOps walks only these. */
    /// @{
    SeqNum safeFrontier_ = 1;
    SpecMode specMode_ = SpecMode::Futuristic; ///< the defense's, per run
    std::vector<SlotRef> memWork_;
    /// @}

    /** @name Runahead tail (src/uarch/README.md)
     *  The NOPs fetched past the program's end, always the youngest run
     *  of in-flight instructions: seqs and idxs consecutive from
     *  tailSeq_/tailIdx_. Each count is the length of a prefix of the
     *  tail: fetched >= issued >= executed, and fetched >= safe. */
    /// @{
    SeqNum tailSeq_ = kNoSeq;
    std::size_t tailIdx_ = 0;
    std::size_t tailFetched_ = 0;
    std::size_t tailIssued_ = 0;
    std::size_t tailExecuted_ = 0;
    std::size_t tailSafe_ = 0;
    /// @}

    /** @name Cycle skipping */
    /// @{
    bool cycleSkip_ = true;
    /** Any state change this cycle? Cheap filter only: quiescence is
     *  re-derived from state in nextLocalEventCycle(), so a missed
     *  progress site costs skip opportunities, never correctness. */
    bool progress_ = false;
    std::uint64_t skippedCycles_ = 0;
    std::uint64_t skipWindows_ = 0;
    std::vector<Cycle> skipLengths_;
    /// @}
    std::array<RegVal, isa::kNumRegs> committedRegs_{};
    isa::Flags committedFlags_;
    Cycle now_ = 0;
    bool halted_ = false;
    std::uint64_t committedInsts_ = 0;
    std::uint64_t squashes_ = 0;
    unsigned loadsInFlight_ = 0;
    unsigned storesInFlight_ = 0;
    /// @}

    std::vector<AccessRecord> accessOrder_;
    std::vector<BranchPredRecord> branchPredOrder_;
};

} // namespace amulet::uarch

#endif // AMULET_UARCH_PIPELINE_HH
