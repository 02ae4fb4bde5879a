/**
 * @file
 * STT — Speculative Taint Tracking (Yu et al., MICRO 2019), Futuristic.
 *
 * Data returned by speculative "access" loads is tainted; taint propagates
 * through the dataflow graph; "transmit" instructions (loads/stores whose
 * *address* depends on tainted data) are blocked from executing until the
 * taint is lifted, which happens when the access load reaches the
 * visibility point (becomes safe under the Futuristic model).
 *
 * Taint and untaint spread as dataflow broadcasts, as in the published
 * design, over the pipeline's consumer lists (Pipeline::consumers): an
 * entry's taint is recomputed only when one of its inputs may have
 * changed — it was renamed, it issued, it became safe, or a producer's
 * taint flipped — and a flip queues its consumers. tick() drains that
 * queue oldest first, so every TaintSet/TaintLift fires in the same
 * cycle and seq order as a whole-ROB forward pass would log them.
 *
 * The as-published gem5 implementation carries the bug AMuLeT confirmed
 * (KV3, previously found by DOLMA): tainted speculative *stores* still
 * execute their address translation, installing a D-TLB entry that leaks
 * the tainted address. `bugTaintedStoreTlb=false` blocks tainted stores
 * entirely (the DOLMA-style fix).
 */

#ifndef AMULET_DEFENSE_STT_HH
#define AMULET_DEFENSE_STT_HH

#include <vector>

#include "defense/defense.hh"

namespace amulet::defense
{

/** Speculative Taint Tracking countermeasure. */
class Stt final : public Defense
{
  public:
    explicit Stt(bool bug_tainted_store_tlb = true)
        : bugTaintedStoreTlb_(bug_tainted_store_tlb)
    {
    }

    std::string name() const override { return "STT"; }
    SpecMode specMode() const override { return SpecMode::Futuristic; }

    void reset() override;
    void tick() override;
    void onIssue(DynInst &inst) override;
    void onBecameSafe(DynInst &inst) override;
    bool blockLoadIssue(DynInst &inst) override;
    bool blockStoreExec(DynInst &inst) override;
    void onStoreAddrReady(DynInst &inst) override;

    /** Event-horizon audit: STT holds no countdowns. Taint inputs change
     *  only at rename, issue, becoming safe and squash; tick() settles
     *  everything queued since the last tick and then holds the full
     *  fixpoint, so over unchanged pipeline state it logs nothing
     *  (TaintSet/TaintLift fire on transitions only). The blocking
     *  hooks are pure queries of that fixpoint (TransmitBlocked is
     *  first-attempt-latched via blockLogged). Work is queued only in
     *  cycles that rename or issue, which the pipeline's progress marks
     *  never skip; the horizon still pins now + 1 while a queued or
     *  unseen renamed entry waits, since skipping must be sound without
     *  those marks (src/uarch/README.md). */
    Cycle nextEventCycle(Cycle now) const override;

  private:
    /** The full forward fixpoint's value for @p e, given its producers'
     *  current bits. */
    bool taintOf(const DynInst &e) const;
    bool addrTainted(const DynInst &inst) const;
    void enqueue(const SlotRef &ref);
    /** Debug reference: every live entry's bit equals taintOf (the
     *  whole-ROB pass tick() replaced; producers are older, so ROB
     *  order checks each entry against verified inputs). */
    bool fixpointHolds() const;

    bool bugTaintedStoreTlb_;
    /** Entries whose taint may have changed: a min-heap on seq. */
    std::vector<SlotRef> pending_;
    /** Youngest seq already queued at rename (per run). */
    SeqNum renamedUpTo_ = kNoSeq;
};

} // namespace amulet::defense

#endif // AMULET_DEFENSE_STT_HH
