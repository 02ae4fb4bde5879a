/**
 * @file
 * Defense hook interface.
 *
 * Secure-speculation countermeasures are implemented against a fixed set
 * of hook points the pipeline consults at well-defined moments, mirroring
 * the paper's claim that AMuLeT integrations require no intrusive changes
 * to the simulator: each defense is an isolated module implementing this
 * interface (plus its own private structures such as the InvisiSpec
 * speculative buffer or the CleanupSpec undo log).
 */

#ifndef AMULET_DEFENSE_DEFENSE_HH
#define AMULET_DEFENSE_DEFENSE_HH

#include <string>

#include "common/event_log.hh"
#include "uarch/dyn_inst.hh"
#include "uarch/mem_system.hh"
#include "uarch/params.hh"

namespace amulet::uarch
{
class Pipeline;
} // namespace amulet::uarch

namespace amulet::defense
{

using uarch::DynInst;
using uarch::FillDest;
using uarch::MemReq;
using uarch::MemSystem;
using uarch::Pipeline;
using uarch::ReqKind;
using uarch::SlotRef;
using uarch::SpecMode;

/** How the L1D should treat one demand load. */
struct LoadPlan
{
    bool block = false;         ///< do not issue this cycle (retry later)
    FillDest dest = FillDest::L1D;
    bool invisibleHit = false;  ///< hits must not refresh LRU
    bool probeSideBuffer = false;
    bool bugSpecEvict = false;  ///< InvisiSpec UV1 replacement bug
    bool markNonSpec = false;   ///< CleanupSpec noClean metadata
};

/**
 * Base class: the baseline (unprotected) out-of-order CPU. Every virtual
 * has the insecure default, so `Defense` itself is the paper's "Baseline".
 */
class Defense
{
  public:
    virtual ~Defense() = default;

    virtual std::string name() const { return "Baseline"; }

    /** Wire up the simulator (called once before first use). */
    virtual void
    attach(Pipeline *pipeline, MemSystem *mem, EventLog *log)
    {
        pipe_ = pipeline;
        mem_ = mem;
        log_ = log;
    }

    /** Per-test-run reset of defense-private state. */
    virtual void reset() {}

    /** Safety model used by the speculation tracker. */
    virtual SpecMode specMode() const { return SpecMode::Futuristic; }

    /** @name Load hooks */
    /// @{
    /** Veto load issue this cycle (STT: tainted-address transmitter). */
    virtual bool blockLoadIssue(DynInst &) { return false; }
    /** Decide the cache behaviour of a load's L1D access. */
    virtual LoadPlan planLoad(DynInst &) { return {}; }
    /// @}

    /** @name Store hooks */
    /// @{
    /** Veto store address generation this cycle. */
    virtual bool blockStoreExec(DynInst &) { return false; }
    /** Called when a store's address (and translation) resolved. */
    virtual void onStoreAddrReady(DynInst &) {}
    /** Install the store's line at commit? (CleanupSpec installs at
     *  execute instead.) */
    virtual bool installStoreAtCommit(const DynInst &) { return true; }
    /// @}

    /** @name Lifecycle hooks
     *  They fire for program instructions only: the runahead NOPs fetched
     *  past the program's end are counts in the pipeline, not DynInsts,
     *  and no hook sees them (src/uarch/README.md, "Runahead tail"). */
    /// @{
    /** Instruction issued this cycle: an ALU op, branch, load or store
     *  whose operands were ready and that no blocking hook vetoed
     *  (fences issue without it). Fires after the pipeline's own issue
     *  bookkeeping (`issued`, `wasUnsafeAtIssue`, the address), so an
     *  event-driven defense can react to the new state (STT: a load
     *  issued while unsafe becomes a taint root). */
    virtual void onIssue(DynInst &) {}
    /** Instruction crossed the speculation-safety point this cycle. */
    virtual void onBecameSafe(DynInst &) {}
    /** Instruction was squashed (called per instruction, youngest
     *  first). */
    virtual void onSquash(DynInst &) {}
    /** A defense-routed memory request completed (Expose, Cleanup,
     *  SpecStoreInstall, or a load whose fill destination is the side
     *  buffer). */
    virtual void onReqComplete(const MemReq &) {}
    /** Per-cycle defense work (taint propagation, expose issue, ...). */
    virtual void tick() {}
    /// @}

    /** @name Event horizon (cycle skipping)
     *  The pipeline may fast-forward over cycles in which no pipeline or
     *  memory-system state can change, but only as far as the defense
     *  allows. A defense that is purely event-driven — its state changes
     *  only inside the hooks above, its tick() is idempotent over
     *  unchanged pipeline state, and its blocking hooks
     *  (blockLoadIssue/blockStoreExec/planLoad) are pure queries of that
     *  state — returns kNoEventCycle ("no self-scheduled work; skip as
     *  far as you like"). The base-class default returns `now + 1`,
     *  which disables skipping entirely: a defense that has not audited
     *  itself against this contract is conservative by construction. */
    /// @{
    /** Earliest future cycle at which this defense can change state on
     *  its own (kNoEventCycle: never — fully event-driven). */
    virtual Cycle nextEventCycle(Cycle now) const { return now + 1; }
    /// @}

  protected:
    Pipeline *pipe_ = nullptr;
    MemSystem *mem_ = nullptr;
    EventLog *log_ = nullptr;
};

/**
 * The unprotected baseline as a *campaign* defense. Behaviourally the
 * base class (every hook keeps its insecure default), but audited for
 * the event-horizon contract: it holds no state at all, so it never
 * self-schedules work and never limits cycle skipping. The base class
 * keeps the conservative `now + 1` default for unaudited subclasses.
 */
class Baseline final : public Defense
{
  public:
    Cycle nextEventCycle(Cycle) const override { return kNoEventCycle; }
};

} // namespace amulet::defense

#endif // AMULET_DEFENSE_DEFENSE_HH
