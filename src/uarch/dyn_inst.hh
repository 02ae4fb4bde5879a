/**
 * @file
 * Dynamic (in-flight) instruction state.
 *
 * One DynInst per fetched program instruction (the runahead NOPs fetched
 * past the program's end are counted by the pipeline instead);
 * read-modify-write memory ops carry both a load and a store side.
 * Defense-visible speculation metadata (safety, taint, expose/LFB/undo
 * bookkeeping) lives here so defenses can be implemented without
 * intrusive pipeline changes — the design goal the paper states for
 * AMuLeT integrations.
 */

#ifndef AMULET_UARCH_DYN_INST_HH
#define AMULET_UARCH_DYN_INST_HH

#include <array>
#include <cassert>
#include <cstdint>

#include "common/types.hh"
#include "isa/flags.hh"
#include "isa/inst.hh"

namespace amulet::uarch
{

/** Progress of the memory side of a load. */
enum class LoadPhase : std::uint8_t
{
    None,       ///< not a load, or address not yet generated
    WaitTlb,    ///< TLB walk in progress
    WaitStore,  ///< blocked on an older store (dependence or partial fwd)
    WaitCache,  ///< request issued to the memory system
    Done,       ///< data available
};

/** One in-flight instruction. */
struct DynInst
{
    /** @name Identity */
    /// @{
    SeqNum seq = kNoSeq;
    std::size_t idx = 0;   ///< static instruction index
    Addr pc = 0;
    isa::Inst si;          ///< static instruction (copied; small)
    /// @}

    /** @name Branch prediction */
    /// @{
    bool predTaken = false;
    std::size_t predNextIdx = 0;
    std::uint32_t ghrAtFetch = 0;
    bool mispredicted = false;
    bool actualTaken = false;      ///< resolved direction
    std::size_t actualNextIdx = 0; ///< resolved successor
    /// @}

    /** "Producer not in flight" sentinel for scoreboard slot links. */
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

    /** @name Renamed sources (producer kNoSeq/0 = committed state) */
    /// @{
    struct SrcReg
    {
        isa::Reg reg;
        SeqNum producer;
        bool forAddress; ///< feeds effective-address computation
        bool forData;    ///< feeds the data computation / store value
        /** ROB physical slot of the producer at rename time (kNoSlot:
         *  committed state). Slots are stable handles (the ROB ring is
         *  reserved to robSize, so it never regrows mid-run): resolving
         *  (producerSlot, producer) is an O(1) fetch + seq check instead
         *  of a binary search. */
        std::uint32_t producerSlot = kNoSlot;
    };

    /** Distinct source registers an instruction can name: memory base,
     *  memory index, register source, register destination (RMW-style
     *  old value), and Loopne's implicit RCX — at most four at once
     *  (Loopne has no memory operand); one spare slot for safety. */
    static constexpr std::size_t kMaxSrcRegs = 5;

    /** Inline fixed-capacity source list. The ISA bounds the source
     *  count (kMaxSrcRegs), so heap-backed storage — one allocation
     *  per fetched instruction, the single hottest allocation in the
     *  cycle loop — buys nothing. Keeping the sources inline also
     *  makes DynInst trivially copyable, which is what lets the ROB
     *  ring buffer recycle its slots by plain assignment. */
    struct SrcList
    {
        std::array<SrcReg, kMaxSrcRegs> v;
        std::uint8_t n = 0;

        void
        push_back(const SrcReg &src)
        {
            assert(n < kMaxSrcRegs && "source-register bound exceeded");
            v[n++] = src;
        }

        SrcReg *begin() { return v.data(); }
        SrcReg *end() { return v.data() + n; }
        const SrcReg *begin() const { return v.data(); }
        const SrcReg *end() const { return v.data() + n; }
        std::size_t size() const { return n; }
        bool empty() const { return n == 0; }
    };
    SrcList srcs;
    SeqNum flagsProducer = kNoSeq;
    std::uint32_t flagsProducerSlot = kNoSlot;
    bool needsFlags = false;

    /** @name Wakeup scoreboard (maintained by the pipeline)
     *  Unexecuted in-flight producers still owed, counted at rename and
     *  decremented by the execute-stage broadcast. Flags fold into the
     *  data count (only full readiness consults them), so
     *  srcsReady(address_only) is a single zero test per flavour. */
    /// @{
    std::uint8_t pendingAddrSrcs = 0;
    std::uint8_t pendingDataSrcs = 0;
    /** Own ROB physical slot (set at fetch): the handle consumers'
     *  producer links resolve through, and the index of this entry's
     *  consumer list (Pipeline::consumers). */
    std::uint32_t robSlot = kNoSlot;
    /// @}
    /// @}

    /** @name Execution state */
    /// @{
    bool issued = false;     ///< ALU/AGU started
    bool executed = false;   ///< result (and store address/data) final
    Cycle doneCycle = 0;     ///< for fixed-latency ops, completion time
    bool resultValid = false;
    std::uint64_t result = 0;       ///< destination value (width-merged)
    isa::Flags flagsOut;
    bool writesFlagsOut = false;
    /// @}

    /** @name Memory state */
    /// @{
    bool isLoad = false;
    bool isStore = false;
    Addr memAddr = 0;
    unsigned memSize = 0;
    bool addrReady = false;
    bool split = false;        ///< crosses a cache-line boundary
    LoadPhase loadPhase = LoadPhase::None;
    unsigned pendingFills = 0; ///< outstanding cache responses
    Cycle tlbDoneCycle = 0;
    bool tlbPending = false;
    std::uint64_t loadValue = 0;
    bool loadDataValid = false;
    bool forwardedFromStore = false;
    SeqNum forwardingStore = kNoSeq;
    bool bypassedUnknownStore = false; ///< issued past an older store with
                                       ///< an unresolved address (v4 risk)
    bool storeDataValid = false;
    std::uint64_t storeData = 0;
    bool storeTlbDone = false;         ///< store translation performed
    /// @}

    /** @name Speculation safety and defenses */
    /// @{
    bool safe = false;         ///< per SpecTracker (this cycle)
    bool wasUnsafeAtIssue = false; ///< load issued while speculative
    bool tainted = false;      ///< STT: destination carries tainted data
    bool exposePending = false;///< InvisiSpec: expose not yet issued
    bool inSpecBuffer = false; ///< InvisiSpec: line(s) in spec buffer
    bool lfbHeld = false;      ///< SpecLFB: fill held in LFB
    bool undoLogged = false;   ///< CleanupSpec: rollback metadata captured
    /// @}

    bool squashed = false;
    bool committed = false;
    bool blockLogged = false; ///< defense block event already recorded

    /** @name Timing (for reports) */
    /// @{
    Cycle fetchCycle = 0;
    Cycle issueCycle = 0;
    Cycle execCycle = 0;
    Cycle commitCycle = 0;
    /// @}

    bool isBranch() const { return si.isBranch(); }
};

/** Handle to an in-flight entry: (stable ROB slot, seq), validated
 *  lazily — a stale handle (owner committed or squashed, slot possibly
 *  reused) fails the seq check in Pipeline::liveAt. */
struct SlotRef
{
    std::uint32_t slot;
    SeqNum seq;
};

} // namespace amulet::uarch

#endif // AMULET_UARCH_DYN_INST_HH
