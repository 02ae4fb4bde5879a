/**
 * @file
 * Structured debug-event log.
 *
 * Plays the role of gem5's debug trace in the paper: the root cause analysis
 * workflow (§3.3) parses debug logs for load/store addresses, squashes, and
 * defense-specific events, and violation signatures are regex-like matches
 * over these events. We keep events structured (kind + fields) instead of
 * free text so signature extraction is exact.
 */

#ifndef AMULET_COMMON_EVENT_LOG_HH
#define AMULET_COMMON_EVENT_LOG_HH

#include <string>
#include <vector>

#include "common/types.hh"

namespace amulet
{

/** Kinds of debug events emitted by the simulator and defenses. */
enum class EventKind : std::uint8_t
{
    // Generic pipeline events.
    Fetch,
    Commit,
    SquashBranch,       ///< squash due to branch misprediction
    SquashMemOrder,     ///< squash due to memory-order violation
    LoadExec,           ///< load executed (addr known)
    LoadBypassedStore,  ///< load speculatively bypassed an older store
                        ///< with an unresolved address (Spectre-v4 risk)
    StoreExec,          ///< store address resolved
    StoreCommit,        ///< store data written to memory system
    TlbFill,            ///< D-TLB entry installed
    CacheFill,          ///< line installed into a cache
    CacheEvict,         ///< line evicted from a cache
    MshrStall,          ///< request stalled waiting for an MSHR
    QueueStall,         ///< in-order controller queue head-of-line stall
    // Defense events.
    SpecBufferFill,     ///< InvisiSpec: line filled into speculative buffer
    SpecEviction,       ///< InvisiSpec UV1: eviction caused by a spec load
    Expose,             ///< InvisiSpec: expose issued for a safe load
    ExposeStall,        ///< InvisiSpec UV2: expose delayed by MSHR pressure
    CleanupUndo,        ///< CleanupSpec: squashed access rolled back
    CleanupSkipped,     ///< CleanupSpec UV3/UV4: rollback missing (bug)
    CleanupOverclean,   ///< CleanupSpec UV5: non-spec footprint removed
    SplitRequest,       ///< access crossed a cache-line boundary
    TaintSet,           ///< STT: destination register tainted
    TaintLift,          ///< STT: taint lifted (instruction became safe)
    TransmitBlocked,    ///< STT: tainted transmitter delayed
    TaintedStoreTlb,    ///< STT KV3: tainted store accessed the TLB (bug)
    LfbHold,            ///< SpecLFB: unsafe miss held in the LFB
    LfbUnsafeBypass,    ///< SpecLFB UV6: first spec load treated as safe
};

/** Name of an event kind, for reports. */
const char *eventKindName(EventKind kind);

/** One debug event. Fields not applicable to a kind are zero. */
struct Event
{
    Cycle cycle = 0;
    EventKind kind = EventKind::Fetch;
    SeqNum seq = 0;     ///< dynamic instruction, if applicable
    Addr pc = 0;        ///< instruction PC, if applicable
    Addr addr = 0;      ///< memory address, if applicable
    std::string note;   ///< free-form detail

    /** Field-wise equality (the cycle-skip equivalence audits compare
     *  whole event streams). */
    bool operator==(const Event &) const = default;

    std::string format() const;
};

/**
 * Append-only event log. Disabled by default (recording costs time); the
 * analyzer re-runs violating inputs with recording enabled, mirroring the
 * paper's "inspect the gem5 debug logs" step.
 */
class EventLog
{
  public:
    /** Enable or disable recording; clearing is separate. */
    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Drop all recorded events. */
    void clear() { events_.clear(); }

    /**
     * Record an event (no-op while disabled). The note rides as a
     * C string so the disabled path — the cycle loop's common case —
     * evaluates no std::string constructor; the string is only
     * materialized once the event is actually stored.
     */
    void
    record(Cycle cycle, EventKind kind, SeqNum seq = 0, Addr pc = 0,
           Addr addr = 0, const char *note = nullptr)
    {
        if (!enabled_)
            return;
        events_.push_back({cycle, kind, seq, pc, addr,
                           note ? std::string(note) : std::string()});
    }

    /** Recorded events, oldest first. */
    const std::vector<Event> &events() const { return events_; }

    /** Drop events past position @p n (rewind for replay audits: the
     *  caller marks events().size(), replays, and compares/rewinds). */
    void
    truncate(std::size_t n)
    {
        if (n < events_.size())
            events_.resize(n);
    }

    /** Count recorded events of one kind. */
    std::size_t countOf(EventKind kind) const;

    /** True if any event of this kind was recorded. */
    bool has(EventKind kind) const { return countOf(kind) > 0; }

  private:
    bool enabled_ = false;
    std::vector<Event> events_;
};

} // namespace amulet

#endif // AMULET_COMMON_EVENT_LOG_HH
