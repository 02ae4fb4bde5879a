#include "defense/stt.hh"

#include <algorithm>
#include <cassert>

#include "uarch/pipeline.hh"

namespace amulet::defense
{

namespace
{

/** Heap order: the oldest (smallest seq) entry on top. */
bool
youngerFirst(const SlotRef &a, const SlotRef &b)
{
    return a.seq > b.seq;
}

} // namespace

void
Stt::reset()
{
    pending_.clear();
    // Bound per tick: the renamed and newly safe entries plus one push
    // per live consumer edge, each entry naming at most kMaxSrcRegs + 1
    // producers.
    pending_.reserve((DynInst::kMaxSrcRegs + 3) * pipe_->params().robSize);
    renamedUpTo_ = kNoSeq;
}

void
Stt::enqueue(const SlotRef &ref)
{
    pending_.push_back(ref);
    std::push_heap(pending_.begin(), pending_.end(), youngerFirst);
}

bool
Stt::taintOf(const DynInst &e) const
{
    // A load is a taint root while it executed speculatively and is not
    // yet safe; once the SpecTracker marks it safe it and (transitively)
    // its dependents untaint — the untaint broadcast. A retired producer
    // was safe, hence untainted: committed state carries no taint.
    if (e.isLoad && e.issued && e.wasUnsafeAtIssue && !e.safe)
        return true;
    for (const auto &src : e.srcs) {
        const DynInst *p = pipe_->producerOf(src);
        if (p && p->tainted)
            return true;
    }
    if (e.needsFlags) {
        const DynInst *p = pipe_->flagsProducerOf(e);
        if (p && p->tainted)
            return true;
    }
    return false;
}

void
Stt::tick()
{
    // Seed the entries renamed since the last tick: the ROB tail
    // younger than renamedUpTo_ (seqs only grow, squashes included),
    // at most one fetch group.
    RingDeque<DynInst> &rob = pipe_->rob();
    for (std::size_t i = rob.size(); i > 0 && rob[i - 1].seq > renamedUpTo_;
         --i)
        enqueue({rob[i - 1].robSlot, rob[i - 1].seq});
    if (!rob.empty())
        renamedUpTo_ = std::max(renamedUpTo_, rob.back().seq);

    // Oldest first: a flip queues only younger consumers, so each entry
    // is settled after every producer that flips this tick, and events
    // log in seq order. A handle squashed since it was queued drops.
    while (!pending_.empty()) {
        std::pop_heap(pending_.begin(), pending_.end(), youngerFirst);
        const SlotRef ref = pending_.back();
        pending_.pop_back();
        DynInst *e = pipe_->liveAt(ref);
        if (!e)
            continue;
        const bool tainted = taintOf(*e);
        if (tainted == e->tainted)
            continue;
        log_->record(pipe_->now(),
                     tainted ? EventKind::TaintSet : EventKind::TaintLift,
                     e->seq, e->pc);
        e->tainted = tainted;
        for (const SlotRef &c : pipe_->consumers(*e)) {
            if (pipe_->liveAt(c))
                enqueue(c);
        }
    }
    assert(fixpointHolds() && "taint out of sync with the full fixpoint");
}

void
Stt::onIssue(DynInst &inst)
{
    if (inst.isLoad && inst.wasUnsafeAtIssue)
        enqueue({inst.robSlot, inst.seq}); // a new taint root
}

void
Stt::onBecameSafe(DynInst &inst)
{
    if (inst.tainted)
        enqueue({inst.robSlot, inst.seq}); // no longer a root
}

Cycle
Stt::nextEventCycle(Cycle now) const
{
    const bool renamed = pipe_ && !pipe_->rob().empty() &&
                         pipe_->rob().back().seq > renamedUpTo_;
    return pending_.empty() && !renamed ? kNoEventCycle : now + 1;
}

bool
Stt::fixpointHolds() const
{
    for (const DynInst &e : pipe_->rob()) {
        if (taintOf(e) != e.tainted)
            return false;
    }
    return true;
}

bool
Stt::addrTainted(const DynInst &inst) const
{
    for (const auto &src : inst.srcs) {
        if (!src.forAddress)
            continue;
        const DynInst *p = pipe_->producerOf(src);
        if (p && p->tainted)
            return true;
    }
    return false;
}

bool
Stt::blockLoadIssue(DynInst &inst)
{
    if (!addrTainted(inst))
        return false;
    if (!inst.blockLogged) {
        log_->record(pipe_->now(), EventKind::TransmitBlocked, inst.seq,
                     inst.pc, 0, "tainted load address");
        inst.blockLogged = true;
    }
    return true;
}

bool
Stt::blockStoreExec(DynInst &inst)
{
    if (bugTaintedStoreTlb_)
        return false; // KV3: tainted stores are (incorrectly) executed
    if (!addrTainted(inst))
        return false;
    if (!inst.blockLogged) {
        log_->record(pipe_->now(), EventKind::TransmitBlocked, inst.seq,
                     inst.pc, 0, "tainted store address");
        inst.blockLogged = true;
    }
    return true;
}

void
Stt::onStoreAddrReady(DynInst &inst)
{
    // The pipeline already performed the store's address translation
    // (D-TLB access + fill). With the bug enabled that access happened
    // even though the address was tainted — the KV3 leak.
    if (bugTaintedStoreTlb_ && addrTainted(inst)) {
        log_->record(pipe_->now(), EventKind::TaintedStoreTlb, inst.seq,
                     inst.pc, inst.memAddr, "KV3");
    }
}

} // namespace amulet::defense
