#include "uarch/pipeline.hh"

#include <algorithm>
#include <cassert>

#include "common/bitutil.hh"
#include "defense/defense.hh"
#include "isa/semantics.hh"
#include "telemetry/uarch_trace.hh"

namespace amulet::uarch
{

using isa::Inst;
using isa::Op;
using isa::OpndKind;

namespace
{

/** Does the destination register's old value feed the computation?
 *  (Mirrors Inst::regsRead; kept in sync by the ISA unit tests.) */
bool
needsDstOldValue(const Inst &si)
{
    if (si.dstKind != OpndKind::Reg)
        return false;
    switch (si.op) {
      case Op::Add:
      case Op::Sub:
      case Op::And:
      case Op::Or:
      case Op::Xor:
      case Op::Imul:
      case Op::Shl:
      case Op::Shr:
      case Op::Sar:
      case Op::Neg:
      case Op::Not:
      case Op::Cmp:
      case Op::Test:
      case Op::Cmov:
      case Op::Set:
        return true;
      case Op::Mov:
        return si.width < 4;
      default:
        return false;
    }
}

} // namespace

Pipeline::Pipeline(const CoreParams &params, mem::MemoryImage &memory,
                   EventLog &log)
    : params_(params),
      memory_(memory),
      log_(log),
      mem_(params, log),
      bp_(params),
      mdp_(params)
{
    defaultDefense_ = std::make_unique<defense::Defense>();
    setDefense(defaultDefense_.get());
    mem_.setCompletionHandler(
        [this](const MemReq &req) { onMemReqComplete(req); });

    // Pre-size the run-state containers once; reset() clears them
    // without releasing storage, so the cycle loop runs allocation-free
    // from the second input on. The ROB reservation is load-bearing for
    // the scoreboard: fetch bounds its size to robSize, so the ring
    // never regrows mid-run and physical slots are stable handles.
    rob_.reserve(params.robSize);
    consumers_.resize(rob_.capacity());
    for (std::vector<SlotRef> &list : consumers_)
        list.reserve(params.robSize);
    issueReady_.reserve(params.robSize);
    execList_.reserve(params.robSize);
    memWork_.reserve(params.robSize);
    skipLengths_.reserve(256);
    accessOrder_.reserve(1024);
    branchPredOrder_.reserve(256);
}

Pipeline::~Pipeline() = default;

void
Pipeline::setDefense(defense::Defense *defense)
{
    defense_ = defense;
    defense_->attach(this, &mem_, &log_);
}

void
Pipeline::setProgram(const isa::FlatProgram *prog)
{
    prog_ = prog;
}

void
Pipeline::setArchRegs(const std::array<RegVal, isa::kNumRegs> &regs,
                      isa::Flags flags)
{
    committedRegs_ = regs;
    committedFlags_ = flags;
}

void
Pipeline::reset()
{
    rob_.clear();
    nextSeq_ = 1;
    fetchIdx_ = 0;
    fetchStalledOnL1i_ = false;
    renameReg_.fill(kNoSeq);
    renameFlags_ = kNoSeq;
    renameRegSlot_.fill(DynInst::kNoSlot);
    renameFlagsSlot_ = DynInst::kNoSlot;
    issueReady_.clear();
    execList_.clear();
    fencesInFlight_ = 0;
    safeFrontier_ = nextSeq_;
    specMode_ = defense_->specMode();
    memWork_.clear();
    tailFetched_ = tailIssued_ = tailExecuted_ = tailSafe_ = 0;
    skippedCycles_ = 0;
    skipWindows_ = 0;
    skipLengths_.clear();
    now_ = 0;
    halted_ = false;
    committedInsts_ = 0;
    squashes_ = 0;
    loadsInFlight_ = 0;
    storesInFlight_ = 0;
    accessOrder_.clear();
    branchPredOrder_.clear();
    mem_.resetInFlight();
    defense_->reset();
}

const DynInst *
Pipeline::entry(SeqNum seq) const
{
    if (seq == kNoSeq || rob_.empty())
        return nullptr;
    // Sequence numbers are strictly increasing in the ROB (squashes only
    // remove a suffix), so binary search applies.
    auto it = std::lower_bound(rob_.begin(), rob_.end(), seq,
                               [](const DynInst &e, SeqNum s) {
                                   return e.seq < s;
                               });
    if (it == rob_.end() || it->seq != seq)
        return nullptr;
    return &*it;
}

DynInst *
Pipeline::entry(SeqNum seq)
{
    return const_cast<DynInst *>(
        static_cast<const Pipeline *>(this)->entry(seq));
}

bool
Pipeline::olderUnsafeLoadExists(SeqNum seq) const
{
    for (const DynInst &e : rob_) {
        if (e.seq >= seq)
            break;
        if (e.isLoad && !e.safe && !e.squashed && !e.committed)
            return true;
    }
    return false;
}

std::uint64_t
Pipeline::readSrcValue(const DynInst::SrcReg &src) const
{
    if (const DynInst *producer = producerOf(src)) {
        assert(producer->executed && "reading an unfinished producer");
        // Loopne's register side-effect lives in `result`.
        return producer->result;
    }
    return committedRegs_[isa::regIndex(src.reg)];
}

isa::Flags
Pipeline::readFlagsValue(const DynInst &inst) const
{
    if (const DynInst *p = flagsProducerOf(inst)) {
        assert(p->executed);
        return p->flagsOut;
    }
    return committedFlags_;
}

bool
Pipeline::srcsReadyScan(const DynInst &inst, bool address_only) const
{
    // Reference implementation (the pre-scoreboard per-source walk);
    // kept as the debug cross-check for the pending counters.
    for (const auto &src : inst.srcs) {
        const bool relevant = address_only ? src.forAddress : src.forData;
        if (!relevant)
            continue;
        const DynInst *p = producerOf(src);
        if (p && !p->executed)
            return false;
    }
    if (!address_only && inst.needsFlags) {
        const DynInst *p = flagsProducerOf(inst);
        if (p && !p->executed)
            return false;
    }
    return true;
}

bool
Pipeline::srcsReady(const DynInst &inst, bool address_only) const
{
    const bool ready = address_only ? inst.pendingAddrSrcs == 0
                                    : inst.pendingDataSrcs == 0;
    assert(ready == srcsReadyScan(inst, address_only) &&
           "scoreboard counter out of sync with producer state");
    return ready;
}

void
Pipeline::insertBySeq(std::vector<SlotRef> &list, std::uint32_t slot,
                      SeqNum seq)
{
    // Lists must stay seq-sorted so the walks preserve the legacy
    // oldest-first order (same-cycle branch resolution order decides
    // which squash wins). Insertions are near-append (fetch and issue
    // proceed in seq order), so the shift is almost always empty.
    auto it = std::lower_bound(list.begin(), list.end(), seq,
                               [](const SlotRef &r, SeqNum s) {
                                   return r.seq < s;
                               });
    list.insert(it, SlotRef{slot, seq});
}

void
Pipeline::linkConsumer(std::uint32_t producer_slot, const DynInst &consumer)
{
    std::vector<SlotRef> &list = consumers_[producer_slot];
    // A squash removes a seq suffix of the ROB and the list is
    // seq-sorted, so stale handles sit only at its tail.
    while (!list.empty() && !liveAt(list.back()))
        list.pop_back();
    // A consumer naming one producer twice (two sources, or a source
    // and the flags) links once; its sources link back to back.
    if (list.empty() || list.back().seq != consumer.seq)
        list.push_back({consumer.robSlot, consumer.seq});
}

bool
Pipeline::consumersMatchScan(const DynInst &producer) const
{
    // Reference: the younger entries naming the producer, in ROB order,
    // are exactly the list's live handles, and every stale handle sits
    // after the last live one.
    const std::vector<SlotRef> &list = consumers_[producer.robSlot];
    std::size_t k = 0;
    for (const DynInst &c : rob_) {
        if (c.seq <= producer.seq)
            continue;
        bool names = c.needsFlags && c.flagsProducer == producer.seq;
        for (const auto &src : c.srcs)
            names = names || src.producer == producer.seq;
        if (!names)
            continue;
        if (k == list.size() || list[k].seq != c.seq || !liveAt(list[k]))
            return false;
        ++k;
    }
    for (; k < list.size(); ++k) {
        if (liveAt(list[k]))
            return false;
    }
    return true;
}

void
Pipeline::broadcastExecuted(const DynInst &producer)
{
    progress_ = true;
    assert(consumersMatchScan(producer) && "consumer list out of sync");
    // Only the consumers linked at rename can name the producer; the
    // ones a squash removed fail liveAt. Squashes remove consumer and
    // producer suffixes together, so surviving counters are never
    // over-credited.
    for (const SlotRef &ref : consumers_[producer.robSlot]) {
        DynInst *pc = liveAt(ref);
        if (!pc)
            continue;
        DynInst &c = *pc;
        bool addr_zeroed = false;
        bool data_zeroed = false;
        for (const auto &src : c.srcs) {
            if (src.producer != producer.seq)
                continue;
            if (src.forAddress) {
                assert(c.pendingAddrSrcs > 0);
                if (--c.pendingAddrSrcs == 0)
                    addr_zeroed = true;
            }
            if (src.forData) {
                assert(c.pendingDataSrcs > 0);
                if (--c.pendingDataSrcs == 0)
                    data_zeroed = true;
            }
        }
        if (c.needsFlags && c.flagsProducer == producer.seq) {
            assert(c.pendingDataSrcs > 0);
            if (--c.pendingDataSrcs == 0)
                data_zeroed = true;
        }
        if (c.issued)
            continue;
        // At most one wakeup per entry: the counter just hit zero, and
        // fetch only pre-inserts entries born with a zero count.
        const bool wake = (c.isLoad || c.isStore) ? addr_zeroed
                                                  : data_zeroed;
        if (wake && c.si.op != Op::Fence)
            insertBySeq(issueReady_, c.robSlot, c.seq);
    }
}

Addr
Pipeline::computeEffAddr(const DynInst &inst) const
{
    const isa::MemRef &m = inst.si.mem;
    std::uint64_t base = 0;
    std::uint64_t index = 0;
    for (const auto &src : inst.srcs) {
        if (!src.forAddress)
            continue;
        if (src.reg == m.base)
            base = readSrcValue(src);
        if (m.hasIndex && src.reg == m.index)
            index = readSrcValue(src);
    }
    return base + (m.hasIndex ? index : 0) +
           static_cast<std::int64_t>(m.disp);
}

DynInst
Pipeline::makeDynInst(std::size_t idx)
{
    assert(idx < prog_->numInsts() && "runahead NOPs are tail counts");
    DynInst d;
    d.seq = nextSeq_++;
    d.idx = idx;
    d.pc = prog_->pcOf(idx);
    d.si = prog_->inst(idx);
    d.isLoad = d.si.isLoad();
    d.isStore = d.si.isStore();
    d.memSize = d.si.width;
    d.fetchCycle = now_;

    auto add_src = [&d, this](isa::Reg reg, bool for_addr, bool for_data) {
        for (auto &src : d.srcs) {
            if (src.reg == reg) {
                src.forAddress |= for_addr;
                src.forData |= for_data;
                return;
            }
        }
        d.srcs.push_back({reg, renameReg_[isa::regIndex(reg)], for_addr,
                          for_data, renameRegSlot_[isa::regIndex(reg)]});
    };

    const Inst &si = d.si;
    if (si.isMemAccess()) {
        add_src(si.mem.base, true, false);
        if (si.mem.hasIndex)
            add_src(si.mem.index, true, false);
    }
    if (si.op == Op::Lea) {
        add_src(si.mem.base, false, true);
        if (si.mem.hasIndex)
            add_src(si.mem.index, false, true);
    }
    if (si.srcKind == OpndKind::Reg)
        add_src(si.src, false, true);
    if (needsDstOldValue(si))
        add_src(si.dst, false, true);
    if (si.op == Op::Loopne)
        add_src(isa::Reg::Rcx, false, true);

    d.needsFlags = si.readsFlags();
    d.flagsProducer = renameFlags_;
    d.flagsProducerSlot = renameFlagsSlot_;

    // Scoreboard counters: one credit per still-unexecuted in-flight
    // producer; the execute-stage broadcast pays them back. A rename
    // entry != kNoSeq always names a live ROB entry (commit/squash
    // maintain the table), so the slot link resolves exactly.
    for (const auto &src : d.srcs) {
        if (src.producer == kNoSeq)
            continue;
        const DynInst *p = rob_.atSlot(src.producerSlot);
        assert(p && p->seq == src.producer);
        if (!p->executed) {
            if (src.forAddress)
                ++d.pendingAddrSrcs;
            if (src.forData)
                ++d.pendingDataSrcs;
        }
    }
    if (d.needsFlags && d.flagsProducer != kNoSeq) {
        const DynInst *p = rob_.atSlot(d.flagsProducerSlot);
        assert(p && p->seq == d.flagsProducer);
        if (!p->executed)
            ++d.pendingDataSrcs;
    }

    // Rename destinations after capturing sources (the slot half of the
    // table follows in fetchStage once the entry has its ROB slot).
    for (isa::Reg r : si.regsWritten())
        renameReg_[isa::regIndex(r)] = d.seq;
    if (si.writesFlags())
        renameFlags_ = d.seq;

    return d;
}

DynInst
Pipeline::tailInst(std::size_t k) const
{
    // A default Inst is a NOP, and every other field of a NOP's entry
    // keeps its default from fetch to squash.
    DynInst d;
    d.seq = tailSeq_ + k;
    d.idx = tailIdx_ + k;
    d.pc = prog_->pcOf(d.idx);
    return d;
}

void
Pipeline::rebuildRenameTable()
{
    renameReg_.fill(kNoSeq);
    renameFlags_ = kNoSeq;
    renameRegSlot_.fill(DynInst::kNoSlot);
    renameFlagsSlot_ = DynInst::kNoSlot;
    for (const DynInst &e : rob_) {
        for (isa::Reg r : e.si.regsWritten()) {
            renameReg_[isa::regIndex(r)] = e.seq;
            renameRegSlot_[isa::regIndex(r)] = e.robSlot;
        }
        if (e.si.writesFlags()) {
            renameFlags_ = e.seq;
            renameFlagsSlot_ = e.robSlot;
        }
    }
}

void
Pipeline::squashAfter(SeqNum keep_up_to, std::size_t new_fetch_idx,
                      std::uint32_t restore_ghr, EventKind reason,
                      SeqNum trigger_seq)
{
    // After Defense::onSquash the victim's annotations (undoLogged,
    // exposePending, ...) are final — exactly what the tracer records.
    const auto cause = reason == EventKind::SquashBranch
                           ? telemetry::SquashCause::BranchMispredict
                           : telemetry::SquashCause::MemOrder;
    // Every squash is triggered by a program instruction, which is older
    // than the whole runahead tail.
    assert((tailFetched_ == 0 || keep_up_to < tailSeq_) &&
           "squash inside the runahead tail");
    if (tracer_) {
        for (std::size_t k = tailFetched_; k > 0; --k)
            tracer_->onSquash(tailInst(k - 1), now_, cause, trigger_seq);
    }
    tailFetched_ = tailIssued_ = tailExecuted_ = tailSafe_ = 0;
    while (!rob_.empty() && rob_.back().seq > keep_up_to) {
        DynInst &victim = rob_.back();
        victim.squashed = true;
        if (victim.isLoad)
            --loadsInFlight_;
        if (victim.isStore)
            --storesInFlight_;
        if (victim.si.op == Op::Fence)
            --fencesInFlight_;
        defense_->onSquash(victim);
        if (tracer_)
            tracer_->onSquash(victim, now_, cause, trigger_seq);
        rob_.pop_back();
    }
    log_.record(now_, reason, trigger_seq);
    ++squashes_;
    progress_ = true;
    fetchIdx_ = new_fetch_idx;
    fetchStalledOnL1i_ = false;
    bp_.restoreGhr(restore_ghr);
    rebuildRenameTable();
}

std::size_t
Pipeline::safeFrontierIndex() const
{
    const auto it = std::lower_bound(rob_.begin(), rob_.end(), safeFrontier_,
                                     [](const DynInst &e, SeqNum s) {
                                         return e.seq < s;
                                     });
    return static_cast<std::size_t>(it - rob_.begin());
}

bool
Pipeline::safetyMatchesScan() const
{
    // Reference: the full ROB walk, which Debug builds check the
    // frontier against.
    bool risk = false;
    for (const DynInst &e : rob_) {
        if (e.safe == risk)
            return false;
        risk = risk || isSafetyRisk(e);
    }
    // The tail is younger than every entry and never a risk itself.
    return tailSafe_ == (risk ? 0 : tailFetched_);
}

void
Pipeline::computeSafety()
{
    // The safe set is a ROB prefix that only grows, so the walk resumes
    // at the frontier and stops at the oldest risk, which is itself
    // safe and shields every younger entry.
    std::size_t i = safeFrontierIndex();
    std::size_t newly_safe = rob_.size();
    for (; i < rob_.size(); ++i) {
        DynInst &e = rob_[i];
        if (!e.safe) {
            e.safe = true;
            if (newly_safe == rob_.size())
                newly_safe = i;
        }
        if (isSafetyRisk(e))
            break;
    }
    safeFrontier_ = i < rob_.size() ? rob_[i].seq : nextSeq_;
    // No risk left in the ROB: the whole tail is safe. Its NOPs take no
    // onBecameSafe (lifecycle hooks are for program instructions).
    if (i == rob_.size() && tailSafe_ < tailFetched_) {
        tailSafe_ = tailFetched_;
        progress_ = true;
    }
    assert(safetyMatchesScan() && "safety frontier out of sync");

    // The hooks run once every flag is final, oldest first. They must
    // not add or remove ROB entries (no shipped defense does).
    const std::size_t end = std::min(i + 1, rob_.size());
    if (newly_safe < end)
        progress_ = true;
    for (std::size_t k = newly_safe; k < end; ++k)
        defense_->onBecameSafe(rob_[k]);
}

void
Pipeline::resolveBranch(DynInst &e)
{
    bool taken = false;
    std::size_t next_idx = e.idx + 1;
    switch (e.si.op) {
      case Op::Jmp:
        taken = true;
        next_idx = prog_->targetIdx(e.idx);
        break;
      case Op::Jcc:
        taken = condEval(e.si.cond, readFlagsValue(e));
        if (taken)
            next_idx = prog_->targetIdx(e.idx);
        break;
      case Op::Loopne: {
        std::uint64_t rcx = 0;
        for (const auto &src : e.srcs) {
            if (src.reg == isa::Reg::Rcx)
                rcx = readSrcValue(src);
        }
        rcx -= 1;
        e.result = rcx;
        e.resultValid = true;
        const isa::Flags f = readFlagsValue(e);
        taken = rcx != 0 && !f.zf;
        if (taken)
            next_idx = prog_->targetIdx(e.idx);
        break;
      }
      default:
        assert(false);
    }
    e.actualTaken = taken;
    e.actualNextIdx = next_idx;
    e.executed = true;
    e.execCycle = now_;
    if (tracer_)
        tracer_->onComplete(e, now_);

    if (next_idx != e.predNextIdx) {
        e.mispredicted = true;
        squashAfter(e.seq, next_idx, e.ghrAtFetch,
                    EventKind::SquashBranch, e.seq);
        if (e.si.isCondBranch())
            bp_.updateGhrSpeculative(taken);
    }
    // After the squash: a mispredict leaves no younger suffix, making
    // the broadcast a cheap no-op walk.
    broadcastExecuted(e);
}

void
Pipeline::finalizeData(DynInst &e)
{
    const Inst &si = e.si;
    std::uint64_t src = 0;
    switch (si.srcKind) {
      case OpndKind::Reg:
        for (const auto &s : e.srcs) {
            if (s.forData && s.reg == si.src) {
                src = truncateToSize(readSrcValue(s), si.width);
                break;
            }
        }
        break;
      case OpndKind::Imm:
        src = static_cast<std::uint64_t>(si.imm);
        break;
      case OpndKind::Mem:
        src = e.loadValue;
        break;
      case OpndKind::None:
        break;
    }

    std::uint64_t dst_old = 0;
    if (si.dstKind == OpndKind::Mem) {
        dst_old = e.loadValue;
    } else if (needsDstOldValue(si)) {
        for (const auto &s : e.srcs) {
            if (s.forData && s.reg == si.dst) {
                dst_old = readSrcValue(s);
                break;
            }
        }
    }

    Addr addr = e.memAddr;
    if (si.op == Op::Lea)
        addr = computeEffAddr(e);

    // Only flag-reading ops (CMOV/SETcc) may touch the producer; for
    // everything else it can still be in flight.
    const isa::Flags flags_in = e.needsFlags ? readFlagsValue(e)
                                             : isa::Flags{};
    const isa::ExecResult res = isa::evalOp(si, dst_old, src, addr,
                                            flags_in);
    e.flagsOut = res.flags;
    e.writesFlagsOut = res.writesFlags;
    if (res.writesDst) {
        if (si.dstKind == OpndKind::Reg) {
            e.result = res.value;
            e.resultValid = true;
        } else if (si.dstKind == OpndKind::Mem) {
            e.storeData = res.value;
            e.storeDataValid = true;
        }
    }
    e.executed = true;
    e.execCycle = now_;
    if (tracer_)
        tracer_->onComplete(e, now_);
    broadcastExecuted(e);
}

void
Pipeline::storeResolved(DynInst &store)
{
    log_.record(now_, EventKind::StoreExec, store.seq, store.pc,
                store.memAddr);
    defense_->onStoreAddrReady(store);

    // Memory-order (Spectre-v4) check: younger loads that already read
    // memory while this store's address was unknown must be squashed.
    for (std::size_t i = 0; i < rob_.size(); ++i) {
        DynInst &e = rob_[i];
        if (e.seq <= store.seq || !e.isLoad)
            continue;
        const bool has_read = e.loadPhase == LoadPhase::WaitCache ||
                              e.loadPhase == LoadPhase::Done;
        if (!has_read)
            continue;
        if (!rangesOverlap(e.memAddr, e.memSize, store.memAddr,
                           store.memSize)) {
            continue;
        }
        if (e.forwardedFromStore && e.forwardingStore >= store.seq)
            continue; // got its data from a younger (more recent) store
        mdp_.trainViolation(e.pc);
        squashAfter(e.seq - 1, e.idx, e.ghrAtFetch,
                    EventKind::SquashMemOrder, store.seq);
        break;
    }
}

void
Pipeline::tryStartLoadAccess(DynInst &e)
{
    // Store-queue scan, youngest older store first.
    bool bypassed_unknown = false;
    const DynInst *forward_from = nullptr;
    for (auto it = rob_.rbegin(); it != rob_.rend(); ++it) {
        const DynInst &st = *it;
        if (st.seq >= e.seq)
            continue;
        if (!st.isStore || st.squashed)
            continue;
        if (!st.addrReady) {
            if (mdp_.predictDependence(e.pc))
                return; // predicted dependence: wait for resolution
            bypassed_unknown = true;
            continue;
        }
        if (!rangesOverlap(e.memAddr, e.memSize, st.memAddr, st.memSize))
            continue;
        const bool contained = e.memAddr >= st.memAddr &&
                               e.memAddr + e.memSize <=
                                   st.memAddr + st.memSize;
        if (contained && st.storeDataValid) {
            forward_from = &st;
            break;
        }
        // Partial overlap or data not ready: wait.
        return;
    }

    if (forward_from) {
        const unsigned shift =
            static_cast<unsigned>(e.memAddr - forward_from->memAddr) * 8;
        e.loadValue = truncateToSize(forward_from->storeData >> shift,
                                     e.memSize);
        e.loadDataValid = true;
        e.forwardedFromStore = true;
        e.forwardingStore = forward_from->seq;
        e.loadPhase = LoadPhase::Done;
        progress_ = true;
        return;
    }

    // Read architectural memory now (stale-read semantics for v4), then
    // model timing through the cache hierarchy.
    e.bypassedUnknownStore = bypassed_unknown;
    e.loadValue = memory_.read(e.memAddr, e.memSize);

    defense::LoadPlan plan = defense_->planLoad(e);
    if (plan.block)
        return; // defense veto at access time; retry next cycle

    const Addr line_a = mem_.l1d().lineAddrOf(e.memAddr);
    const Addr line_b = mem_.l1d().lineAddrOf(e.memAddr + e.memSize - 1);
    e.split = line_a != line_b;
    if (e.split)
        log_.record(now_, EventKind::SplitRequest, e.seq, e.pc, e.memAddr);
    e.pendingFills = e.split ? 2 : 1;
    auto enqueue_line = [&](Addr line) {
        MemReq req;
        req.kind = ReqKind::Load;
        req.lineAddr = line;
        req.seq = e.seq;
        req.pc = e.pc;
        req.dest = plan.dest;
        req.invisibleHit = plan.invisibleHit;
        req.probeSideBuffer = plan.probeSideBuffer;
        req.bugSpecEvict = plan.bugSpecEvict;
        req.markNonSpec = plan.markNonSpec;
        req.splitPiece = e.split;
        mem_.enqueueL1D(req);
    };
    enqueue_line(line_a);
    if (e.split)
        enqueue_line(line_b);
    e.loadPhase = LoadPhase::WaitCache;
    progress_ = true;
    log_.record(now_, EventKind::LoadExec, e.seq, e.pc, e.memAddr);
    if (bypassed_unknown)
        log_.record(now_, EventKind::LoadBypassedStore, e.seq, e.pc,
                    e.memAddr);
}

bool
Pipeline::memWorkMatchesScan() const
{
    // Reference: a full ROB walk finds every issued memory op still
    // waiting on the memory side listed, in seq order.
    std::size_t w = 0;
    for (const DynInst &e : rob_) {
        if (!e.issued || !waitsOnMemSide(e))
            continue;
        while (w < memWork_.size() && memWork_[w].seq < e.seq)
            ++w;
        if (w == memWork_.size() || memWork_[w].seq != e.seq)
            return false;
    }
    return true;
}

void
Pipeline::advanceMemOps()
{
    // Oldest first: a resolving store may squash younger entries, whose
    // handles then fail liveAt and drop.
    assert(memWorkMatchesScan() && "memory-op worklist out of sync");
    std::size_t out = 0;
    for (std::size_t i = 0; i < memWork_.size(); ++i) {
        DynInst *pe = liveAt(memWork_[i]);
        if (!pe)
            continue;
        DynInst &e = *pe;

        // Pure-store address resolution after translation completes
        // (the RMW store side resolves through the load path below).
        if (e.isStore && !e.isLoad && !e.addrReady && e.tlbPending &&
            now_ >= e.tlbDoneCycle) {
            e.tlbPending = false;
            e.addrReady = true;
            e.storeTlbDone = true;
            progress_ = true;
            storeResolved(e);
        }

        if (e.isLoad) {
            if (e.loadPhase == LoadPhase::WaitTlb &&
                now_ >= e.tlbDoneCycle) {
                e.tlbPending = false;
                if (e.isStore && !e.addrReady) { // RMW store side
                    e.addrReady = true;
                    e.storeTlbDone = true;
                    storeResolved(e);
                }
                e.loadPhase = LoadPhase::WaitStore;
                progress_ = true;
            }
            if (e.loadPhase == LoadPhase::WaitStore)
                tryStartLoadAccess(e);
        }

        if (waitsOnMemSide(e))
            memWork_[out++] = memWork_[i];
    }
    memWork_.resize(out);
}

bool
Pipeline::tryIssue(DynInst &e)
{
    assert(!e.issued && e.si.op != Op::Fence);
    if (e.isLoad || e.isStore) {
        if (!srcsReady(e, true))
            return false;
        if (e.isLoad && defense_->blockLoadIssue(e))
            return false;
        if (e.isStore && !e.isLoad && defense_->blockStoreExec(e))
            return false;
        e.issued = true;
        e.issueCycle = now_;
        e.wasUnsafeAtIssue = !e.safe;
        e.memAddr = computeEffAddr(e);
        accessOrder_.push_back(
            {e.pc, e.memAddr, e.isStore && !e.isLoad, e.seq, now_});
        if (tracer_)
            tracer_->onIssue(e, now_);
        const unsigned lat =
            mem_.dtlbAccess(e.memAddr, e.memSize, e.seq, e.pc);
        e.tlbPending = true;
        e.tlbDoneCycle = now_ + lat;
        if (e.isLoad)
            e.loadPhase = LoadPhase::WaitTlb;
        insertBySeq(memWork_, e.robSlot, e.seq);
    } else {
        if (!srcsReady(e, false))
            return false;
        e.issued = true;
        e.issueCycle = now_;
        unsigned lat = params_.aluLatency;
        if (e.si.op == Op::Imul)
            lat = params_.mulLatency;
        if (e.isBranch())
            lat = params_.branchLatency;
        if (e.si.op == Op::Halt || e.si.op == Op::Nop)
            lat = 1;
        e.doneCycle = now_ + lat;
        if (tracer_)
            tracer_->onIssue(e, now_);
    }
    insertBySeq(execList_, e.robSlot, e.seq);
    progress_ = true;
    defense_->onIssue(e);
    return true;
}

void
Pipeline::issueStage()
{
    if (fencesInFlight_ > 0) {
        // The fence barrier needs cumulative all-older-executed state:
        // fall back to the legacy in-order scan until it drains.
        issueStageWithFences();
        return;
    }

    unsigned budget = params_.issueWidth;
    std::size_t out = 0;
    std::size_t i = 0;
    for (; i < issueReady_.size(); ++i) {
        if (budget == 0)
            break;
        DynInst *e = liveAt(issueReady_[i]);
        if (!e || e->issued)
            continue; // stale handle (squash/commit) or fence-path issue
        if (tryIssue(*e)) {
            --budget;
            continue;
        }
        // Defense veto (the counters say ready): keep it for retry.
        issueReady_[out++] = issueReady_[i];
    }
    for (; i < issueReady_.size(); ++i)
        issueReady_[out++] = issueReady_[i];
    issueReady_.resize(out);
    issueTail(budget);
}

void
Pipeline::issueTail(unsigned budget)
{
    // The tail is younger than every ROB entry, so it gets the issue
    // width they left. Its NOPs are always ready and never vetoed (no
    // onIssue: lifecycle hooks are for program instructions).
    const std::size_t n =
        std::min<std::size_t>(budget, tailFetched_ - tailIssued_);
    if (n == 0)
        return;
    if (tracer_) {
        for (std::size_t k = tailIssued_; k < tailIssued_ + n; ++k)
            tracer_->onIssue(tailInst(k), now_);
    }
    tailIssued_ += n;
    progress_ = true;
}

void
Pipeline::issueStageWithFences()
{
    unsigned budget = params_.issueWidth;
    bool all_older_executed = true;
    for (std::size_t i = 0; i < rob_.size() && budget > 0; ++i) {
        DynInst &e = rob_[i];

        if (e.si.op == Op::Fence) {
            if (!e.issued && all_older_executed) {
                e.issued = true;
                e.issueCycle = now_;
                e.doneCycle = now_ + 1;
                --budget;
                if (tracer_)
                    tracer_->onIssue(e, now_);
                insertBySeq(execList_, e.robSlot, e.seq);
                progress_ = true;
            }
            if (!e.executed)
                return; // younger instructions wait for the fence
        }

        if (!e.issued && e.si.op != Op::Fence) {
            if (tryIssue(e))
                --budget;
        }
        all_older_executed = all_older_executed && e.executed;
    }
    issueTail(budget);
}

void
Pipeline::executeStage()
{
    // Walk only issued-not-yet-executed entries, oldest first (the list
    // is seq-sorted, preserving the legacy resolution order). Entries
    // stay listed until they execute; stale handles compact away.
    std::size_t out = 0;
    for (std::size_t i = 0; i < execList_.size(); ++i) {
        DynInst *pe = liveAt(execList_[i]);
        if (!pe || pe->squashed || pe->executed)
            continue;
        DynInst &e = *pe;

        if (!e.isLoad && !e.isStore) {
            if (now_ >= e.doneCycle) {
                if (e.isBranch()) {
                    resolveBranch(e);
                } else if (e.si.op == Op::Nop || e.si.op == Op::Halt ||
                           e.si.op == Op::Fence) {
                    e.executed = true;
                    e.execCycle = now_;
                    if (tracer_)
                        tracer_->onComplete(e, now_);
                    broadcastExecuted(e);
                } else {
                    finalizeData(e);
                }
            }
        } else if (e.isLoad) {
            if (e.loadPhase == LoadPhase::Done && srcsReady(e, false))
                finalizeData(e);
        } else {
            // Plain store: needs address and data.
            if (e.addrReady && srcsReady(e, false))
                finalizeData(e);
        }

        if (!e.executed)
            execList_[out++] = execList_[i];
    }
    execList_.resize(out);

    // Every tail NOP issued so far did so in an earlier cycle (issue runs
    // after execute), so at latency 1 they all complete now, after the
    // older entries. A squash above would have removed them.
    if (tailExecuted_ < tailIssued_) {
        if (tracer_) {
            for (std::size_t k = tailExecuted_; k < tailIssued_; ++k)
                tracer_->onComplete(tailInst(k), now_);
        }
        tailExecuted_ = tailIssued_;
        progress_ = true;
    }
}

void
Pipeline::commitStage()
{
    for (unsigned n = 0; n < params_.commitWidth && !rob_.empty(); ++n) {
        DynInst &e = rob_.front();
        if (!e.executed)
            break;

        if (e.isStore) {
            memory_.write(e.memAddr, e.memSize, e.storeData);
            log_.record(now_, EventKind::StoreCommit, e.seq, e.pc,
                        e.memAddr);
            if (defense_->installStoreAtCommit(e)) {
                const Addr line_a = mem_.l1d().lineAddrOf(e.memAddr);
                const Addr line_b =
                    mem_.l1d().lineAddrOf(e.memAddr + e.memSize - 1);
                for (Addr line : {line_a, line_b}) {
                    MemReq req;
                    req.kind = ReqKind::StoreInstall;
                    req.lineAddr = line;
                    req.seq = e.seq;
                    req.pc = e.pc;
                    req.markNonSpec = true;
                    mem_.enqueueL1D(req);
                    if (line_a == line_b)
                        break;
                }
            }
        }
        if (e.isBranch())
            bp_.train(e.pc, e.actualTaken, e.actualNextIdx, e.ghrAtFetch);

        // Commit-time footprint marking: the lines this instruction
        // touched are architectural from here on (CleanupSpec's noClean
        // metadata; the commit-time identification its authors propose
        // for the overcleaning vulnerability). Pure metadata — ignored
        // by defenses that do not consult it.
        if ((e.isLoad || e.isStore) && e.issued && e.memSize > 0) {
            mem_.l1d().markNonSpecTouched(
                mem_.l1d().lineAddrOf(e.memAddr));
            mem_.l1d().markNonSpecTouched(
                mem_.l1d().lineAddrOf(e.memAddr + e.memSize - 1));
        }

        if (e.si.op == Op::Loopne) {
            committedRegs_[isa::regIndex(isa::Reg::Rcx)] = e.result;
        } else if (e.si.dstKind == OpndKind::Reg && e.resultValid) {
            committedRegs_[isa::regIndex(e.si.dst)] = e.result;
        }
        if (e.writesFlagsOut)
            committedFlags_ = e.flagsOut;

        for (isa::Reg r : e.si.regsWritten()) {
            if (renameReg_[isa::regIndex(r)] == e.seq) {
                renameReg_[isa::regIndex(r)] = kNoSeq;
                renameRegSlot_[isa::regIndex(r)] = DynInst::kNoSlot;
            }
        }
        if (renameFlags_ == e.seq) {
            renameFlags_ = kNoSeq;
            renameFlagsSlot_ = DynInst::kNoSlot;
        }
        if (e.si.op == Op::Fence)
            --fencesInFlight_;

        e.committed = true;
        e.commitCycle = now_;
        log_.record(now_, EventKind::Commit, e.seq, e.pc);
        if (tracer_)
            tracer_->onCommit(e, now_);
        ++committedInsts_;
        if (e.isLoad)
            --loadsInFlight_;
        if (e.isStore)
            --storesInFlight_;

        const bool is_halt = e.si.op == Op::Halt;
        rob_.pop_front();
        progress_ = true;
        if (is_halt) {
            halted_ = true;
            break;
        }
    }
}

void
Pipeline::fetchStage()
{
    for (unsigned n = 0; n < params_.fetchWidth; ++n) {
        if (rob_.size() + tailFetched_ >= params_.robSize)
            return;
        const std::size_t idx = fetchIdx_;
        if (lsqFullFor(idx))
            return;

        const Addr pc = prog_->pcOf(idx);
        if (!mem_.ifetchHit(pc)) {
            mem_.requestIfetch(mem_.l1i().lineAddrOf(pc));
            return; // fetch stalls until the line arrives
        }

        if (idx >= prog_->numInsts()) {
            // Runahead past the program's end: a NOP joins the tail with
            // its seq, Fetch event and progress mark, but no ROB entry.
            if (tailFetched_ == 0) {
                tailSeq_ = nextSeq_;
                tailIdx_ = idx;
            }
            const SeqNum seq = nextSeq_++;
            ++tailFetched_;
            log_.record(now_, EventKind::Fetch, seq, pc);
            if (tracer_)
                tracer_->onFetch(tailInst(tailFetched_ - 1), now_);
            fetchIdx_ = idx + 1;
            progress_ = true;
            continue;
        }

        DynInst d = makeDynInst(idx);
        d.ghrAtFetch = bp_.ghr();

        bool taken_branch = false;
        if (d.isBranch()) {
            const auto pred = bp_.predict(pc, d.si.isCondBranch());
            d.predTaken = pred.taken;
            d.ghrAtFetch = pred.ghrBefore;
            d.predNextIdx = pred.taken ? pred.targetIdx : idx + 1;
            if (d.si.isCondBranch())
                bp_.updateGhrSpeculative(pred.taken);
            branchPredOrder_.push_back(
                {pc, prog_->pcOf(d.predNextIdx)});
            taken_branch = pred.taken;
        } else {
            d.predNextIdx = idx + 1;
        }

        if (d.isLoad)
            ++loadsInFlight_;
        if (d.isStore)
            ++storesInFlight_;

        log_.record(now_, EventKind::Fetch, d.seq, pc);
        if (tracer_)
            tracer_->onFetch(d, now_);
        fetchIdx_ = d.predNextIdx;
        rob_.push_back(std::move(d));

        // Fix up the slot-addressed structures now that the entry has
        // its physical ROB slot.
        DynInst &f = rob_.back();
        f.robSlot =
            static_cast<std::uint32_t>(rob_.slotIndex(rob_.size() - 1));
        for (isa::Reg r : f.si.regsWritten())
            renameRegSlot_[isa::regIndex(r)] = f.robSlot;
        if (f.si.writesFlags())
            renameFlagsSlot_ = f.robSlot;
        consumers_[f.robSlot].clear();
        for (const auto &src : f.srcs) {
            if (src.producer != kNoSeq)
                linkConsumer(src.producerSlot, f);
        }
        if (f.needsFlags && f.flagsProducer != kNoSeq)
            linkConsumer(f.flagsProducerSlot, f);
        if (f.si.op == Op::Fence)
            ++fencesInFlight_;
        else if ((f.isLoad || f.isStore) ? f.pendingAddrSrcs == 0
                                         : f.pendingDataSrcs == 0)
            insertBySeq(issueReady_, f.robSlot, f.seq);
        progress_ = true;

        if (taken_branch)
            return; // redirect: resume at the target next cycle
    }
}

void
Pipeline::onMemReqComplete(const MemReq &req)
{
    progress_ = true;
    if (req.kind == ReqKind::Load) {
        DynInst *e = entry(req.seq);
        if (e && !e->squashed && e->loadPhase == LoadPhase::WaitCache &&
            e->pendingFills > 0) {
            if (--e->pendingFills == 0) {
                e->loadPhase = LoadPhase::Done;
                e->loadDataValid = true;
            }
        }
    }
    defense_->onReqComplete(req);
}

Cycle
Pipeline::nextLocalEventCycle() const
{
    // Self-sufficient quiescence analysis: re-derive from state alone
    // the earliest cycle at which any stage could act. Anything
    // actionable *next* cycle pins the horizon to now_ + 1; otherwise
    // the only time-gated wakeups are doneCycle / tlbDoneCycle fills.
    // Conservative by construction — returning too-early cycles only
    // shrinks skips; the soundness argument is in src/uarch/README.md.
    const Cycle next_cycle = now_ + 1;
    Cycle next = kNoEventCycle;

    // One-step safety lookahead: an unsafe entry with no older risk
    // becomes safe at the next computeSafety, firing defense hooks.
    // Entries older than the frontier are already safe and riskless.
    std::size_t i = safeFrontierIndex();
    for (; i < rob_.size(); ++i) {
        const DynInst &e = rob_[i];
        if (!e.safe)
            return next_cycle;
        if (isSafetyRisk(e))
            break;
    }

    // The tail acts next cycle if it holds an unsafe NOP behind no risk,
    // a NOP to issue (always ready), or an issued NOP, which completes
    // next cycle (latency 1). next_cycle is the earliest horizon, so
    // returning it before the ROB scan is exact.
    if ((i == rob_.size() && tailSafe_ < tailFetched_) ||
        tailExecuted_ < tailFetched_) {
        return next_cycle;
    }

    for (const DynInst &e : rob_) {
        if (!e.issued) {
            if (e.si.op == Op::Fence)
                return next_cycle; // barrier state can change any cycle
            const bool ready = (e.isLoad || e.isStore)
                                   ? e.pendingAddrSrcs == 0
                                   : e.pendingDataSrcs == 0;
            if (ready)
                return next_cycle; // issueStage retries every cycle
            continue;
        }
        if (e.executed)
            continue;

        if (e.tlbPending) {
            next = std::min(next, std::max(e.tlbDoneCycle, next_cycle));
            continue;
        }
        if (e.isLoad) {
            if (e.loadPhase == LoadPhase::WaitStore)
                return next_cycle; // advanceMemOps retries every cycle
            if (e.loadPhase == LoadPhase::Done && e.pendingDataSrcs == 0)
                return next_cycle; // executeStage can finalize
            continue;              // WaitCache: MemSystem owns the wakeup
        }
        if (e.isStore) {
            if (e.addrReady && e.pendingDataSrcs == 0)
                return next_cycle; // executeStage can finalize
            continue;
        }
        // Fixed-latency ALU op.
        next = std::min(next, std::max(e.doneCycle, next_cycle));
    }

    // Commit: the head being executed means commitStage acts next cycle.
    if (!rob_.empty() && rob_.front().executed)
        return next_cycle;

    // Fetch: can a new instruction enter next cycle? Probe the same
    // gates fetchStage checks, without side effects (Cache::present()
    // leaves LRU alone; ifetchHit would refresh it).
    if (rob_.size() + tailFetched_ < params_.robSize &&
        !lsqFullFor(fetchIdx_) &&
        mem_.l1i().present(mem_.l1i().lineAddrOf(prog_->pcOf(fetchIdx_)))) {
        return next_cycle;
    }

    return next;
}

void
Pipeline::skipToNextEvent(Cycle cap)
{
    Cycle horizon = nextLocalEventCycle();
    horizon = std::min(horizon, mem_.nextEventCycle(now_));
    horizon = std::min(horizon, defense_->nextEventCycle(now_));

    // Park one cycle short of the event so the normal loop epilogue's
    // ++now_ lands exactly on it — every stage then observes the event
    // at the same now_ it would have without skipping. No event at all
    // (deadlocked run): park at the cap, reproducing hitCycleCap.
    const Cycle park =
        (horizon == kNoEventCycle || horizon > cap) ? cap : horizon - 1;
    if (park <= now_)
        return;

    const Cycle elided = park - now_;
    skippedCycles_ += elided;
    ++skipWindows_;
    skipLengths_.push_back(elided);
    now_ = park;
}

RunResult
Pipeline::run(Cycle cycle_cap)
{
    assert(prog_ && "no program loaded");
    reset();

    const Cycle cap = cycle_cap ? cycle_cap : params_.maxCyclesPerRun;
    RunResult result;
    while (!halted_ && now_ < cap) {
        ++now_;
        progress_ = false;
        mem_.tick(now_);
        computeSafety();
        defense_->tick();
        commitStage();
        if (halted_)
            break;
        executeStage();
        issueStage();
        advanceMemOps();
        fetchStage();
        if (cycleSkip_ && !progress_)
            skipToNextEvent(cap);
    }

    if (halted_) {
        // The countermeasure's rollback is guaranteed to finish even when
        // the test ends mid-queue (its security invariant); apply pending
        // cleanups before any state snapshot.
        mem_.flushCleanups();
    }

    result.halted = halted_;
    result.cycles = now_;
    result.committedInsts = committedInsts_;
    result.squashes = squashes_;
    result.hitCycleCap = !halted_;
    return result;
}

} // namespace amulet::uarch
