#include "arch/emulator.hh"

#include <cassert>

#include "common/bitutil.hh"
#include "isa/semantics.hh"

namespace amulet::arch
{

using isa::Inst;
using isa::Op;
using isa::OpndKind;

Emulator::Emulator(const isa::FlatProgram &prog, ArchState state)
    : prog_(prog), state_(std::move(state))
{
}

void
Emulator::memWrite(Addr addr, unsigned size, std::uint64_t value)
{
    if (journalAll_ || !checkpoints_.empty()) {
        const std::uint64_t old = state_.mem.read(addr, size);
        for (unsigned i = 0; i < size; ++i)
            journal_.push_back(
                {addr + i, static_cast<std::uint8_t>(old >> (8 * i))});
    }
    state_.mem.write(addr, size, value);
}

namespace
{
constexpr std::uint32_t
regBit(isa::Reg r)
{
    return std::uint32_t{1} << isa::regIndex(r);
}
} // namespace

bool
Emulator::step()
{
    if (halted_)
        return false;

    last_ = StepEffects{};
    const std::size_t idx = state_.nextIdx;
    assert(idx < prog_.numInsts());
    const Inst &inst = prog_.inst(idx);
    last_.pc = prog_.pcOf(idx);
    last_.idx = idx;

    std::size_t next = idx + 1;

    switch (inst.op) {
      case Op::Halt:
        halted_ = true;
        last_.halted = true;
        state_.nextIdx = idx;
        return false;
      case Op::Nop:
      case Op::Fence:
        break;
      case Op::Jmp:
        last_.isBranch = true;
        last_.branchTaken = true;
        next = prog_.targetIdx(idx);
        break;
      case Op::Jcc: {
        last_.isBranch = true;
        last_.branchTaken = condEval(inst.cond, state_.flags);
        if (last_.branchTaken)
            next = prog_.targetIdx(idx);
        break;
      }
      case Op::Loopne: {
        last_.isBranch = true;
        last_.regsRead = regBit(isa::Reg::Rcx);
        last_.regsWritten = regBit(isa::Reg::Rcx);
        const RegVal rcx = state_.reg(isa::Reg::Rcx) - 1;
        state_.setReg(isa::Reg::Rcx, rcx);
        last_.branchTaken = rcx != 0 && !state_.flags.zf;
        if (last_.branchTaken)
            next = prog_.targetIdx(idx);
        break;
      }
      default: {
        // Data instruction: resolve operands, evaluate, write back.
        const bool has_mem = inst.srcKind == OpndKind::Mem ||
                             inst.dstKind == OpndKind::Mem;
        Addr addr = 0;
        if (has_mem) {
            addr = state_.effectiveAddr(inst.mem);
            last_.memAddr = addr;
            last_.memSize = inst.width;
            last_.regsRead |= regBit(inst.mem.base);
            if (inst.mem.hasIndex)
                last_.regsRead |= regBit(inst.mem.index);
        }

        std::uint64_t src = 0;
        switch (inst.srcKind) {
          case OpndKind::Reg:
            src = truncateToSize(state_.reg(inst.src), inst.width);
            last_.regsRead |= regBit(inst.src);
            break;
          case OpndKind::Imm:
            src = static_cast<std::uint64_t>(inst.imm);
            break;
          case OpndKind::Mem:
            src = state_.mem.read(addr, inst.width);
            last_.didLoad = true;
            last_.loadValue = src;
            break;
          case OpndKind::None:
            break;
        }

        std::uint64_t dst_old = 0;
        if (inst.dstKind == OpndKind::Reg) {
            dst_old = state_.reg(inst.dst);
            last_.regsRead |= regBit(inst.dst);
        } else if (inst.dstKind == OpndKind::Mem) {
            dst_old = state_.mem.read(addr, inst.width);
            if (inst.isRmw()) {
                last_.didLoad = true;
                last_.loadValue = dst_old;
            }
        }

        const isa::ExecResult res =
            isa::evalOp(inst, dst_old, src, addr, state_.flags);

        if (res.writesFlags)
            state_.flags = res.flags;
        if (res.writesDst) {
            if (inst.dstKind == OpndKind::Reg) {
                state_.setReg(inst.dst, res.value);
                last_.regsWritten |= regBit(inst.dst);
            } else if (inst.dstKind == OpndKind::Mem) {
                memWrite(addr, inst.width, res.value);
                last_.didStore = true;
            }
        }
        break;
      }
    }

    if (last_.isBranch)
        last_.branchTarget = prog_.pcOf(next);
    state_.nextIdx = next;
    return true;
}

std::size_t
Emulator::run(std::size_t max_steps)
{
    std::size_t steps = 0;
    while (steps < max_steps && step())
        ++steps;
    return steps;
}

void
Emulator::pushCheckpoint()
{
    checkpoints_.push_back({state_.regs, state_.flags, state_.nextIdx,
                            halted_, journal_.size()});
}

void
Emulator::rollbackCheckpoint()
{
    assert(!checkpoints_.empty());
    const Checkpoint &cp = checkpoints_.back();
    // Undo journaled stores in reverse order.
    undoJournalTo(cp.journalMark);
    state_.regs = cp.regs;
    state_.flags = cp.flags;
    state_.nextIdx = cp.nextIdx;
    halted_ = cp.halted;
    checkpoints_.pop_back();
}

void
Emulator::enableJournal()
{
    assert(journal_.empty() && checkpoints_.empty());
    journalAll_ = true;
    journal_.reserve(1024);
    checkpoints_.reserve(8);
}

void
Emulator::undoJournalTo(std::size_t mark)
{
    for (std::size_t i = journal_.size(); i > mark; --i) {
        const JournalEntry &e = journal_[i - 1];
        state_.mem.writeByte(e.addr, e.oldByte);
    }
    journal_.resize(mark);
}

ArchSnapshot
Emulator::snapshot() const
{
    assert(journalAll_ && checkpoints_.empty());
    return {state_.regs, state_.flags, state_.nextIdx, halted_,
            journal_.size()};
}

void
Emulator::restore(const ArchSnapshot &snap)
{
    assert(checkpoints_.empty());
    assert(snap.journalMark <= journal_.size());
    undoJournalTo(snap.journalMark);
    restoreCpu(snap);
}

void
Emulator::restoreCpu(const ArchSnapshot &snap)
{
    state_.regs = snap.regs;
    state_.flags = snap.flags;
    state_.nextIdx = snap.nextIdx;
    halted_ = snap.halted;
}

void
Emulator::rewindAllWrites()
{
    assert(checkpoints_.empty());
    undoJournalTo(0);
}

void
Emulator::pokeByte(Addr addr, std::uint8_t value)
{
    memWrite(addr, 1, value);
}

void
Emulator::redirect(std::size_t idx)
{
    assert(idx < prog_.numInsts());
    state_.nextIdx = idx;
    halted_ = false;
}

} // namespace amulet::arch
