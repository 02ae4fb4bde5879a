#include "isa/inst.hh"

#include <algorithm>

namespace amulet::isa
{

const char *
opName(Op op)
{
    switch (op) {
      case Op::Nop:    return "NOP";
      case Op::Halt:   return "HLT";
      case Op::Fence:  return "LFENCE";
      case Op::Mov:    return "MOV";
      case Op::Movzx:  return "MOVZX";
      case Op::Movsx:  return "MOVSX";
      case Op::Add:    return "ADD";
      case Op::Sub:    return "SUB";
      case Op::And:    return "AND";
      case Op::Or:     return "OR";
      case Op::Xor:    return "XOR";
      case Op::Imul:   return "IMUL";
      case Op::Shl:    return "SHL";
      case Op::Shr:    return "SHR";
      case Op::Sar:    return "SAR";
      case Op::Neg:    return "NEG";
      case Op::Not:    return "NOT";
      case Op::Cmp:    return "CMP";
      case Op::Test:   return "TEST";
      case Op::Cmov:   return "CMOV";
      case Op::Set:    return "SET";
      case Op::Lea:    return "LEA";
      case Op::Jcc:    return "J";
      case Op::Jmp:    return "JMP";
      case Op::Loopne: return "LOOPNE";
    }
    return "?";
}

bool
Inst::writesFlags() const
{
    switch (op) {
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
      case Op::Cmp:
      case Op::Test:
        return true;
      default:
        return false;
    }
}

bool
Inst::readsFlags() const
{
    switch (op) {
      case Op::Cmov:
      case Op::Set:
      case Op::Jcc:
      case Op::Loopne: // reads ZF
        return true;
      default:
        return false;
    }
}

std::vector<Reg>
Inst::regsRead() const
{
    std::vector<Reg> regs;
    auto push = [&regs](Reg r) {
        if (std::find(regs.begin(), regs.end(), r) == regs.end())
            regs.push_back(r);
    };

    if (srcKind == OpndKind::Reg)
        push(src);
    if (srcKind == OpndKind::Mem || dstKind == OpndKind::Mem) {
        push(mem.base);
        if (mem.hasIndex)
            push(mem.index);
    }

    // Register destinations that read their old value: RMW ALU forms,
    // partial-width writes (merge into low bits), CMOV (may keep old value),
    // SETcc (writes only the low byte), and unary NEG/NOT.
    if (dstKind == OpndKind::Reg) {
        const bool alu_rmw =
            op == Op::Add || op == Op::Sub || op == Op::And || op == Op::Or ||
            op == Op::Xor || op == Op::Imul || op == Op::Shl ||
            op == Op::Shr || op == Op::Sar || op == Op::Neg || op == Op::Not;
        const bool partial =
            (op == Op::Mov || op == Op::Cmov) && width < 4;
        if (alu_rmw || partial || op == Op::Cmov || op == Op::Set)
            push(dst);
    }

    if (op == Op::Loopne)
        push(Reg::Rcx);

    // CMP/TEST read both operands; their "dst" slot is a read-only operand.
    if ((op == Op::Cmp || op == Op::Test) && dstKind == OpndKind::Reg)
        push(dst);

    return regs;
}

RegList
Inst::regsWritten() const
{
    RegList regs;
    if (dstKind == OpndKind::Reg && op != Op::Cmp && op != Op::Test &&
        !isBranch() && op != Op::Nop && op != Op::Halt && op != Op::Fence) {
        regs.push_back(dst);
    }
    if (op == Op::Loopne)
        regs.push_back(Reg::Rcx);
    return regs;
}

std::string
Inst::mnemonic() const
{
    std::string m = opName(op);
    if (op == Op::Jcc || op == Op::Cmov || op == Op::Set)
        m += condName(cond);
    if (lockPrefix)
        m = "LOCK " + m;
    return m;
}

} // namespace amulet::isa
