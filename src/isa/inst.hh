/**
 * @file
 * Instruction intermediate representation.
 *
 * AMuLeT test programs are sequences of x86-64-flavoured instructions. The
 * IR is structural (no binary encoding): one Inst per architectural
 * instruction, with an explicit operand shape. Memory-destination ALU
 * instructions (`OR byte ptr [R14+RDX], AL`) are modelled as a single Inst
 * that both loads and stores (read-modify-write), exactly the forms that
 * appear in the paper's violating test cases.
 */

#ifndef AMULET_ISA_INST_HH
#define AMULET_ISA_INST_HH

#include <array>
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "isa/flags.hh"
#include "isa/reg.hh"

namespace amulet::isa
{

/** Operation kinds. */
enum class Op : std::uint8_t
{
    Nop,
    Halt,   ///< end-of-test marker (the paper's `m5 exit`)
    Fence,  ///< LFENCE: blocks speculation past it
    Mov,    ///< dst <- src (any of reg/imm/mem on either side)
    Movzx,  ///< dst(64) <- zero-extended src of `width` bytes
    Movsx,  ///< dst(64) <- sign-extended src of `width` bytes
    Add,
    Sub,
    And,
    Or,
    Xor,
    Imul,
    Shl,
    Shr,
    Sar,
    Neg,    ///< unary; operand in dst
    Not,    ///< unary; operand in dst (flags unaffected)
    Cmp,    ///< flags-only subtract
    Test,   ///< flags-only and
    Cmov,   ///< conditional move; a memory source is always accessed (x86)
    Set,    ///< SETcc: dst low byte <- cond
    Lea,    ///< dst <- effective address of mem operand (no access)
    Jcc,    ///< conditional direct jump to a block
    Jmp,    ///< unconditional direct jump to a block
    Loopne, ///< RCX--; jump if RCX != 0 and !ZF (forward only here)
};

/** Operand kind for src/dst slots. */
enum class OpndKind : std::uint8_t
{
    None,
    Reg,
    Imm,
    Mem,
};

/** Memory operand: [base + index + disp]. */
struct MemRef
{
    Reg base = kSandboxBaseReg;
    bool hasIndex = false;
    Reg index = Reg::Rax;
    std::int32_t disp = 0;

    bool operator==(const MemRef &) const = default;
};

/** Registers one instruction writes, held inline: a register
 *  destination plus Loopne's implicit RCX at most, so the pipeline's
 *  rename, commit and squash paths never touch the heap for it. */
struct RegList
{
    std::array<Reg, 2> v{};
    std::uint8_t n = 0;

    void
    push_back(Reg r)
    {
        assert(n < v.size() && "register-list bound exceeded");
        v[n++] = r;
    }

    const Reg *begin() const { return v.data(); }
    const Reg *end() const { return v.data() + n; }
    std::size_t size() const { return n; }
    bool empty() const { return n == 0; }
    Reg operator[](std::size_t i) const { return v[i]; }
};

/** Branch-target sentinel: jump to the program's exit (HALT). */
inline constexpr int kTargetExit = -2;

/** One architectural instruction. */
struct Inst
{
    Op op = Op::Nop;
    Cond cond = Cond::E;       ///< for Jcc / Cmov / Set
    std::uint8_t width = 8;    ///< operand width in bytes (1/2/4/8)

    OpndKind dstKind = OpndKind::None;
    Reg dst = Reg::Rax;        ///< valid if dstKind == Reg
    OpndKind srcKind = OpndKind::None;
    Reg src = Reg::Rax;        ///< valid if srcKind == Reg
    std::int64_t imm = 0;      ///< valid if srcKind == Imm

    MemRef mem;                ///< valid if either operand kind is Mem
    int target = -1;           ///< block index for branches (or kTargetExit)
    bool lockPrefix = false;   ///< cosmetic LOCK prefix (paper listings)

    bool operator==(const Inst &) const = default;

    /** @name Classification */
    /// @{
    bool isBranch() const
    {
        return op == Op::Jcc || op == Op::Jmp || op == Op::Loopne;
    }
    bool isCondBranch() const
    {
        return op == Op::Jcc || op == Op::Loopne;
    }
    /** Reads memory (includes RMW and CMOV-from-memory). */
    bool isLoad() const
    {
        if (op == Op::Lea)
            return false;
        return srcKind == OpndKind::Mem ||
               (dstKind == OpndKind::Mem && isRmw());
    }
    /** Writes memory (plain stores and RMW). */
    bool isStore() const
    {
        return op != Op::Lea && dstKind == OpndKind::Mem;
    }
    /** Memory-destination ALU op: load + compute + store. */
    bool isRmw() const
    {
        return dstKind == OpndKind::Mem && op != Op::Mov && op != Op::Lea;
    }
    bool isMemAccess() const { return isLoad() || isStore(); }
    bool isSerializing() const { return op == Op::Fence; }
    /// @}

    /** Does this instruction write the status flags? */
    bool writesFlags() const;

    /** Does this instruction read the status flags? */
    bool readsFlags() const;

    /** Architectural registers read (dedup'd, excludes flags). */
    std::vector<Reg> regsRead() const;

    /** Architectural registers written (dedup'd, excludes flags). */
    RegList regsWritten() const;

    /** Mnemonic including condition suffix, e.g. "CMOVNBE". */
    std::string mnemonic() const;
};

/** Base mnemonic of an op (no condition suffix). */
const char *opName(Op op);

} // namespace amulet::isa

#endif // AMULET_ISA_INST_HH
