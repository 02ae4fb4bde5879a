/**
 * @file
 * Architectural machine state: registers, flags, memory, and next
 * instruction index. Shared between the reference emulator and the
 * simulator's committed state.
 */

#ifndef AMULET_ARCH_ARCH_STATE_HH
#define AMULET_ARCH_ARCH_STATE_HH

#include <array>

#include "arch/input.hh"
#include "common/types.hh"
#include "isa/flags.hh"
#include "isa/program.hh"
#include "isa/reg.hh"
#include "mem/address_map.hh"
#include "mem/memory_image.hh"

namespace amulet::arch
{

/** Complete architectural state. */
struct ArchState
{
    std::array<RegVal, isa::kNumRegs> regs{};
    isa::Flags flags;
    std::size_t nextIdx = 0; ///< index of the next instruction to execute
    mem::MemoryImage mem;

    RegVal reg(isa::Reg r) const { return regs[isa::regIndex(r)]; }
    void setReg(isa::Reg r, RegVal v) { regs[isa::regIndex(r)] = v; }

    /**
     * Load an input: registers and flags from the input, the sandbox base
     * register pinned to the layout's sandbox, RSP zeroed, the sandbox
     * image mapped into memory (O(1) when generated: pages materialize
     * as they are touched), and the instruction pointer reset.
     */
    void
    loadInput(const Input &input, const mem::AddressMap &map)
    {
        regs = input.regs;
        setReg(isa::kSandboxBaseReg, map.sandboxBase);
        setReg(isa::Reg::Rsp, 0);
        flags = isa::Flags::unpack(input.flagsByte);
        nextIdx = 0;
        if (!input.sandbox.empty())
            mem.mapSandbox(map.sandboxBase, input.sandbox);
    }

    /** Effective address of a memory operand. */
    Addr
    effectiveAddr(const isa::MemRef &m) const
    {
        Addr a = reg(m.base) + static_cast<std::int64_t>(m.disp);
        if (m.hasIndex)
            a += reg(m.index);
        return a;
    }
};

} // namespace amulet::arch

#endif // AMULET_ARCH_ARCH_STATE_HH
