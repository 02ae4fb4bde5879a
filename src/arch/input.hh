/**
 * @file
 * Test input: the architectural initialization of one test-case run.
 *
 * Following Revizor/AMuLeT, an input is a binary blob that initializes the
 * test program's registers, flags, and memory sandbox (§2.4). A (program,
 * input) pair forms a test case.
 */

#ifndef AMULET_ARCH_INPUT_HH
#define AMULET_ARCH_INPUT_HH

#include <array>
#include <cstdint>

#include "common/types.hh"
#include "isa/reg.hh"
#include "mem/address_map.hh"
#include "mem/sandbox_image.hh"

namespace amulet::arch
{

/** Architectural initialization for one run. */
struct Input
{
    /** Initial GPR values (R14/RSP are overridden at load time). */
    std::array<RegVal, isa::kNumRegs> regs{};

    /** Initial packed status flags. */
    std::uint8_t flagsByte = 0;

    /** Initial sandbox contents (sandboxPages * 4096 bytes): a
     *  generated image for multi-page generator output, explicit bytes
     *  otherwise (src/mem/sandbox_image.hh). */
    mem::SandboxImage sandbox;

    /** Identifier for reports (generation order). */
    std::uint64_t id = 0;

    bool
    operator==(const Input &other) const
    {
        return regs == other.regs && flagsByte == other.flagsByte &&
               sandbox == other.sandbox;
    }
};

} // namespace amulet::arch

#endif // AMULET_ARCH_INPUT_HH
