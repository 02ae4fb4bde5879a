/**
 * @file
 * Architectural-equivalence tests: the out-of-order pipeline must commit
 * exactly the architectural state the reference emulator computes, for
 * hand-written programs and for randomized property sweeps (programs x
 * inputs x defenses). This is the foundation of relational testing: both
 * sides agree on architecture, so any μarch trace difference is purely
 * speculative.
 */

#include <gtest/gtest.h>

#include "arch/emulator.hh"
#include "common/rng.hh"
#include "core/generator.hh"
#include "core/input_gen.hh"
#include "defense/factory.hh"
#include "isa/assembler.hh"
#include "isa/disasm.hh"
#include "support/inputs.hh"
#include "uarch/pipeline.hh"

namespace
{

using namespace amulet;

using fixture::testMap;

/** Run a flat program architecturally on the emulator. */
arch::ArchState
emulate(const isa::FlatProgram &fp, const arch::Input &input,
        const mem::AddressMap &map)
{
    arch::ArchState st;
    st.loadInput(input, map);
    arch::Emulator emu(fp, std::move(st));
    emu.run();
    return emu.state();
}

/** Run a flat program on the pipeline with a given defense. */
struct PipeRun
{
    std::array<RegVal, isa::kNumRegs> regs;
    isa::Flags flags;
    uarch::RunResult result;
    std::unique_ptr<mem::MemoryImage> memory;
};

PipeRun
simulate(const isa::FlatProgram &fp, const arch::Input &input,
         const mem::AddressMap &map, const uarch::CoreParams &params,
         const defense::DefenseConfig &dcfg)
{
    PipeRun out;
    out.memory = std::make_unique<mem::MemoryImage>();
    static EventLog log;
    auto defense = defense::makeDefense(dcfg, params);
    uarch::Pipeline pipe(params, *out.memory, log);
    pipe.setDefense(defense.get());
    pipe.setProgram(&fp);

    if (!input.sandbox.empty())
        out.memory->mapSandbox(map.sandboxBase, input.sandbox);
    std::array<RegVal, isa::kNumRegs> regs = input.regs;
    regs[isa::regIndex(isa::kSandboxBaseReg)] = map.sandboxBase;
    regs[isa::regIndex(isa::Reg::Rsp)] = 0;
    pipe.setArchRegs(regs, isa::Flags::unpack(input.flagsByte));
    out.result = pipe.run();
    out.regs = pipe.archRegs();
    out.flags = pipe.archFlags();
    return out;
}

arch::Input
makeInput(Rng &rng, const mem::AddressMap &map)
{
    core::InputGenConfig icfg;
    icfg.map = map;
    core::InputGenerator gen(icfg, rng.split());
    return gen.generate(0);
}

void
expectArchMatch(const isa::Program &prog, const arch::Input &input,
                const mem::AddressMap &map,
                const defense::DefenseConfig &dcfg,
                const uarch::CoreParams &params)
{
    const isa::FlatProgram fp(prog, map.codeBase);
    const arch::ArchState ref = emulate(fp, input, map);
    const PipeRun got = simulate(fp, input, map, params, dcfg);

    ASSERT_TRUE(got.result.halted)
        << "pipeline hit the cycle cap\n"
        << isa::formatProgram(prog);
    for (unsigned r = 0; r < isa::kNumRegs; ++r) {
        EXPECT_EQ(got.regs[r], ref.regs[r])
            << "register " << isa::regName(isa::regFromIndex(r))
            << " mismatch\n"
            << isa::formatProgram(prog);
    }
    EXPECT_EQ(got.flags, ref.flags) << isa::formatProgram(prog);
    // Compare the sandbox memory contents.
    for (Addr a = map.sandboxBase; a < map.sandboxEnd(); a += 1) {
        const std::uint8_t want = ref.mem.readByte(a);
        const std::uint8_t have = got.memory->readByte(a);
        ASSERT_EQ(have, want)
            << "memory mismatch at 0x" << std::hex << a << "\n"
            << isa::formatProgram(prog);
    }
}

TEST(PipelineArch, StraightLineAlu)
{
    const char *text = R"(
        MOV RAX, 5
        MOV RBX, 7
        ADD RAX, RBX
        IMUL RAX, RBX
        SUB RAX, 4
        XOR RCX, RCX
        SETE CL
    )";
    const isa::Program prog = isa::assemble(text);
    Rng rng(42);
    const auto map = testMap();
    expectArchMatch(prog, makeInput(rng, map), map, {}, {});
}

TEST(PipelineArch, LoadsStoresAndRmw)
{
    const char *text = R"(
        AND RBX, 0b111111111111
        MOV qword ptr [R14 + RBX], RDI
        MOV RAX, qword ptr [R14 + RBX]
        AND RCX, 0b111111111111
        OR byte ptr [R14 + RCX], AL
        AND RDX, 0b111111111111
        CMOVNE SI, word ptr [R14 + RDX]
    )";
    const isa::Program prog = isa::assemble(text);
    Rng rng(43);
    const auto map = testMap();
    for (int i = 0; i < 10; ++i)
        expectArchMatch(prog, makeInput(rng, map), map, {}, {});
}

TEST(PipelineArch, BranchesAndLoopne)
{
    const char *text = R"(
.bb_main.0:
        CMP RAX, 0
        JNE .bb_main.1
        MOV RBX, 111
        JMP .bb_main.1
.bb_main.1:
        MOV RCX, 3
        TEST RDX, RDX
        LOOPNE .bb_main.2
        JMP .exit
.bb_main.2:
        ADD RBX, 1
        JMP .exit
    )";
    const isa::Program prog = isa::assemble(text);
    Rng rng(44);
    const auto map = testMap();
    for (int i = 0; i < 10; ++i)
        expectArchMatch(prog, makeInput(rng, map), map, {}, {});
}

TEST(PipelineArch, StoreToLoadForwardingChain)
{
    // A store whose data arrives late, then a dependent load: exercises
    // forwarding and v4-speculation recovery.
    const char *text = R"(
        AND RBX, 0b111111111111
        IMUL RDI, RDI
        IMUL RDI, RDI
        AND RDI, 0b111111111111
        MOV qword ptr [R14 + RDI], RSI
        MOV RAX, qword ptr [R14 + RBX]
        AND RAX, 0b111111111111
        MOV RDX, qword ptr [R14 + RAX]
    )";
    const isa::Program prog = isa::assemble(text);
    Rng rng(45);
    const auto map = testMap();
    for (int i = 0; i < 20; ++i)
        expectArchMatch(prog, makeInput(rng, map), map, {}, {});
}

/** Property sweep: random programs, random inputs, every defense. */
class ArchEquivalence
    : public ::testing::TestWithParam<std::tuple<defense::DefenseKind,
                                                 unsigned>>
{
};

TEST_P(ArchEquivalence, RandomProgramsMatchEmulator)
{
    const auto [kind, seed] = GetParam();
    const auto map = testMap();
    defense::DefenseConfig dcfg;
    dcfg.kind = kind;
    uarch::CoreParams params;

    Rng rng(1000 + seed);
    core::GeneratorConfig gcfg;
    gcfg.map = map;
    for (int iter = 0; iter < 8; ++iter) {
        core::ProgramGenerator gen(gcfg, rng.split());
        const isa::Program prog = gen.generate();
        ASSERT_FALSE(prog.validate().has_value());
        for (int i = 0; i < 3; ++i) {
            SCOPED_TRACE("defense=" +
                         std::string(defense::defenseKindName(kind)) +
                         " seed=" + std::to_string(seed) +
                         " iter=" + std::to_string(iter));
            expectArchMatch(prog, makeInput(rng, map), map, dcfg, params);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllDefenses, ArchEquivalence,
    ::testing::Combine(
        ::testing::Values(defense::DefenseKind::Baseline,
                          defense::DefenseKind::InvisiSpec,
                          defense::DefenseKind::CleanupSpec,
                          defense::DefenseKind::Stt,
                          defense::DefenseKind::SpecLfb),
        ::testing::Values(1u, 2u, 3u)));

/** Amplified configurations must also stay architecturally correct. */
TEST(PipelineArch, AmplifiedStructuresStillCorrect)
{
    const auto map = testMap();
    uarch::CoreParams params;
    params.l1d.ways = 2;
    params.l1dMshrs = 2;
    defense::DefenseConfig dcfg;
    dcfg.kind = defense::DefenseKind::InvisiSpec;

    Rng rng(77);
    core::GeneratorConfig gcfg;
    gcfg.map = map;
    for (int iter = 0; iter < 6; ++iter) {
        core::ProgramGenerator gen(gcfg, rng.split());
        const isa::Program prog = gen.generate();
        expectArchMatch(prog, makeInput(rng, map), map, dcfg, params);
    }
}

} // namespace
