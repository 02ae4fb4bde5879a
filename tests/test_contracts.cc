/**
 * @file
 * Tests for the reference emulator (checkpoints/rollback), the leakage
 * model (contract traces, equivalence, read-offset analysis), memory
 * image, RNG determinism, input generation, and the relational analyzer.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "contracts/leakage_model.hh"
#include "core/analyzer.hh"
#include "core/generator.hh"
#include "core/input_gen.hh"
#include "isa/assembler.hh"
#include "mem/memory_image.hh"
#include "support/inputs.hh"

namespace
{

using namespace amulet;

using fixture::makeInput;
using fixture::testMap;

TEST(Rng, DeterministicAndSplittable)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    Rng child_a = a.split();
    Rng child_b = b.split();
    EXPECT_EQ(child_a.next(), child_b.next());
    EXPECT_NE(Rng(1).next(), Rng(2).next());
}

TEST(Rng, BoundsRespected)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.nextBelow(17), 17u);
        const auto v = rng.nextRange(5, 9);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 9u);
    }
    std::vector<std::uint32_t> weights = {0, 3, 0, 1};
    for (int i = 0; i < 100; ++i) {
        const auto pick = rng.pickWeighted(weights);
        EXPECT_TRUE(pick == 1 || pick == 3);
    }
}

TEST(MemoryImage, SparseReadsZero)
{
    mem::MemoryImage img;
    EXPECT_EQ(img.read(0xdeadbeef, 8), 0u);
    img.write(0x1000, 4, 0xaabbccdd);
    EXPECT_EQ(img.read(0x1000, 4), 0xaabbccddu);
    EXPECT_EQ(img.read(0x1002, 1), 0xbbu);
    // Cross-page bulk write/read round-trips.
    std::vector<std::uint8_t> data(9000);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 7);
    img.writeBytes(0x1ff0, data.data(), data.size());
    std::vector<std::uint8_t> back(data.size());
    img.readBytes(0x1ff0, back.data(), back.size());
    EXPECT_EQ(back, data);
}

TEST(Emulator, CheckpointRollbackRestoresEverything)
{
    const isa::Program prog = isa::assemble(R"(
        MOV RAX, 5
        AND RBX, 0b111111111111
        MOV qword ptr [R14 + RBX], RAX
        ADD RAX, 1
    )");
    const isa::FlatProgram fp(prog, 0x400000);
    const auto map = testMap();
    arch::ArchState st;
    st.loadInput(makeInput(map, 3), map);
    arch::Emulator emu(fp, std::move(st));

    emu.run(1); // MOV RAX, 5
    const auto regs_before = emu.state().regs;
    const Addr store_addr =
        map.sandboxBase + (emu.state().reg(isa::Reg::Rbx) & 0xfff);
    const auto mem_before = emu.state().mem.read(store_addr & ~7ull, 8);

    emu.pushCheckpoint();
    emu.run(); // rest of the program (store + add)
    EXPECT_TRUE(emu.halted());
    emu.rollbackCheckpoint();
    EXPECT_FALSE(emu.halted());
    EXPECT_EQ(emu.state().regs, regs_before);
    EXPECT_EQ(emu.state().mem.read(store_addr & ~7ull, 8), mem_before);
}

TEST(Emulator, NestedCheckpoints)
{
    const isa::Program prog = isa::assemble(R"(
        MOV qword ptr [R14 + 0], RDI
        MOV qword ptr [R14 + 8], RSI
    )");
    const isa::FlatProgram fp(prog, 0x400000);
    const auto map = testMap();
    arch::Input input = makeInput(map, 4);
    input.regs[isa::regIndex(isa::Reg::Rdi)] = 0x11;
    input.regs[isa::regIndex(isa::Reg::Rsi)] = 0x22;
    arch::ArchState st;
    st.loadInput(input, map);
    arch::Emulator emu(fp, std::move(st));

    emu.pushCheckpoint();
    emu.step(); // store 0x11
    emu.pushCheckpoint();
    emu.step(); // store 0x22
    EXPECT_EQ(emu.state().mem.read(map.sandboxBase + 8, 8), 0x22u);
    emu.rollbackCheckpoint();
    EXPECT_EQ(emu.state().mem.read(map.sandboxBase + 0, 8), 0x11u);
    emu.rollbackCheckpoint();
    EXPECT_NE(emu.state().mem.read(map.sandboxBase + 0, 8), 0x11u);
}

TEST(LeakageModel, DeterministicTraces)
{
    Rng rng(11);
    core::GeneratorConfig gcfg;
    gcfg.map = testMap();
    core::ProgramGenerator gen(gcfg, rng.split());
    const isa::Program prog = gen.generate();
    const isa::FlatProgram fp(prog, gcfg.map.codeBase);
    const arch::Input input = makeInput(gcfg.map, 12);

    for (const auto &spec : contracts::allContracts()) {
        contracts::LeakageModel model(spec);
        const auto t1 = model.collect(fp, input, gcfg.map);
        const auto t2 = model.collect(fp, input, gcfg.map);
        EXPECT_EQ(t1, t2) << spec.name;
        EXPECT_FALSE(t1.empty()) << spec.name;
    }
}

TEST(LeakageModel, CtSeqIgnoresUnreadMemory)
{
    const isa::Program prog = isa::assemble(R"(
        AND RBX, 0b111111111111
        MOV RAX, qword ptr [R14 + RBX]
    )");
    const isa::FlatProgram fp(prog, 0x400000);
    const auto map = testMap();
    arch::Input a = makeInput(map, 5);
    a.regs[isa::regIndex(isa::Reg::Rbx)] = 0x100;
    arch::Input b = a;
    // Flip a byte that is never architecturally read.
    b.sandbox.set(0x800, b.sandbox[0x800] ^ 0xff);

    contracts::LeakageModel ct_seq(contracts::ctSeq());
    EXPECT_EQ(ct_seq.collect(fp, a, map), ct_seq.collect(fp, b, map));

    // But ARCH-SEQ distinguishes inputs whose *read* value differs.
    arch::Input c = a;
    c.sandbox.set(0x100, c.sandbox[0x100] ^ 0xff);
    contracts::LeakageModel arch_seq(contracts::archSeq());
    EXPECT_NE(arch_seq.collect(fp, a, map), arch_seq.collect(fp, c, map));
    EXPECT_EQ(ct_seq.collect(fp, a, map), ct_seq.collect(fp, c, map));
}

TEST(LeakageModel, CtCondExploresWrongPath)
{
    // The branch is architecturally taken; the fall-through loads from an
    // address derived from memory. CT-COND must expose the wrong-path
    // load address; CT-SEQ must not.
    const isa::Program prog = isa::assemble(R"(
.bb_main.0:
        CMP RAX, 0
        JNE .bb_main.1
        AND RBX, 0b111111111111
        MOV RDX, qword ptr [R14 + RBX]
        JMP .bb_main.1
.bb_main.1:
        NOP
    )");
    const isa::FlatProgram fp(prog, 0x400000);
    const auto map = testMap();
    arch::Input a = makeInput(map, 6);
    a.regs[isa::regIndex(isa::Reg::Rax)] = 1; // branch taken
    arch::Input b = a;
    b.regs[isa::regIndex(isa::Reg::Rbx)] =
        a.regs[isa::regIndex(isa::Reg::Rbx)] ^ 0x40;

    contracts::LeakageModel ct_seq(contracts::ctSeq());
    contracts::LeakageModel ct_cond(contracts::ctCond());
    EXPECT_EQ(ct_seq.collect(fp, a, map), ct_seq.collect(fp, b, map));
    EXPECT_NE(ct_cond.collect(fp, a, map), ct_cond.collect(fp, b, map));
}

TEST(LeakageModel, ArchReadOffsetsExcludeOverwrittenBytes)
{
    const isa::Program prog = isa::assemble(R"(
        MOV qword ptr [R14 + 64], RDI
        MOV RAX, qword ptr [R14 + 64]
        MOV RBX, qword ptr [R14 + 128]
    )");
    const isa::FlatProgram fp(prog, 0x400000);
    const auto map = testMap();
    const arch::Input input = makeInput(map, 7);
    contracts::LeakageModel model(contracts::ctSeq());
    const auto offsets = model.archReadOffsets(fp, input, map);
    // [64..71] was overwritten before the read: excluded. [128..135]
    // exposes its initial value: included.
    for (std::size_t off : offsets) {
        EXPECT_FALSE(off >= 64 && off < 72) << off;
    }
    EXPECT_NE(std::find(offsets.begin(), offsets.end(), 128u),
              offsets.end());
}

TEST(InputGen, SiblingPreservesContractRelevantBytes)
{
    const auto map = testMap();
    core::InputGenConfig cfg;
    cfg.map = map;
    Rng rng(9);
    core::InputGenerator gen(cfg, rng);
    const arch::Input base = gen.generate(0);
    const std::vector<std::size_t> offsets = {3, 500, 4095};
    const arch::Input sib = gen.sibling(base, offsets, 1);
    EXPECT_EQ(sib.regs, base.regs);
    EXPECT_EQ(sib.flagsByte, base.flagsByte);
    for (std::size_t off : offsets)
        EXPECT_EQ(sib.sandbox[off], base.sandbox[off]);
    EXPECT_NE(sib.sandbox, base.sandbox);
}

TEST(Analyzer, GroupsByExactTraceEquality)
{
    using contracts::CTrace;
    using contracts::Obs;
    CTrace t1 = {{Obs::Kind::Pc, 1}, {Obs::Kind::LoadAddr, 2}};
    CTrace t2 = t1;
    CTrace t3 = {{Obs::Kind::Pc, 1}, {Obs::Kind::LoadAddr, 3}};
    const auto classes = core::groupByCTrace({t1, t3, t2});
    ASSERT_EQ(classes.classes.size(), 2u);
    EXPECT_EQ(classes.effectiveClasses(), 1u);
    EXPECT_EQ(classes.classes[0], (std::vector<std::size_t>{0, 2}));
}

TEST(Analyzer, FindsOneCandidatePerDistinctDeviant)
{
    core::EquivalenceClasses classes;
    classes.classes = {{0, 1, 2, 3}};
    executor::UTrace base, devA, devB;
    base.words = {1};
    devA.words = {2};
    devB.words = {2}; // same deviant trace as devA
    const auto result =
        core::findCandidates(classes, {base, devA, devB, base});
    EXPECT_EQ(result.violatingTestCases, 2u);
    ASSERT_EQ(result.candidates.size(), 1u);
    EXPECT_EQ(result.candidates[0].a, 0u);
    EXPECT_EQ(result.candidates[0].b, 1u);
}

TEST(Generator, ProgramsAreWellFormedAndSandboxed)
{
    Rng rng(21);
    core::GeneratorConfig cfg;
    cfg.map = testMap();
    for (int i = 0; i < 50; ++i) {
        core::ProgramGenerator gen(cfg, rng.split());
        const isa::Program prog = gen.generate();
        EXPECT_FALSE(prog.validate().has_value());
        EXPECT_LE(prog.blocks.size(), cfg.maxBlocks);
        // Every memory access must be base-R14 with a masked index.
        for (const auto &bb : prog.blocks) {
            for (std::size_t k = 0; k < bb.body.size(); ++k) {
                const isa::Inst &inst = bb.body[k];
                if (!inst.isMemAccess())
                    continue;
                EXPECT_EQ(inst.mem.base, isa::kSandboxBaseReg);
                ASSERT_TRUE(inst.mem.hasIndex);
                ASSERT_GT(k, 0u);
                const isa::Inst &mask = bb.body[k - 1];
                EXPECT_EQ(mask.op, isa::Op::And);
                EXPECT_EQ(mask.dst, inst.mem.index);
                EXPECT_EQ(mask.imm,
                          static_cast<std::int64_t>(
                              cfg.map.sandboxMask()));
            }
        }
    }
}

TEST(Generator, DeterministicForEqualSeeds)
{
    core::GeneratorConfig cfg;
    cfg.map = testMap();
    core::ProgramGenerator g1(cfg, Rng(77));
    core::ProgramGenerator g2(cfg, Rng(77));
    const isa::Program p1 = g1.generate();
    const isa::Program p2 = g2.generate();
    ASSERT_EQ(p1.blocks.size(), p2.blocks.size());
    for (std::size_t b = 0; b < p1.blocks.size(); ++b)
        EXPECT_EQ(p1.blocks[b].body, p2.blocks[b].body);
}

} // namespace
