/**
 * @file
 * Tests for the violation minimizer: it must shrink a violating program
 * (dropping irrelevant instructions) while both the contract equivalence
 * of the input pair and the μarch trace difference persist.
 */

#include <gtest/gtest.h>

#include "core/minimizer.hh"
#include "isa/assembler.hh"
#include "isa/disasm.hh"

namespace
{

using namespace amulet;

TEST(Minimizer, ShrinksSpectreV1KeepingTheViolation)
{
    // Spectre-v1 with padding: dead ALU instructions the minimizer should
    // strip, plus timing-relevant slow-chain/trailing work it must keep
    // enough of.
    std::string text = ".bb_main.0:\n";
    text += "    MOV RAX, qword ptr [R14 + 0]\n";
    for (int i = 0; i < 8; ++i)
        text += "    IMUL RAX, RAX\n";
    text += "    XOR R9, R9\n";   // dead
    text += "    ADD R10, 17\n";  // dead
    text += "    SUB R12, R13\n"; // dead
    text += "    TEST RAX, RAX\n";
    text += "    JNE .bb_main.1\n";
    text += "    AND RBX, 0b111110000000\n";
    text += "    MOV RDX, qword ptr [R14 + RBX]\n";
    text += "    JMP .bb_main.1\n";
    text += ".bb_main.1:\n";
    text += "    MOV R11, qword ptr [R14 + 8]\n";
    for (int i = 0; i < 40; ++i)
        text += "    IMUL R11, R11\n";
    const isa::Program prog = isa::assemble(text);

    executor::HarnessConfig cfg;
    cfg.defense.kind = defense::DefenseKind::Baseline;
    cfg.prime = executor::PrimeMode::ConflictFill;
    cfg.bootInsts = 1000;
    executor::SimHarness harness(cfg);
    const isa::FlatProgram fp(prog, cfg.map.codeBase);
    harness.loadProgram(&fp);

    core::ViolationRecord violation;
    violation.inputA.regs.fill(0);
    violation.inputA.sandbox.assign(cfg.map.sandboxSize(), 0);
    violation.inputA.sandbox.set(0, 3);
    violation.inputA.sandbox.set(8, 7);
    violation.inputB = violation.inputA;
    violation.inputA.regs[isa::regIndex(isa::Reg::Rbx)] = 0x080;
    violation.inputB.regs[isa::regIndex(isa::Reg::Rbx)] = 0x780;
    violation.ctxA = harness.saveContext();
    violation.ctxB = violation.ctxA;

    // Confirm the starting point violates.
    const auto ta = harness.runInput(violation.inputA).trace;
    harness.restoreContext(violation.ctxB);
    const auto tb = harness.runInput(violation.inputB).trace;
    ASSERT_FALSE(ta == tb) << "precondition: the pair must violate";

    contracts::LeakageModel model(contracts::ctSeq());
    const auto ct_a = model.collect(fp, violation.inputA, cfg.map);
    const auto ct_b = model.collect(fp, violation.inputB, cfg.map);
    ASSERT_EQ(contracts::hashCTrace(ct_a), contracts::hashCTrace(ct_b));

    const core::MinimizeResult result = core::minimizeViolation(
        harness, model, cfg.map, prog, violation);

    EXPECT_GT(result.removedInsts, 0u)
        << "the padding instructions must be removable";
    EXPECT_LT(result.program.countInsts(), prog.countInsts());
    EXPECT_GT(result.checks, result.removedInsts);

    // The reduced program still violates under the recorded contexts.
    const isa::FlatProgram reduced(result.program, cfg.map.codeBase);
    EXPECT_EQ(model.collect(reduced, violation.inputA, cfg.map),
              model.collect(reduced, violation.inputB, cfg.map));
    harness.loadProgram(&reduced);
    harness.restoreContext(violation.ctxA);
    const auto ra = harness.runInput(violation.inputA).trace;
    harness.restoreContext(violation.ctxB);
    const auto rb = harness.runInput(violation.inputB).trace;
    EXPECT_FALSE(ra == rb)
        << "reduced program must still violate:\n"
        << isa::formatProgram(result.program);

    // The speculative load (the leak's transmitter) must have survived.
    bool has_spec_load = false;
    for (const auto &bb : result.program.blocks) {
        for (const auto &inst : bb.body) {
            if (inst.isLoad() && inst.mem.hasIndex &&
                inst.mem.index == isa::Reg::Rbx) {
                has_spec_load = true;
            }
        }
    }
    EXPECT_TRUE(has_spec_load);
}

} // namespace
