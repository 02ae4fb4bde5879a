/**
 * @file
 * End-to-end leak tests: the ground-truth matrix of DESIGN.md §6.
 *
 * Each test hand-crafts the paper's attack pattern, runs two
 * contract-equivalent inputs through the executor, and checks that the
 * μarch traces differ (leak) or match (defense holds), for the buggy and
 * patched variant of each countermeasure.
 */

#include <gtest/gtest.h>

#include "core/campaign.hh"
#include "executor/sim_harness.hh"
#include "isa/assembler.hh"

namespace
{

using namespace amulet;
using executor::HarnessConfig;
using executor::SimHarness;
using executor::TraceFormat;

/** Slow chain: delays the flags used by the next branch. */
std::string
slowChain(const char *reg, int imuls)
{
    std::string s = "    MOV " + std::string(reg) +
                    ", qword ptr [R14 + 0]\n";
    for (int i = 0; i < imuls; ++i)
        s += "    IMUL " + std::string(reg) + ", " + std::string(reg) +
             "\n";
    return s;
}

/** Trailing architectural work so the test outlives in-flight fills. */
std::string
trailingWork(int imuls = 40)
{
    std::string s = "    MOV R11, qword ptr [R14 + 8]\n";
    for (int i = 0; i < imuls; ++i)
        s += "    IMUL R11, R11\n";
    return s;
}

/**
 * Spectre-v1 with a memory secret: the branch condition depends on a slow
 * load; the mispredicted fall-through loads the secret and encodes it in
 * a second load's address.
 */
isa::Program
spectreV1MemSecret()
{
    std::string text;
    text += ".bb_main.0:\n";
    text += slowChain("RAX", 8);
    text += "    TEST RAX, RAX\n";
    text += "    JNE .bb_main.1\n"; // arch: taken; predicted fall-through
    // Speculative-only path:
    text += "    AND RCX, 0b111111111111\n";
    text += "    MOV RBX, qword ptr [R14 + RCX]\n"; // secret load
    text += "    AND RBX, 0b111110000000\n";
    text += "    MOV RDX, qword ptr [R14 + RBX]\n"; // transmitter
    text += "    JMP .bb_main.1\n";
    text += ".bb_main.1:\n";
    text += trailingWork();
    return isa::assemble(text);
}

/**
 * Spectre-v1 with a register secret and a single speculative load
 * (the SpecLFB UV6 pattern, Figure 8).
 */
isa::Program
spectreV1RegSecret()
{
    std::string text;
    text += ".bb_main.0:\n";
    text += slowChain("RAX", 8);
    text += "    TEST RAX, RAX\n";
    text += "    JNE .bb_main.1\n";
    text += "    AND RBX, 0b111110000000\n";
    text += "    MOV RDX, qword ptr [R14 + RBX]\n"; // single spec load
    text += "    JMP .bb_main.1\n";
    text += ".bb_main.1:\n";
    text += trailingWork();
    return isa::assemble(text);
}

HarnessConfig
makeConfig(defense::DefenseKind kind, TraceFormat format = TraceFormat::L1dTlb,
           bool patched = false, unsigned sandbox_pages = 1)
{
    HarnessConfig cfg = core::paperHarness(kind, patched);
    cfg.map.sandboxPages = sandbox_pages;
    cfg.traceFormat = format;
    cfg.bootInsts = 2000; // keep unit tests fast
    return cfg;
}

arch::Input
baseInput(const mem::AddressMap &map)
{
    arch::Input input;
    input.id = 0;
    input.regs.fill(0);
    input.regs[isa::regIndex(isa::Reg::Rcx)] = 0x200; // secret offset
    input.sandbox.assign(map.sandboxSize(), 0);
    // Non-zero word at [0] drives the slow chain and the branch.
    input.sandbox.set(0, 3);
    input.sandbox.set(8, 7);
    return input;
}

struct LeakOutcome
{
    bool differs;
    executor::UTrace traceA;
    executor::UTrace traceB;
    uarch::RunResult runA;
    uarch::RunResult runB;
};

LeakOutcome
runPair(const HarnessConfig &cfg, const isa::Program &prog,
        const arch::Input &a, const arch::Input &b)
{
    SimHarness harness(cfg);
    const isa::FlatProgram fp(prog, cfg.map.codeBase);
    harness.loadProgram(&fp);
    LeakOutcome out;
    out.runA = harness.runInput(a).run;
    out.traceA = executor::extractTrace(harness.pipeline(),
                                        cfg.traceFormat);
    out.runB = harness.runInput(b).run;
    out.traceB = executor::extractTrace(harness.pipeline(),
                                        cfg.traceFormat);
    out.differs = !(out.traceA == out.traceB);
    return out;
}

/** Inputs differing only in the speculatively-loaded memory secret. */
std::pair<arch::Input, arch::Input>
memSecretInputs(const mem::AddressMap &map)
{
    arch::Input a = baseInput(map);
    arch::Input b = a;
    // The transmitter masks the secret with 0b111110000000, so the secret
    // must differ in byte 1 to reach different cache lines.
    a.sandbox.set(0x201, 0x01); // secret 0x100 -> spec line offset 0x100
    b.sandbox.set(0x201, 0x07); // secret 0x700 -> spec line offset 0x700
    b.id = 1;
    return {a, b};
}

/** Inputs differing only in a dead register (the secret). */
std::pair<arch::Input, arch::Input>
regSecretInputs(const mem::AddressMap &map)
{
    arch::Input a = baseInput(map);
    arch::Input b = a;
    a.regs[isa::regIndex(isa::Reg::Rbx)] = 0x080;
    b.regs[isa::regIndex(isa::Reg::Rbx)] = 0x780;
    b.id = 1;
    return {a, b};
}

TEST(LeakDeterminism, SameInputSameTrace)
{
    const auto cfg = makeConfig(defense::DefenseKind::Baseline);
    const isa::Program prog = spectreV1MemSecret();
    const auto [a, b] = memSecretInputs(cfg.map);
    const LeakOutcome o1 = runPair(cfg, prog, a, a);
    EXPECT_FALSE(o1.differs) << "identical inputs must give equal traces";
    EXPECT_TRUE(o1.runA.halted);
    EXPECT_TRUE(o1.runB.halted);
}

TEST(LeakBaseline, SpectreV1MemorySecretLeaks)
{
    const auto cfg = makeConfig(defense::DefenseKind::Baseline);
    const isa::Program prog = spectreV1MemSecret();
    const auto [a, b] = memSecretInputs(cfg.map);
    const LeakOutcome o = runPair(cfg, prog, a, b);
    EXPECT_TRUE(o.runA.squashes > 0) << "expected a misprediction";
    EXPECT_TRUE(o.differs) << "baseline must leak Spectre-v1";
}

TEST(LeakBaseline, SpectreV1RegisterSecretLeaks)
{
    const auto cfg = makeConfig(defense::DefenseKind::Baseline);
    const isa::Program prog = spectreV1RegSecret();
    const auto [a, b] = regSecretInputs(cfg.map);
    const LeakOutcome o = runPair(cfg, prog, a, b);
    EXPECT_TRUE(o.differs) << "baseline must leak a register secret";
}

TEST(LeakInvisiSpec, BuggyLeaksViaSpecEvictionPatchedDoesNot)
{
    const isa::Program prog = spectreV1MemSecret();

    // Buggy (as published): the speculative miss evicts a victim from the
    // conflict-filled set (UV1).
    auto buggy = makeConfig(defense::DefenseKind::InvisiSpec);
    const auto [a, b] = memSecretInputs(buggy.map);
    const LeakOutcome ob = runPair(buggy, prog, a, b);
    EXPECT_TRUE(ob.differs) << "InvisiSpec UV1 must leak via evictions";

    // Patched (Listing 2): no replacement for speculative loads.
    auto patched = makeConfig(defense::DefenseKind::InvisiSpec,
                              TraceFormat::L1dTlb, true);
    const LeakOutcome op = runPair(patched, prog, a, b);
    EXPECT_FALSE(op.differs) << "patched InvisiSpec must not leak v1";
}

TEST(LeakSpecLfb, FirstLoadBypassLeaksPatchedDoesNot)
{
    const isa::Program prog = spectreV1RegSecret();

    auto buggy = makeConfig(defense::DefenseKind::SpecLfb);
    const auto [a, b] = regSecretInputs(buggy.map);
    const LeakOutcome ob = runPair(buggy, prog, a, b);
    EXPECT_TRUE(ob.differs)
        << "SpecLFB UV6: first spec load must install and leak";

    auto patched = makeConfig(defense::DefenseKind::SpecLfb,
                              TraceFormat::L1dTlb, true);
    const LeakOutcome op = runPair(patched, prog, a, b);
    EXPECT_FALSE(op.differs) << "patched SpecLFB must hold";
}

TEST(LeakSpecLfb, ClassicTwoLoadSpectreIsBlockedEvenWhenBuggy)
{
    // With the memory-secret pattern the *transmitter* is the second
    // speculative load; UV6 only unprotects the first.
    const isa::Program prog = spectreV1MemSecret();
    auto buggy = makeConfig(defense::DefenseKind::SpecLfb);
    const auto [a, b] = memSecretInputs(buggy.map);
    const LeakOutcome o = runPair(buggy, prog, a, b);
    EXPECT_FALSE(o.differs)
        << "second speculative load must still be LFB-gated";
}

TEST(LeakStt, TransmitterLoadBlocked)
{
    // STT taints the speculatively loaded secret; the dependent
    // transmitter load must be delayed, so no leak in either variant.
    const isa::Program prog = spectreV1MemSecret();
    const auto cfg = makeConfig(defense::DefenseKind::Stt);
    const auto [a, b] = memSecretInputs(cfg.map);
    const LeakOutcome o = runPair(cfg, prog, a, b);
    EXPECT_FALSE(o.differs) << "STT must block the tainted transmitter";
}

TEST(LeakCleanupSpec, SpectreV1IsCleanedUp)
{
    // CleanupSpec undoes the transient installs, so the plain v1 pattern
    // must not leak through the D-cache.
    const isa::Program prog = spectreV1MemSecret();
    const auto cfg = makeConfig(defense::DefenseKind::CleanupSpec);
    const auto [a, b] = memSecretInputs(cfg.map);
    const LeakOutcome o = runPair(cfg, prog, a, b);
    EXPECT_FALSE(o.differs) << "CleanupSpec must roll back spec loads";
}

} // namespace
