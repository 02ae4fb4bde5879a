/**
 * @file
 * End-to-end tests for the remaining findings of the paper's ground-truth
 * matrix: Spectre-v4, the CleanupSpec bugs (UV3 spec stores, UV4 split
 * requests, UV5 overcleaning, KV2 unXpec timing), STT's tainted-store TLB
 * leak (KV3), and InvisiSpec's L1I (KV1) and MSHR-interference (UV2)
 * channels.
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

std::string
slowChain(const char *reg, int imuls, int offset = 0)
{
    std::string s = "    MOV " + std::string(reg) + ", qword ptr [R14 + " +
                    std::to_string(offset) + "]\n";
    for (int i = 0; i < imuls; ++i)
        s += "    IMUL " + std::string(reg) + ", " + std::string(reg) +
             "\n";
    return s;
}

std::string
trailingWork(int imuls = 40)
{
    std::string s = "    MOV R11, qword ptr [R14 + 8]\n";
    for (int i = 0; i < imuls; ++i)
        s += "    IMUL R11, R11\n";
    return s;
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

HarnessConfig
makeConfig(defense::DefenseKind kind, TraceFormat format = TraceFormat::L1dTlb,
           unsigned sandbox_pages = 1)
{
    HarnessConfig cfg = core::paperHarness(kind);
    cfg.map.sandboxPages = sandbox_pages;
    cfg.traceFormat = format;
    cfg.bootInsts = 2000;
    return cfg;
}

arch::Input
zeroInput(const mem::AddressMap &map)
{
    arch::Input input;
    input.regs.fill(0);
    input.sandbox.assign(map.sandboxSize(), 0);
    input.sandbox.set(0, 3);
    input.sandbox.set(8, 7);
    input.sandbox.set(16, 5);
    return input;
}

// ---------------------------------------------------------------------
// Spectre-v4: a younger load speculatively bypasses an older store whose
// address resolves late, reading the stale secret and encoding it.
// ---------------------------------------------------------------------

isa::Program
spectreV4()
{
    std::string text;
    text += ".bb_main.0:\n";
    text += slowChain("RAX", 6);
    text += "    AND RAX, 0\n";
    text += "    OR RAX, 64\n"; // store address 0x40, resolved late
    text += "    MOV qword ptr [R14 + RAX], RDI\n";
    text += "    MOV RBX, qword ptr [R14 + 64]\n"; // bypasses the store
    text += "    AND RBX, 0b111110000000\n";
    text += "    MOV RDX, qword ptr [R14 + RBX]\n"; // transmitter
    text += trailingWork();
    return isa::assemble(text);
}

TEST(LeakBaselineV4, StoreBypassLeaksStaleValue)
{
    const auto cfg = makeConfig(defense::DefenseKind::Baseline);
    const isa::Program prog = spectreV4();
    arch::Input a = zeroInput(cfg.map);
    a.regs[isa::regIndex(isa::Reg::Rdi)] = 0; // stored (new) value
    arch::Input b = a;
    a.sandbox.set(0x41, 0x01); // stale secret 0x100
    b.sandbox.set(0x41, 0x07); // stale secret 0x700
    b.id = 1;
    const LeakOutcome o = runPair(cfg, prog, a, b);
    EXPECT_GT(o.runA.squashes, 0u) << "expected a memory-order squash";
    EXPECT_TRUE(o.differs) << "baseline must leak Spectre-v4";
}

// ---------------------------------------------------------------------
// CleanupSpec UV3: speculative stores are not rolled back.
// ---------------------------------------------------------------------

isa::Program
specStoreLeak()
{
    std::string text;
    text += ".bb_main.0:\n";
    text += slowChain("RAX", 8);
    text += "    TEST RAX, RAX\n";
    text += "    JNE .bb_main.1\n";
    // Speculative path: encode the secret in a *store* address.
    text += "    AND RCX, 0b111111111111\n";
    text += "    MOV RBX, qword ptr [R14 + RCX]\n";
    text += "    AND RBX, 0b111110000000\n";
    text += "    MOV dword ptr [R14 + RBX], EDI\n"; // spec store
    text += "    JMP .bb_main.1\n";
    text += ".bb_main.1:\n";
    text += trailingWork();
    return isa::assemble(text);
}

std::pair<arch::Input, arch::Input>
memSecretInputs(const mem::AddressMap &map)
{
    arch::Input a = zeroInput(map);
    a.regs[isa::regIndex(isa::Reg::Rcx)] = 0x200;
    arch::Input b = a;
    a.sandbox.set(0x201, 0x01);
    b.sandbox.set(0x201, 0x07);
    b.id = 1;
    return {a, b};
}

TEST(LeakCleanupSpecUv3, SpecStoreNotCleanedLeaks)
{
    const isa::Program prog = specStoreLeak();
    auto cfg = makeConfig(defense::DefenseKind::CleanupSpec);
    const auto [a, b] = memSecretInputs(cfg.map);
    const LeakOutcome o = runPair(cfg, prog, a, b);
    EXPECT_TRUE(o.differs)
        << "UV3: speculative store lines must survive the squash";

    auto patched = cfg;
    patched.defense.cleanupBugStoreNotCleaned = false;
    const LeakOutcome op = runPair(patched, prog, a, b);
    EXPECT_FALSE(op.differs) << "patched writeCallback must clean stores";
}

// ---------------------------------------------------------------------
// CleanupSpec UV4: split (line-crossing) requests are not rolled back.
// ---------------------------------------------------------------------

isa::Program
splitLoadLeak()
{
    std::string text;
    text += ".bb_main.0:\n";
    text += slowChain("RAX", 8);
    text += "    TEST RAX, RAX\n";
    text += "    JNE .bb_main.1\n";
    text += "    AND RCX, 0b111111111111\n";
    text += "    MOV RBX, qword ptr [R14 + RCX]\n";
    text += "    AND RBX, 0b111110000000\n";
    // Crosses a cache-line boundary: 8 bytes at line offset 60.
    text += "    MOV RDX, qword ptr [R14 + RBX + 60]\n";
    text += "    JMP .bb_main.1\n";
    text += ".bb_main.1:\n";
    text += trailingWork();
    return isa::assemble(text);
}

TEST(LeakCleanupSpecUv4, SplitRequestNotCleanedLeaks)
{
    const isa::Program prog = splitLoadLeak();
    auto cfg = makeConfig(defense::DefenseKind::CleanupSpec);
    // Isolate UV4: fix the store bug, keep the split bug.
    cfg.defense.cleanupBugStoreNotCleaned = false;
    const auto [a, b] = memSecretInputs(cfg.map);
    const LeakOutcome o = runPair(cfg, prog, a, b);
    EXPECT_TRUE(o.differs) << "UV4: split fills must survive the squash";

    auto patched = cfg;
    patched.defense.cleanupBugSplitNotCleaned = false;
    const LeakOutcome op = runPair(patched, prog, a, b);
    EXPECT_FALSE(op.differs) << "patched split cleanup must roll back";
}

// ---------------------------------------------------------------------
// CleanupSpec UV5: "too much cleaning" — rollback erases a line that a
// non-speculative load also touched.
// ---------------------------------------------------------------------

isa::Program
overcleanProgram()
{
    std::string text;
    text += ".bb_main.0:\n";
    // NSL address chain: resolves to [R14 + 0x140] but late.
    text += slowChain("RAX", 1);
    text += "    AND RAX, 0\n";
    text += "    MOV R10, qword ptr [R14 + RAX + 0x140]\n"; // NSL
    // Branch chain: longer, so the squash comes after the NSL executes.
    text += slowChain("R12", 6, 16);
    text += "    TEST R12, R12\n";
    text += "    JNE .bb_main.1\n";
    // Speculative load to a dead-register address (executes immediately).
    text += "    AND RBX, 0b111111000000\n";
    text += "    MOV RDX, qword ptr [R14 + RBX]\n"; // SL
    text += "    JMP .bb_main.1\n";
    text += ".bb_main.1:\n";
    text += trailingWork();
    return isa::assemble(text);
}

TEST(LeakCleanupSpecUv5, OvercleanErasesNonSpecFootprint)
{
    const isa::Program prog = overcleanProgram();
    auto cfg = makeConfig(defense::DefenseKind::CleanupSpec);
    arch::Input a = zeroInput(cfg.map);
    arch::Input b = a;
    a.regs[isa::regIndex(isa::Reg::Rbx)] = 0x140; // SL == NSL line
    b.regs[isa::regIndex(isa::Reg::Rbx)] = 0x680; // disjoint
    b.id = 1;
    const LeakOutcome o = runPair(cfg, prog, a, b);
    EXPECT_TRUE(o.differs)
        << "UV5: cleanup must erase the NSL's footprint only when the "
           "transient load aliases it";

    auto patched = cfg;
    patched.defense.cleanupNoCleanPatch = true;
    const LeakOutcome op = runPair(patched, prog, a, b);
    EXPECT_FALSE(op.differs) << "noClean patch must keep the NSL's line";
}

// ---------------------------------------------------------------------
// STT KV3: a tainted speculative store still accesses the D-TLB.
// ---------------------------------------------------------------------

isa::Program
taintedStoreTlbLeak()
{
    std::string text;
    text += ".bb_main.0:\n";
    text += slowChain("RAX", 8);
    text += "    TEST RAX, RAX\n";
    text += "    JNE .bb_main.1\n";
    text += "    AND RCX, 0b111111111111\n";
    text += "    MOV RBX, qword ptr [R14 + RCX]\n"; // access (tainted)
    text += "    AND RBX, 0b1111111000000000000\n"; // page-granular
    text += "    MOV dword ptr [R14 + RBX], EDI\n"; // tainted store
    text += "    JMP .bb_main.1\n";
    text += ".bb_main.1:\n";
    text += trailingWork();
    return isa::assemble(text);
}

TEST(LeakSttKv3, TaintedStoreInstallsTlbEntry)
{
    const isa::Program prog = taintedStoreTlbLeak();
    // STT is tested with a 128-page sandbox so TLB leakage is visible.
    auto cfg = makeConfig(defense::DefenseKind::Stt, TraceFormat::L1dTlb,
                          128);
    arch::Input a = zeroInput(cfg.map);
    a.regs[isa::regIndex(isa::Reg::Rcx)] = 0x200;
    arch::Input b = a;
    a.sandbox.set(0x202, 0x01); // secret 0x10000 -> VPN +0x10
    b.sandbox.set(0x202, 0x07); // secret 0x70000 -> VPN +0x70
    b.id = 1;
    const LeakOutcome o = runPair(cfg, prog, a, b);
    EXPECT_TRUE(o.differs)
        << "KV3: the tainted store's TLB fill must leak the page";

    auto patched = cfg;
    patched.defense.sttBugTaintedStoreTlb = false;
    const LeakOutcome op = runPair(patched, prog, a, b);
    EXPECT_FALSE(op.differs)
        << "blocking tainted stores (DOLMA fix) must stop the leak";
}

// ---------------------------------------------------------------------
// InvisiSpec KV1: the L1I is unprotected — input-dependent speculative
// stalls shift runahead instruction fetch.
// ---------------------------------------------------------------------

isa::Program
ifetchTimingProgram(int spec_loads, int arch_loads = 8, int trailing = 4)
{
    std::string text;
    text += ".bb_main.0:\n";
    // Warm lines architecturally (offsets 0x400..), enough to cover the
    // speculative loads of the "warm" input.
    for (int i = 0; i < spec_loads; ++i) {
        text += "    MOV R9, qword ptr [R14 + " +
                std::to_string(0x400 + 64 * i) + "]\n";
    }
    text += slowChain("RAX", 8);
    text += "    TEST RAX, RAX\n";
    text += "    JNE .bb_main.1\n";
    // Speculative loads: warm (one input) or cold (the other) lines.
    for (int i = 0; i < spec_loads; ++i) {
        text += "    AND RBX, 0b111111111111\n";
        text += "    MOV RDX, qword ptr [R14 + RBX + " +
                std::to_string(64 * i) + "]\n";
    }
    text += "    JMP .bb_main.1\n";
    text += ".bb_main.1:\n";
    // Architectural loads that share memory bandwidth (and, under
    // contention, MSHRs) with the speculative misses. HALT cannot commit
    // before they do, so their delay shifts the end of the test.
    for (int i = 0; i < arch_loads; ++i) {
        text += "    MOV R10, qword ptr [R14 + " +
                std::to_string(0x800 + 64 * i) + "]\n";
    }
    text += trailingWork(trailing);
    return isa::assemble(text);
}

TEST(LeakInvisiSpecKv1, L1iTraceDetectsTimingButDefaultDoesNot)
{
    const isa::Program prog = ifetchTimingProgram(8, 4);
    auto patched_cfg = [](TraceFormat fmt) {
        auto cfg = makeConfig(defense::DefenseKind::InvisiSpec, fmt);
        cfg.defense.invisispecBugSpecEviction = false;
        // Moderate amplification: enough MSHR pressure that speculative
        // misses delay the architectural path, and a longer runahead
        // window so the fetch stream is still live when HALT commits.
        cfg.core.l1dMshrs = 8;
        cfg.core.robSize = 256;
        return cfg;
    };
    arch::Input a = zeroInput(mem::AddressMap{});
    arch::Input b = a;
    a.regs[isa::regIndex(isa::Reg::Rbx)] = 0x400; // warm lines
    b.regs[isa::regIndex(isa::Reg::Rbx)] = 0xa00; // cold lines
    b.id = 1;

    // Default trace: patched InvisiSpec hides the D-side.
    const LeakOutcome od =
        runPair(patched_cfg(TraceFormat::L1dTlb), prog, a, b);
    EXPECT_FALSE(od.differs)
        << "patched InvisiSpec must be clean under L1D+TLB";

    // Including the L1I reveals the unprotected fetch channel.
    const LeakOutcome oi =
        runPair(patched_cfg(TraceFormat::L1dTlbL1i), prog, a, b);
    EXPECT_NE(oi.runA.cycles, oi.runB.cycles)
        << "speculative hits/misses must shift execution time";
    EXPECT_TRUE(oi.differs) << "KV1: L1I state must differ";
}

// ---------------------------------------------------------------------
// CleanupSpec KV2 (unXpec): rollback latency is input-dependent and
// shifts runahead instruction fetch.
// ---------------------------------------------------------------------

TEST(LeakCleanupSpecKv2, CleanupLatencyLeaksViaL1i)
{
    const isa::Program prog = ifetchTimingProgram(8, 8, 8);
    auto cfg = makeConfig(defense::DefenseKind::CleanupSpec,
                          TraceFormat::L1dTlbL1i);
    // Isolate the unXpec timing channel from UV5 (speculative hits on
    // architecturally warmed lines would otherwise overclean).
    cfg.defense.cleanupNoCleanPatch = true;
    arch::Input a = zeroInput(cfg.map);
    arch::Input b = a;
    a.regs[isa::regIndex(isa::Reg::Rbx)] = 0x400; // warm: hits, no undo
    b.regs[isa::regIndex(isa::Reg::Rbx)] = 0xa00; // cold: 8 cleanups
    b.id = 1;
    const LeakOutcome o = runPair(cfg, prog, a, b);
    EXPECT_NE(o.runA.cycles, o.runB.cycles)
        << "cleanup must be on the critical path";
    EXPECT_TRUE(o.differs) << "KV2: L1I state must differ";

    // The default D-side trace stays clean (rollback is correct here).
    auto dcfg = cfg;
    dcfg.traceFormat = TraceFormat::L1dTlb;
    const LeakOutcome od = runPair(dcfg, prog, a, b);
    EXPECT_FALSE(od.differs)
        << "D-side rollback itself is correct for plain loads";
}

// ---------------------------------------------------------------------
// InvisiSpec UV2: same-core MSHR interference delays an Expose past the
// end of the test (requires amplified 2-MSHR configuration).
// ---------------------------------------------------------------------

isa::Program
mshrInterferenceProgram()
{
    std::string text;
    text += ".bb_main.0:\n";
    // Window opener: a slow, correctly-predicted branch. The NSL below is
    // speculative until it resolves, then becomes safe and is Exposed.
    text += "    MOV R13, qword ptr [R14 + 0]\n";
    text += "    IMUL R13, R13\n    IMUL R13, R13\n";
    text += "    TEST R13, R13\n";
    text += "    JE .bb_main.1\n"; // not taken architecturally
    text += "    MOV R10, qword ptr [R14 + 0x200]\n"; // NSL
    for (int i = 0; i < 4; ++i)
        text += "    IMUL R13, R13\n";
    text += "    TEST R13, R13\n";
    text += "    JNE .bb_main.1\n"; // taken architecturally: mispredict
    // Speculative loads competing with the Expose for MSHRs. Input A
    // points them at cold lines (fresh MSHRs); input B at the line the
    // slow load already requested (they coalesce, no MSHR pressure).
    for (int i = 0; i < 2; ++i) {
        text += "    AND RBX, 0b111111111111\n";
        text += "    MOV RDX, qword ptr [R14 + RBX + " +
                std::to_string(64 * i) + "]\n";
    }
    text += "    JMP .bb_main.1\n";
    text += ".bb_main.1:\n";
    for (int i = 0; i < 6; ++i)
        text += "    IMUL R11, R11\n";
    return isa::assemble(text);
}

TEST(LeakInvisiSpecUv2, MshrInterferenceWithAmplification)
{
    const isa::Program prog = mshrInterferenceProgram();
    auto cfg = makeConfig(defense::DefenseKind::InvisiSpec);
    cfg.defense.invisispecBugSpecEviction = false; // patched (Table 6)
    arch::Input a = zeroInput(cfg.map);
    arch::Input b = a;
    a.regs[isa::regIndex(isa::Reg::Rbx)] = 0xa00; // cold: MSHR pressure
    b.regs[isa::regIndex(isa::Reg::Rbx)] = 0x000; // coalesces: no pressure
    b.id = 1;

    // Default 256 MSHRs: the Expose always completes before HALT.
    const LeakOutcome od = runPair(cfg, prog, a, b);
    EXPECT_FALSE(od.differs)
        << "UV2 must not be visible without amplification";

    // Amplified: 2 MSHRs (the paper's Table 6 configuration). Input A's
    // speculative misses hold both MSHRs; the NSL's Expose stalls at the
    // in-order queue head and is cut off by the end of the test.
    auto amplified = cfg;
    amplified.core.l1dMshrs = 2;
    const LeakOutcome oa = runPair(amplified, prog, a, b);
    EXPECT_TRUE(oa.differs)
        << "UV2: the expose must be cut off by the end of the test";
}

} // namespace
