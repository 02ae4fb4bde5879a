/**
 * @file
 * Figure 9: STT KV3 — a tainted speculative store still performs its
 * address translation, installing a D-TLB entry that leaks the
 * speculatively loaded secret (previously found by DOLMA). Tested with a
 * 128-page sandbox so TLB leakage is visible.
 */

#include "bench_util.hh"
#include "demo_util.hh"

int
main()
{
    using namespace demo_util;
    bench_util::header("STT KV3: tainted speculative store accesses the "
                       "TLB", "Figure 9");

    std::string text = ".bb_main.0:\n" + slowChain("RAX", 8) +
                       "    TEST RAX, RAX\n"
                       "    JNE .bb_main.1\n"
                       "    AND RCX, 0b111111111111\n"
                       "    MOV RBX, qword ptr [R14 + RCX]\n"
                       "    AND RBX, 0b1111111000000000000\n"
                       "    MOV dword ptr [R14 + RBX], EDI\n"
                       "    JMP .bb_main.1\n"
                       ".bb_main.1:\n" +
                       trailingWork();
    const isa::Program prog = isa::assemble(text);
    std::printf("Violating test (CMOV-style access load feeds a tainted "
                "store address):\n%s\n",
                isa::formatProgram(prog).c_str());

    for (bool patched : {false, true}) {
        executor::HarnessConfig cfg =
            core::paperHarness(defense::DefenseKind::Stt, patched);
        cfg.map.sandboxPages = 128;
        cfg.bootInsts = 2000;
        executor::SimHarness harness(cfg);
        const isa::FlatProgram fp(prog, cfg.map.codeBase);

        arch::Input a = zeroInput(cfg.map);
        a.regs[isa::regIndex(isa::Reg::Rcx)] = 0x200;
        arch::Input b = a;
        a.sandbox.set(0x202, 0x01); // secret page +0x10
        b.sandbox.set(0x202, 0x07); // secret page +0x70
        b.id = 1;

        std::printf("--- %s ---\n",
                    patched ? "patched (DOLMA): tainted stores blocked"
                            : "as published: tainted stores execute and "
                              "access the TLB");
        const PairResult r = runPair(harness, fp, a, b);
        printDiff(r);
        if (!patched && r.differs) {
            std::printf("\nTLB entries (VPNs) present in only one trace "
                        "encode the speculative secret,\nexactly as in "
                        "Figure 9(b).\n");
        }
        std::printf("\n");
    }
    return 0;
}
