/**
 * @file
 * Figure 8: SpecLFB UV6 — the undocumented optimization clears
 * `isReallyUnsafe` for the first speculative load in the LSQ, so a
 * single-load Spectre variant leaks a register secret, while the classic
 * two-load variant is still gated.
 */

#include "bench_util.hh"
#include "demo_util.hh"

int
main()
{
    using namespace demo_util;
    bench_util::header("SpecLFB UV6: first speculative load unprotected",
                       "Figure 8");

    // Figure 8(b): the secret is in a register; one speculative load.
    std::string text = ".bb_main.0:\n" + slowChain("RAX", 8) +
                       "    TEST RAX, RAX\n"
                       "    JNE .bb_main.1\n"
                       "    AND RBX, 0b111110000000\n"
                       "    MOV RDX, qword ptr [R14 + RBX]\n"
                       "    JMP .bb_main.1\n"
                       ".bb_main.1:\n" +
                       trailingWork();
    const isa::Program prog = isa::assemble(text);
    std::printf("Violating test (RBX is the secret):\n%s\n",
                isa::formatProgram(prog).c_str());

    for (bool patched : {false, true}) {
        executor::HarnessConfig cfg =
            core::paperHarness(defense::DefenseKind::SpecLfb, patched);
        cfg.bootInsts = 2000;
        executor::SimHarness harness(cfg);
        const isa::FlatProgram fp(prog, cfg.map.codeBase);

        arch::Input a = zeroInput(cfg.map);
        arch::Input b = a;
        a.regs[isa::regIndex(isa::Reg::Rbx)] = 0x080;
        b.regs[isa::regIndex(isa::Reg::Rbx)] = 0x780;
        b.id = 1;

        std::printf("--- %s ---\n",
                    patched ? "patched: every speculative load is gated"
                            : "as published: isReallyUnsafe cleared for "
                              "the first speculative load");
        const PairResult r = runPair(harness, fp, a, b);
        printDiff(r);
        std::printf("\n");
    }
    std::printf("Expected: as published, the single speculative load "
                "installs normally and leaks the\nregister secret "
                "(lines 0x800080 vs 0x800780); the patch holds it in the "
                "LFB until safe.\n");
    return 0;
}
