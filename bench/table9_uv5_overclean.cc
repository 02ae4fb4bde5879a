/**
 * @file
 * Table 9: CleanupSpec UV5 "too much cleaning" — a transient load aliases
 * a non-speculative load's line; rollback erases the non-speculative
 * footprint. Prints the operation sequence for the two inputs (the
 * paper's Table 9 view) and shows the noClean mitigation.
 */

#include "bench_util.hh"
#include "demo_util.hh"

int
main()
{
    using namespace demo_util;
    bench_util::header("CleanupSpec UV5: too much cleaning", "Table 9");

    std::string text;
    text += ".bb_main.0:\n";
    text += slowChain("RAX", 1);
    text += "    AND RAX, 0\n";
    text += "    MOV R10, qword ptr [R14 + RAX + 0x140]\n"; // NSL (late)
    text += slowChain("R12", 6, 16);
    text += "    TEST R12, R12\n";
    text += "    JNE .bb_main.1\n"; // mispredicted
    text += "    AND RBX, 0b111111000000\n";
    text += "    MOV RDX, qword ptr [R14 + RBX]\n"; // SL (early, dead reg)
    text += "    JMP .bb_main.1\n";
    text += ".bb_main.1:\n";
    text += trailingWork();
    const isa::Program prog = isa::assemble(text);
    std::printf("%s\n", isa::formatProgram(prog).c_str());

    for (bool no_clean : {false, true}) {
        executor::HarnessConfig cfg =
            core::paperHarness(defense::DefenseKind::CleanupSpec);
        cfg.defense.cleanupNoCleanPatch = no_clean;
        cfg.bootInsts = 2000;
        executor::SimHarness harness(cfg);
        const isa::FlatProgram fp(prog, cfg.map.codeBase);

        arch::Input a = zeroInput(cfg.map);
        arch::Input b = a;
        a.regs[isa::regIndex(isa::Reg::Rbx)] = 0x140; // SL aliases NSL
        b.regs[isa::regIndex(isa::Reg::Rbx)] = 0x680; // disjoint
        b.id = 1;

        std::printf("--- %s ---\n",
                    no_clean ? "with the noClean mitigation"
                             : "as published (unconditional rollback)");
        const PairResult r = runPair(harness, fp, a, b);
        printDiff(r);
        if (!no_clean) {
            std::printf("\nTable 9-style operation sequence (Input A "
                        "aliases; Input B does not):\n");
            printEventTable(harness, fp, a, b);
        }
        std::printf("\n");
    }
    std::printf("Expected: as published, input A's rollback erases the "
                "non-speculative line 0x800140\n(CleanupOverclean) and "
                "the traces differ; the commit-time noClean mitigation "
                "keeps it.\n");
    return 0;
}
