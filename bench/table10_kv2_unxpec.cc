/**
 * @file
 * Table 10: CleanupSpec KV2 (unXpec) — cleanup latency is on the critical
 * path; inputs whose speculative loads hit (no rollback) finish earlier
 * than inputs whose loads miss (rollback), and the extra time lets
 * runahead instruction fetch install additional L1I lines. Detected when
 * the μarch trace includes the L1I.
 */

#include "bench_util.hh"
#include "demo_util.hh"

int
main()
{
    using namespace demo_util;
    bench_util::header("CleanupSpec KV2 (unXpec): cleanup timing via L1I",
                       "Table 10");

    std::string text;
    text += ".bb_main.0:\n";
    for (int i = 0; i < 8; ++i)
        text += "    MOV R9, qword ptr [R14 + " +
                std::to_string(0x400 + 64 * i) + "]\n"; // warm lines
    text += slowChain("RAX", 8);
    text += "    TEST RAX, RAX\n";
    text += "    JNE .bb_main.1\n";
    for (int i = 0; i < 8; ++i) {
        text += "    AND RBX, 0b111111111111\n";
        text += "    MOV RDX, qword ptr [R14 + RBX + " +
                std::to_string(64 * i) + "]\n"; // spec loads
    }
    text += "    JMP .bb_main.1\n";
    text += ".bb_main.1:\n";
    for (int i = 0; i < 8; ++i)
        text += "    MOV R10, qword ptr [R14 + " +
                std::to_string(0x800 + 64 * i) + "]\n";
    text += trailingWork(8);
    const isa::Program prog = isa::assemble(text);

    for (auto fmt : {executor::TraceFormat::L1dTlb,
                     executor::TraceFormat::L1dTlbL1i}) {
        executor::HarnessConfig cfg =
            core::paperHarness(defense::DefenseKind::CleanupSpec);
        cfg.defense.cleanupNoCleanPatch = true; // isolate the timing leak
        cfg.traceFormat = fmt;
        cfg.bootInsts = 2000;
        executor::SimHarness harness(cfg);
        const isa::FlatProgram fp(prog, cfg.map.codeBase);

        arch::Input a = zeroInput(cfg.map);
        arch::Input b = a;
        a.regs[isa::regIndex(isa::Reg::Rbx)] = 0x400; // hits: no cleanup
        b.regs[isa::regIndex(isa::Reg::Rbx)] = 0xa00; // misses: 8 cleanups
        b.id = 1;

        std::printf("--- trace format: %s ---\n",
                    executor::traceFormatName(fmt));
        const PairResult r = runPair(harness, fp, a, b);
        std::printf("execution time: A=%llu cycles (spec hits), B=%llu "
                    "cycles (spec misses + rollback)\n",
                    static_cast<unsigned long long>(r.runA.cycles),
                    static_cast<unsigned long long>(r.runB.cycles));
        printDiff(r);
        std::printf("\n");
    }
    std::printf("Expected: the default D-side trace is clean (rollback is "
                "state-correct here), but the\nexecution times differ and "
                "the L1I-extended trace shows different runahead fetch "
                "depth —\nthe unXpec timing channel.\n");
    return 0;
}
