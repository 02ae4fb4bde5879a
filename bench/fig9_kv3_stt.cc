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

    const auto &catalog = core::paperLeaks();
    const core::LeakGadget &g = catalog.kv3;
    std::printf("Violating test (CMOV-style access load feeds a tainted "
                "store address):\n%s\n",
                isa::formatProgram(g.program).c_str());

    // The secret selects page +0x10 (input A) or +0x70 (input B).
    for (const core::LeakRow *row :
         catalog.rowsOf(g, defense::DefenseKind::Stt)) {
        std::printf("--- %s ---\n",
                    row->patched
                        ? "patched (DOLMA): tainted stores blocked"
                        : "as published: tainted stores execute and "
                          "access the TLB");
        const core::LeakRun r = core::runPair(*row);
        printDiff(r);
        if (!row->patched && r.differs()) {
            std::printf("\nTLB entries (VPNs) present in only one trace "
                        "encode the speculative secret,\nexactly as in "
                        "Figure 9(b).\n");
        }
        std::printf("\n");
    }
    return 0;
}
