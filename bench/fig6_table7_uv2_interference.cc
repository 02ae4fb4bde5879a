/**
 * @file
 * Figure 6 + Table 7: InvisiSpec UV2 — same-core speculative interference.
 * With 2 MSHRs, input A's speculative misses occupy both MSHRs, stalling
 * the Expose of a non-speculative load at the head of the in-order cache-
 * controller queue until the test ends; input B's speculative loads
 * coalesce and the Expose completes. The exposed line's presence in the
 * final L1D differs — observable by a single-threaded attacker.
 */

#include "bench_util.hh"
#include "demo_util.hh"

int
main()
{
    using namespace demo_util;
    bench_util::header(
        "InvisiSpec UV2: same-core MSHR interference (patched UV1)",
        "Figure 6 and Table 7");

    const auto &catalog = core::paperLeaks();
    const core::LeakGadget &g = catalog.uv2;
    std::printf("%s\n", isa::formatProgram(g.program).c_str());

    // Input A's speculative loads miss (fresh MSHRs); input B's coalesce
    // with line 0, which the slow chain's load already requested.
    for (const core::LeakRow *row :
         catalog.rowsOf(g, defense::DefenseKind::InvisiSpec)) {
        std::printf("--- %u MSHRs ---\n", row->harness().core.l1dMshrs);
        const core::LeakRun r = core::runPair(*row);
        printDiff(r);
        if (row->l1dMshrs) {
            std::printf("\nTable 7-style operation sequence (note the "
                        "Expose/ExposeStall rows):\n");
            std::fputs(core::renderEventTable(r.eventsA, r.eventsB).c_str(),
                       stdout);
        }
        std::printf("\n");
    }
    std::printf("Expected: with 256 MSHRs the Expose always completes "
                "(no difference). With 2 MSHRs,\ninput A's speculative "
                "misses hold the MSHRs, the NSL's Expose stalls at the "
                "queue head\nand is cut off by the end of the test — its "
                "line (0x800200) is missing from A's trace.\n");
    return 0;
}
