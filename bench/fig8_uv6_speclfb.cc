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
    const auto &catalog = core::paperLeaks();
    const core::LeakGadget &g = catalog.v1Reg;
    std::printf("Violating test (RBX is the secret):\n%s\n",
                isa::formatProgram(g.program).c_str());

    for (const core::LeakRow *row :
         catalog.rowsOf(g, defense::DefenseKind::SpecLfb)) {
        std::printf("--- %s ---\n",
                    row->patched
                        ? "patched: every speculative load is gated"
                        : "as published: isReallyUnsafe cleared for "
                          "the first speculative load");
        printDiff(core::runPair(*row));
        std::printf("\n");
    }
    std::printf("Expected: as published, the single speculative load "
                "installs normally and leaks the\nregister secret "
                "(lines 0x800080 vs 0x800780); the patch holds it in the "
                "LFB until safe.\n");
    return 0;
}
