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

    const auto &catalog = core::paperLeaks();
    const core::LeakGadget &g = catalog.uv5;
    std::printf("%s\n", isa::formatProgram(g.program).c_str());

    // The patched row carries the noClean mitigation.
    for (const core::LeakRow *row :
         catalog.rowsOf(g, defense::DefenseKind::CleanupSpec)) {
        std::printf("--- %s ---\n",
                    row->patched ? "with the noClean mitigation"
                                 : "as published (unconditional rollback)");
        const core::LeakRun r = core::runPair(*row);
        printDiff(r);
        if (!row->patched) {
            std::printf("\nTable 9-style operation sequence (Input A "
                        "aliases; Input B does not):\n");
            std::fputs(core::renderEventTable(r.eventsA, r.eventsB).c_str(),
                       stdout);
        }
        std::printf("\n");
    }
    std::printf("Expected: as published, input A's rollback erases the "
                "non-speculative line 0x800140\n(CleanupOverclean) and "
                "the traces differ; the commit-time noClean mitigation "
                "keeps it.\n");
    return 0;
}
