/**
 * @file
 * Figure 4 + Listings 1-2: InvisiSpec UV1 — a speculative load whose set
 * is full triggers an L1 replacement, leaking the victim's address via an
 * eviction. The demo runs the buggy and patched implementation on two
 * contract-equivalent inputs whose speculative load addresses differ.
 */

#include "bench_util.hh"
#include "demo_util.hh"

int
main()
{
    using namespace demo_util;
    bench_util::header(
        "InvisiSpec UV1: speculative L1D-cache evictions",
        "Figure 4, Listings 1-2");

    const auto &catalog = core::paperLeaks();
    const core::LeakGadget &g = catalog.uv1;
    std::printf("Violating test (speculative load address depends on the "
                "dead register RBX):\n%s\n",
                isa::formatProgram(g.program).c_str());

    // Conflict fill primes full sets, so the speculative load must evict.
    for (const core::LeakRow *row :
         catalog.rowsOf(g, defense::DefenseKind::InvisiSpec)) {
        std::printf("--- %s (Listing %d) ---\n",
                    row->patched
                        ? "patched: no replacement for spec loads"
                        : "as published: spec load evicts on full set",
                    row->patched ? 2 : 1);
        printDiff(core::runPair(*row));
        std::printf("\n");
    }
    std::printf("Expected: the as-published implementation leaks the "
                "evicted conflict-fill victim\n(addresses 0x100001xx vs "
                "0x100007xx differ); the patch (Listing 2) removes the "
                "leak.\n");
    return 0;
}
