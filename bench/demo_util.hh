/**
 * @file
 * Printing helper for the deterministic figure/table demos (Fig. 4/6/8/9,
 * Tables 7/9/10). The demos take their gadgets, inputs and runs from the
 * catalog of the paper's hand-built violations (src/core/paper_leaks.hh)
 * and print event tables with core::renderEventTable.
 */

#ifndef AMULET_BENCH_DEMO_UTIL_HH
#define AMULET_BENCH_DEMO_UTIL_HH

#include <cstdio>

#include "core/paper_leaks.hh"
#include "core/root_cause.hh"
#include "isa/disasm.hh"

namespace demo_util
{

using namespace amulet;

inline void
printDiff(const core::LeakRun &r)
{
    std::printf("uarch traces %s\n", r.differs() ? "DIFFER (violation)"
                                                 : "match (no leak)");
    if (r.differs()) {
        std::printf("  differing addresses:");
        for (Addr w : executor::traceDiffAddrs(r.a.trace, r.b.trace))
            std::printf(" 0x%llx", static_cast<unsigned long long>(w));
        std::printf("\n");
    }
}

} // namespace demo_util

#endif // AMULET_BENCH_DEMO_UTIL_HH
