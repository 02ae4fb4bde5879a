/**
 * @file
 * Printing helpers for the deterministic figure/table demos (Fig. 4/6/8/9,
 * Tables 7/9/10). The demos take their gadgets, inputs and runs from the
 * catalog of the paper's hand-built violations (src/core/paper_leaks.hh).
 */

#ifndef AMULET_BENCH_DEMO_UTIL_HH
#define AMULET_BENCH_DEMO_UTIL_HH

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/paper_leaks.hh"
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

/** Rerun @p g's inputs on @p harness with event logging and print their
 *  root-cause events side by side, Table 7/9/10 style. */
inline void
printEventTable(executor::SimHarness &harness, const core::LeakGadget &g)
{
    auto collect = [&](const arch::Input &in) {
        harness.loadProgram(&g.flat);
        harness.eventLog().clear();
        harness.setEventLogging(true);
        harness.runInput(in);
        harness.setEventLogging(false);
        std::vector<Event> out;
        for (const Event &e : harness.eventLog().events()) {
            switch (e.kind) {
              case EventKind::LoadExec:
              case EventKind::StoreExec:
              case EventKind::SquashBranch:
              case EventKind::SquashMemOrder:
              case EventKind::SpecEviction:
              case EventKind::Expose:
              case EventKind::ExposeStall:
              case EventKind::CleanupUndo:
              case EventKind::CleanupSkipped:
              case EventKind::CleanupOverclean:
              case EventKind::TaintedStoreTlb:
              case EventKind::LfbHold:
              case EventKind::LfbUnsafeBypass:
              case EventKind::SpecBufferFill:
                out.push_back(e);
                break;
              default:
                break;
            }
        }
        return out;
    };
    const auto ev_a = collect(g.inputA);
    const auto ev_b = collect(g.inputB);
    const std::size_t rows = std::max(ev_a.size(), ev_b.size());
    std::printf("%-46s | %s\n", "Input A", "Input B");
    std::printf("%s\n", std::string(96, '-').c_str());
    for (std::size_t i = 0; i < rows; ++i) {
        std::string left = i < ev_a.size() ? ev_a[i].format() : "";
        std::string right = i < ev_b.size() ? ev_b[i].format() : "";
        if (left.size() > 46)
            left.resize(46);
        std::printf("%-46s | %s\n", left.c_str(), right.c_str());
    }
}

} // namespace demo_util

#endif // AMULET_BENCH_DEMO_UTIL_HH
