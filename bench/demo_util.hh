/**
 * @file
 * Crafted attack programs and pair-running helpers for the deterministic
 * figure/table demos (Fig. 4/6/8/9, Tables 7/9/10). These mirror the
 * paper's violating test cases in its own listing syntax.
 */

#ifndef AMULET_BENCH_DEMO_UTIL_HH
#define AMULET_BENCH_DEMO_UTIL_HH

#include <cstdio>
#include <string>

#include "executor/sim_harness.hh"
#include "isa/assembler.hh"
#include "isa/disasm.hh"

namespace demo_util
{

using namespace amulet;

inline std::string
slowChain(const char *reg, int imuls, int offset = 0)
{
    std::string s = "    MOV " + std::string(reg) +
                    ", qword ptr [R14 + " + std::to_string(offset) + "]\n";
    for (int i = 0; i < imuls; ++i)
        s += "    IMUL " + std::string(reg) + ", " + std::string(reg) +
             "\n";
    return s;
}

inline std::string
trailingWork(int imuls = 40)
{
    std::string s = "    MOV R11, qword ptr [R14 + 8]\n";
    for (int i = 0; i < imuls; ++i)
        s += "    IMUL R11, R11\n";
    return s;
}

inline arch::Input
zeroInput(const mem::AddressMap &map)
{
    arch::Input input;
    input.regs.fill(0);
    input.sandbox.assign(map.sandboxSize(), 0);
    input.sandbox.set(0, 3);
    input.sandbox.set(8, 7);
    input.sandbox.set(16, 5);
    return input;
}

struct PairResult
{
    executor::UTrace traceA;
    executor::UTrace traceB;
    uarch::RunResult runA;
    uarch::RunResult runB;
    bool differs = false;
};

inline PairResult
runPair(executor::SimHarness &harness, const isa::FlatProgram &fp,
        const arch::Input &a, const arch::Input &b)
{
    harness.loadProgram(&fp);
    PairResult out;
    auto ra = harness.runInput(a);
    out.runA = ra.run;
    out.traceA = ra.trace;
    auto rb = harness.runInput(b);
    out.runB = rb.run;
    out.traceB = rb.trace;
    out.differs = !(out.traceA == out.traceB);
    return out;
}

inline void
printDiff(const PairResult &r)
{
    std::printf("uarch traces %s\n", r.differs ? "DIFFER (violation)"
                                               : "match (no leak)");
    if (r.differs) {
        std::printf("  differing addresses:");
        for (Addr w : executor::traceDiffAddrs(r.traceA, r.traceB))
            std::printf(" 0x%llx", static_cast<unsigned long long>(w));
        std::printf("\n");
    }
}

/** Print the root-cause events of both runs side by side, Table 7/9/10
 *  style. */
inline void
printEventTable(executor::SimHarness &harness, const isa::FlatProgram &fp,
                const arch::Input &a, const arch::Input &b)
{
    auto collect = [&](const arch::Input &in) {
        harness.loadProgram(&fp);
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
    const auto ev_a = collect(a);
    const auto ev_b = collect(b);
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
