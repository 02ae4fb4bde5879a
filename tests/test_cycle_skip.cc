/**
 * @file
 * Cycle-skip event horizons (src/uarch/README.md): the horizon sources
 * (Defense::nextEventCycle, MemSystem::nextEventCycle) unit-tested
 * directly, and a harness run that skips and still reproduces its result
 * and trace bit for bit. Campaign-level equivalence with skipping on and
 * off is the cycleSkip variant of tests/test_equivalence.cc.
 */

#include <gtest/gtest.h>

#include "defense/factory.hh"
#include "executor/sim_harness.hh"
#include "isa/assembler.hh"
#include "uarch/mem_system.hh"

namespace
{

using namespace amulet;

// Every shipped defense has been audited for the event-horizon contract
// and declares itself fully event-driven (kNoEventCycle); the base
// class's conservative now+1 — which disables skipping outright — is
// reserved for unaudited out-of-tree defenses.
TEST(CycleSkipHorizon, DefenseContracts)
{
    const uarch::CoreParams params;
    {
        defense::Defense unaudited;
        EXPECT_EQ(unaudited.nextEventCycle(41), Cycle{42});
    }
    for (defense::DefenseKind kind : defense::allDefenseKinds()) {
        SCOPED_TRACE(defense::defenseKindName(kind));
        defense::DefenseConfig cfg;
        cfg.kind = kind;
        const auto defense = defense::makeDefense(cfg, params);
        EXPECT_EQ(defense->nextEventCycle(41), kNoEventCycle);
    }
}

// MemSystem horizon: idle -> no event; queued work pins now+1 (the
// in-order controller may stall-and-log its head every cycle); once the
// queues drain, the horizon is the exact scheduled fill time.
TEST(CycleSkipHorizon, MemSystem)
{
    const uarch::CoreParams params;
    EventLog log;
    uarch::MemSystem mem(params, log);
    EXPECT_EQ(mem.nextEventCycle(7), kNoEventCycle);

    uarch::MemReq req;
    req.kind = uarch::ReqKind::Load;
    req.lineAddr = 0x1000;
    mem.enqueueL1D(req);
    EXPECT_EQ(mem.nextEventCycle(7), Cycle{8});

    // One tick accepts the miss into an MSHR; the queue is empty and
    // the horizon becomes the scheduled fill cycle — strictly in the
    // future, and stable until the fill lands.
    mem.tick(8);
    ASSERT_FALSE(mem.idle());
    const Cycle fill = mem.nextEventCycle(8);
    ASSERT_NE(fill, kNoEventCycle);
    EXPECT_GT(fill, Cycle{9});
    for (Cycle c = 9; c < fill; ++c) {
        mem.tick(c);
        EXPECT_EQ(mem.nextEventCycle(c), fill);
    }
    mem.tick(fill);
    EXPECT_TRUE(mem.idle());
    EXPECT_EQ(mem.nextEventCycle(fill), kNoEventCycle);
}

// Direct harness-level check on a miss-heavy program: skipping elides a
// significant share of cycles yet reproduces the run result and trace
// bit-for-bit, and the per-run statistics are exposed.
TEST(CycleSkipHorizon, SkipsAndReproduces)
{
    const isa::Program prog = isa::assemble(R"(
        MOV RAX, qword ptr [R14 + 0]
        MOV RBX, qword ptr [R14 + 4096]
        ADD RAX, RBX
    )");

    auto run_once = [&prog](bool skip) {
        executor::HarnessConfig cfg;
        cfg.map.sandboxPages = 2;
        cfg.bootInsts = 1500;
        cfg.cycleSkip = skip;
        executor::SimHarness harness(cfg);
        const isa::FlatProgram fp(prog, cfg.map.codeBase);
        harness.loadProgram(&fp);
        arch::Input input;
        input.id = 0;
        input.regs.fill(0);
        input.sandbox.assign(cfg.map.sandboxSize(), 0);
        auto out = harness.runInput(input);
        return std::make_tuple(out.run, out.trace,
                               harness.pipeline().skippedCycles(),
                               harness.pipeline().skipWindows());
    };

    const auto [run_on, trace_on, skipped_on, windows_on] = run_once(true);
    const auto [run_off, trace_off, skipped_off, windows_off] =
        run_once(false);
    EXPECT_TRUE(run_on == run_off);
    EXPECT_EQ(trace_on, trace_off);
    EXPECT_GT(skipped_on, 0u);
    EXPECT_GT(windows_on, 0u);
    EXPECT_EQ(skipped_off, 0u);
    EXPECT_EQ(windows_off, 0u);
    // The two cache misses dominate this run: skipping should recover
    // a large fraction of the simulated cycles.
    EXPECT_GT(skipped_on, run_on.cycles / 4);
}

} // namespace
