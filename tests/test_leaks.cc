/**
 * @file
 * End-to-end leak tests: the ground-truth matrix of
 * src/core/paper_leaks.hh, one test case per row.
 *
 * Each row runs a hand-built gadget's two inputs through a fresh harness
 * and checks that the μarch traces differ (the row names a signature) or
 * match (the countermeasure holds), for the buggy and patched variant of
 * each countermeasure.
 */

#include <gtest/gtest.h>

#include <string_view>

#include "core/paper_leaks.hh"
#include "core/signature.hh"
#include "support/leak_rows.hh"

namespace
{

using namespace amulet;

using PaperLeakRow = fixture::LeakRowTest;

// Both inputs start from the boot context (core::runPair), so a
// difference comes from the inputs alone.
TEST_P(PaperLeakRow, TracesDifferExactlyWhenTheRowLeaks)
{
    const core::LeakRun run = core::runPair(row());
    EXPECT_TRUE(run.a.run.halted);
    EXPECT_TRUE(run.b.run.halted);
    EXPECT_GT(run.a.run.squashes, 0u) << "the gadget must mispredict";
    EXPECT_GT(run.b.run.squashes, 0u) << "the gadget must mispredict";
    if (row().signature) {
        EXPECT_TRUE(run.differs()) << row().signature << " must leak";
    } else {
        EXPECT_FALSE(run.differs()) << "the countermeasure must hold";
    }
    // The inst-fetch leaks are timing channels: the secret moves the end
    // of the test, and with it the runahead fetch the L1I records.
    if (row().signature &&
        std::string_view(row().signature) == core::sig::kKv12InstFetch)
        EXPECT_NE(run.a.run.cycles, run.b.run.cycles);
}

// Input A twice on one harness, the second run on the predictor state
// the first left, as a campaign runs its inputs: that state alone must
// not change the trace. v4 is the exception: its first run's memory-order
// squash trains the memory-dependence predictor, so the load no longer
// bypasses the store; its rerun starts from the boot context instead.
TEST_P(PaperLeakRow, IdenticalInputsGiveEqualTraces)
{
    const core::LeakGadget &gadget = *row().gadget;
    executor::SimHarness harness(row().harness());
    harness.loadProgram(&gadget.flat);
    const executor::UarchContext boot = harness.saveContext();
    const auto first = harness.runInput(gadget.inputA);
    if (&gadget == &core::paperLeaks().v4)
        harness.restoreContext(boot);
    const auto second = harness.runInput(gadget.inputA);
    EXPECT_TRUE(first.trace == second.trace);
    EXPECT_TRUE(first.run.halted);
    EXPECT_TRUE(second.run.halted);
}

INSTANTIATE_TEST_SUITE_P(Catalog, PaperLeakRow,
                         ::testing::ValuesIn(fixture::leakRows()),
                         fixture::leakRowName);

} // namespace
