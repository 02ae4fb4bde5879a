/**
 * @file
 * What the rows of src/core/paper_leaks.hh leak, and why each counts as
 * a violation: every leaking row classifies as its signature, every
 * row's two inputs are contract-equivalent under its defense's paper
 * contract, and every finding of the paper has a leaking row.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>

#include "contracts/leakage_model.hh"
#include "core/campaign.hh"
#include "core/paper_leaks.hh"
#include "core/signature.hh"
#include "support/leak_rows.hh"

namespace
{

using namespace amulet;

using LeakingRow = fixture::LeakRowTest;
using ContractRow = fixture::LeakRowTest;

// core::runPair is the replay a campaign's classification makes: both
// inputs event-logged, each from its start context (here the boot one).
TEST_P(LeakingRow, ClassifiesAsItsSignature)
{
    EXPECT_EQ(core::classifyViolation(row().gadget->flat,
                                      core::runPair(row())),
              row().signature);
}

INSTANTIATE_TEST_SUITE_P(Catalog, LeakingRow,
                         ::testing::ValuesIn(fixture::leakRows(true)),
                         fixture::leakRowName);

TEST_P(ContractRow, InputsAreContractEquivalent)
{
    const contracts::LeakageModel model(
        core::paperCell(row().defense).contract);
    const mem::AddressMap map = row().harness().map;
    const core::LeakGadget &gadget = *row().gadget;
    EXPECT_EQ(model.collect(gadget.flat, gadget.inputA, map),
              model.collect(gadget.flat, gadget.inputB, map))
        << "a trace difference is a violation only between "
           "contract-equivalent inputs";
}

INSTANTIATE_TEST_SUITE_P(Catalog, ContractRow,
                         ::testing::ValuesIn(fixture::leakRows()),
                         fixture::leakRowName);

TEST(PaperLeaks, EveryFindingHasALeakingRow)
{
    namespace sig = core::sig;
    const auto &rows = core::paperLeaks().rows;
    for (const char *finding :
         {sig::kSpectreV1, sig::kSpectreV4, sig::kUv1SpecEviction,
          sig::kUv2MshrInterference, sig::kUv3StoreNotCleaned,
          sig::kUv4SplitNotCleaned, sig::kUv5Overclean,
          sig::kUv6FirstLoadBypass, sig::kKv3TaintedStoreTlb,
          sig::kKv12InstFetch}) {
        EXPECT_TRUE(std::any_of(rows.begin(), rows.end(),
                                [finding](const core::LeakRow &row) {
                                    return row.signature &&
                                           std::string_view(row.signature) ==
                                               finding;
                                }))
            << finding;
    }
}

} // namespace
