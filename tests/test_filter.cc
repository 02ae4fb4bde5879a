/**
 * @file
 * Filtering is part of the campaign definition (src/pipeline/FilterStage):
 * a corpus written with ineffective-test-case filtering on refuses to
 * resume with it off, because the knob is in the config fingerprint.
 * That filtering reaches exactly the verdicts and records of an
 * unfiltered campaign, and strictly fewer simulator runs on CT-COND, is
 * the filterIneffective variant of tests/test_equivalence.cc.
 */

#include <gtest/gtest.h>

#include "support/campaign_fixture.hh"

namespace
{

using namespace amulet;
using namespace amulet::fixture;

TEST(FilterCorpus, CorpusWrittenWithFilteringOnRefusesToResumeOff)
{
    ScratchDir scratch("filter_fingerprint");
    auto cfg = campaignConfig(defense::DefenseKind::Baseline, 1,
                              executor::BackendKind::InProcess, {2000, 4});
    cfg.corpusDir = scratch.sub("c");
    core::Campaign(cfg).run();

    auto off = cfg;
    off.filterIneffective = false;
    off.resume = true;
    EXPECT_THROW(core::Campaign(off).run(), corpus::CorpusError);

    // Same knob, same fingerprint: the legitimate resume still works.
    auto again = cfg;
    again.resume = true;
    EXPECT_NO_THROW(core::Campaign(again).run());
}

} // namespace
