/**
 * @file
 * Prime-cache equivalence contract (src/executor/README.md): memoizing
 * the conflict-fill priming run — restoring the captured post-prime
 * MemSnapshot instead of re-simulating the priming program per input —
 * must not move a single byte of campaign output. For every defense,
 * the canonical corpus export (header included: the knob is excluded
 * from the config fingerprint) is byte-identical with the memo on
 * (default) and off, at jobs 1 and 4, on every executor backend.
 */

#include <gtest/gtest.h>

#include "support/campaign_fixture.hh"

namespace
{

using namespace amulet;
using namespace amulet::fixture;

void
primeCacheOff(core::CampaignConfig &cfg)
{
    cfg.harness.primeCache = false;
}

TEST(PrimeCacheEquivalence, Baseline)
{
    runEquivalence(defense::DefenseKind::Baseline, true, primeCacheOff);
}

TEST(PrimeCacheEquivalence, InvisiSpec)
{
    runEquivalence(defense::DefenseKind::InvisiSpec, false, primeCacheOff);
}

TEST(PrimeCacheEquivalence, CleanupSpec)
{
    runEquivalence(defense::DefenseKind::CleanupSpec, false, primeCacheOff);
}

TEST(PrimeCacheEquivalence, SpecLfb)
{
    runEquivalence(defense::DefenseKind::SpecLfb, false, primeCacheOff);
}

TEST(PrimeCacheEquivalence, Stt)
{
    runEquivalence(defense::DefenseKind::Stt, false, primeCacheOff);
}

// CT-COND on the baseline produces the densest priming traffic
// (conflict fill before every effective input). Check the export
// equivalence and that the memo actually eliminates priming cost
// rather than re-simulating behind the cache's back.
TEST(PrimeCacheEquivalence, CtCondAblationCampaign)
{
    ScratchDir scratch("ctcond");
    auto make = [&](bool prime_cache) {
        auto cfg = campaignConfig(defense::DefenseKind::Baseline, 1,
                                  executor::BackendKind::InProcess);
        cfg.harness.primeCache = prime_cache;
        cfg.contract = contracts::ctCond();
        cfg.numPrograms = 10;
        return cfg;
    };
    core::CampaignConfig on_cfg = make(true);
    on_cfg.corpusDir = scratch.sub("on");
    const auto on = core::Campaign(on_cfg).run();
    core::CampaignConfig off_cfg = make(false);
    off_cfg.corpusDir = scratch.sub("off");
    const auto off = core::Campaign(off_cfg).run();

    EXPECT_EQ(corpus::CorpusStore::exportCanonical(scratch.sub("on")),
              corpus::CorpusStore::exportCanonical(scratch.sub("off")));
    EXPECT_EQ(on.confirmedViolations, off.confirmedViolations);
    EXPECT_EQ(on.violatingTestCases, off.violatingTestCases);
    EXPECT_EQ(on.candidateViolations, off.candidateViolations);
    EXPECT_EQ(on.signatureCounts, off.signatureCounts);
    // The off run re-simulates one load per L1D (set, way) per input;
    // the memoized run restores a snapshot. The time split must show
    // it (wall-clock, but the gap is an order of magnitude).
    EXPECT_LT(on.times.primeSec, off.times.primeSec);
}

// A corpus journaled without the memo resumes under it (and the other
// way around).
TEST(PrimeCacheEquivalence, FingerprintIgnoresTheKnob)
{
    expectResumeAcrossKnob(primeCacheOff);
}

} // namespace
