/**
 * @file
 * End-to-end campaign tests: the fuzzer must rediscover each published
 * finding from random programs (with the right signature), produce no
 * confirmed violations on patched defenses at the same scale, and behave
 * deterministically for equal seeds.
 */

#include <gtest/gtest.h>

#include "core/signature.hh"
#include "support/campaign_fixture.hh"

namespace
{

using namespace amulet;

core::CampaignConfig
baseConfig(defense::DefenseKind kind, bool patched = false)
{
    core::CampaignConfig cfg = core::paperCell(kind, patched);
    cfg.harness.bootInsts = 2000;
    cfg.numPrograms = 40;
    cfg.seed = 33;
    return cfg;
}

TEST(CampaignE2E, BaselineFindsSpectreV1)
{
    core::Campaign campaign(baseConfig(defense::DefenseKind::Baseline));
    const auto stats = campaign.run();
    EXPECT_TRUE(stats.detected());
    EXPECT_TRUE(stats.signatureCounts.count(core::sig::kSpectreV1));
}

TEST(CampaignE2E, InvisiSpecBuggyFindsUv1PatchedIsClean)
{
    core::Campaign buggy(baseConfig(defense::DefenseKind::InvisiSpec));
    const auto bs = buggy.run();
    EXPECT_TRUE(bs.detected());
    EXPECT_TRUE(bs.signatureCounts.count(core::sig::kUv1SpecEviction));

    core::Campaign patched(
        baseConfig(defense::DefenseKind::InvisiSpec, true));
    const auto ps = patched.run();
    EXPECT_EQ(ps.confirmedViolations, 0u);
}

TEST(CampaignE2E, CleanupSpecBuggyFindsStoreAndOvercleanBugs)
{
    core::Campaign campaign(
        baseConfig(defense::DefenseKind::CleanupSpec));
    const auto stats = campaign.run();
    EXPECT_TRUE(stats.detected());
    EXPECT_TRUE(
        stats.signatureCounts.count(core::sig::kUv3StoreNotCleaned) ||
        stats.signatureCounts.count(core::sig::kUv5Overclean));
}

TEST(CampaignE2E, SpecLfbBuggyFindsUv6PatchedIsClean)
{
    core::Campaign buggy(baseConfig(defense::DefenseKind::SpecLfb));
    const auto bs = buggy.run();
    EXPECT_TRUE(bs.detected());
    EXPECT_TRUE(bs.signatureCounts.count(core::sig::kUv6FirstLoadBypass));

    core::Campaign patched(
        baseConfig(defense::DefenseKind::SpecLfb, true));
    const auto ps = patched.run();
    EXPECT_EQ(ps.confirmedViolations, 0u);
}

TEST(CampaignE2E, SttBuggyFindsKv3PatchedIsClean)
{
    // KV3 reaches confirmation in roughly a third of 40-program
    // campaigns; this seed is one that hits it under the runtime's
    // per-program RNG streams (seed 33 found it under the pre-runtime
    // sequential streams).
    auto buggy_cfg = baseConfig(defense::DefenseKind::Stt);
    buggy_cfg.seed = 8;
    core::Campaign buggy(buggy_cfg);
    const auto bs = buggy.run();
    EXPECT_TRUE(bs.detected());
    EXPECT_TRUE(bs.signatureCounts.count(core::sig::kKv3TaintedStoreTlb));

    auto cfg = baseConfig(defense::DefenseKind::Stt, true);
    cfg.seed = 8;
    core::Campaign patched(cfg);
    const auto ps = patched.run();
    EXPECT_EQ(ps.confirmedViolations, 0u);
}

// A campaign has one address map, the harness's: the stages generate
// programs and sandboxes with it, whatever gen.map and inputs.map hold.
// An STT cell that leaves those at their one-page defaults must run
// exactly the campaign of one that copies its 128-page map into them.
TEST(CampaignE2E, StagesUseTheHarnessMap)
{
    fixture::ScratchDir scratch("maps");
    core::CampaignConfig cfg = fixture::campaignConfig(
        defense::DefenseKind::Stt, 1, executor::BackendKind::InProcess);
    ASSERT_EQ(cfg.gen.map.sandboxPages, 1u);
    ASSERT_EQ(cfg.inputs.map.sandboxPages, 1u);
    core::CampaignConfig synced = cfg;
    synced.gen.map = synced.harness.map;
    synced.inputs.map = synced.harness.map;
    cfg.corpusDir = scratch.sub("default");
    synced.corpusDir = scratch.sub("synced");
    const auto stats = core::Campaign(cfg).run();
    const auto expected = core::Campaign(synced).run();
    EXPECT_GT(expected.candidateViolations, 0u)
        << "the comparison is vacuous without candidates";
    fixture::expectEquivalent(expected, stats);
    EXPECT_EQ(corpus::CorpusStore::exportCanonical(synced.corpusDir),
              corpus::CorpusStore::exportCanonical(cfg.corpusDir));
}

TEST(CampaignE2E, DeterministicForEqualSeeds)
{
    auto cfg = baseConfig(defense::DefenseKind::Baseline);
    cfg.numPrograms = 10;
    core::Campaign c1(cfg), c2(cfg);
    const auto s1 = c1.run();
    const auto s2 = c2.run();
    EXPECT_EQ(s1.testCases, s2.testCases);
    EXPECT_EQ(s1.violatingTestCases, s2.violatingTestCases);
    EXPECT_EQ(s1.confirmedViolations, s2.confirmedViolations);
    EXPECT_EQ(s1.signatureCounts, s2.signatureCounts);
}

TEST(CampaignE2E, ArchSeqClassesKeepRegistersIdentical)
{
    // Under ARCH-SEQ the campaign must not mutate registers: the STT
    // campaign's violations then come from memory-derived secrets only.
    auto cfg = baseConfig(defense::DefenseKind::Stt);
    cfg.numPrograms = 5;
    core::Campaign campaign(cfg);
    const auto stats = campaign.run();
    for (const auto &rec : stats.records)
        EXPECT_EQ(rec.inputA.regs, rec.inputB.regs);
}

TEST(CampaignE2E, NaiveModeFindsViolationsToo)
{
    auto cfg = baseConfig(defense::DefenseKind::Baseline);
    cfg.harness.naiveMode = true;
    cfg.numPrograms = 12;
    cfg.seed = 7;
    core::Campaign campaign(cfg);
    const auto stats = campaign.run();
    EXPECT_GT(stats.testCases, 0u);
    // Naive restarts the simulator for every input.
    EXPECT_GE(stats.times.startupSec, stats.times.simulateSec);
}

} // namespace
