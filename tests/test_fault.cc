/**
 * @file
 * Fault-injection survivability contract (src/runtime/fault.hh): a
 * seeded chaos plan — worker crashes, dropped/garbled replies, shard
 * failures, torn journal appends, failed checkpoint writes, poisoned
 * programs — must leave every non-poisoned program's results and
 * canonical export bytes identical to an unfaulted run, quarantine the
 * poisoned ones instead of killing the campaign, and do all of it
 * deterministically (same plan, same faults, any --jobs). The one
 * recovery rule behind it: a failed program re-runs on a fresh
 * executor, is quarantined after 3 failed attempts, and a shard that
 * fails 8 attempts in a row stops the campaign.
 */

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "corpus/fields.hh"
#include "runtime/fault.hh"
#include "support/campaign_fixture.hh"

namespace
{

using namespace amulet;
using namespace amulet::fixture;
using runtime::fault::FaultPlan;
using runtime::fault::ProgramScope;

/** The small baseline campaign of tests/test_backend.cc (seed 1 detects
 *  within 8 programs). */
core::CampaignConfig
chaosCampaign(unsigned jobs, executor::BackendKind backend)
{
    return campaignConfig(defense::DefenseKind::Baseline, jobs, backend,
                          {2000, 8});
}

/** The clean run's canonical export, restricted to programs outside
 *  @p quarantined — what a chaos run must reproduce byte-for-byte. */
std::string
exportWithout(const std::string &clean_dir,
              const std::set<unsigned> &quarantined)
{
    std::vector<core::ViolationRecord> kept;
    for (core::ViolationRecord &rec :
         corpus::CorpusStore::readJournal(clean_dir)) {
        if (!quarantined.count(rec.programIndex))
            kept.push_back(std::move(rec));
    }
    return corpus::CorpusStore::exportCanonical(clean_dir,
                                                std::move(kept));
}

// === Plan parsing and decision determinism =================================

TEST(FaultPlanSpec, ParsesEverySiteAndDescribesCanonically)
{
    const FaultPlan plan = FaultPlan::parse(
        "seed=42; poison=4:9, wire.crash=25;wire.garble=1000;"
        "wire.drop=0;shard.throw=7;journal.shortwrite=3;"
        "checkpoint.fail=500;journal.once=3");
    EXPECT_EQ(plan.seed(), 42u);
    EXPECT_EQ(plan.rate("wire.crash"), 25u);
    EXPECT_EQ(plan.rate("wire.garble"), 1000u);
    EXPECT_EQ(plan.rate("wire.drop"), 0u);
    EXPECT_EQ(plan.rate("shard.throw"), 7u);
    EXPECT_EQ(plan.rate("journal.shortwrite"), 3u);
    EXPECT_EQ(plan.rate("checkpoint.fail"), 500u);
    EXPECT_TRUE(plan.poisoned(4));
    EXPECT_TRUE(plan.poisoned(9));
    EXPECT_FALSE(plan.poisoned(5));
    // describe() re-parses to an identical plan (canonical round trip).
    const FaultPlan again = FaultPlan::parse(plan.describe());
    EXPECT_EQ(again.describe(), plan.describe());
}

TEST(FaultPlanSpec, RejectsMalformedSpecs)
{
    EXPECT_THROW(FaultPlan::parse("wire.crash"), std::runtime_error);
    EXPECT_THROW(FaultPlan::parse("nonsense=1"), std::runtime_error);
    EXPECT_THROW(FaultPlan::parse("wire.crash=onefifth"),
                 std::runtime_error);
    EXPECT_THROW(FaultPlan::parse("wire.crash=1001"), std::runtime_error);
    EXPECT_THROW(FaultPlan::parse("poison=1:x"), std::runtime_error);
    // Negatives and values that do not fit their field are malformed,
    // not wrapped: 4294967297 must not poison program 1.
    EXPECT_THROW(FaultPlan::parse("seed=-1"), std::runtime_error);
    EXPECT_THROW(FaultPlan::parse("journal.once=-1"), std::runtime_error);
    EXPECT_THROW(FaultPlan::parse("poison=-5"), std::runtime_error);
    EXPECT_THROW(FaultPlan::parse("poison=4294967297"), std::runtime_error);
}

TEST(FaultPlanSpec, DecisionsAreDeterministicSeededAndSiteScoped)
{
    const FaultPlan plan =
        FaultPlan::parse("seed=7;wire.crash=500;wire.garble=500");
    unsigned crash_fires = 0;
    bool differs = false;
    for (std::uint64_t key = 0; key < 1000; ++key) {
        const bool crash = plan.fires("wire.crash", key);
        // Same (site, key) → same answer, every time.
        EXPECT_EQ(crash, plan.fires("wire.crash", key));
        crash_fires += crash;
        differs |= (crash != plan.fires("wire.garble", key));
    }
    // A 500-per-mille rate fires about half the keys, and the two sites
    // hash independently.
    EXPECT_GT(crash_fires, 350u);
    EXPECT_LT(crash_fires, 650u);
    EXPECT_TRUE(differs);
    // A different seed is a different schedule.
    const FaultPlan reseeded =
        FaultPlan::parse("seed=8;wire.crash=500;wire.garble=500");
    bool moved = false;
    for (std::uint64_t key = 0; key < 64; ++key)
        moved |= (plan.fires("wire.crash", key) !=
                  reseeded.fires("wire.crash", key));
    EXPECT_TRUE(moved);
}

TEST(FaultPlanSpec, UnscopedOpsAndZeroRatesNeverFire)
{
    const FaultPlan plan = FaultPlan::parse("wire.crash=1000");
    EXPECT_FALSE(plan.fires("wire.crash", ProgramScope::kUnscopedKey));
    EXPECT_FALSE(plan.fires("wire.garble", 1)); // unset site
    // Outside any ProgramScope, op keys are the unscoped sentinel.
    EXPECT_EQ(ProgramScope::nextOpKey(), ProgramScope::kUnscopedKey);
    EXPECT_EQ(ProgramScope::currentProgram(), ProgramScope::kNoProgram);
    EXPECT_EQ(ProgramScope::currentAttempt(), 0u);
    {
        ProgramScope scope(3);
        EXPECT_EQ(ProgramScope::currentProgram(), 3u);
        EXPECT_EQ(ProgramScope::currentAttempt(), 0u);
        EXPECT_EQ(ProgramScope::nextOpKey(), (std::uint64_t{3} << 20) | 0);
        EXPECT_EQ(ProgramScope::nextOpKey(), (std::uint64_t{3} << 20) | 1);
    }
    EXPECT_EQ(ProgramScope::nextOpKey(), ProgramScope::kUnscopedKey);
}

// A retry must be able to succeed: the program-keyed rate sites fire on
// a program's first attempt only, checkpoint.fail (an occurrence count)
// on every attempt, and a retry's op keys restart from 0.
TEST(FaultPlanSpec, ProgramSitesFireOnTheFirstAttemptOnly)
{
    const FaultPlan plan = FaultPlan::parse(
        "wire.crash=1000;wire.garble=1000;wire.drop=1000;shard.throw=1000;"
        "journal.shortwrite=1000;checkpoint.fail=1000");
    const char *const programSites[] = {"wire.crash", "wire.garble",
                                        "wire.drop", "shard.throw",
                                        "journal.shortwrite"};
    {
        ProgramScope first(3, 0);
        for (const char *site : programSites)
            EXPECT_TRUE(plan.fires(site, 3)) << site;
        EXPECT_TRUE(plan.fires("checkpoint.fail", 1));
    }
    {
        ProgramScope retry(3, 1);
        EXPECT_EQ(ProgramScope::currentProgram(), 3u);
        EXPECT_EQ(ProgramScope::currentAttempt(), 1u);
        EXPECT_EQ(ProgramScope::nextOpKey(), (std::uint64_t{3} << 20) | 0);
        for (const char *site : programSites)
            EXPECT_FALSE(plan.fires(site, 3)) << site;
        EXPECT_TRUE(plan.fires("checkpoint.fail", 1));
        // journal.shortwrite reaches appends through this decision.
        EXPECT_FALSE(plan.journalAppendFault(3));
    }
    EXPECT_EQ(ProgramScope::currentAttempt(), 0u);
}

// === Poison quarantine =====================================================

// A poisoned program fails every wire attempt; the campaign must
// quarantine exactly that program — journaled, counted, skipped on
// resume — while every other program's results and export bytes are
// identical to a clean run.
TEST(FaultCampaign, PoisonedProgramIsQuarantinedNotFatal)
{
    ScratchDir scratch("poison");
    for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        const std::string tag = "j" + std::to_string(jobs);

        core::CampaignConfig clean =
            chaosCampaign(jobs, executor::BackendKind::Subprocess);
        clean.corpusDir = scratch.sub("clean-" + tag);
        const auto ref = core::Campaign(clean).run();
        ASSERT_TRUE(ref.detected());
        EXPECT_EQ(ref.quarantinedPrograms, 0u);

        core::CampaignConfig chaos = clean;
        chaos.corpusDir = scratch.sub("chaos-" + tag);
        chaos.faultPlan = "seed=1;poison=2";
        const auto stats = core::Campaign(chaos).run();

        EXPECT_EQ(stats.quarantinedPrograms, 1u);
        EXPECT_EQ(stats.programs + stats.skippedPrograms +
                      stats.quarantinedPrograms,
                  ref.programs + ref.skippedPrograms);

        const auto quarantined =
            corpus::CorpusStore::readQuarantined(chaos.corpusDir);
        ASSERT_EQ(quarantined.size(), 1u);
        EXPECT_EQ(quarantined[0].programIndex, 2u);
        EXPECT_NE(quarantined[0].reason.find("poison"), std::string::npos);

        // Byte-identical exports for everything that was not poisoned
        // (the fault plan is a runtime knob: both corpora share one
        // fingerprint, so header bytes match too).
        EXPECT_EQ(exportWithout(clean.corpusDir, {2}),
                  corpus::CorpusStore::exportCanonical(chaos.corpusDir));

        EXPECT_EQ(metric(stats, "campaign.quarantinedPrograms"), 1.0);

        // Resume with the plan off: the quarantined program must stay
        // quarantined (skipped), not silently re-run.
        core::CampaignConfig resumed = clean;
        resumed.corpusDir = chaos.corpusDir;
        resumed.resume = true;
        const auto after = core::Campaign(resumed).run();
        EXPECT_EQ(after.quarantinedPrograms, 1u);
        EXPECT_EQ(after.resumedPrograms, clean.numPrograms);
        EXPECT_EQ(exportWithout(clean.corpusDir, {2}),
                  corpus::CorpusStore::exportCanonical(chaos.corpusDir));
    }
}

// === Wire chaos (crash / drop / garble) ====================================

// Transient wire faults fire on a program's first attempt only; the
// re-run on a fresh executor must make them invisible in results —
// same stats, same record bytes — at any jobs value.
TEST(FaultCampaign, TransientWireChaosIsInvisibleInResults)
{
    for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        const auto ref =
            core::Campaign(
                chaosCampaign(jobs, executor::BackendKind::Subprocess))
                .run();
        core::CampaignConfig chaos =
            chaosCampaign(jobs, executor::BackendKind::Subprocess);
        chaos.faultPlan =
            "seed=3;wire.crash=30;wire.garble=30;wire.drop=30";
        const auto stats = core::Campaign(chaos).run();
        expectEquivalent(ref, stats);
        EXPECT_GE(metric(stats, "backend.restarts"), 1.0)
            << "the plan must actually have injected wire faults";
    }
}

// === In-place retry ========================================================

// An injected shard failure must not abort the campaign: the shard
// re-runs the program on a fresh executor (pre-split RNG streams make
// the re-run byte-identical) and carries on — even at jobs=1, where the
// failing shard is the only one.
TEST(FaultCampaign, ShardFailuresRetryTheProgramInPlace)
{
    for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        const auto ref =
            core::Campaign(
                chaosCampaign(jobs, executor::BackendKind::InProcess))
                .run();
        core::CampaignConfig chaos =
            chaosCampaign(jobs, executor::BackendKind::InProcess);
        chaos.faultPlan = "seed=5;shard.throw=250";
        const auto stats = core::Campaign(chaos).run();
        expectEquivalent(ref, stats);
        EXPECT_EQ(stats.quarantinedPrograms, 0u)
            << "shard.throw fires on a first attempt only: the retry "
               "must succeed, not quarantine";
        EXPECT_GE(metric(stats, "backend.restarts"), 1.0)
            << "the plan must actually have failed a program";
    }
}

// Every program's first attempt fails: each one re-runs once on a fresh
// executor, none is quarantined, and the export is the clean run's.
TEST(FaultCampaign, EveryFirstAttemptFailingCostsOneRerunEach)
{
    ScratchDir scratch("everyfirst");
    for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        const std::string tag = "j" + std::to_string(jobs);
        core::CampaignConfig clean =
            chaosCampaign(jobs, executor::BackendKind::InProcess);
        clean.corpusDir = scratch.sub("clean-" + tag);
        const auto ref = core::Campaign(clean).run();

        core::CampaignConfig chaos = clean;
        chaos.corpusDir = scratch.sub("chaos-" + tag);
        chaos.faultPlan = "shard.throw=1000";
        const auto stats = core::Campaign(chaos).run();
        expectEquivalent(ref, stats);
        EXPECT_EQ(stats.quarantinedPrograms, 0u);
        EXPECT_EQ(metric(stats, "backend.restarts"), clean.numPrograms);
        EXPECT_EQ(corpus::CorpusStore::exportCanonical(clean.corpusDir),
                  corpus::CorpusStore::exportCanonical(chaos.corpusDir));
    }
}

// Quarantines are failures without a completion: two poisoned programs
// in a row cost six failed attempts and the campaign completes; a third
// makes program 2's second attempt the 8th failure in a row, which
// stops the campaign after journaling the first two quarantines.
TEST(FaultCampaign, EightFailuresInARowStopTheCampaign)
{
    ScratchDir scratch("inarow");
    core::CampaignConfig clean =
        chaosCampaign(1, executor::BackendKind::Subprocess);
    clean.corpusDir = scratch.sub("clean");
    core::Campaign(clean).run();

    auto quarantined = [](const std::string &dir) {
        std::set<unsigned> programs;
        for (const auto &q : corpus::CorpusStore::readQuarantined(dir))
            programs.insert(q.programIndex);
        return programs;
    };

    core::CampaignConfig two = clean;
    two.corpusDir = scratch.sub("two");
    two.faultPlan = "poison=0:1";
    const auto stats = core::Campaign(two).run();
    EXPECT_EQ(stats.quarantinedPrograms, 2u);
    EXPECT_EQ(quarantined(two.corpusDir), (std::set<unsigned>{0, 1}));
    EXPECT_EQ(exportWithout(clean.corpusDir, {0, 1}),
              corpus::CorpusStore::exportCanonical(two.corpusDir));

    core::CampaignConfig three = clean;
    three.corpusDir = scratch.sub("three");
    three.faultPlan = "poison=0:1:2";
    try {
        core::Campaign(three).run();
        ADD_FAILURE() << "the 8th failure in a row must stop the campaign";
    } catch (const executor::WorkerQuarantineError &e) {
        EXPECT_NE(std::string(e.what()).find("poison"), std::string::npos)
            << e.what();
    }
    EXPECT_EQ(quarantined(three.corpusDir), (std::set<unsigned>{0, 1}));
}

// === Torn journal appends and failed checkpoints ===========================

// A torn journal append (injected ENOSPC mid-line) must heal: the store
// truncates back to the valid prefix, the program whose record was torn
// stays unreported, the shard re-runs it, and the second append lands —
// final export byte-identical to an unfaulted run.
TEST(FaultCampaign, TornJournalAppendHealsAndExportMatches)
{
    ScratchDir scratch("torn");
    core::CampaignConfig clean =
        chaosCampaign(1, executor::BackendKind::InProcess);
    clean.corpusDir = scratch.sub("clean");
    const auto ref = core::Campaign(clean).run();
    ASSERT_TRUE(ref.detected());

    core::CampaignConfig chaos = clean;
    chaos.corpusDir = scratch.sub("chaos");
    chaos.faultPlan = "seed=1;journal.once=1";
    const auto stats = core::Campaign(chaos).run();
    expectEquivalent(ref, stats);
    EXPECT_GE(metric(stats, "backend.restarts"), 1.0)
        << "the journal fault fails the program's attempt before the "
           "shard re-runs it";
    // The report that threw accounted nothing: one campaign-phase
    // observation per reported program, as in the clean run.
    EXPECT_EQ(stats.metrics.at("time.testGen").count,
              ref.metrics.at("time.testGen").count);
    EXPECT_EQ(corpus::CorpusStore::exportCanonical(clean.corpusDir),
              corpus::CorpusStore::exportCanonical(chaos.corpusDir));
}

// Checkpoint writes are derived progress-markers behind an atomic
// rename: every one of them failing must cost nothing but a counter —
// the campaign completes, and the journal (the real data) is intact.
TEST(FaultCampaign, CheckpointWriteFailuresAreTolerated)
{
    ScratchDir scratch("ckpt");
    core::CampaignConfig clean =
        chaosCampaign(1, executor::BackendKind::InProcess);
    clean.corpusDir = scratch.sub("clean");
    clean.checkpointEvery = 2;
    const auto ref = core::Campaign(clean).run();

    core::CampaignConfig chaos = clean;
    chaos.corpusDir = scratch.sub("chaos");
    chaos.faultPlan = "seed=1;checkpoint.fail=1000";
    const auto stats = core::Campaign(chaos).run();
    expectEquivalent(ref, stats);
    EXPECT_GE(metric(stats, "corpus.checkpointFailures"), 1.0);
    EXPECT_EQ(corpus::CorpusStore::exportCanonical(clean.corpusDir),
              corpus::CorpusStore::exportCanonical(chaos.corpusDir));
}

// === Combined chaos (the acceptance scenario) ==============================

// Everything at once: a poisoned program, transient wire faults, shard
// failures, a torn journal append, and failing checkpoints. The campaign
// must complete with exactly the poisoned program quarantined and the
// export for everything else byte-identical to the clean run — at
// jobs=1 and jobs=4.
TEST(FaultCampaign, CombinedChaosCampaignSurvives)
{
    ScratchDir scratch("combined");
    for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        const std::string tag = "j" + std::to_string(jobs);

        core::CampaignConfig clean =
            chaosCampaign(jobs, executor::BackendKind::Subprocess);
        clean.corpusDir = scratch.sub("clean-" + tag);
        clean.checkpointEvery = 2;
        const auto ref = core::Campaign(clean).run();

        core::CampaignConfig chaos = clean;
        chaos.corpusDir = scratch.sub("chaos-" + tag);
        chaos.faultPlan =
            "seed=9;poison=2;wire.crash=25;wire.garble=25;wire.drop=25;"
            "shard.throw=120;journal.once=1;checkpoint.fail=500";
        const auto stats = core::Campaign(chaos).run();

        EXPECT_EQ(stats.quarantinedPrograms, 1u);
        const auto quarantined =
            corpus::CorpusStore::readQuarantined(chaos.corpusDir);
        ASSERT_EQ(quarantined.size(), 1u);
        EXPECT_EQ(quarantined[0].programIndex, 2u);
        EXPECT_EQ(exportWithout(clean.corpusDir, {2}),
                  corpus::CorpusStore::exportCanonical(chaos.corpusDir));
    }
}

// === Quarantine serde and merge ============================================

TEST(CorpusQuarantine, RecordsRoundTripDedupAndMerge)
{
    ScratchDir scratch("serde");
    const core::CampaignConfig cfg =
        chaosCampaign(1, executor::BackendKind::InProcess);
    {
        corpus::CorpusStore store(scratch.sub("a"), cfg);
        EXPECT_TRUE(store.appendQuarantine(5, "poisoned"));
        EXPECT_FALSE(store.appendQuarantine(5, "poisoned again"))
            << "quarantine lines dedup by program";
        EXPECT_TRUE(store.appendQuarantine(3, "other"));
        EXPECT_EQ(store.size(), 0u)
            << "quarantine facts are not violation records";
    }
    const auto entries =
        corpus::CorpusStore::readQuarantined(scratch.sub("a"));
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].programIndex, 3u);
    EXPECT_EQ(entries[0].reason, "other");
    EXPECT_EQ(entries[1].programIndex, 5u);
    EXPECT_EQ(entries[1].reason, "poisoned");
    // Readers of the record journal skip quarantine lines entirely.
    EXPECT_TRUE(corpus::CorpusStore::readJournal(scratch.sub("a")).empty());

    // Quarantine facts travel through merge.
    { corpus::CorpusStore other(scratch.sub("b"), cfg); }
    corpus::CorpusStore::mergeInto(scratch.sub("merged"),
                                   {scratch.sub("a"), scratch.sub("b")});
    EXPECT_EQ(
        corpus::CorpusStore::readQuarantined(scratch.sub("merged")).size(),
        2u);
}

// The quarantined outcome survives the checkpoint serde round trip.
TEST(CorpusQuarantine, OutcomeSerdeRoundTrips)
{
    core::ProgramOutcome out =
        core::ProgramOutcome::makeQuarantined("worker failed 3 attempts");
    EXPECT_FALSE(out.ran);
    EXPECT_TRUE(out.quarantined);
    const auto back =
        corpus::decode<core::ProgramOutcome>(corpus::encode(out));
    EXPECT_TRUE(back.quarantined);
    EXPECT_EQ(back.quarantineReason, "worker failed 3 attempts");
    EXPECT_FALSE(back.ran);
}

} // namespace
