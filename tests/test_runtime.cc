/**
 * @file
 * Runtime-subsystem tests: the scheduler's determinism contract (equal
 * results for any jobs value), concurrent ViolationSink merging, the
 * worker pool, and matrix scheduling.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "runtime/matrix.hh"
#include "runtime/violation_sink.hh"
#include "runtime/worker_pool.hh"
#include "support/campaign_fixture.hh"

namespace
{

using namespace amulet;

/** Seed 1 detects spectre-v1 within these 12 programs. */
core::CampaignConfig
smallCampaign(unsigned jobs)
{
    return fixture::campaignConfig(defense::DefenseKind::Baseline, jobs,
                                   executor::BackendKind::InProcess,
                                   {2000, 12});
}

// The determinism contract: a campaign sharded over 4 workers must reach
// exactly the same verdicts as the serial run — confirmed violations,
// per-signature counts, unique-violation count, and the analysis
// counters. Only wall-clock-derived fields may differ.
TEST(RuntimeDeterminism, FourJobsMatchSerial)
{
    core::Campaign serial(smallCampaign(1));
    const auto s1 = serial.run();
    core::Campaign sharded(smallCampaign(4));
    const auto s4 = sharded.run();

    EXPECT_EQ(s1.jobs, 1u);
    EXPECT_EQ(s4.jobs, 4u);
    EXPECT_EQ(s1.confirmedViolations, s4.confirmedViolations);
    EXPECT_EQ(s1.signatureCounts, s4.signatureCounts);
    EXPECT_EQ(s1.uniqueViolations(), s4.uniqueViolations());
    EXPECT_EQ(s1.programs, s4.programs);
    EXPECT_EQ(s1.testCases, s4.testCases);
    EXPECT_EQ(s1.effectiveClasses, s4.effectiveClasses);
    EXPECT_EQ(s1.candidateViolations, s4.candidateViolations);
    EXPECT_EQ(s1.violatingTestCases, s4.violatingTestCases);

    // The campaign should find something, or the comparison is vacuous.
    EXPECT_GT(s1.confirmedViolations, 0u);

    // Records merge in program order with identical content.
    ASSERT_EQ(s1.records.size(), s4.records.size());
    for (std::size_t i = 0; i < s1.records.size(); ++i) {
        EXPECT_EQ(s1.records[i].programIndex, s4.records[i].programIndex);
        EXPECT_EQ(s1.records[i].signature, s4.records[i].signature);
        EXPECT_EQ(s1.records[i].inputA.id, s4.records[i].inputA.id);
        EXPECT_EQ(s1.records[i].inputB.id, s4.records[i].inputB.id);
    }
}

// Two runs at the same parallelism are bit-identical too (no data races
// leaking into results).
TEST(RuntimeDeterminism, RepeatedParallelRunsAgree)
{
    core::Campaign a(smallCampaign(3));
    core::Campaign b(smallCampaign(3));
    const auto sa = a.run();
    const auto sb = b.run();
    EXPECT_EQ(sa.confirmedViolations, sb.confirmedViolations);
    EXPECT_EQ(sa.signatureCounts, sb.signatureCounts);
    EXPECT_EQ(sa.testCases, sb.testCases);
}

TEST(ViolationSink, ConcurrentReportsMergeAndDedup)
{
    constexpr unsigned kPrograms = 64;
    constexpr unsigned kMaxRecords = 10;
    runtime::ViolationSink sink(kPrograms, kMaxRecords);

    // 8 threads report 8 programs each; program p contributes one
    // confirmed violation with one of two signatures and a record.
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < 8; ++t) {
        threads.emplace_back([&sink, t] {
            for (unsigned i = 0; i < 8; ++i) {
                const unsigned p = t * 8 + i;
                runtime::ProgramOutcome out;
                out.ran = true;
                out.testCases = 30;
                out.confirmedViolations = 1;
                out.firstDetectSeconds = 100.0 - p; // min at p=63
                const char *sig =
                    (p % 2 == 0) ? "sig-even" : "sig-odd";
                out.signatureCounts[sig] = 1;
                core::ViolationRecord rec;
                rec.programIndex = p;
                rec.signature = sig;
                out.records.push_back(rec);
                sink.report(p, std::move(out));
            }
        });
    }
    for (auto &t : threads)
        t.join();

    const core::CampaignStats stats = sink.finalize();
    EXPECT_EQ(stats.programs, kPrograms);
    EXPECT_EQ(stats.testCases, 30u * kPrograms);
    EXPECT_EQ(stats.confirmedViolations, kPrograms);
    // Deduplicated into exactly two signature buckets of 32 each.
    ASSERT_EQ(stats.signatureCounts.size(), 2u);
    EXPECT_EQ(stats.signatureCounts.at("sig-even"), 32u);
    EXPECT_EQ(stats.signatureCounts.at("sig-odd"), 32u);
    EXPECT_EQ(stats.uniqueViolations(), 2u);
    // min-merged across threads regardless of completion order.
    EXPECT_DOUBLE_EQ(stats.firstDetectSeconds, 100.0 - 63);
    // Record cap applies in program order: programs 0..9.
    ASSERT_EQ(stats.records.size(), kMaxRecords);
    for (unsigned i = 0; i < kMaxRecords; ++i)
        EXPECT_EQ(stats.records[i].programIndex, i);
}

TEST(ViolationSink, SkippedProgramsAreNotCounted)
{
    runtime::ViolationSink sink(3, 8);
    runtime::ProgramOutcome ran;
    ran.ran = true;
    ran.testCases = 30;
    sink.report(0, std::move(ran));
    runtime::ProgramOutcome skipped; // cycle-cap path: ran stays false
    skipped.skippedProgram = true;
    skipped.testGenSec = 0.5;
    sink.report(1, std::move(skipped));
    // Program 2 never reported (e.g. stop-first cut the campaign short).

    const auto stats = sink.finalize();
    EXPECT_EQ(stats.programs, 1u);
    EXPECT_EQ(stats.testCases, 30u);
    // A cycle-cap abort merges no counters but is counted as a skip —
    // pre-pipeline these programs were counted nowhere.
    EXPECT_EQ(stats.skippedPrograms, 1u);
    // Generation time of skipped programs still shows up in the
    // breakdown; their test cases do not.
    EXPECT_DOUBLE_EQ(stats.times.testGenSec, 0.5);
}

TEST(ViolationSink, FilterCountersMergeAndFullyFilteredProgramsCount)
{
    runtime::ViolationSink sink(2, 8);
    // A fully-filtered program: completed deterministically (ran), all
    // inputs dropped, simulator skipped.
    runtime::ProgramOutcome filtered;
    filtered.ran = true;
    filtered.skippedProgram = true;
    filtered.testCases = 30;
    filtered.filteredTestCases = 30;
    filtered.filterSec = 0.25;
    sink.report(0, std::move(filtered));
    runtime::ProgramOutcome partial;
    partial.ran = true;
    partial.testCases = 30;
    partial.filteredTestCases = 5;
    sink.report(1, std::move(partial));

    const auto stats = sink.finalize();
    EXPECT_EQ(stats.programs, 2u);
    EXPECT_EQ(stats.skippedPrograms, 1u);
    EXPECT_EQ(stats.testCases, 60u);
    EXPECT_EQ(stats.filteredTestCases, 35u);
    EXPECT_EQ(stats.simInputRuns(), 25u);
    EXPECT_DOUBLE_EQ(stats.times.filterSec, 0.25);
}

TEST(WorkerPool, RunsEverySubmittedJob)
{
    runtime::WorkerPool pool(4);
    std::atomic<unsigned> counter{0};
    for (unsigned i = 0; i < 100; ++i)
        pool.submit([&counter] {
            counter.fetch_add(1, std::memory_order_relaxed);
        });
    pool.wait();
    EXPECT_EQ(counter.load(), 100u);

    // The pool stays usable after a drain.
    pool.submit([&counter] { counter.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(counter.load(), 101u);
}

TEST(MatrixRunner, SweepResultsMatchDirectRuns)
{
    auto base = [](defense::DefenseKind kind) {
        core::CampaignConfig cfg = smallCampaign(1);
        cfg.harness.defense.kind = kind;
        cfg.numPrograms = 4;
        return cfg;
    };

    runtime::MatrixRunner matrix(2);
    matrix.addSweep(base, {defense::DefenseKind::Baseline},
                    {contracts::ctSeq()}, {33, 34});
    ASSERT_EQ(matrix.size(), 2u);
    const auto results = matrix.runAll();
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].label, "Baseline/CT-SEQ/seed33");
    EXPECT_EQ(results[1].label, "Baseline/CT-SEQ/seed34");

    for (const auto &result : results) {
        auto cfg = base(defense::DefenseKind::Baseline);
        cfg.seed = result.config.seed;
        const auto direct = core::Campaign(cfg).run();
        EXPECT_EQ(result.stats.confirmedViolations,
                  direct.confirmedViolations);
        EXPECT_EQ(result.stats.signatureCounts, direct.signatureCounts);
        EXPECT_EQ(result.stats.testCases, direct.testCases);
    }
}

} // namespace
