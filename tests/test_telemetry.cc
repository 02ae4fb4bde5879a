/**
 * @file
 * Telemetry layer contracts (src/telemetry/README.md):
 *
 *  - the metrics registry's instruments record, merge, and snapshot
 *    deterministically (histogram decimation is RNG-free);
 *  - campaign stats (the time breakdown, metrics.json) derive from the
 *    merged registry, resumed campaigns included;
 *  - the heartbeat emitter waits its interval, however long.
 *
 * That telemetry is invisible to campaign results, and that the
 * heartbeat and span-trace outputs are well-formed, is the telemetry
 * variant of tests/test_equivalence.cc; per-instruction tracer
 * contracts live in tests/test_uarch_trace.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <utility>

#include "support/campaign_fixture.hh"
#include "telemetry/heartbeat.hh"
#include "telemetry/metrics.hh"
#include "telemetry/telemetry.hh"

namespace
{

using namespace amulet;
using namespace amulet::fixture;

// --- registry unit contracts -----------------------------------------

TEST(MetricsRegistry, InstrumentsRecordAndSnapshot)
{
    telemetry::MetricsRegistry reg;
    reg.counter("c").add(3);
    reg.counter("c").add();
    reg.gauge("g").set(2.5);
    reg.timer("t").add(0.5);
    reg.timer("t").add(0.25);
    reg.histogram("h").observe(1.0);
    reg.histogram("h").observe(3.0);

    const telemetry::MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.at("c").value, 4);
    EXPECT_EQ(snap.at("g").value, 2.5);
    EXPECT_EQ(snap.at("t").value, 0.75);
    EXPECT_EQ(snap.at("t").count, 2u);
    EXPECT_EQ(snap.at("h").count, 2u);
    EXPECT_EQ(snap.at("h").sum, 4.0);
    EXPECT_EQ(snap.at("h").min, 1.0);
    EXPECT_EQ(snap.at("h").max, 3.0);
}

TEST(MetricsRegistry, KindAliasingThrows)
{
    telemetry::MetricsRegistry reg;
    reg.counter("x");
    EXPECT_THROW(reg.timer("x"), std::logic_error);
}

TEST(MetricsRegistry, MergeFoldsEveryKind)
{
    telemetry::MetricsRegistry a;
    telemetry::MetricsRegistry b;
    a.counter("c").add(1);
    b.counter("c").add(2);
    b.gauge("g").set(7);
    a.timer("t").add(1.0);
    b.timer("t").add(2.0);
    a.histogram("h").observe(1);
    b.histogram("h").observe(9);
    a.merge(b);

    const auto snap = a.snapshot();
    EXPECT_EQ(snap.at("c").value, 3);
    EXPECT_EQ(snap.at("g").value, 7);   // written in b only
    EXPECT_EQ(snap.at("t").value, 3.0);
    EXPECT_EQ(snap.at("t").count, 2u);
    EXPECT_EQ(snap.at("h").count, 2u);
    EXPECT_EQ(snap.at("h").max, 9.0);
}

TEST(MetricsRegistry, HistogramPercentilesAndDecimation)
{
    telemetry::Histogram h(64); // force thinning
    for (int i = 1; i <= 1000; ++i)
        h.observe(i);
    EXPECT_EQ(h.count(), 1000u);
    EXPECT_EQ(h.min(), 1.0);
    EXPECT_EQ(h.max(), 1000.0);
    EXPECT_LE(h.samples().size(), 64u);
    EXPECT_GT(h.stride(), 1u);
    // Decimation keeps the distribution's shape: the percentile of the
    // uniform ramp stays near its exact value.
    EXPECT_NEAR(h.percentile(0.5), 500.0, 100.0);
    EXPECT_NEAR(h.percentile(0.95), 950.0, 100.0);

    // Same observations => byte-equal retained samples (no RNG).
    telemetry::Histogram h2(64);
    for (int i = 1; i <= 1000; ++i)
        h2.observe(i);
    EXPECT_EQ(h.samples(), h2.samples());
}

TEST(MetricsRegistry, TimedSectionTotalSumsOnlyTimeNamespace)
{
    telemetry::MetricsRegistry reg;
    reg.timer("time.simulate").add(2.0);
    reg.timer("time.testGen").add(1.0);
    reg.timer("stage.execute").add(50.0); // observability, not a section
    reg.counter("time.bogus");            // not a timer
    EXPECT_EQ(telemetry::timedSectionTotalSec(reg.snapshot()), 3.0);
}

// --- campaign stats are registry-derived ------------------------------

TEST(TelemetryStats, RegistryFeedsTimeBreakdownAndMetricsJson)
{
    ScratchDir scratch("stats");
    core::CampaignConfig cfg = campaignConfig(
        defense::DefenseKind::Baseline, 2,
        executor::BackendKind::InProcess);
    cfg.corpusDir = scratch.sub("c");
    const core::CampaignStats stats = core::Campaign(cfg).run();

    // The breakdown comes straight out of the merged registry.
    ASSERT_TRUE(stats.metrics.count("time.simulate"));
    EXPECT_EQ(stats.times.simulateSec,
              stats.metrics.at("time.simulate").value);
    EXPECT_EQ(stats.times.testGenSec,
              stats.metrics.at("time.testGen").value);
    EXPECT_GE(stats.times.otherSec, 0.0);
    // Per-input latency histogram: one sample per harness input run —
    // at least every class-batch run, plus validation/classification
    // re-runs.
    ASSERT_TRUE(stats.metrics.count("sim.inputLatencySec"));
    EXPECT_GE(stats.metrics.at("sim.inputLatencySec").count,
              stats.simInputRuns());
    // Campaign tallies mirror the stats counters.
    EXPECT_EQ(stats.metrics.at("campaign.testCases").value,
              stats.testCases);

    // metrics.json persisted next to the journal; stats renders it.
    const std::string text =
        corpus::CorpusStore::readMetricsText(scratch.sub("c"));
    ASSERT_FALSE(text.empty());
    const corpus::Json doc = corpus::Json::parse(text);
    EXPECT_EQ(doc.at("metrics")
                  .at("campaign.programs")
                  .at("value")
                  .asU64(),
              stats.programs);
    EXPECT_EQ(doc.at("metrics").at("sim.inputLatencySec").at("count")
                  .asU64(),
              stats.metrics.at("sim.inputLatencySec").count);
    // Top spans are sorted slowest-first.
    const auto &spans = doc.at("topSpans").items();
    for (std::size_t i = 1; i < spans.size(); ++i) {
        EXPECT_GE(spans[i - 1].at("seconds").asDouble(),
                  spans[i].at("seconds").asDouble());
    }
}

// A resumed campaign's registry folds the checkpointed outcomes'
// campaign-phase seconds back in, so its breakdown (and metrics.json)
// accounts for the whole campaign, not just the second process.
TEST(TelemetryStats, ResumeFoldsRestoredOutcomesIntoRegistry)
{
    ScratchDir scratch("resume");
    core::CampaignConfig cfg = campaignConfig(
        defense::DefenseKind::Baseline, 1,
        executor::BackendKind::InProcess);
    cfg.corpusDir = scratch.sub("c");
    cfg.maxProgramsThisRun = 3;
    core::Campaign(cfg).run();

    core::CampaignConfig resume_cfg = cfg;
    resume_cfg.maxProgramsThisRun = 0;
    resume_cfg.resume = true;
    const core::CampaignStats resumed = core::Campaign(resume_cfg).run();
    EXPECT_EQ(resumed.programs, cfg.numPrograms);
    // time.testGen counts one observation per program — restored and
    // freshly run alike.
    EXPECT_EQ(resumed.metrics.at("time.testGen").count,
              std::uint64_t{cfg.numPrograms});
}

/** Run a heartbeat at @p intervalSec for about @p ms; returns the lines
 *  it wrote and the milliseconds from start() through stop(). */
std::pair<long, long>
heartbeatLines(double intervalSec, int ms)
{
    ScratchDir scratch("heartbeat");
    std::filesystem::create_directories(scratch.sub(""));
    const std::string path = scratch.sub("hb.jsonl");
    telemetry::CampaignProgress progress(1, 1);
    telemetry::HeartbeatEmitter emitter(progress, telemetry::Clock::now());
    const auto start = std::chrono::steady_clock::now();
    emitter.start(path, intervalSec);
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    emitter.stop();
    const long elapsed_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();

    std::ifstream in(path);
    const std::string text{std::istreambuf_iterator<char>(in), {}};
    return {std::count(text.begin(), text.end(), '\n'), elapsed_ms};
}

// An interval too long for the clock must wait, not return at once: over
// 100 ms the emitter writes its first line and the final one, nothing in
// between.
TEST(Heartbeat, HugeIntervalWritesOnlyTheFirstAndFinalLines)
{
    EXPECT_EQ(heartbeatLines(1e300, 100).first, 2);
}

// An interval shorter than a clock tick must not spin either: the
// emitter waits at least a millisecond between lines, so it writes at
// most one per elapsed millisecond plus the first and final ones (and
// one for rounding).
TEST(Heartbeat, TinyIntervalWritesAtMostOneLinePerMillisecond)
{
    const auto [lines, elapsed_ms] = heartbeatLines(1e-300, 50);
    EXPECT_LE(lines, elapsed_ms + 3);
}

} // namespace
