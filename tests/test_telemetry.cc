/**
 * @file
 * Telemetry layer contracts (src/telemetry/README.md):
 *
 *  - the metrics registry's instruments record, merge, and snapshot
 *    deterministically (histogram decimation is RNG-free);
 *  - telemetry is observability only: for every defense, the canonical
 *    corpus export is byte-identical with tracing + heartbeats + the
 *    per-violation uarch trace dir on and off, at jobs 1 and 4, on
 *    every executor backend;
 *  - the heartbeat stream is well-formed JSONL with monotonic per-shard
 *    progress indices, and the trace file is one valid JSON document
 *    with the Chrome trace-event shape (timestamps ordered per thread
 *    by completion);
 *  - a campaign with uarchTraceDir set writes Konata-parseable pipeline
 *    traces for journaled violations (per-instruction contracts live in
 *    tests/test_uarch_trace.cc);
 *  - EventLog's configurable capacity drops oldest-first and counts
 *    what it dropped.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/event_log.hh"
#include "support/campaign_fixture.hh"
#include "telemetry/metrics.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/trace.hh"

namespace fs = std::filesystem;

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

// --- event log capacity ----------------------------------------------

TEST(EventLogCapacity, DropsOldestAndCounts)
{
    EventLog log;
    log.setEnabled(true);
    log.setCapacity(16);
    for (unsigned i = 0; i < 100; ++i)
        log.record(i, EventKind::Commit, i);
    EXPECT_LE(log.events().size(), 16u);
    EXPECT_EQ(log.events().size() + log.dropped(), 100u);
    // Oldest-first: the retained window is the tail of the stream.
    EXPECT_EQ(log.events().back().cycle, 99u);
    for (std::size_t i = 1; i < log.events().size(); ++i)
        EXPECT_LT(log.events()[i - 1].cycle, log.events()[i].cycle);

    // Shrinking trims immediately; clear resets the drop count.
    log.setCapacity(4);
    EXPECT_LE(log.events().size(), 4u);
    log.clear();
    EXPECT_EQ(log.dropped(), 0u);
    EXPECT_TRUE(log.events().empty());

    // Capacity 0 (default) stays unbounded.
    EventLog unbounded;
    unbounded.setEnabled(true);
    for (unsigned i = 0; i < 100; ++i)
        unbounded.record(i, EventKind::Commit);
    EXPECT_EQ(unbounded.events().size(), 100u);
    EXPECT_EQ(unbounded.dropped(), 0u);
}

// --- e2e: telemetry is invisible to campaign results ------------------

std::string
readFileText(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Every line parses as JSON; per-shard "progress" never decreases and
 *  the final line accounts for every program. */
void
checkHeartbeat(const std::string &path, unsigned expect_programs)
{
    const std::string text = readFileText(path);
    ASSERT_FALSE(text.empty()) << path;
    std::map<std::uint64_t, std::uint64_t> last_progress;
    double last_elapsed = -1;
    std::uint64_t final_done = 0;
    std::istringstream lines(text);
    std::string line;
    unsigned count = 0;
    while (std::getline(lines, line)) {
        ASSERT_FALSE(line.empty());
        const corpus::Json doc = corpus::Json::parse(line);
        ++count;
        const double elapsed = doc.at("elapsedSec").asDouble();
        EXPECT_GE(elapsed, last_elapsed);
        last_elapsed = elapsed;
        final_done = doc.at("programsDone").asU64() +
                     doc.at("resumedPrograms").asU64();
        for (const corpus::Json &sh : doc.at("shards").items()) {
            const std::uint64_t id = sh.at("shard").asU64();
            const std::uint64_t progress = sh.at("progress").asU64();
            auto it = last_progress.find(id);
            if (it != last_progress.end())
                EXPECT_GE(progress, it->second) << "shard " << id;
            last_progress[id] = progress;
        }
    }
    EXPECT_GE(count, 2u); // the immediate line + the final stop() line
    EXPECT_EQ(final_done, expect_programs);
}

/** The trace file is one JSON object of Chrome trace events: metadata
 *  thread names plus complete ("X") spans with ts/dur. */
void
checkTrace(const std::string &path)
{
    const std::string text = readFileText(path);
    ASSERT_FALSE(text.empty()) << path;
    const corpus::Json doc = corpus::Json::parse(text);
    const corpus::Json &events = doc.at("traceEvents");
    bool sawStage = false;
    bool sawThreadName = false;
    // Spans append to each thread's buffer when they *complete*, so the
    // per-thread completion time (ts + dur) never decreases — raw ts
    // alone can (a nested span starts after, and ends before, its
    // parent).
    std::map<std::uint64_t, double> last_end;
    for (const corpus::Json &ev : events.items()) {
        const std::string ph = ev.at("ph").asStr();
        if (ph == "M") {
            sawThreadName |=
                ev.at("name").asStr() == std::string("thread_name");
            continue;
        }
        ASSERT_EQ(ph, "X");
        EXPECT_GE(ev.at("dur").asDouble(), 0.0);
        const std::uint64_t tid = ev.at("tid").asU64();
        const double end =
            ev.at("ts").asDouble() + ev.at("dur").asDouble();
        auto it = last_end.find(tid);
        if (it != last_end.end())
            EXPECT_GE(end, it->second) << "tid " << tid;
        last_end[tid] = end;
        sawStage |= ev.at("name").asStr().rfind("stage.", 0) == 0;
    }
    EXPECT_TRUE(sawThreadName);
    EXPECT_TRUE(sawStage);
}

/** Every .kanata file under @p dir parses as a Kanata 0004 log whose
 *  stage begins/ends balance per instruction lane. */
void
checkKanataDir(const std::string &dir, bool expect_some)
{
    unsigned files = 0;
    if (fs::exists(dir)) {
        for (const auto &entry : fs::directory_iterator(dir)) {
            if (entry.path().extension() != ".kanata")
                continue;
            ++files;
            std::istringstream lines(readFileText(entry.path().string()));
            std::string line;
            ASSERT_TRUE(std::getline(lines, line));
            EXPECT_EQ(line, "Kanata\t0004") << entry.path();
            std::map<std::string, std::string> open; // lane -> stage
            while (std::getline(lines, line)) {
                std::istringstream cells(line);
                std::vector<std::string> f;
                for (std::string cell; std::getline(cells, cell, '\t');)
                    f.push_back(cell);
                if (f.empty())
                    continue;
                if (f[0] == "S") {
                    EXPECT_FALSE(open.count(f.at(1))) << line;
                    open[f.at(1)] = f.at(3);
                } else if (f[0] == "E") {
                    auto it = open.find(f.at(1));
                    ASSERT_NE(it, open.end()) << line;
                    EXPECT_EQ(it->second, f.at(3)) << line;
                    open.erase(it);
                }
            }
            EXPECT_TRUE(open.empty()) << entry.path();
        }
    }
    if (expect_some)
        EXPECT_GT(files, 0u) << dir;
}

void
runTelemetryEquivalence(defense::DefenseKind kind)
{
    ScratchDir scratch(defense::defenseKindName(kind));
    // Reference: telemetry off, in-process, serial.
    core::CampaignConfig ref_cfg = campaignConfig(
        kind, 1, executor::BackendKind::InProcess);
    ref_cfg.corpusDir = scratch.sub("ref");
    core::Campaign(ref_cfg).run();
    const std::string reference =
        corpus::CorpusStore::exportCanonical(scratch.sub("ref"));

    unsigned n = 0;
    for (unsigned jobs : {1u, 4u}) {
        for (auto backend : executor::allBackendKinds()) {
            SCOPED_TRACE("jobs=" + std::to_string(jobs) + " backend=" +
                         executor::backendKindName(backend));
            const std::string tag = "on" + std::to_string(n++);
            core::CampaignConfig cfg = campaignConfig(kind, jobs, backend);
            cfg.corpusDir = scratch.sub(tag);
            cfg.telemetry.traceOutPath = scratch.sub(tag + ".trace.json");
            cfg.telemetry.heartbeatPath = scratch.sub(tag + ".hb.jsonl");
            cfg.telemetry.heartbeatIntervalSec = 0.05;
            cfg.telemetry.uarchTraceDir = scratch.sub(tag + ".utraces");
            const core::CampaignStats stats = core::Campaign(cfg).run();
            EXPECT_EQ(reference,
                      corpus::CorpusStore::exportCanonical(cfg.corpusDir));
            checkHeartbeat(cfg.telemetry.heartbeatPath, cfg.numPrograms);
            checkTrace(cfg.telemetry.traceOutPath);
            // Per-violation pipeline traces exist whenever violations
            // were journaled, and parse as balanced Kanata logs.
            checkKanataDir(cfg.telemetry.uarchTraceDir,
                           !stats.records.empty());
        }
    }
}

TEST(TelemetryEquivalence, Baseline)
{
    runTelemetryEquivalence(defense::DefenseKind::Baseline);
}

TEST(TelemetryEquivalence, InvisiSpec)
{
    runTelemetryEquivalence(defense::DefenseKind::InvisiSpec);
}

TEST(TelemetryEquivalence, CleanupSpec)
{
    runTelemetryEquivalence(defense::DefenseKind::CleanupSpec);
}

TEST(TelemetryEquivalence, SpecLfb)
{
    runTelemetryEquivalence(defense::DefenseKind::SpecLfb);
}

TEST(TelemetryEquivalence, Stt)
{
    runTelemetryEquivalence(defense::DefenseKind::Stt);
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

} // namespace
