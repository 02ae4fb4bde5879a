/**
 * @file
 * Machine-readable performance snapshot: the data source behind
 * BENCH_*.json (scripts/bench.sh).
 *
 * Emits one JSON object on stdout with tests/second, the full
 * TimeBreakdown, and per-input simulator latency percentiles (from the
 * telemetry registry's sim.inputLatencySec histogram) for a seeded
 * campaign per defense, plus three runtime-knob off→on ablations: the
 * prime cache on the table3 baseline campaign (CT-COND, inproc,
 * jobs=1), the contract-trace memo on the STT campaign (ARCH-SEQ,
 * 128-page sandbox — the cell where cold collection used to eat ~half
 * the wall clock), and event-horizon cycle skipping on the InvisiSpec
 * campaign (CT-SEQ — the miss-heavy cell with the longest quiescent
 * windows). Wall-clock numbers are hardware-dependent — the
 * JSON is a trajectory point for regression *tracking*, not a gate;
 * the `speedup` fields of the ablations are the shapes CI can reason
 * about across hosts.
 *
 * AMULET_BENCH_SCALE scales campaign sizes like every other bench.
 */

#include <cstdio>
#include <thread>

#include "bench_util.hh"
#include "corpus/serde.hh"

namespace
{

using namespace bench_util;
using corpus::Json;

Json
timesJson(const executor::TimeBreakdown &t)
{
    Json j = Json::object();
    j.set("startupSec", Json::number(t.startupSec));
    j.set("primeSec", Json::number(t.primeSec));
    j.set("simulateSec", Json::number(t.simulateSec));
    j.set("traceExtractSec", Json::number(t.traceExtractSec));
    j.set("testGenSec", Json::number(t.testGenSec));
    j.set("ctraceSec", Json::number(t.ctraceSec));
    j.set("filterSec", Json::number(t.filterSec));
    j.set("otherSec", Json::number(t.otherSec));
    return j;
}

core::CampaignStats
run(core::CampaignConfig cfg)
{
    cfg.collectSignatures = false;
    return core::Campaign(cfg).run();
}

/** Per-input sim latency percentiles out of the merged telemetry
 *  registry (microseconds; one histogram sample per harness input
 *  run). */
Json
latencyJson(const core::CampaignStats &stats)
{
    Json j = Json::object();
    const auto it = stats.metrics.find("sim.inputLatencySec");
    if (it == stats.metrics.end())
        return j;
    const telemetry::MetricValue &lat = it->second;
    j.set("count", Json::number(lat.count));
    j.set("meanUs",
          Json::number(lat.count ? lat.sum / lat.count * 1e6 : 0.0));
    j.set("p50Us", Json::number(lat.percentile(0.5) * 1e6));
    j.set("p95Us", Json::number(lat.percentile(0.95) * 1e6));
    j.set("p99Us", Json::number(lat.percentile(0.99) * 1e6));
    return j;
}

} // namespace

int
main()
{
    Json defenses = Json::array();
    for (defense::DefenseKind kind : defense::allDefenseKinds()) {
        core::CampaignConfig cfg = campaignFor(kind);
        cfg.numPrograms = scaled(30);
        const auto stats = run(cfg);
        Json j = Json::object();
        j.set("defense", Json::str(defense::defenseKindName(kind)));
        j.set("contract", Json::str(cfg.contract.name));
        j.set("testCases", Json::number(stats.testCases));
        j.set("wallSeconds", Json::number(stats.wallSeconds));
        j.set("testsPerSec", Json::number(stats.throughput()));
        j.set("confirmedViolations",
              Json::number(stats.confirmedViolations));
        j.set("times", timesJson(stats.times));
        j.set("simInputLatency", latencyJson(stats));
        defenses.push(std::move(j));
    }

    // The acceptance ablation: table3's CT-COND/Opt cell, in-process,
    // jobs=1, prime cache off vs on.
    core::CampaignConfig abl = campaignFor(
        defense::DefenseKind::Baseline, false, "CT-COND");
    abl.numPrograms = scaled(60);
    core::CampaignConfig abl_off = abl;
    abl_off.harness.primeCache = false;
    const auto on = run(abl);
    const auto off = run(abl_off);
    Json ablation = Json::object();
    ablation.set("defense", Json::str("baseline"));
    ablation.set("contract", Json::str("CT-COND"));
    ablation.set("backend", Json::str("inproc"));
    ablation.set("jobs", Json::number(std::uint64_t{1}));
    ablation.set("offTestsPerSec", Json::number(off.throughput()));
    ablation.set("onTestsPerSec", Json::number(on.throughput()));
    ablation.set("speedup",
                 Json::number(off.throughput() > 0
                                  ? on.throughput() / off.throughput()
                                  : 0.0));
    ablation.set("offPrimeSec", Json::number(off.times.primeSec));
    ablation.set("onPrimeSec", Json::number(on.times.primeSec));
    // Same verdict definition as table3's ablation row, so the two
    // acceptance signals cannot disagree on one divergence.
    ablation.set("verdictsEqual",
                 Json::boolean(off.confirmedViolations ==
                                   on.confirmedViolations &&
                               off.violatingTestCases ==
                                   on.violatingTestCases &&
                               off.candidateViolations ==
                                   on.candidateViolations));

    // The PR-8 ablation: STT's ARCH-SEQ campaign (128-page sandbox),
    // in-process, jobs=1, contract-trace memo off vs on. Under a
    // non-exploring contract every sibling/probe is a full memo hit —
    // the memo removes the whole cold collect (sandbox image map +
    // emulation) per sibling. Sibling generation is a page-lazy image
    // either way (src/mem/sandbox_image.hh), so the memo's share is
    // the emulation it skips.
    // Each mode runs twice, interleaved, and the best run counts:
    // back-to-back in-process campaigns see allocator/cache warm-up
    // ordering effects larger than the effect under test.
    core::CampaignConfig mem = campaignFor(defense::DefenseKind::Stt);
    mem.numPrograms = scaled(40);
    core::CampaignConfig mem_off = mem;
    mem_off.ctraceMemo = false;
    const auto m_off1 = run(mem_off);
    const auto m_on1 = run(mem);
    const auto m_off2 = run(mem_off);
    const auto m_on2 = run(mem);
    const auto &mem_off_stats =
        m_off1.times.ctraceSec <= m_off2.times.ctraceSec ? m_off1
                                                         : m_off2;
    const auto &mem_on_stats =
        m_on1.times.ctraceSec <= m_on2.times.ctraceSec ? m_on1 : m_on2;
    const auto same_verdict = [](const core::CampaignStats &a,
                                 const core::CampaignStats &b) {
        return a.confirmedViolations == b.confirmedViolations &&
               a.violatingTestCases == b.violatingTestCases &&
               a.candidateViolations == b.candidateViolations;
    };
    Json memo = Json::object();
    memo.set("defense", Json::str("stt"));
    memo.set("contract", Json::str(mem.contract.name));
    memo.set("backend", Json::str("inproc"));
    memo.set("jobs", Json::number(std::uint64_t{1}));
    memo.set("runsPerMode", Json::number(std::uint64_t{2}));
    memo.set("offTestsPerSec", Json::number(mem_off_stats.throughput()));
    memo.set("onTestsPerSec", Json::number(mem_on_stats.throughput()));
    memo.set("speedup",
             Json::number(mem_off_stats.throughput() > 0
                              ? mem_on_stats.throughput() /
                                    mem_off_stats.throughput()
                              : 0.0));
    memo.set("offCtraceSec", Json::number(mem_off_stats.times.ctraceSec));
    memo.set("onCtraceSec", Json::number(mem_on_stats.times.ctraceSec));
    memo.set("ctraceSpeedup",
             Json::number(mem_on_stats.times.ctraceSec > 0
                              ? mem_off_stats.times.ctraceSec /
                                    mem_on_stats.times.ctraceSec
                              : 0.0));
    memo.set("offCtraceShareOfWall",
             Json::number(mem_off_stats.wallSeconds > 0
                              ? mem_off_stats.times.ctraceSec /
                                    mem_off_stats.wallSeconds
                              : 0.0));
    memo.set("onCtraceShareOfWall",
             Json::number(mem_on_stats.wallSeconds > 0
                              ? mem_on_stats.times.ctraceSec /
                                    mem_on_stats.wallSeconds
                              : 0.0));
    // All four runs must agree — the knob (either setting, either
    // repetition) must be invisible to detection results.
    memo.set("verdictsEqual",
             Json::boolean(same_verdict(m_off1, m_on1) &&
                           same_verdict(m_off1, m_off2) &&
                           same_verdict(m_off1, m_on2)));

    // The PR-9 ablation: InvisiSpec's CT-SEQ campaign, in-process,
    // jobs=1, event-horizon cycle skipping off vs on. InvisiSpec is
    // the miss-heavy cell — every speculative load goes invisible and
    // re-exposes at commit, so the simulator spends long stretches
    // waiting on scheduled fills with nothing else in flight; exactly
    // the quiescent windows skipping elides. Judged on simulateSec
    // (the collapsed stage), interleaved best-of-two like the memo
    // ablation above, with the skip counters from the telemetry
    // registry riding along so the gate can insist skipping actually
    // engaged rather than trivially passing on a no-op.
    core::CampaignConfig skp = campaignFor(defense::DefenseKind::InvisiSpec);
    skp.numPrograms = scaled(40);
    core::CampaignConfig skp_off = skp;
    skp_off.harness.cycleSkip = false;
    const auto s_off1 = run(skp_off);
    const auto s_on1 = run(skp);
    const auto s_off2 = run(skp_off);
    const auto s_on2 = run(skp);
    const auto &skp_off_stats =
        s_off1.times.simulateSec <= s_off2.times.simulateSec ? s_off1
                                                             : s_off2;
    const auto &skp_on_stats =
        s_on1.times.simulateSec <= s_on2.times.simulateSec ? s_on1
                                                           : s_on2;
    const auto counter_of = [](const core::CampaignStats &stats,
                               const char *name) {
        const auto it = stats.metrics.find(name);
        return it == stats.metrics.end() ? 0.0 : it->second.value;
    };
    Json skip = Json::object();
    skip.set("defense", Json::str("invisispec"));
    skip.set("contract", Json::str(skp.contract.name));
    skip.set("backend", Json::str("inproc"));
    skip.set("jobs", Json::number(std::uint64_t{1}));
    skip.set("runsPerMode", Json::number(std::uint64_t{2}));
    skip.set("offTestsPerSec", Json::number(skp_off_stats.throughput()));
    skip.set("onTestsPerSec", Json::number(skp_on_stats.throughput()));
    skip.set("speedup",
             Json::number(skp_off_stats.throughput() > 0
                              ? skp_on_stats.throughput() /
                                    skp_off_stats.throughput()
                              : 0.0));
    skip.set("offSimulateSec",
             Json::number(skp_off_stats.times.simulateSec));
    skip.set("onSimulateSec",
             Json::number(skp_on_stats.times.simulateSec));
    skip.set("simulateSpeedup",
             Json::number(skp_on_stats.times.simulateSec > 0
                              ? skp_off_stats.times.simulateSec /
                                    skp_on_stats.times.simulateSec
                              : 0.0));
    skip.set("skippedCycles",
             Json::number(counter_of(skp_on_stats, "sim.skippedCycles")));
    skip.set("skipWindows",
             Json::number(counter_of(skp_on_stats, "sim.skipWindows")));
    // All four runs must agree — the knob (either setting, either
    // repetition) must be invisible to detection results.
    skip.set("verdictsEqual",
             Json::boolean(same_verdict(s_off1, s_on1) &&
                           same_verdict(s_off1, s_off2) &&
                           same_verdict(s_off1, s_on2)));

    Json out = Json::object();
    out.set("bench", Json::str("perf_snapshot"));
    out.set("scale", Json::number(scale()));
    out.set("hardwareThreads",
            Json::number(std::uint64_t{
                std::thread::hardware_concurrency()}));
    out.set("note", Json::str("wall-clock numbers are hardware-"
                              "dependent; compare shapes and the "
                              "primeCacheAblation / ctraceMemoAblation "
                              "/ cycleSkipAblation speedups, not "
                              "absolute values"));
    out.set("defenses", std::move(defenses));
    out.set("primeCacheAblation", std::move(ablation));
    out.set("ctraceMemoAblation", std::move(memo));
    out.set("cycleSkipAblation", std::move(skip));

    const std::string text = out.dump();
    std::fwrite(text.data(), 1, text.size(), stdout);
    std::fputc('\n', stdout);
    return 0;
}
