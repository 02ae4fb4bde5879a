/**
 * @file
 * Table 3: testing the baseline out-of-order CPU, Naive vs Opt, against
 * CT-SEQ and CT-COND. Shapes to compare: Opt is ~9-12x faster; Opt finds
 * more CT-SEQ violations (conflict-fill priming detects evictions too);
 * CT-COND (Spectre-v4 class) detections are much rarer than CT-SEQ
 * (Spectre-v1) for both.
 */

#include <cstdio>

#include "bench_util.hh"

int
main()
{
    using namespace bench_util;
    header("Baseline O3 campaign, Naive vs Opt x {CT-SEQ, CT-COND}",
           "Table 3");

    struct Cell
    {
        double minutes;
        std::uint64_t violations;
        double detectSec;
    };
    Cell cells[2][2]; // [contract][mode]
    const char *contracts[2] = {"CT-SEQ", "CT-COND"};

    // The 2x2 matrix runs as one batch of campaigns; per-campaign
    // results are identical at any concurrency.
    runtime::MatrixRunner matrix(matrixJobs());
    for (int c = 0; c < 2; ++c) {
        for (int mode = 0; mode < 2; ++mode) {
            const bool naive = mode == 0;
            core::CampaignConfig cfg = campaignFor(
                defense::DefenseKind::Baseline, false, contracts[c]);
            cfg.harness.naiveMode = naive;
            // Naive is an order of magnitude slower; scale it down so the
            // bench terminates quickly, and report per-test metrics.
            cfg.numPrograms = scaled(naive ? 12 : 60);
            cfg.collectSignatures = false;
            matrix.add(std::string(contracts[c]) +
                           (naive ? "/naive" : "/opt"),
                       cfg);
        }
    }
    const auto results = matrix.runAll();
    for (int c = 0; c < 2; ++c) {
        for (int mode = 0; mode < 2; ++mode) {
            const auto &stats = results[c * 2 + mode].stats;
            // Normalize to seconds per 1000 test cases (the two columns
            // run different program counts).
            cells[c][mode].minutes =
                stats.testCases
                    ? stats.wallSeconds * 1000.0 / stats.testCases
                    : 0.0;
            // Normalize violation counts per 1000 test cases so the
            // Naive/Opt comparison is apples-to-apples.
            cells[c][mode].violations =
                stats.testCases
                    ? stats.violatingTestCases * 1000 / stats.testCases
                    : 0;
            cells[c][mode].detectSec = stats.firstDetectSeconds;
        }
    }

    std::printf("%-28s | %-10s | %10s %10s %8s\n", "Metric", "Contract",
                "Naive", "Opt", "Ratio");
    for (int c = 0; c < 2; ++c) {
        std::printf("%-28s | %-10s | %10.2f %10.2f %7.1fx\n",
                    "Time (s per 1k tests)", contracts[c],
                    cells[c][0].minutes, cells[c][1].minutes,
                    cells[c][1].minutes > 0
                        ? cells[c][0].minutes / cells[c][1].minutes
                        : 0.0);
    }
    for (int c = 0; c < 2; ++c) {
        std::printf("%-28s | %-10s | %10llu %10llu\n",
                    "Violations / 1k tests", contracts[c],
                    static_cast<unsigned long long>(cells[c][0].violations),
                    static_cast<unsigned long long>(
                        cells[c][1].violations));
    }
    for (int c = 0; c < 2; ++c) {
        auto fmt = [](double d) { return d < 0 ? -1.0 : d; };
        std::printf("%-28s | %-10s | %10.1f %10.1f\n",
                    "Detection time (s; -1 none)", contracts[c],
                    fmt(cells[c][0].detectSec), fmt(cells[c][1].detectSec));
    }
    std::printf(
        "\nNote: the Naive column runs fewer programs (it is ~10x slower "
        "per input);\nviolations are reported per 1000 test cases. "
        "CT-COND violations (Spectre-v4\nclass) are rare at this scale "
        "for both modes, matching the paper's 330-minute\nNaive/Opt "
        "detection times for CT-COND vs minutes for CT-SEQ.\n");

    // Ineffective-test-case filtering ablation (§3.2): the CT-COND/Opt
    // cell above ran with filtering on (the default); re-run it with
    // filtering off. CT-COND is where filtering bites — wrong-path
    // reads split sibling classes, producing singleton test cases the
    // filter prunes before the simulator. Verdicts are identical by the
    // filter equivalence contract (tests/test_filter.cc); only
    // simulator runs and wall time change. CI greps this line.
    {
        core::CampaignConfig cfg = campaignFor(
            defense::DefenseKind::Baseline, false, "CT-COND");
        cfg.numPrograms = scaled(60);
        cfg.collectSignatures = false;
        cfg.filterIneffective = false;
        const auto off = core::Campaign(cfg).run();
        const auto &on = results[3].stats; // CT-COND/opt above
        const bool verdicts_equal =
            off.confirmedViolations == on.confirmedViolations &&
            off.violatingTestCases == on.violatingTestCases &&
            off.candidateViolations == on.candidateViolations;
        std::printf(
            "\nfilter ablation (CT-COND/Opt): off %.1f tests/s -> on "
            "%.1f tests/s (%.2fx,\nverdicts %s, sim input runs %llu -> "
            "%llu, filtered %llu, skipped programs %u)\n",
            off.throughput(), on.throughput(),
            off.throughput() > 0 ? on.throughput() / off.throughput()
                                 : 0.0,
            verdicts_equal ? "unchanged" : "DIVERGED (BUG)",
            static_cast<unsigned long long>(off.simInputRuns()),
            static_cast<unsigned long long>(on.simInputRuns()),
            static_cast<unsigned long long>(on.filteredTestCases),
            on.skippedPrograms);
    }

    return 0;
}
