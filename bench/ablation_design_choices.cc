/**
 * @file
 * Ablations of three design choices (src/executor/README.md describes
 * the priming policies, src/pipeline/README.md the siblings and
 * register mutation):
 *  (a) cache initialization: clean start vs conflict fill (§3.2 C2 —
 *      conflict fill additionally detects eviction-based leaks);
 *  (b) register mutation of contract-dead registers (off = register-
 *      secret leaks such as SpecLFB UV6 become unreachable);
 *  (c) sibling count per base input (bigger equivalence classes find
 *      more violating test cases per program).
 */

#include <cstdio>

#include "bench_util.hh"

int
main()
{
    using namespace bench_util;
    header("Ablations: priming policy / register mutation / siblings",
           "design-choice ablations (src/executor/README.md, "
           "src/pipeline/README.md)");

    // (a) Priming policy on the as-published InvisiSpec: UV1 leaks via
    // *evictions*, which a clean cache cannot show.
    std::printf("(a) cache initialization (InvisiSpec as published, "
                "UV1)\n");
    for (auto prime : {executor::PrimeMode::Invalidate,
                       executor::PrimeMode::ConflictFill}) {
        core::CampaignConfig cfg =
            campaignFor(defense::DefenseKind::InvisiSpec);
        cfg.harness.prime = prime;
        cfg.numPrograms = scaled(40);
        cfg.collectSignatures = true;
        core::Campaign campaign(cfg);
        const auto stats = campaign.run();
        std::printf("    %-14s confirmed violations: %llu\n",
                    prime == executor::PrimeMode::ConflictFill
                        ? "conflict-fill:" : "clean start:",
                    static_cast<unsigned long long>(
                        stats.confirmedViolations));
    }

    // (b) Register mutation on the as-published SpecLFB (UV6 leaks a
    // register secret).
    std::printf("\n(b) contract-dead register mutation (SpecLFB as "
                "published, UV6)\n");
    for (unsigned pct : {0u, 70u}) {
        core::CampaignConfig cfg =
            campaignFor(defense::DefenseKind::SpecLfb);
        cfg.regMutationPct = pct;
        cfg.numPrograms = scaled(40);
        cfg.collectSignatures = true;
        core::Campaign campaign(cfg);
        const auto stats = campaign.run();
        std::printf("    mutation %3u%%: confirmed violations: %llu\n",
                    pct,
                    static_cast<unsigned long long>(
                        stats.confirmedViolations));
    }

    // (c) Sibling count on the baseline.
    std::printf("\n(c) siblings per base input (baseline, CT-SEQ; equal "
                "total test budget)\n");
    for (unsigned siblings : {1u, 3u, 7u}) {
        core::CampaignConfig cfg =
            campaignFor(defense::DefenseKind::Baseline);
        cfg.siblingsPerBase = siblings;
        cfg.baseInputsPerProgram = 24 / (1 + siblings);
        cfg.numPrograms = scaled(40);
        cfg.collectSignatures = true;
        core::Campaign campaign(cfg);
        const auto stats = campaign.run();
        std::printf("    %u siblings: confirmed violations: %llu "
                    "(classes: %llu)\n",
                    siblings,
                    static_cast<unsigned long long>(
                        stats.confirmedViolations),
                    static_cast<unsigned long long>(
                        stats.effectiveClasses));
    }
    std::printf("\nExpected: conflict-fill >> clean start on UV1 "
                "(eviction leaks need full sets);\nmutation on >> off "
                "for UV6 (register secrets unreachable otherwise); more\n"
                "siblings -> larger classes -> more confirmed violations "
                "per budget.\n");
    return 0;
}
