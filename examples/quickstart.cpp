/**
 * @file
 * Quickstart: fuzz the unprotected out-of-order CPU against the CT-SEQ
 * contract until AMuLeT finds a Spectre-class contract violation, then
 * print the violating program, the input pair, and the trace difference.
 *
 * Build & run:   ./build/examples/quickstart
 */

#include <cstdio>

#include "core/campaign.hh"

int
main()
{
    using namespace amulet;

    core::CampaignConfig cfg;
    cfg.harness.defense.kind = defense::DefenseKind::Baseline;
    cfg.harness.prime = executor::PrimeMode::ConflictFill;
    cfg.contract = contracts::ctSeq();
    cfg.numPrograms = 200;
    cfg.baseInputsPerProgram = 6;
    cfg.siblingsPerBase = 4;
    cfg.seed = 2025;
    cfg.stopAtFirstViolation = true;

    std::printf("AMuLeT quickstart: fuzzing the baseline O3 CPU against "
                "%s...\n\n",
                cfg.contract.name.c_str());

    core::Campaign campaign(cfg);
    const core::CampaignStats stats = campaign.run();

    std::printf("%s\n", stats.report().c_str());
    if (stats.records.empty()) {
        std::printf("no violation found; try more programs or another "
                    "seed\n");
        return 1;
    }

    const core::ViolationRecord &v = stats.records.front();
    std::printf("First violation: %s\n\nViolating program:\n%s\n",
                v.summary().c_str(), v.programText.c_str());

    std::printf("Input A id=%llu, Input B id=%llu "
                "(same contract trace, hash 0x%llx)\n",
                static_cast<unsigned long long>(v.inputA.id),
                static_cast<unsigned long long>(v.inputB.id),
                static_cast<unsigned long long>(v.ctraceHash));
    std::printf("uarch trace A: %s\n",
                v.traceA.describe(16).c_str());
    std::printf("uarch trace B: %s\n",
                v.traceB.describe(16).c_str());
    std::printf("\ndiffering addresses:");
    for (Addr w : executor::traceDiffAddrs(v.traceA, v.traceB))
        std::printf(" 0x%llx", static_cast<unsigned long long>(w));
    std::printf("\n");
    return 0;
}
