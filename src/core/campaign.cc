#include "core/campaign.hh"

#include <sstream>

#include "runtime/scheduler.hh"

namespace amulet::core
{

executor::HarnessConfig
paperHarness(defense::DefenseKind kind, bool patched)
{
    executor::HarnessConfig harness;
    harness.defense = patched ? defense::DefenseConfig::patched(kind)
                              : defense::DefenseConfig{kind};
    harness.prime = kind == defense::DefenseKind::CleanupSpec ||
                            kind == defense::DefenseKind::SpecLfb
                        ? executor::PrimeMode::Invalidate
                        : executor::PrimeMode::ConflictFill;
    return harness;
}

CampaignConfig
paperCell(defense::DefenseKind kind, bool patched)
{
    CampaignConfig cfg;
    cfg.harness = paperHarness(kind, patched);
    if (kind == defense::DefenseKind::Stt) {
        cfg.harness.map.sandboxPages = 128;
        cfg.contract = contracts::archSeq();
    }
    cfg.baseInputsPerProgram = 6;
    cfg.siblingsPerBase = 4;
    return cfg;
}

std::string
ViolationRecord::summary() const
{
    // Leads with the program index and signature — corpus listings
    // (campaign_cli export) are built from these one-liners, so each must
    // identify its record without loading the full journal entry.
    std::ostringstream os;
    os << "p" << programIndex << " " << signature << ": " << defenseName
       << " vs " << contractName << " (inputs " << inputA.id << "/"
       << inputB.id << ", ctrace 0x" << std::hex << ctraceHash << std::dec
       << ", t=" << detectSeconds << "s)";
    return os.str();
}

std::string
CampaignStats::report() const
{
    std::ostringstream os;
    os << "programs:            " << programs << "\n"
       << "skipped programs:    " << skippedPrograms << "\n"
       << "test cases:          " << testCases << "\n"
       << "filtered testcases:  " << filteredTestCases
       << " (ineffective)\n"
       << "sim input runs:      " << simInputRuns() << "\n"
       << "effective classes:   " << effectiveClasses << "\n"
       << "candidates:          " << candidateViolations << "\n"
       << "validation runs:     " << validationRuns << "\n"
       << "violating testcases: " << violatingTestCases << "\n"
       << "confirmed:           " << confirmedViolations << "\n"
       << "unique violations:   " << uniqueViolations() << "\n"
       << "wall seconds:        " << wallSeconds << "\n"
       << "jobs (shards):       " << jobs << "\n"
       << "backend:             " << backend << "\n"
       << "throughput:          " << throughput() << " tests/s\n"
       << "per-shard rate:      " << perShardThroughput()
       << " tests/s\n";
    if (resumedPrograms > 0)
        os << "resumed (checkpoint):" << " " << resumedPrograms
           << " programs\n";
    if (quarantinedPrograms > 0)
        os << "quarantined:         " << quarantinedPrograms
           << " programs (exhausted recovery; excluded from export)\n";
    if (firstDetectSeconds >= 0)
        os << "first detection:     " << firstDetectSeconds << " s\n";
    for (const auto &[name, count] : signatureCounts)
        os << "  signature " << name << ": " << count << "\n";
    return os.str();
}

Campaign::Campaign(CampaignConfig config) : cfg_(std::move(config)) {}

CampaignStats
Campaign::run()
{
    // The whole fuzzing loop lives in the runtime subsystem: the
    // scheduler shards programs across workers (jobs=1: same pipeline,
    // inline) and merges results deterministically. See src/runtime/.
    return runtime::CampaignScheduler(cfg_).run();
}

} // namespace amulet::core
