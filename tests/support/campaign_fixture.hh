/**
 * @file
 * Shared fixture for the campaign-level test suites: a scratch
 * directory, the small per-defense campaign the equivalence suites run,
 * canonical export and stats comparison helpers, and the one sweep the
 * runtime-knob suites (prime cache, ctrace memo, cycle skip) share.
 */

#ifndef AMULET_TESTS_SUPPORT_CAMPAIGN_FIXTURE_HH
#define AMULET_TESTS_SUPPORT_CAMPAIGN_FIXTURE_HH

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <functional>
#include <string>

#include "core/campaign.hh"
#include "corpus/corpus_store.hh"
#include "corpus/serde.hh"

namespace amulet::fixture
{

/** Unique scratch directory, removed on destruction. The process id
 *  keeps concurrently running test binaries apart. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &name)
        : path_((std::filesystem::temp_directory_path() /
                 ("amulet_test_" + name + "_" + std::to_string(::getpid())))
                    .string())
    {
        std::filesystem::remove_all(path_);
    }

    ~ScratchDir() { std::filesystem::remove_all(path_); }

    std::string
    sub(const std::string &name) const
    {
        return (std::filesystem::path(path_) / name).string();
    }

  private:
    std::string path_;
};

/** The sizes a suite chooses for campaignConfig(). */
struct CampaignSize
{
    unsigned bootInsts = 1500;
    unsigned numPrograms = 6;
};

/**
 * The small campaign the equivalence suites run against @p kind: seed 1,
 * 6 base inputs with 4 siblings each, the invalidate reset for the
 * defenses that need it, and STT on ARCH-SEQ with a 128-page sandbox.
 */
inline core::CampaignConfig
campaignConfig(defense::DefenseKind kind, unsigned jobs,
               executor::BackendKind backend, CampaignSize size = {})
{
    core::CampaignConfig cfg;
    cfg.harness.defense.kind = kind;
    cfg.harness.prime = (kind == defense::DefenseKind::CleanupSpec ||
                         kind == defense::DefenseKind::SpecLfb)
                            ? executor::PrimeMode::Invalidate
                            : executor::PrimeMode::ConflictFill;
    cfg.harness.bootInsts = size.bootInsts;
    if (kind == defense::DefenseKind::Stt) {
        cfg.harness.map.sandboxPages = 128;
        cfg.contract = contracts::archSeq();
    }
    cfg.gen.map = cfg.harness.map;
    cfg.inputs.map = cfg.harness.map;
    cfg.numPrograms = size.numPrograms;
    cfg.baseInputsPerProgram = 6;
    cfg.siblingsPerBase = 4;
    cfg.seed = 1;
    cfg.jobs = jobs;
    cfg.backend = backend;
    return cfg;
}

/** Run one campaign into a corpus dir and return its canonical export. */
inline std::string
runAndExport(const ScratchDir &scratch, const std::string &tag,
             const core::CampaignConfig &base)
{
    core::CampaignConfig cfg = base;
    cfg.corpusDir = scratch.sub(tag);
    core::Campaign(cfg).run();
    return corpus::CorpusStore::exportCanonical(cfg.corpusDir);
}

/** Everything but wall-clock must match the reference. */
inline void
expectEquivalent(const core::CampaignStats &reference,
                 const core::CampaignStats &other)
{
    EXPECT_EQ(reference.confirmedViolations, other.confirmedViolations);
    EXPECT_EQ(reference.signatureCounts, other.signatureCounts);
    EXPECT_EQ(reference.candidateViolations, other.candidateViolations);
    EXPECT_EQ(reference.violatingTestCases, other.violatingTestCases);
    EXPECT_EQ(reference.validationRuns, other.validationRuns);
    EXPECT_EQ(reference.programs, other.programs);
    EXPECT_EQ(reference.skippedPrograms, other.skippedPrograms);
    EXPECT_EQ(reference.testCases, other.testCases);
    EXPECT_EQ(reference.filteredTestCases, other.filteredTestCases);
    EXPECT_EQ(reference.effectiveClasses, other.effectiveClasses);
    // Per-record contents are byte-identical modulo detectSeconds, the
    // one wall-clock field (compared through the canonical serde dump,
    // the same normalization corpus exports use).
    ASSERT_EQ(reference.records.size(), other.records.size());
    for (std::size_t i = 0; i < reference.records.size(); ++i) {
        core::ViolationRecord a = reference.records[i];
        core::ViolationRecord b = other.records[i];
        a.detectSeconds = 0;
        b.detectSeconds = 0;
        EXPECT_EQ(corpus::toJson(a).dump(), corpus::toJson(b).dump())
            << "record " << i;
    }
}

/** Turns a results-invisible runtime knob away from its default. */
using KnobOff = std::function<void(core::CampaignConfig &)>;

/**
 * A runtime knob must be invisible on every (jobs, backend) pair, exactly
 * like jobs and backend themselves: the canonical corpus export (header
 * included, since the knob is excluded from the config fingerprint) of
 * the knob-default, in-process, jobs-1 campaign must equal the export
 * with @p knobOff applied at jobs {1, 4} on every backend.
 */
inline void
runEquivalence(defense::DefenseKind kind, bool expectDetection,
               const KnobOff &knobOff)
{
    ScratchDir scratch(defense::defenseKindName(kind));
    core::CampaignConfig ref_cfg =
        campaignConfig(kind, 1, executor::BackendKind::InProcess);
    ref_cfg.corpusDir = scratch.sub("ref");
    const core::CampaignStats ref_stats = core::Campaign(ref_cfg).run();
    if (expectDetection)
        EXPECT_TRUE(ref_stats.detected());
    const std::string reference =
        corpus::CorpusStore::exportCanonical(ref_cfg.corpusDir);

    unsigned n = 0;
    for (unsigned jobs : {1u, 4u}) {
        for (auto backend : executor::allBackendKinds()) {
            SCOPED_TRACE("jobs=" + std::to_string(jobs) + " backend=" +
                         executor::backendKindName(backend));
            core::CampaignConfig cfg = campaignConfig(kind, jobs, backend);
            knobOff(cfg);
            EXPECT_EQ(reference,
                      runAndExport(scratch, "off" + std::to_string(n++),
                                   cfg));
        }
    }
}

/**
 * A corpus journaled with the knob off resumes with it on: the knob must
 * not participate in the config fingerprint, or kill/resume workflows
 * would wedge on a runtime setting. The resumed corpus must equal an
 * uninterrupted knob-default run.
 */
inline void
expectResumeAcrossKnob(const KnobOff &knobOff)
{
    ScratchDir scratch("resume");
    core::CampaignConfig cfg = campaignConfig(
        defense::DefenseKind::Baseline, 1, executor::BackendKind::InProcess);
    knobOff(cfg);
    cfg.corpusDir = scratch.sub("c");
    cfg.maxProgramsThisRun = 3;
    core::Campaign(cfg).run();

    // Knob back at its default across the resume.
    core::CampaignConfig resume_cfg = campaignConfig(
        defense::DefenseKind::Baseline, 1, executor::BackendKind::InProcess);
    resume_cfg.corpusDir = cfg.corpusDir;
    resume_cfg.resume = true;
    const auto resumed = core::Campaign(resume_cfg).run();
    EXPECT_EQ(resumed.programs, cfg.numPrograms);

    const std::string uninterrupted = runAndExport(
        scratch, "full",
        campaignConfig(defense::DefenseKind::Baseline, 1,
                       executor::BackendKind::InProcess));
    EXPECT_EQ(uninterrupted,
              corpus::CorpusStore::exportCanonical(cfg.corpusDir));
}

} // namespace amulet::fixture

#endif // AMULET_TESTS_SUPPORT_CAMPAIGN_FIXTURE_HH
