/**
 * @file
 * Shared fixture for the campaign-level test suites: a scratch
 * directory, the small campaign the equivalence matrix runs, and
 * canonical export, metric and stats comparison helpers.
 */

#ifndef AMULET_TESTS_SUPPORT_CAMPAIGN_FIXTURE_HH
#define AMULET_TESTS_SUPPORT_CAMPAIGN_FIXTURE_HH

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
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

/** The small seed-1 campaign of @p kind's paper cell that the
 *  equivalence matrix runs. */
inline core::CampaignConfig
campaignConfig(defense::DefenseKind kind, unsigned jobs,
               executor::BackendKind backend, CampaignSize size = {})
{
    core::CampaignConfig cfg = core::paperCell(kind);
    cfg.harness.bootInsts = size.bootInsts;
    cfg.numPrograms = size.numPrograms;
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

/** The value of campaign metric @p name (0 when absent). */
inline double
metric(const core::CampaignStats &stats, const char *name)
{
    const auto it = stats.metrics.find(name);
    return it == stats.metrics.end() ? 0.0 : it->second.value;
}

/** Everything but wall-clock must match the reference. With
 *  @p sameFilter false the two runs filter differently
 *  (filterIneffective differs), so the filter's own counters are not
 *  compared and @p other must have filtered nothing. */
inline void
expectEquivalent(const core::CampaignStats &reference,
                 const core::CampaignStats &other, bool sameFilter = true)
{
    EXPECT_EQ(reference.confirmedViolations, other.confirmedViolations);
    EXPECT_EQ(reference.signatureCounts, other.signatureCounts);
    EXPECT_EQ(reference.candidateViolations, other.candidateViolations);
    EXPECT_EQ(reference.violatingTestCases, other.violatingTestCases);
    EXPECT_EQ(reference.validationRuns, other.validationRuns);
    EXPECT_EQ(reference.programs, other.programs);
    EXPECT_EQ(reference.testCases, other.testCases);
    EXPECT_EQ(reference.effectiveClasses, other.effectiveClasses);
    if (sameFilter) {
        EXPECT_EQ(reference.skippedPrograms, other.skippedPrograms);
        EXPECT_EQ(reference.filteredTestCases, other.filteredTestCases);
    } else {
        EXPECT_EQ(other.filteredTestCases, 0u);
    }
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

} // namespace amulet::fixture

#endif // AMULET_TESTS_SUPPORT_CAMPAIGN_FIXTURE_HH
