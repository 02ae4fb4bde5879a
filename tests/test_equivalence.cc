/**
 * @file
 * The equivalence matrix: every setting that promises byte-identical
 * campaign results, on every paper cell.
 *
 * A row is a defense's paper cell (Table 4) or Baseline on CT-COND, the
 * campaign where the filter, the ctrace memo and the prime cache bite
 * hardest. A variant turns one setting away from its default and runs
 * it at the (jobs, backend) cells it names. Each (row, variant) pair is
 * one test instance, and every cell of it must reproduce the row's
 * jobs-1, in-process, all-defaults reference: the canonical corpus
 * export (header included: a runtime knob is outside the config
 * fingerprint) and every counter fixture::expectEquivalent compares.
 * The CT-COND row also checks that each fast path actually engages.
 *
 * Variants are keyed by their field-table entries (src/corpus/fields.hh).
 * The completeness test fails for any Runtime entry that has neither a
 * variant nor a named exemption, so a new knob cannot ship without its
 * cells.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "corpus/fields.hh"
#include "support/campaign_fixture.hh"

namespace
{

using namespace amulet;
using namespace amulet::fixture;
using executor::BackendKind;
using Stats = core::CampaignStats;

// === Rows ==================================================================

struct Row
{
    const char *name;
    defense::DefenseKind kind;
    bool ctCond = false;  ///< CT-COND contract, 10 programs
    bool detects = false; ///< the reference must confirm a violation
};

const Row kRows[] = {
    {"Baseline", defense::DefenseKind::Baseline, false, true},
    {"InvisiSpec", defense::DefenseKind::InvisiSpec},
    {"CleanupSpec", defense::DefenseKind::CleanupSpec},
    {"SpecLfb", defense::DefenseKind::SpecLfb},
    {"Stt", defense::DefenseKind::Stt},
    {"CtCond", defense::DefenseKind::Baseline, true},
};

/** The row's campaign at one (jobs, backend) cell, every setting at its
 *  default. */
core::CampaignConfig
rowConfig(const Row &row, unsigned jobs, BackendKind backend)
{
    core::CampaignConfig cfg = campaignConfig(row.kind, jobs, backend);
    if (row.ctCond) {
        cfg.contract = contracts::ctCond();
        cfg.numPrograms = 10;
    }
    return cfg;
}

/** A row's jobs-1, in-process run with every setting at its default. */
struct Reference
{
    Stats stats;
    std::string exported; ///< canonical corpus export
};

/** The reference of @p row, run once per process. */
const Reference &
reference(const Row &row)
{
    static std::map<std::string, Reference> cache;
    if (const auto it = cache.find(row.name); it != cache.end())
        return it->second;
    ScratchDir scratch(std::string("ref_") + row.name);
    core::CampaignConfig cfg = rowConfig(row, 1, BackendKind::InProcess);
    cfg.corpusDir = scratch.sub("c");
    Reference ref;
    ref.stats = core::Campaign(cfg).run();
    ref.exported = corpus::CorpusStore::exportCanonical(cfg.corpusDir);
    if (row.detects) {
        EXPECT_TRUE(ref.stats.detected()) << row.name;
    }
    return cache.emplace(row.name, std::move(ref)).first->second;
}

// === Telemetry output checks ===============================================

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
            if (it != last_progress.end()) {
                EXPECT_GE(progress, it->second) << "shard " << id;
            }
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
        if (it != last_end.end()) {
            EXPECT_GE(end, it->second) << "tid " << tid;
        }
        last_end[tid] = end;
        sawStage |= ev.at("name").asStr().rfind("stage.", 0) == 0;
    }
    EXPECT_TRUE(sawThreadName);
    EXPECT_TRUE(sawStage);
}

// === Variants ==============================================================

struct Cell
{
    unsigned jobs;
    BackendKind backend;
};

const std::vector<Cell> kEveryCell = {{1, BackendKind::InProcess},
                                      {1, BackendKind::Subprocess},
                                      {4, BackendKind::InProcess},
                                      {4, BackendKind::Subprocess}};

struct Variant
{
    /** The field-table key of the setting it varies. */
    const char *key;
    /** The (jobs, backend) cells it runs. */
    std::vector<Cell> cells;
    /** Turns the setting away from its default (null: the cell's jobs
     *  and backend are the variation). @p dir prefixes the cell's side
     *  outputs. */
    void (*apply)(core::CampaignConfig &cfg, const std::string &dir) =
        nullptr;
    /** Checks a cell's side outputs (null: none). */
    void (*check)(const core::CampaignConfig &cfg, const Stats &stats) =
        nullptr;
    /** On the CT-COND row, checks that the fast path engages: @p on is
     *  the reference, @p off a cell (null: none). */
    void (*engages)(const Stats &on, const Stats &off) = nullptr;
    /** A Definition entry (filterIneffective): the export header's
     *  fingerprint and the filter counters legitimately differ, so its
     *  cells compare the records and the other counters. */
    bool definition = false;
};

const Variant kVariants[] = {
    {.key = "primeCache",
     .cells = kEveryCell,
     .apply = [](core::CampaignConfig &cfg,
                 const std::string &) { cfg.harness.primeCache = false; },
     // The off run re-simulates one load per L1D (set, way) per input;
     // the memo restores a snapshot (wall-clock, but the gap is an
     // order of magnitude).
     .engages = [](const Stats &on, const Stats &off) {
         EXPECT_LT(on.times.primeSec, off.times.primeSec);
     }},
    {.key = "cycleSkip",
     .cells = kEveryCell,
     .apply = [](core::CampaignConfig &cfg,
                 const std::string &) { cfg.harness.cycleSkip = false; },
     .engages = [](const Stats &on, const Stats &off) {
         EXPECT_GT(metric(on, "sim.skippedCycles"), 0.0);
         EXPECT_EQ(metric(off, "sim.skippedCycles"), 0.0);
     }},
    {.key = "ctraceMemo",
     .cells = kEveryCell,
     .apply = [](core::CampaignConfig &cfg,
                 const std::string &) { cfg.ctraceMemo = false; },
     // The memo counters are the deterministic witness that the memo
     // removes emulator work rather than moving it around.
     .engages = [](const Stats &on, const Stats &off) {
         EXPECT_GT(metric(on, "ctrace.memoHits"), 0.0);
         EXPECT_EQ(metric(off, "ctrace.memoHits"), 0.0);
         EXPECT_LT(metric(on, "ctrace.fullRuns"),
                   metric(off, "ctrace.fullRuns"));
     }},
    {.key = "telemetry",
     .cells = kEveryCell,
     .apply = [](core::CampaignConfig &cfg, const std::string &dir) {
         cfg.telemetry.traceOutPath = dir + ".trace.json";
         cfg.telemetry.heartbeatPath = dir + ".hb.jsonl";
         cfg.telemetry.heartbeatIntervalSec = 0.05;
     },
     .check = [](const core::CampaignConfig &cfg, const Stats &) {
         checkHeartbeat(cfg.telemetry.heartbeatPath, cfg.numPrograms);
         checkTrace(cfg.telemetry.traceOutPath);
     }},
    {.key = "backend",
     .cells = {{1, BackendKind::Subprocess}, {4, BackendKind::Subprocess}}},
    {.key = "jobs", .cells = {{4, BackendKind::InProcess}}},
    {.key = "filterIneffective",
     .cells = {{1, BackendKind::InProcess}, {4, BackendKind::InProcess}},
     .apply = [](core::CampaignConfig &cfg,
                 const std::string &) { cfg.filterIneffective = false; },
     // CT-COND is where filtering bites: sibling wrong-path reads split
     // classes, so singleton test cases exist and simulator runs
     // strictly decrease while every verdict stays identical.
     .engages =
         [](const Stats &on, const Stats &off) {
             EXPECT_GT(on.filteredTestCases, 0u);
             EXPECT_LT(on.simInputRuns() + on.validationRuns,
                       off.simInputRuns() + off.validationRuns);
         },
     .definition = true},
};

constexpr const char *kCorpusTests =
    "CorpusResume.KilledAndResumedEqualsUninterrupted and verify.sh's "
    "corpus smoke";

/** Runtime entries no variant turns, each with the tests covering it. */
const std::map<std::string, std::string> kExemptions = {
    {"corpusDir", kCorpusTests},
    {"resume", kCorpusTests},
    {"checkpointEvery", kCorpusTests},
    {"maxProgramsThisRun", kCorpusTests},
    {"faultPlan", "FaultCampaign.* (tests/test_fault.cc)"},
};

const Variant *
variantFor(const std::string &key)
{
    for (const Variant &v : kVariants) {
        if (key == v.key)
            return &v;
    }
    return nullptr;
}

// === The matrix ============================================================

/** The export without its header line (config dump and fingerprint). */
std::string
records(const std::string &exported)
{
    return exported.substr(exported.find('\n') + 1);
}

/** Parameter: (index into kRows, index into kVariants). */
using Equivalence =
    ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>>;

TEST_P(Equivalence, Cells)
{
    const Row &row = kRows[std::get<0>(GetParam())];
    const Variant &variant = kVariants[std::get<1>(GetParam())];
    const Reference &ref = reference(row);
    ScratchDir scratch(std::string(row.name) + "_" + variant.key);
    unsigned n = 0;
    for (const Cell &cell : variant.cells) {
        SCOPED_TRACE("jobs=" + std::to_string(cell.jobs) + " backend=" +
                     corpus::enumToken(cell.backend));
        core::CampaignConfig cfg = rowConfig(row, cell.jobs, cell.backend);
        cfg.corpusDir = scratch.sub("cell" + std::to_string(n++));
        if (variant.apply)
            variant.apply(cfg, cfg.corpusDir);
        const Stats stats = core::Campaign(cfg).run();
        const std::string exported =
            corpus::CorpusStore::exportCanonical(cfg.corpusDir);
        if (variant.definition)
            EXPECT_EQ(records(ref.exported), records(exported));
        else
            EXPECT_EQ(ref.exported, exported);
        expectEquivalent(ref.stats, stats, !variant.definition);
        if (variant.check)
            variant.check(cfg, stats);
        if (variant.engages && row.ctCond)
            variant.engages(ref.stats, stats);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, Equivalence,
    ::testing::Combine(::testing::Range<std::size_t>(0, std::size(kRows)),
                       ::testing::Range<std::size_t>(0,
                                                     std::size(kVariants))),
    [](const auto &info) {
        return std::string(kRows[std::get<0>(info.param)].name) + "_" +
               kVariants[std::get<1>(info.param)].key;
    });

// === Completeness and resume ===============================================

// The matrix is keyed by the field tables: every Runtime entry has a
// variant or an exemption naming the tests that cover it, and every
// variant or exemption names a live entry of the right scope.
TEST(EquivalenceMatrix, EveryRuntimeEntryHasAVariantOrAnExemption)
{
    std::set<std::string> runtime_keys;
    std::set<std::string> definition_keys;
    corpus::forEachConfigEntry([&](const std::string &key,
                                   corpus::Scope scope, bool) {
        if (scope == corpus::Scope::Definition) {
            definition_keys.insert(key);
            return;
        }
        runtime_keys.insert(key);
        EXPECT_TRUE(variantFor(key) || kExemptions.count(key))
            << "Runtime entry \"" << key << "\" has no variant in "
            << "tests/test_equivalence.cc and no exemption";
    });
    for (const Variant &v : kVariants) {
        EXPECT_TRUE((v.definition ? definition_keys : runtime_keys)
                        .count(v.key))
            << "variant \"" << v.key << "\" names no entry of its scope";
    }
    for (const auto &[key, covered_by] : kExemptions) {
        EXPECT_TRUE(runtime_keys.count(key))
            << "stale exemption \"" << key << "\" (" << covered_by << ")";
    }
}

// A corpus journaled with a boolean knob off resumes with it back at its
// default: the knob must not participate in the config fingerprint, or
// kill/resume workflows would wedge on a runtime setting. The resumed
// corpus must equal an uninterrupted all-defaults run.
TEST(EquivalenceMatrix, BooleanKnobsResumeAcrossTheirSettings)
{
    const Row &row = kRows[0];
    unsigned tested = 0;
    corpus::forEachConfigEntry([&](const std::string &key,
                                   corpus::Scope scope, bool is_bool) {
        const Variant *variant = variantFor(key);
        if (scope != corpus::Scope::Runtime || !is_bool || !variant)
            return;
        SCOPED_TRACE(key);
        ++tested;
        ScratchDir scratch("resume_" + key);
        core::CampaignConfig cfg =
            rowConfig(row, 1, BackendKind::InProcess);
        cfg.corpusDir = scratch.sub("c");
        variant->apply(cfg, cfg.corpusDir);
        cfg.maxProgramsThisRun = 3;
        core::Campaign(cfg).run();

        core::CampaignConfig resume_cfg =
            rowConfig(row, 1, BackendKind::InProcess);
        resume_cfg.corpusDir = cfg.corpusDir;
        resume_cfg.resume = true;
        EXPECT_EQ(core::Campaign(resume_cfg).run().programs,
                  cfg.numPrograms);
        EXPECT_EQ(reference(row).exported,
                  corpus::CorpusStore::exportCanonical(cfg.corpusDir));
    });
    EXPECT_GE(tested, 3u); // primeCache, cycleSkip, ctraceMemo
}

} // namespace
