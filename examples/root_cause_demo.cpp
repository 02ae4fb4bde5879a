/**
 * @file
 * Root-cause workflow demo (§3.3): fuzz the as-published CleanupSpec,
 * take the first confirmed violations, and render the paper's side-by-
 * side debug-log comparison (the Table 9-style view) for each unique
 * signature found.
 *
 * Build & run:   ./build/examples/root_cause_demo
 *
 * With a corpus directory argument the demo runs entirely offline: it
 * loads the journaled violations (see src/corpus/) instead of fuzzing,
 * which is how root-causing works from a persisted campaign:
 *
 *   ./build/examples/campaign_cli --defense cleanupspec \
 *        --corpus-dir /tmp/cs-corpus
 *   ./build/examples/root_cause_demo /tmp/cs-corpus
 */

#include <cstdio>
#include <set>

#include "core/campaign.hh"
#include "core/root_cause.hh"
#include "corpus/corpus_store.hh"
#include "corpus/serde.hh"
#include "isa/assembler.hh"

int
main(int argc, char **argv)
{
    using namespace amulet;

    core::CampaignConfig cfg;
    std::vector<core::ViolationRecord> records;

    if (argc > 1) {
        // Offline mode: config + records come from the corpus journal.
        const std::string dir = argv[1];
        try {
            cfg = corpus::CorpusStore::readConfig(dir);
            records = corpus::CorpusStore::readJournal(dir);
        } catch (const corpus::CorpusError &e) {
            std::fprintf(stderr, "root_cause_demo: %s\n", e.what());
            return 1;
        }
        std::printf("Loaded %zu violation(s) from corpus %s\n\n",
                    records.size(), dir.c_str());
    } else {
        cfg = core::paperCell(defense::DefenseKind::CleanupSpec);
        cfg.numPrograms = 120;
        cfg.seed = 17;

        std::printf("Fuzzing the as-published CleanupSpec (CT-SEQ)...\n\n");
        core::Campaign campaign(cfg);
        const core::CampaignStats stats = campaign.run();
        std::printf("%s\n", stats.report().c_str());
        records = stats.records;
    }

    executor::SimHarness harness(cfg.harness);
    std::set<std::string> shown;
    for (const auto &rec : records) {
        if (!shown.insert(rec.signature).second)
            continue; // one side-by-side view per unique signature
        std::printf("=============================================\n");
        std::printf("Violating program:\n%s\n", rec.programText.c_str());
        const isa::Program prog = isa::assemble(rec.programText);
        const isa::FlatProgram fp(prog, cfg.harness.map.codeBase);
        std::printf("%s\n",
                    core::renderSideBySide(harness, fp, rec).c_str());
    }
    if (shown.empty())
        std::printf("no violations found at this scale; increase "
                    "--programs or change the seed\n");
    return 0;
}
