/**
 * @file
 * Campaign CLI: run a configurable AMuLeT testing campaign from the
 * command line — choose the defense, contract, trace format, scale, and
 * amplification, exactly like driving the paper's artifact — and work
 * with persisted violation corpora.
 *
 * Usage examples:
 *   ./build/examples/campaign_cli --defense invisispec --programs 100
 *   ./build/examples/campaign_cli --defense speclfb --patched
 *   ./build/examples/campaign_cli --defense stt --contract ARCH-SEQ \
 *        --pages 128 --programs 100
 *   ./build/examples/campaign_cli --defense invisispec --patched \
 *        --ways 2 --mshrs 2            # Table 6 amplification
 *
 * Corpus workflow (src/corpus/):
 *   campaign_cli --corpus-dir corpus/ --programs 200       # journal
 *   campaign_cli --corpus-dir corpus/ --resume --jobs 8    # continue
 *   campaign_cli replay --corpus-dir corpus/               # re-confirm
 *   campaign_cli replay --corpus-dir corpus/ --minimize
 *   campaign_cli export --corpus-dir corpus/ --out corpus.jsonl
 *   campaign_cli merge --corpus-dir merged/ shard0/ shard1/
 *
 * Telemetry (src/telemetry/):
 *   campaign_cli --trace-out trace.json ...     # Perfetto-loadable
 *   campaign_cli --heartbeat - --jobs 8 ...     # live JSONL to stdout
 *   campaign_cli stats --corpus-dir corpus/     # persisted metrics
 *
 * Violation forensics (per-instruction pipeline traces):
 *   campaign_cli --corpus-dir corpus/ --uarch-trace-dir corpus/traces
 *   campaign_cli inspect corpus/ 0 --out report0/   # replay + localize
 */

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/campaign.hh"
#include "core/minimizer.hh"
#include "core/root_cause.hh"
#include "corpus/corpus_store.hh"
#include "corpus/fields.hh"
#include "corpus/replayer.hh"
#include "corpus/serde.hh"
#include "executor/backend.hh"
#include "isa/disasm.hh"
#include "telemetry/uarch_trace.hh"

namespace
{

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [run] [options]\n"
        "       %s replay --corpus-dir DIR [--minimize] [--root-cause]\n"
        "       %s export --corpus-dir DIR [--out FILE]\n"
        "       %s merge  --corpus-dir DST SRC...\n"
        "       %s stats  --corpus-dir DIR [--top N]\n"
        "       %s quarantined --corpus-dir DIR    list quarantined "
        "programs\n"
        "       %s inspect DIR INDEX [--out DIR]   violation forensics\n"
        "run options:\n"
        "  --defense NAME    baseline|invisispec|cleanupspec|stt|speclfb\n"
        "  --contract NAME   CT-SEQ|CT-COND|ARCH-SEQ   (default CT-SEQ)\n"
        "  --trace NAME      l1dtlb|l1dtlbl1i|bpstate|memorder|"
        "branchorder\n"
        "  --programs N      test programs (default 50)\n"
        "  --inputs N        base inputs per program (default 6)\n"
        "  --siblings N      siblings per base input (default 4)\n"
        "  --pages N         sandbox pages, a power of two in 1..128\n"
        "                    (default 1; STT uses 128)\n"
        "  --seed N          RNG seed (default 1)\n"
        "  --jobs N          worker threads (default 1; 0 = all cores)\n"
        "  --backend NAME    executor backend: inproc|subprocess\n"
        "                    (default inproc; results are identical, see "
        "--list)\n"
        "  --ways N          L1D ways (amplification)\n"
        "  --mshrs N         L1D MSHRs (amplification)\n"
        "  --boot-insts N    simulator boot-program length (default "
        "8000)\n"
        "  --patched         apply all published fixes to the defense\n"
        "  --no-filter       disable ineffective-test-case filtering\n"
        "  --no-prime-cache  re-simulate conflict-fill priming per input\n"
        "                    (runtime knob; results are identical, see "
        "--list)\n"
        "  --no-ctrace-memo  re-run the contract-trace emulator cold per\n"
        "                    input (runtime knob; results are identical, "
        "see --list)\n"
        "  --no-cycle-skip   simulate every quiescent cycle instead of\n"
        "                    fast-forwarding to the next event (runtime "
        "knob;\n"
        "                    results are identical, see --list)\n"
        "  --naive           AMuLeT-Naive (restart per input)\n"
        "  --invalidate      invalidate-hook cache reset (default: "
        "conflict fill)\n"
        "  --stop-first      stop at the first confirmed violation\n"
        "  --fault-plan SPEC deterministic chaos layer (testing; see\n"
        "                    src/runtime/fault.hh for the grammar; "
        "runtime\n"
        "                    knob — unaffected programs are identical, "
        "see --list)\n"
        "corpus options (run):\n"
        "  --corpus-dir DIR  journal confirmed violations + checkpoints\n"
        "  --resume          continue from DIR's checkpoint\n"
        "  --checkpoint-every N   programs per checkpoint (default 8)\n"
        "  --max-programs N  stop after N programs this process "
        "(resumable)\n"
        "telemetry options (run; observability only — results and "
        "exports are byte-identical on/off):\n"
        "  --trace-out FILE  write a Chrome/Perfetto trace-event JSON "
        "of every\n"
        "                    pipeline stage, backend op, and wire round "
        "trip\n"
        "  --heartbeat FILE  stream live campaign progress as JSONL "
        "('-' = stdout)\n"
        "  --heartbeat-interval SEC   seconds between heartbeat lines "
        "(default 1)\n"
        "  --uarch-trace-dir DIR      write per-instruction pipeline "
        "traces (Konata\n"
        "                    .kanata + Perfetto .pipetrace.json) for "
        "every journaled\n"
        "                    violation into DIR\n"
        "discovery:\n"
        "  --list            print every defense, contract, trace format "
        "and backend\n",
        argv0, argv0, argv0, argv0, argv0, argv0, argv0);
}

/** Flag-value discovery: every name each selector flag accepts. */
void
listChoices()
{
    std::printf("defenses (--defense):");
    for (amulet::defense::DefenseKind kind :
         amulet::defense::allDefenseKinds())
        std::printf(" %s", amulet::defense::defenseKindName(kind));
    std::printf("\ncontracts (--contract):");
    for (const auto &contract : amulet::contracts::allContracts())
        std::printf(" %s", contract.name.c_str());
    std::printf("\ntrace formats (--trace):");
    for (auto format : amulet::executor::allTraceFormats())
        std::printf(" %s", amulet::corpus::enumToken(format));
    std::printf("\nbackends (--backend):");
    for (auto backend : amulet::executor::allBackendKinds())
        std::printf(" %s", amulet::executor::backendKindName(backend));
    // Runtime knobs never change campaign results (violations,
    // signatures, counters, record bytes) — only how/where the same
    // work runs. They are excluded from the corpus config fingerprint.
    std::printf("\nruntime knobs: --jobs --backend --no-prime-cache "
                "--no-ctrace-memo --no-cycle-skip --fault-plan\n"
                "(prime cache + ctrace memo + cycle skip default: on; "
                "fault plan default: off)\n");
}

/**
 * Parse a non-negative integer argument, or die with a friendly message
 * (exit 2) instead of the uncaught-exception/garbage-value behaviour of
 * the stoi/atoi family.
 */
std::uint64_t
parseNum(const char *flag, const char *text)
{
    errno = 0;
    char *end = nullptr;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' ||
        std::strchr(text, '-') != nullptr) {
        std::fprintf(stderr,
                     "campaign_cli: invalid value '%s' for %s "
                     "(expected a non-negative integer)\n",
                     text, flag);
        std::exit(2);
    }
    return value;
}

unsigned
parseU32(const char *flag, const char *text)
{
    const std::uint64_t value = parseNum(flag, text);
    if (value > ~0u) {
        std::fprintf(stderr, "campaign_cli: value '%s' for %s is too "
                             "large\n",
                     text, flag);
        std::exit(2);
    }
    return static_cast<unsigned>(value);
}

/** Parse a positive seconds value (fractions allowed). */
double
parseSec(const char *flag, const char *text)
{
    errno = 0;
    char *end = nullptr;
    const double value = std::strtod(text, &end);
    if (errno != 0 || end == text || *end != '\0' || !(value > 0)) {
        std::fprintf(stderr,
                     "campaign_cli: invalid value '%s' for %s "
                     "(expected a positive number of seconds)\n",
                     text, flag);
        std::exit(2);
    }
    return value;
}

[[noreturn]] void
unknownOption(const char *argv0, const std::string &arg)
{
    std::fprintf(stderr, "campaign_cli: unknown option '%s'; valid "
                         "options are:\n",
                 arg.c_str());
    usage(argv0);
    std::exit(2);
}

/** Load a corpus (config + journal) or die with a readable error. */
struct LoadedCorpus
{
    amulet::core::CampaignConfig config;
    std::vector<amulet::core::ViolationRecord> records;
};

LoadedCorpus
loadCorpus(const std::string &dir)
{
    using namespace amulet;
    if (dir.empty()) {
        std::fprintf(stderr, "campaign_cli: --corpus-dir is required for "
                             "this subcommand\n");
        std::exit(2);
    }
    try {
        LoadedCorpus corpus;
        corpus.config = corpus::CorpusStore::readConfig(dir);
        corpus.records = corpus::CorpusStore::readJournal(dir);
        return corpus;
    } catch (const corpus::CorpusError &e) {
        std::fprintf(stderr, "campaign_cli: %s\n", e.what());
        std::exit(1);
    }
}

int
cmdReplay(const std::string &dir, bool minimize, bool root_cause)
{
    using namespace amulet;
    const LoadedCorpus corpus = loadCorpus(dir);
    std::printf("replaying %zu record(s) from %s\n",
                corpus.records.size(), dir.c_str());
    executor::SimHarness harness(corpus.config.harness);
    contracts::LeakageModel model(corpus.config.contract);
    unsigned failures = 0;
    for (std::size_t i = 0; i < corpus.records.size(); ++i) {
        const core::ViolationRecord &rec = corpus.records[i];
        corpus::ReplayOutcome outcome;
        try {
            outcome = corpus::replayViolation(harness, rec);
        } catch (const corpus::CorpusError &e) {
            std::fprintf(stderr, "campaign_cli: record %zu: %s\n", i,
                         e.what());
            return 1;
        }
        std::printf("[%zu] %s: %s\n", i, rec.summary().c_str(),
                    outcome.confirmed() ? "CONFIRMED" : "FAILED");
        if (!outcome.confirmed()) {
            ++failures;
            std::printf("     %s\n", outcome.detail.c_str());
            continue;
        }
        if (minimize) {
            const isa::Program prog = corpus::reparseProgram(rec);
            const core::MinimizeResult reduced = core::minimizeViolation(
                harness, model, corpus.config.harness.map, prog, rec);
            std::printf("     minimized: %u insts removed (%u checks); "
                        "reduced listing:\n%s\n",
                        reduced.removedInsts, reduced.checks,
                        isa::formatProgram(reduced.program).c_str());
        }
        if (root_cause) {
            const isa::Program prog = corpus::reparseProgram(rec);
            const isa::FlatProgram fp(prog,
                                      corpus.config.harness.map.codeBase);
            std::printf("%s\n",
                        core::renderSideBySide(harness, fp, rec).c_str());
        }
    }
    std::printf("replay: %zu confirmed, %u failed\n",
                corpus.records.size() - failures, failures);
    return failures == 0 ? 0 : 1;
}

int
cmdExport(const std::string &dir, const std::string &out_file)
{
    using namespace amulet;
    if (dir.empty()) {
        std::fprintf(stderr, "campaign_cli: --corpus-dir is required for "
                             "this subcommand\n");
        return 2;
    }
    try {
        // One journal pass serves both the export text and the listing.
        const auto records = corpus::CorpusStore::readJournal(dir);
        const std::string text =
            corpus::CorpusStore::exportCanonical(dir, records);
        if (out_file.empty()) {
            fputs(text.c_str(), stdout);
            return 0;
        }
        std::FILE *f = std::fopen(out_file.c_str(), "wb");
        if (!f) {
            std::fprintf(stderr, "campaign_cli: cannot write %s\n",
                         out_file.c_str());
            return 1;
        }
        const bool wrote =
            std::fwrite(text.data(), 1, text.size(), f) == text.size();
        if (std::fclose(f) != 0 || !wrote) {
            std::fprintf(stderr, "campaign_cli: short write to %s "
                                 "(disk full?)\n",
                         out_file.c_str());
            return 1;
        }
        // The one-line summaries make the listing self-describing
        // without loading full records.
        std::printf("exported %zu record(s) to %s\n", records.size(),
                    out_file.c_str());
        for (const auto &rec : records)
            std::printf("  %s\n", rec.summary().c_str());
        return 0;
    } catch (const corpus::CorpusError &e) {
        std::fprintf(stderr, "campaign_cli: %s\n", e.what());
        return 1;
    }
}

int
cmdStats(const std::string &dir, unsigned top)
{
    using namespace amulet;
    if (dir.empty()) {
        std::fprintf(stderr, "campaign_cli: --corpus-dir is required for "
                             "this subcommand\n");
        return 2;
    }
    const std::string text = corpus::CorpusStore::readMetricsText(dir);
    if (text.empty()) {
        // Corpora journaled before the telemetry layer existed have no
        // metrics.json; that is a state of the corpus, not a usage
        // error (exit 2 so scripts can tell it from malformed data).
        std::fprintf(stderr,
                     "campaign_cli: %s has no metrics.json — the corpus "
                     "predates campaign telemetry or the campaign ran "
                     "without --corpus-dir persistence.\nRe-run the "
                     "campaign (or `run --resume`) with this version to "
                     "collect metrics.\n",
                     dir.c_str());
        return 2;
    }
    try {
        const corpus::Json doc = corpus::Json::parse(text);
        const corpus::Json &metrics = doc.at("metrics");
        auto timer_sec = [&](const char *name) -> double {
            const corpus::Json *m = metrics.find(name);
            return m ? m->at("totalSec").asDouble() : 0.0;
        };

        // Campaign-phase + harness-section breakdown, in pipeline
        // order (the table-2 shape of stats.report()).
        std::printf("time breakdown (worker-seconds):\n");
        static const struct
        {
            const char *metric;
            const char *label;
        } kSections[] = {
            {"time.testGen", "test generation"},
            {"time.ctrace", "contract traces"},
            {"time.filter", "filtering"},
            {"time.startup", "sim startup"},
            {"time.prime", "cache priming"},
            {"time.simulate", "simulation"},
            {"time.traceExtract", "trace extract"},
        };
        for (const auto &section : kSections)
            std::printf("  %-16s %10.3f\n", section.label,
                        timer_sec(section.metric));

        std::printf("counters:\n");
        for (const auto &[name, value] : metrics.members()) {
            const std::string kind = value.at("kind").asStr();
            if (kind == "counter") {
                std::printf("  %-32s %12llu\n", name.c_str(),
                            static_cast<unsigned long long>(
                                value.at("value").asU64()));
            } else if (kind == "gauge") {
                std::printf("  %-32s %12.3f\n", name.c_str(),
                            value.at("value").asDouble());
            }
        }

        if (const corpus::Json *lat = metrics.find("sim.inputLatencySec")) {
            std::printf("sim input latency: p50=%.1fus p95=%.1fus "
                        "p99=%.1fus mean=%.1fus (n=%llu)\n",
                        lat->at("p50").asDouble() * 1e6,
                        lat->at("p95").asDouble() * 1e6,
                        lat->at("p99").asDouble() * 1e6,
                        lat->at("mean").asDouble() * 1e6,
                        static_cast<unsigned long long>(
                            lat->at("count").asU64()));
        }

        if (const corpus::Json *skip = metrics.find("sim.skipCycles")) {
            auto counter_of = [&metrics](const char *name) {
                const corpus::Json *c = metrics.find(name);
                return c ? c->at("value").asU64() : std::uint64_t{0};
            };
            std::printf("cycle skipping: %llu cycles elided over %llu "
                        "windows; window p50=%.0f p95=%.0f p99=%.0f "
                        "mean=%.1f cycles\n",
                        static_cast<unsigned long long>(
                            counter_of("sim.skippedCycles")),
                        static_cast<unsigned long long>(
                            counter_of("sim.skipWindows")),
                        skip->at("p50").asDouble(),
                        skip->at("p95").asDouble(),
                        skip->at("p99").asDouble(),
                        skip->at("mean").asDouble());
        }

        const corpus::Json &spans = doc.at("topSpans");
        std::printf("slowest spans:\n");
        unsigned shown = 0;
        for (const corpus::Json &span : spans.items()) {
            if (shown++ >= top)
                break;
            const std::int64_t program = static_cast<std::int64_t>(
                span.at("program").asDouble());
            std::printf("  %-20s %10.3fs  %-12s",
                        span.at("name").asStr().c_str(),
                        span.at("seconds").asDouble(),
                        span.at("track").asStr().c_str());
            if (program >= 0)
                std::printf("  program %lld",
                            static_cast<long long>(program));
            std::printf("\n");
        }
        if (shown == 0)
            std::printf("  (none recorded)\n");
        return 0;
    } catch (const corpus::CorpusError &e) {
        std::fprintf(stderr, "campaign_cli: malformed metrics.json in %s: "
                             "%s\n",
                     dir.c_str(), e.what());
        return 1;
    }
}

/**
 * Violation forensics (`inspect DIR INDEX`): replay one journaled
 * violation with the per-instruction pipeline tracer attached and write
 * a report directory:
 *
 *   report.txt           replay verdict + the first divergent
 *                        instruction (Spectector-style localization —
 *                        the earliest microarchitectural difference
 *                        between the leaking input pair)
 *   inputA.kanata        Konata-loadable pipeline trace, input A
 *   inputB.kanata        ... input B
 *   inputA.o3pipe.txt    gem5 O3PipeView text, input A
 *   inputB.o3pipe.txt    ... input B
 *   pipeline.trace.json  both runs as one Chrome/Perfetto trace
 *   sidebyside.txt       attacker-observation diff (root-cause view)
 *
 * Purely read-only with respect to the corpus: the replay builds its
 * own throwaway SimHarness from the journaled config.
 */
int
cmdInspect(const std::string &dir, const std::string &index_text,
           std::string out_dir)
{
    using namespace amulet;
    const LoadedCorpus corpus = loadCorpus(dir);
    const std::uint64_t index = parseNum("record index", index_text.c_str());
    if (index >= corpus.records.size()) {
        std::fprintf(stderr,
                     "campaign_cli: record %llu out of range (%s has "
                     "%zu record(s))\n",
                     static_cast<unsigned long long>(index), dir.c_str(),
                     corpus.records.size());
        return 2;
    }
    const core::ViolationRecord &rec = corpus.records[index];
    if (out_dir.empty())
        out_dir = dir + "/inspect/record" + std::to_string(index);

    executor::SimHarness harness(corpus.config.harness);
    telemetry::UarchTracer tracer;
    harness.setUarchTracer(&tracer);
    // replayViolation runs exactly inputA then inputB (each from its
    // saved context), so the tracer captures exactly two runs.
    corpus::ReplayOutcome outcome;
    try {
        outcome = corpus::replayViolation(harness, rec);
    } catch (const corpus::CorpusError &e) {
        std::fprintf(stderr, "campaign_cli: %s\n", e.what());
        return 1;
    }
    harness.setUarchTracer(nullptr);
    std::vector<telemetry::UarchRunTrace> runs = tracer.takeRuns();
    if (runs.size() != 2) {
        std::fprintf(stderr,
                     "campaign_cli: replay produced %zu traced run(s), "
                     "expected 2\n",
                     runs.size());
        return 1;
    }
    runs[0].label = "inputA";
    runs[1].label = "inputB";
    const telemetry::Divergence div =
        telemetry::firstDivergence(runs[0], runs[1]);

    // The side-by-side view re-runs with event logging; the tracer is
    // already detached, so those runs stay out of the pipeline traces.
    const isa::Program prog = corpus::reparseProgram(rec);
    const isa::FlatProgram fp(prog, corpus.config.harness.map.codeBase);
    const std::string side = core::renderSideBySide(harness, fp, rec);

    std::string report;
    report += "violation forensics: " + dir + " record " +
              std::to_string(index) + "\n";
    report += rec.summary() + "\n\n";
    report += "== replay ==\n";
    report += std::string("inputA reproduced: ") +
              (outcome.reproducedA ? "yes" : "no") + "\n";
    report += std::string("inputB reproduced: ") +
              (outcome.reproducedB ? "yes" : "no") + "\n";
    report += std::string("traces diverge:    ") +
              (outcome.diverges ? "yes" : "no") + "\n";
    report += std::string("verdict: ") +
              (outcome.confirmed() ? "CONFIRMED" : "FAILED") + "\n";
    if (!outcome.detail.empty())
        report += "detail: " + outcome.detail + "\n";
    report += "\n== first divergent instruction ==\n";
    if (div.found) {
        char pc_text[32];
        std::snprintf(pc_text, sizeof pc_text, "0x%08" PRIx64, div.pc);
        report += "inst #" + std::to_string(div.idx) + " @" + pc_text +
                  ": " + div.disasm + "\n";
        report += "difference: " + div.what + "\n";
        report += "  inputA: " + div.detailA + "\n";
        report += "  inputB: " + div.detailB + "\n";
    } else {
        report += "(no microarchitectural divergence found — the runs "
                  "executed identically)\n";
    }
    report += "\n== artifacts ==\n"
              "inputA.kanata / inputB.kanata      Konata pipeline "
              "traces\n"
              "inputA.o3pipe.txt / inputB.o3pipe.txt  gem5 O3PipeView "
              "text\n"
              "pipeline.trace.json                Chrome/Perfetto, both "
              "runs\n"
              "sidebyside.txt                     attacker-observation "
              "diff\n";

    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(out_dir, ec);
    if (ec) {
        std::fprintf(stderr, "campaign_cli: cannot create %s: %s\n",
                     out_dir.c_str(), ec.message().c_str());
        return 1;
    }
    bool wrote = true;
    auto put = [&](const char *name, const std::string &text) {
        std::ofstream f(out_dir + "/" + name, std::ios::binary);
        f << text;
        wrote = wrote && f.good();
    };
    put("report.txt", report);
    put("inputA.kanata", telemetry::exportKanata(runs[0]));
    put("inputB.kanata", telemetry::exportKanata(runs[1]));
    put("inputA.o3pipe.txt", telemetry::exportO3PipeView(runs[0]));
    put("inputB.o3pipe.txt", telemetry::exportO3PipeView(runs[1]));
    put("pipeline.trace.json",
        telemetry::exportUarchChromeTrace(runs));
    put("sidebyside.txt", side);
    if (!wrote) {
        std::fprintf(stderr,
                     "campaign_cli: short write under %s (disk full?)\n",
                     out_dir.c_str());
        return 1;
    }

    std::printf("%s", report.c_str());
    std::printf("\nreport written to %s\n", out_dir.c_str());
    return outcome.confirmed() ? 0 : 1;
}

int
cmdMerge(const std::string &dst, const std::vector<std::string> &srcs)
{
    using namespace amulet;
    if (dst.empty() || srcs.empty()) {
        std::fprintf(stderr, "campaign_cli: merge needs --corpus-dir DST "
                             "and at least one SRC dir\n");
        return 2;
    }
    try {
        const std::size_t added = corpus::CorpusStore::mergeInto(dst, srcs);
        std::printf("merged %zu new record(s) into %s\n", added,
                    dst.c_str());
        return 0;
    } catch (const corpus::CorpusError &e) {
        std::fprintf(stderr, "campaign_cli: %s\n", e.what());
        return 1;
    }
}

/**
 * List quarantined programs (`quarantined --corpus-dir DIR`): one
 * `programIndex<TAB>reason` line per quarantined program, in program
 * order. Exit 0 whether or not any exist — an empty list is a healthy
 * corpus, not an error — so scripts gate on the line count.
 */
int
cmdQuarantined(const std::string &dir)
{
    using namespace amulet;
    if (dir.empty()) {
        std::fprintf(stderr, "campaign_cli: --corpus-dir is required for "
                             "this subcommand\n");
        return 2;
    }
    try {
        for (const auto &entry : corpus::CorpusStore::readQuarantined(dir))
            std::printf("%u\t%s\n", entry.programIndex,
                        entry.reason.c_str());
        return 0;
    } catch (const corpus::CorpusError &e) {
        std::fprintf(stderr, "campaign_cli: %s\n", e.what());
        return 1;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace amulet;

    // Subcommand dispatch: "run" is implicit when the first argument is
    // a flag (backwards compatible with the pre-corpus CLI).
    std::string command = "run";
    int first_arg = 1;
    if (argc > 1 && argv[1][0] != '-') {
        command = argv[1];
        first_arg = 2;
        if (command != "run" && command != "replay" && command != "export"
            && command != "merge" && command != "stats"
            && command != "quarantined" && command != "inspect") {
            std::fprintf(stderr, "campaign_cli: unknown subcommand '%s'\n",
                         command.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    core::CampaignConfig cfg;
    cfg.numPrograms = 50;
    cfg.baseInputsPerProgram = 6;
    cfg.siblingsPerBase = 4;
    bool patched = false;
    defense::DefenseKind kind = defense::DefenseKind::Baseline;
    std::string corpus_dir;
    std::string out_file;
    std::vector<std::string> positional;
    bool minimize = false;
    bool root_cause = false;
    unsigned stats_top = 20;

    std::string current_arg;
    // Silently ignoring a flag the subcommand never reads (e.g.
    // `replay --patched`) would let the user misattribute results to a
    // configuration that was never applied.
    auto only = [&](const char *valid_command) {
        if (command != valid_command) {
            std::fprintf(stderr,
                         "campaign_cli: %s is only valid for the %s "
                         "subcommand\n",
                         current_arg.c_str(), valid_command);
            std::exit(2);
        }
    };

    for (int i = first_arg; i < argc; ++i) {
        const std::string arg = argv[i];
        current_arg = arg;
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "campaign_cli: %s needs an argument\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (arg == "--list") {
            listChoices();
            return 0;
        } else if (arg[0] != '-') {
            positional.push_back(arg);
        } else if (arg == "--defense") {
            only("run");
            auto k = defense::parseDefenseKind(next());
            if (!k) {
                std::fprintf(stderr, "campaign_cli: unknown defense\n");
                return 2;
            }
            kind = *k;
        } else if (arg == "--contract") {
            only("run");
            auto c = contracts::findContract(next());
            if (!c) {
                std::fprintf(stderr, "campaign_cli: unknown contract\n");
                return 2;
            }
            cfg.contract = *c;
        } else if (arg == "--trace") {
            only("run");
            auto f = executor::parseTraceFormat(next());
            if (!f) {
                std::fprintf(stderr,
                             "campaign_cli: unknown trace format\n");
                return 2;
            }
            cfg.harness.traceFormat = *f;
        } else if (arg == "--programs") {
            only("run");
            cfg.numPrograms = parseU32("--programs", next());
        } else if (arg == "--inputs") {
            only("run");
            cfg.baseInputsPerProgram = parseU32("--inputs", next());
        } else if (arg == "--siblings") {
            only("run");
            cfg.siblingsPerBase = parseU32("--siblings", next());
        } else if (arg == "--pages") {
            only("run");
            const unsigned pages = parseU32("--pages", next());
            if (!mem::AddressMap::validSandboxPages(pages)) {
                std::fprintf(stderr,
                             "campaign_cli: --pages must be a power of "
                             "two in 1..%u (got %u)\n",
                             mem::kMaxSandboxPages, pages);
                return 2;
            }
            cfg.harness.map.sandboxPages = pages;
        } else if (arg == "--seed") {
            only("run");
            cfg.seed = parseNum("--seed", next());
        } else if (arg == "--jobs") {
            only("run");
            cfg.jobs = parseU32("--jobs", next());
        } else if (arg == "--backend") {
            only("run");
            const char *name = next();
            auto b = executor::parseBackendKind(name);
            if (!b) {
                std::fprintf(stderr,
                             "campaign_cli: unknown backend '%s' "
                             "(valid:",
                             name);
                for (auto kind : executor::allBackendKinds())
                    std::fprintf(stderr, " %s",
                                 executor::backendKindName(kind));
                std::fprintf(stderr, ")\n");
                return 2;
            }
            cfg.backend = *b;
        } else if (arg == "--ways") {
            only("run");
            cfg.harness.core.l1d.ways = parseU32("--ways", next());
        } else if (arg == "--mshrs") {
            only("run");
            cfg.harness.core.l1dMshrs = parseU32("--mshrs", next());
        } else if (arg == "--boot-insts") {
            only("run");
            cfg.harness.bootInsts = parseU32("--boot-insts", next());
        } else if (arg == "--patched") {
            only("run");
            patched = true;
        } else if (arg == "--no-filter") {
            only("run");
            cfg.filterIneffective = false;
        } else if (arg == "--no-prime-cache") {
            only("run");
            cfg.harness.primeCache = false;
        } else if (arg == "--no-ctrace-memo") {
            only("run");
            cfg.ctraceMemo = false;
        } else if (arg == "--no-cycle-skip") {
            only("run");
            cfg.harness.cycleSkip = false;
        } else if (arg == "--naive") {
            only("run");
            cfg.harness.naiveMode = true;
        } else if (arg == "--invalidate") {
            only("run");
            cfg.harness.prime = executor::PrimeMode::Invalidate;
        } else if (arg == "--stop-first") {
            only("run");
            cfg.stopAtFirstViolation = true;
        } else if (arg == "--fault-plan") {
            only("run");
            cfg.faultPlan = next();
        } else if (arg == "--corpus-dir") {
            corpus_dir = next();
        } else if (arg == "--resume") {
            only("run");
            cfg.resume = true;
        } else if (arg == "--checkpoint-every") {
            only("run");
            cfg.checkpointEvery = parseU32("--checkpoint-every", next());
        } else if (arg == "--max-programs") {
            only("run");
            cfg.maxProgramsThisRun = parseU32("--max-programs", next());
        } else if (arg == "--trace-out") {
            only("run");
            cfg.telemetry.traceOutPath = next();
        } else if (arg == "--heartbeat") {
            only("run");
            cfg.telemetry.heartbeatPath = next();
        } else if (arg == "--heartbeat-interval") {
            only("run");
            cfg.telemetry.heartbeatIntervalSec =
                parseSec("--heartbeat-interval", next());
        } else if (arg == "--uarch-trace-dir") {
            only("run");
            cfg.telemetry.uarchTraceDir = next();
        } else if (arg == "--top") {
            only("stats");
            stats_top = parseU32("--top", next());
        } else if (arg == "--out") {
            if (command != "export" && command != "inspect") {
                std::fprintf(stderr,
                             "campaign_cli: --out is only valid for the "
                             "export and inspect subcommands\n");
                return 2;
            }
            out_file = next();
        } else if (arg == "--minimize") {
            only("replay");
            minimize = true;
        } else if (arg == "--root-cause") {
            only("replay");
            root_cause = true;
        } else {
            unknownOption(argv[0], arg);
        }
    }

    // Only merge (SRC corpus dirs) and inspect (DIR INDEX) take
    // positional operands; anywhere else a stray operand is a typo that
    // must not be silently ignored.
    if (command != "merge" && command != "inspect" &&
        !positional.empty()) {
        std::fprintf(stderr, "campaign_cli: unexpected argument '%s'\n",
                     positional.front().c_str());
        usage(argv[0]);
        return 2;
    }

    if (command == "replay")
        return cmdReplay(corpus_dir, minimize, root_cause);
    if (command == "export")
        return cmdExport(corpus_dir, out_file);
    if (command == "merge")
        return cmdMerge(corpus_dir, positional);
    if (command == "stats")
        return cmdStats(corpus_dir, stats_top);
    if (command == "quarantined")
        return cmdQuarantined(corpus_dir);
    if (command == "inspect") {
        std::string index_text;
        if (corpus_dir.empty() && positional.size() == 2) {
            corpus_dir = positional[0];
            index_text = positional[1];
        } else if (!corpus_dir.empty() && positional.size() == 1) {
            index_text = positional[0];
        } else {
            std::fprintf(stderr,
                         "campaign_cli: inspect needs a corpus dir and "
                         "a record index\n");
            usage(argv[0]);
            return 2;
        }
        return cmdInspect(corpus_dir, index_text, out_file);
    }

    if (cfg.resume && corpus_dir.empty()) {
        std::fprintf(stderr, "campaign_cli: --resume requires "
                             "--corpus-dir (nothing to resume from)\n");
        return 2;
    }
    if (!cfg.harness.core.validGeometry()) {
        std::fprintf(stderr,
                     "campaign_cli: --ways %u --mshrs %u: the L1D needs a "
                     "power-of-two set count and at least one MSHR\n",
                     cfg.harness.core.l1d.ways, cfg.harness.core.l1dMshrs);
        return 2;
    }
    cfg.corpusDir = corpus_dir;
    cfg.harness.defense =
        patched ? defense::DefenseConfig::patched(kind)
                : defense::DefenseConfig{};
    cfg.harness.defense.kind = kind;
    // Paper defaults: CleanupSpec/SpecLFB reset caches via the hook.
    if ((kind == defense::DefenseKind::CleanupSpec ||
         kind == defense::DefenseKind::SpecLfb)) {
        cfg.harness.prime = executor::PrimeMode::Invalidate;
    }

    std::printf("campaign: defense=%s%s contract=%s trace=%s programs=%u "
                "inputs=%u x %u pages=%u seed=%llu jobs=%u "
                "backend=%s%s%s%s%s%s%s%s%s\n\n",
                defense::defenseKindName(kind), patched ? " (patched)" : "",
                cfg.contract.name.c_str(),
                executor::traceFormatName(cfg.harness.traceFormat),
                cfg.numPrograms, cfg.baseInputsPerProgram,
                1 + cfg.siblingsPerBase, cfg.harness.map.sandboxPages,
                static_cast<unsigned long long>(cfg.seed), cfg.jobs,
                executor::backendKindName(cfg.backend),
                cfg.filterIneffective ? "" : " NOFILTER",
                cfg.harness.primeCache ? "" : " NOPRIMECACHE",
                cfg.ctraceMemo ? "" : " NOCTRACEMEMO",
                cfg.harness.cycleSkip ? "" : " NOCYCLESKIP",
                cfg.harness.naiveMode ? " NAIVE" : "",
                cfg.corpusDir.empty() ? "" : " corpus=",
                cfg.corpusDir.c_str(), cfg.resume ? " (resume)" : "");

    try {
        core::Campaign campaign(cfg);
        const core::CampaignStats stats = campaign.run();
        std::printf("%s\n", stats.report().c_str());
        for (const auto &rec : stats.records)
            std::printf("  %s\n", rec.summary().c_str());
    } catch (const corpus::CorpusError &e) {
        std::fprintf(stderr, "campaign_cli: %s\n", e.what());
        return 1;
    } catch (const std::exception &e) {
        // Telemetry I/O failures (unwritable --trace-out/--heartbeat
        // paths) surface here.
        std::fprintf(stderr, "campaign_cli: %s\n", e.what());
        return 1;
    }
    return 0;
}
