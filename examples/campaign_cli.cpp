/**
 * @file
 * Campaign CLI: run a configurable AMuLeT testing campaign from the
 * command line — choose the defense, contract, trace format, scale, and
 * amplification, exactly like driving the paper's artifact — and work
 * with persisted violation corpora.
 *
 * A run starts from its defense's paper cell (core::paperCell): STT on
 * ARCH-SEQ with a 128-page sandbox, CleanupSpec and SpecLFB resetting
 * caches through the invalidation hook. Every other flag edits that
 * cell wherever it stands, so `--pages 1 --defense stt` runs one page.
 *
 * A flag is one row of kFlags: its name, argument, help, the subcommands
 * that accept it, the field-table key (src/corpus/fields.hh) of the
 * config field it sets, and its setter. The parser, the subcommand
 * scoping, --help, --list and the run banner all read those rows; the
 * runtime-knobs line of --list names every row whose key is a Runtime
 * entry. A subcommand is one row of kCommands.
 *
 * Usage examples:
 *   ./build/examples/campaign_cli --defense invisispec --programs 100
 *   ./build/examples/campaign_cli --defense speclfb --patched
 *   ./build/examples/campaign_cli --defense stt --programs 100
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
 *   campaign_cli inspect corpus/ 0 --out report0/   # replay + localize
 *   campaign_cli inspect corpus/    # every record, corpus/inspect/record<i>/
 */

#include <strings.h>

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
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

using namespace amulet;
using Cfg = core::CampaignConfig;
using Harness = executor::HarnessConfig;
using Telemetry = telemetry::TelemetryConfig;

/** The subcommands, as bits of Flag::commands. */
enum : unsigned
{
    kRun = 1u << 0,
    kReplay = 1u << 1,
    kExport = 1u << 2,
    kMerge = 1u << 3,
    kStats = 1u << 4,
    kQuarantined = 1u << 5,
    kInspect = 1u << 6,
    kAny = (1u << 7) - 1,
};

struct Flag;

/** What the flags set. */
struct Options
{
    /** The paper cell, set by the defense rows before cfg is built. */
    defense::DefenseKind kind = defense::DefenseKind::Baseline;
    bool patched = false;
    Cfg cfg;
    std::string out;
    bool minimize = false;
    unsigned top = 20;
    std::vector<std::string> operands;
    /** Every flag given, with its argument (null for a switch). */
    std::vector<std::pair<const Flag *, const char *>> given;
};

/** All of @p text as a T: an unsigned integer that fits T, or a positive
 *  double. */
template <class T>
T
number(const char *text)
{
    T value{};
    const char *end = text + std::strlen(text);
    const auto [stop, ec] = std::from_chars(text, end, value);
    if (ec == std::errc{} && stop == end &&
        (std::is_integral_v<T> || value > 0))
        return value;
    std::string expected = "a positive number";
    if constexpr (std::is_integral_v<T>)
        expected = "an integer in 0.." +
                   std::to_string(std::numeric_limits<T>::max());
    throw std::invalid_argument("invalid value '" + std::string(text) +
                                "' (expected " + expected + ")");
}

/** The values a choice flag accepts: their noun and names. */
struct Choices
{
    const char *what;
    std::vector<std::string> names;
};

/** The index of @p text in @p choices, ignoring case. */
std::size_t
pick(const Choices &choices, const char *text)
{
    std::string valid;
    for (std::size_t i = 0; i < choices.names.size(); ++i) {
        if (strcasecmp(text, choices.names[i].c_str()) == 0)
            return i;
        valid += " " + choices.names[i];
    }
    throw std::invalid_argument(std::string("unknown ") + choices.what +
                                " '" + text + "' (valid:" + valid + ")");
}

/** An enum's choices: its field-table tokens. */
template <class E>
Choices
tokens()
{
    Choices choices{corpus::Tokens<E>::what, {}};
    for (const auto &[value, token] : corpus::Tokens<E>::list)
        choices.names.emplace_back(token);
    return choices;
}

Choices
contractNames()
{
    Choices choices{"contract", {}};
    for (const auto &contract : contracts::allContracts())
        choices.names.push_back(contract.name);
    return choices;
}

// A member path names a field of Options from the outside in, the way a
// field-table entry names its member: assign<kCfg, &Cfg::seed> parses a
// flag's argument into o.cfg.seed.
constexpr auto kCfg = &Options::cfg;
constexpr auto kHarness = &Cfg::harness;

/** Parse @p arg into the field at @p path by its type: an enum by its
 *  field-table token, a string as is, a number by number(). */
template <auto... path>
void
assign(Options &o, const char *arg)
{
    auto &field = (o .* ... .* path);
    using T = std::remove_reference_t<decltype(field)>;
    if constexpr (std::is_enum_v<T>)
        field = corpus::Tokens<T>::list[pick(tokens<T>(), arg)].first;
    else if constexpr (std::is_same_v<T, std::string>)
        field = arg;
    else
        field = number<T>(arg);
}

/** A switch: store @p value at @p path. */
template <auto value, auto... path>
void
put(Options &o, const char *)
{
    (o .* ... .* path) = value;
}

/** The banner text of the field at @p path. */
template <auto... path>
std::string
shown(const Options &o)
{
    const auto &field = (o .* ... .* path);
    using T = std::remove_cvref_t<decltype(field)>;
    if constexpr (std::is_enum_v<T>)
        return corpus::enumToken(field);
    else if constexpr (std::is_same_v<T, std::string>)
        return field;
    else
        return std::to_string(field);
}

/** One flag. */
struct Flag
{
    const char *name;
    /** Placeholder of its argument; null for a switch. */
    const char *arg;
    const char *help;
    /** The subcommands that accept it. */
    unsigned commands;
    /** Field-table key of the config field it sets (null: none). A row
     *  that sets the defense picks the paper cell. */
    const char *key;
    void (*set)(Options &o, const char *arg);
    /** Its value in the run banner (null: none; a switch shows its tag
     *  when given). */
    std::string (*show)(const Options &o) = nullptr;
    /** The values it accepts, for --list (null: any). */
    Choices (*choices)() = nullptr;
    /** A second name for it (null: none). */
    const char *alias = nullptr;
};

void usage(std::FILE *out);
void listChoices();

/** Report a usage error, "campaign_cli: @p what" (and the usage with
 *  @p withUsage), and return its exit status, 2. */
int
usageError(const std::string &what, bool withUsage = false)
{
    std::fprintf(stderr, "campaign_cli: %s\n", what.c_str());
    if (withUsage)
        usage(stderr);
    return 2;
}

const Flag kFlags[] = {
    {"--defense", "NAME", "defense and its paper cell (default Baseline)",
     kRun, "defense", assign<&Options::kind>, shown<&Options::kind>,
     tokens<defense::DefenseKind>},
    {"--patched", nullptr, "apply every published fix to the defense", kRun,
     "defense", put<true, &Options::patched>},
    {"--contract", "NAME", "contract (default CT-SEQ; STT: ARCH-SEQ)", kRun,
     "contract",
     [](Options &o, const char *arg) {
         o.cfg.contract = contracts::allContracts()[pick(contractNames(), arg)];
     },
     shown<kCfg, &Cfg::contract, &contracts::ContractSpec::name>,
     contractNames},
    {"--trace", "NAME", "uarch trace format (default l1dtlb)", kRun,
     "traceFormat", assign<kCfg, kHarness, &Harness::traceFormat>,
     shown<kCfg, kHarness, &Harness::traceFormat>,
     tokens<executor::TraceFormat>},
    {"--programs", "N", "test programs (default 50)", kRun, "numPrograms",
     assign<kCfg, &Cfg::numPrograms>, shown<kCfg, &Cfg::numPrograms>},
    {"--inputs", "N", "base inputs per program (default 6)", kRun,
     "baseInputsPerProgram", assign<kCfg, &Cfg::baseInputsPerProgram>,
     shown<kCfg, &Cfg::baseInputsPerProgram>},
    {"--siblings", "N", "siblings per base input (default 4)", kRun,
     "siblingsPerBase", assign<kCfg, &Cfg::siblingsPerBase>,
     shown<kCfg, &Cfg::siblingsPerBase>},
    {"--pages", "N", "sandbox pages, a power of two in 1..128 (STT: 128)",
     kRun, "sandboxPages",
     assign<kCfg, kHarness, &Harness::map, &mem::AddressMap::sandboxPages>,
     shown<kCfg, kHarness, &Harness::map, &mem::AddressMap::sandboxPages>},
    {"--seed", "N", "RNG seed (default 1)", kRun, "seed",
     assign<kCfg, &Cfg::seed>, shown<kCfg, &Cfg::seed>},
    {"--jobs", "N", "worker threads (default 1; 0 = all cores)", kRun, "jobs",
     assign<kCfg, &Cfg::jobs>, shown<kCfg, &Cfg::jobs>},
    {"--backend", "NAME", "executor backend (default inproc)", kRun,
     "backend", assign<kCfg, &Cfg::backend>, shown<kCfg, &Cfg::backend>,
     tokens<executor::BackendKind>},
    {"--ways", "N", "L1D ways (amplification)", kRun, "ways",
     assign<kCfg, kHarness, &Harness::core, &uarch::CoreParams::l1d,
            &uarch::CacheParams::ways>},
    {"--mshrs", "N", "L1D MSHRs (amplification)", kRun, "l1dMshrs",
     assign<kCfg, kHarness, &Harness::core, &uarch::CoreParams::l1dMshrs>},
    {"--boot-insts", "N", "simulator boot-program length (default 8000)",
     kRun, "bootInsts", assign<kCfg, kHarness, &Harness::bootInsts>},
    {"--no-filter", nullptr, "disable ineffective-test-case filtering", kRun,
     "filterIneffective", put<false, kCfg, &Cfg::filterIneffective>},
    {"--no-prime-cache", nullptr, "re-simulate conflict-fill priming per input",
     kRun, "primeCache", put<false, kCfg, kHarness, &Harness::primeCache>},
    {"--no-ctrace-memo", nullptr,
     "re-run the contract-trace emulator cold per input", kRun, "ctraceMemo",
     put<false, kCfg, &Cfg::ctraceMemo>},
    {"--no-cycle-skip", nullptr,
     "simulate every quiescent cycle instead of skipping it", kRun,
     "cycleSkip", put<false, kCfg, kHarness, &Harness::cycleSkip>},
    {"--naive", nullptr, "AMuLeT-Naive (restart per input)", kRun, "naiveMode",
     put<true, kCfg, kHarness, &Harness::naiveMode>},
    {"--invalidate", nullptr, "reset caches through the invalidation hook",
     kRun, "prime",
     put<executor::PrimeMode::Invalidate, kCfg, kHarness, &Harness::prime>},
    {"--stop-first", nullptr, "stop at the first confirmed violation", kRun,
     "stopAtFirstViolation", put<true, kCfg, &Cfg::stopAtFirstViolation>},
    {"--fault-plan", "SPEC",
     "fault injection plan (grammar: src/runtime/fault.hh)", kRun,
     "faultPlan", assign<kCfg, &Cfg::faultPlan>},
    {"--corpus-dir", "DIR", "journal and checkpoint directory", kAny,
     "corpusDir", assign<kCfg, &Cfg::corpusDir>,
     shown<kCfg, &Cfg::corpusDir>},
    {"--resume", nullptr, "continue from the corpus checkpoint", kRun,
     "resume", put<true, kCfg, &Cfg::resume>},
    {"--checkpoint-every", "N", "programs per checkpoint (default 8)", kRun,
     "checkpointEvery", assign<kCfg, &Cfg::checkpointEvery>},
    {"--max-programs", "N", "stop after N programs this process (resumable)",
     kRun, "maxProgramsThisRun", assign<kCfg, &Cfg::maxProgramsThisRun>},
    {"--trace-out", "FILE", "Chrome/Perfetto span trace of the campaign",
     kRun, "telemetry",
     assign<kCfg, &Cfg::telemetry, &Telemetry::traceOutPath>},
    {"--heartbeat", "FILE", "live campaign progress as JSONL ('-' = stdout)",
     kRun, "telemetry",
     assign<kCfg, &Cfg::telemetry, &Telemetry::heartbeatPath>},
    {"--heartbeat-interval", "SEC", "seconds between heartbeat lines "
     "(default 1)", kRun, "telemetry",
     assign<kCfg, &Cfg::telemetry, &Telemetry::heartbeatIntervalSec>},
    {"--minimize", nullptr, "minimize every confirmed record", kReplay,
     nullptr, put<true, &Options::minimize>},
    {"--out", "FILE", "export file or inspect report dir", kExport | kInspect,
     nullptr, assign<&Options::out>},
    {"--top", "N", "slowest spans to list (default 20)", kStats, nullptr,
     assign<&Options::top>},
    {"--list", nullptr, "list flag values and runtime knobs", kAny, nullptr,
     [](Options &, const char *) {
         listChoices();
         std::exit(0);
     }},
    {"--help", nullptr, "print this help", kAny, nullptr,
     [](Options &, const char *) {
         usage(stdout);
         std::exit(0);
     },
     nullptr, nullptr, "-h"},
};

/** A corpus's config and journal. */
struct LoadedCorpus
{
    core::CampaignConfig config;
    std::vector<core::ViolationRecord> records;
};

LoadedCorpus
loadCorpus(const std::string &dir)
{
    return {corpus::CorpusStore::readConfig(dir),
            corpus::CorpusStore::readJournal(dir)};
}

/** The run banner, in table order: every banner row's value and the tag
 *  of every switch given (--no-cycle-skip: NOCYCLESKIP). */
std::string
banner(const Options &o)
{
    std::string line = "campaign:";
    for (const Flag &flag : kFlags) {
        const std::string value = flag.show ? flag.show(o) : "";
        if (!value.empty()) {
            line += " " + std::string(flag.name + 2) + "=" + value;
        } else if (!flag.arg &&
                   std::any_of(o.given.begin(), o.given.end(),
                               [&](auto &g) { return g.first == &flag; })) {
            line += ' ';
            for (const char *c = flag.name; *c; ++c) {
                if (*c != '-')
                    line += static_cast<char>(std::toupper(*c));
            }
        }
    }
    return line;
}

int
cmdRun(Options &o)
{
    const core::CampaignConfig &cfg = o.cfg;
    if (cfg.resume && cfg.corpusDir.empty())
        return usageError("--resume requires --corpus-dir (nothing to "
                          "resume from)");
    try {
        // The field tables' checks, the ones decode runs on a meta.json.
        corpus::decode<core::CampaignConfig>(corpus::encode(cfg));
    } catch (const corpus::CorpusError &e) {
        return usageError(e.what());
    }
    std::printf("%s\n\n", banner(o).c_str());
    const core::CampaignStats stats = core::Campaign(cfg).run();
    std::printf("%s\n", stats.report().c_str());
    for (const auto &rec : stats.records)
        std::printf("  %s\n", rec.summary().c_str());
    return 0;
}

int
cmdReplay(Options &o)
{
    const std::string &dir = o.cfg.corpusDir;
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
        if (o.minimize) {
            const isa::Program prog = corpus::reparseProgram(rec);
            const core::MinimizeResult reduced = core::minimizeViolation(
                harness, model, corpus.config.harness.map, prog, rec);
            std::printf("     minimized: %u insts removed (%u checks); "
                        "reduced listing:\n%s\n",
                        reduced.removedInsts, reduced.checks,
                        isa::formatProgram(reduced.program).c_str());
        }
    }
    std::printf("replay: %zu confirmed, %u failed\n",
                corpus.records.size() - failures, failures);
    return failures == 0 ? 0 : 1;
}

int
cmdExport(Options &o)
{
    const std::string &dir = o.cfg.corpusDir;
    // One journal pass serves both the export text and the listing.
    const auto records = corpus::CorpusStore::readJournal(dir);
    const std::string text = corpus::CorpusStore::exportCanonical(dir, records);
    if (o.out.empty()) {
        fputs(text.c_str(), stdout);
        return 0;
    }
    std::FILE *f = std::fopen(o.out.c_str(), "wb");
    if (!f) {
        std::fprintf(stderr, "campaign_cli: cannot write %s\n",
                     o.out.c_str());
        return 1;
    }
    const bool wrote =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    if (std::fclose(f) != 0 || !wrote) {
        std::fprintf(stderr, "campaign_cli: short write to %s (disk full?)\n",
                     o.out.c_str());
        return 1;
    }
    // The one-line summaries make the listing self-describing without
    // loading full records.
    std::printf("exported %zu record(s) to %s\n", records.size(),
                o.out.c_str());
    for (const auto &rec : records)
        std::printf("  %s\n", rec.summary().c_str());
    return 0;
}

int
cmdStats(Options &o)
{
    const std::string &dir = o.cfg.corpusDir;
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
            if (shown++ >= o.top)
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

/** What inspecting one record gave: its report and the replay verdict. */
struct Inspection
{
    std::string report;
    bool confirmed = false;
};

/**
 * Violation forensics for record @p index of the corpus in @p dir:
 * replay it with the per-instruction pipeline tracer attached and write
 * a report directory, @p out_dir:
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
 *   sidebyside.txt       both runs' event logs side by side, with the
 *                        traces' differing addresses (the paper's
 *                        Table 7/9/10 view)
 *
 * Every file comes from one replay of the pair, traced and event-logged
 * (two simulated runs). Purely read-only with respect to the corpus:
 * the replay builds its own throwaway SimHarness from the journaled
 * config, one per record, so a record's report does not depend on which
 * records were inspected before it. Throws std::runtime_error when the
 * replay does not trace exactly two runs or the directory cannot be
 * written.
 */
Inspection
inspectRecord(const LoadedCorpus &corpus, const std::string &dir,
              std::size_t index, const std::string &out_dir)
{
    const core::ViolationRecord &rec = corpus.records[index];
    executor::SimHarness harness(corpus.config.harness);
    telemetry::UarchTracer tracer;
    harness.setUarchTracer(&tracer);
    // replayViolation runs exactly inputA then inputB (each from its
    // saved context), so the tracer captures exactly two runs, and
    // their event logs give the side-by-side view.
    const corpus::ReplayOutcome outcome =
        corpus::replayViolation(harness, rec, /*logEvents=*/true);
    harness.setUarchTracer(nullptr);
    std::vector<telemetry::UarchRunTrace> runs = tracer.takeRuns();
    if (runs.size() != 2) {
        throw std::runtime_error("replay produced " +
                                 std::to_string(runs.size()) +
                                 " traced run(s), expected 2");
    }
    runs[0].label = "inputA";
    runs[1].label = "inputB";
    const telemetry::Divergence div =
        telemetry::firstDivergence(runs[0], runs[1]);
    const std::string side = core::renderSideBySide(rec, outcome.runs);

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
    if (ec)
        throw std::runtime_error("cannot create " + out_dir + ": " +
                                 ec.message());
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
    if (!wrote)
        throw std::runtime_error("short write under " + out_dir +
                                 " (disk full?)");
    return {std::move(report), outcome.confirmed()};
}

/**
 * `inspect DIR INDEX` writes record INDEX's report directory (--out, or
 * DIR/inspect/record<INDEX>) and prints its report; `inspect DIR` writes
 * record<i>/ for every record, under --out or DIR/inspect/. Either form
 * exits 1 when a record fails to replay.
 */
int
cmdInspect(Options &o)
{
    // DIR [INDEX], or --corpus-dir DIR [INDEX].
    std::string &dir = o.cfg.corpusDir;
    if (dir.empty() && !o.operands.empty()) {
        dir = o.operands.front();
        o.operands.erase(o.operands.begin());
    }
    if (dir.empty() || o.operands.size() > 1) {
        return usageError("inspect needs a corpus dir and at most one "
                          "record index",
                          true);
    }
    const LoadedCorpus corpus = loadCorpus(dir);
    if (!o.operands.empty()) {
        std::size_t index = 0;
        try {
            index = number<std::size_t>(o.operands[0].c_str());
        } catch (const std::invalid_argument &e) {
            return usageError(std::string("record index: ") + e.what());
        }
        if (index >= corpus.records.size()) {
            return usageError("record " + std::to_string(index) +
                              " out of range (" + dir + " has " +
                              std::to_string(corpus.records.size()) +
                              " record(s))");
        }
        const std::string out_dir =
            o.out.empty() ? dir + "/inspect/record" + std::to_string(index)
                          : o.out;
        const Inspection one = inspectRecord(corpus, dir, index, out_dir);
        std::printf("%s", one.report.c_str());
        std::printf("\nreport written to %s\n", out_dir.c_str());
        return one.confirmed ? 0 : 1;
    }

    const std::string root = o.out.empty() ? dir + "/inspect" : o.out;
    std::printf("inspecting %zu record(s) from %s\n",
                corpus.records.size(), dir.c_str());
    unsigned failures = 0;
    for (std::size_t i = 0; i < corpus.records.size(); ++i) {
        const Inspection one = inspectRecord(
            corpus, dir, i, root + "/record" + std::to_string(i));
        std::printf("[%zu] %s: %s\n", i, corpus.records[i].summary().c_str(),
                    one.confirmed ? "CONFIRMED" : "FAILED");
        failures += one.confirmed ? 0 : 1;
    }
    std::printf("inspect: %zu confirmed, %u failed; reports under %s\n",
                corpus.records.size() - failures, failures, root.c_str());
    return failures == 0 ? 0 : 1;
}

int
cmdMerge(Options &o)
{
    if (o.cfg.corpusDir.empty() || o.operands.empty())
        return usageError("merge needs --corpus-dir DST and at least one "
                          "SRC dir");
    const std::size_t added =
        corpus::CorpusStore::mergeInto(o.cfg.corpusDir, o.operands);
    std::printf("merged %zu new record(s) into %s\n", added,
                o.cfg.corpusDir.c_str());
    return 0;
}

/**
 * List quarantined programs (`quarantined --corpus-dir DIR`): one
 * `programIndex<TAB>reason` line per quarantined program, in program
 * order. Exit 0 whether or not any exist — an empty list is a healthy
 * corpus, not an error — so scripts gate on the line count.
 */
int
cmdQuarantined(Options &o)
{
    for (const auto &entry :
         corpus::CorpusStore::readQuarantined(o.cfg.corpusDir))
        std::printf("%u\t%s\n", entry.programIndex, entry.reason.c_str());
    return 0;
}

/** One subcommand. */
struct Command
{
    const char *name;
    unsigned bit;
    const char *synopsis;
    int (*run)(Options &o);
    /** Only merge (SRC corpus dirs) and inspect (DIR [INDEX]) take
     *  operands; anywhere else a stray operand is a typo that must not
     *  be silently ignored. */
    bool operands = false;
    bool needsCorpusDir = false;
};

const Command kCommands[] = {
    {"run", kRun, "[run] [options]", cmdRun},
    {"replay", kReplay, "replay --corpus-dir DIR [--minimize]",
     cmdReplay, false, true},
    {"export", kExport, "export --corpus-dir DIR [--out FILE]", cmdExport,
     false, true},
    {"merge", kMerge, "merge  --corpus-dir DST SRC...", cmdMerge, true},
    {"stats", kStats, "stats  --corpus-dir DIR [--top N]", cmdStats, false,
     true},
    {"quarantined", kQuarantined,
     "quarantined --corpus-dir DIR    list quarantined programs",
     cmdQuarantined, false, true},
    {"inspect", kInspect,
     "inspect DIR [INDEX] [--out DIR]   violation forensics", cmdInspect,
     true},
};

void
usage(std::FILE *out)
{
    for (const Command &command : kCommands) {
        std::fprintf(out, "%s campaign_cli %s\n",
                     &command == kCommands ? "usage:" : "      ",
                     command.synopsis);
    }
    std::fprintf(out, "options (run only unless [subcommands] follow):\n");
    for (const Flag &flag : kFlags) {
        std::string lhs = flag.name;
        if (flag.alias)
            lhs += std::string(", ") + flag.alias;
        if (flag.arg)
            lhs += std::string(" ") + flag.arg;
        std::string where;
        for (const Command &command : kCommands) {
            if (flag.commands & command.bit && flag.commands != kRun)
                where += std::string(where.empty() ? " [" : " ") + command.name;
        }
        if (flag.commands == kAny)
            where = " [any";
        std::fprintf(out, "  %-24s %s%s%s\n", lhs.c_str(), flag.help,
                     where.c_str(), where.empty() ? "" : "]");
    }
}

/** Flag-value discovery: every value each choice flag accepts, and the
 *  runtime knobs. Runtime knobs never change campaign results
 *  (violations, signatures, counters, record bytes), only how and where
 *  the same work runs: they are outside the corpus config fingerprint. */
void
listChoices()
{
    for (const Flag &flag : kFlags) {
        if (!flag.choices)
            continue;
        const Choices choices = flag.choices();
        std::printf("%ss (%s):", choices.what, flag.name);
        for (const std::string &name : choices.names)
            std::printf(" %s", name.c_str());
        std::printf("\n");
    }
    std::set<std::string> runtime;
    corpus::forEachConfigEntry(
        [&](const std::string &key, corpus::Scope scope, bool) {
            if (scope == corpus::Scope::Runtime)
                runtime.insert(key);
        });
    std::printf("runtime knobs:");
    for (const Flag &flag : kFlags) {
        if (flag.key && runtime.count(flag.key))
            std::printf(" %s", flag.name);
    }
    std::printf("\n");
}

/** Apply the given rows that do (@p cell) or do not set the defense, in
 *  command-line order; exit 2 on an argument that does not parse. */
void
apply(Options &o, bool cell)
{
    for (const auto &[flag, arg] : o.given) {
        if ((flag->key && std::strcmp(flag->key, "defense") == 0) != cell)
            continue;
        try {
            flag->set(o, arg);
        } catch (const std::invalid_argument &e) {
            std::exit(usageError(std::string(flag->name) + ": " + e.what()));
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    // "run" is implicit when the first argument is a flag (backwards
    // compatible with the pre-corpus CLI).
    const Command *command = &kCommands[0];
    int i = 1;
    if (argc > 1 && argv[1][0] != '-') {
        const std::string name = argv[i++];
        command = std::find_if(std::begin(kCommands), std::end(kCommands),
                               [&](auto &c) { return name == c.name; });
        if (command == std::end(kCommands))
            return usageError("unknown subcommand '" + name + "'", true);
    }

    Options o;
    for (; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg[0] != '-') {
            o.operands.push_back(arg);
            continue;
        }
        const Flag *flag = std::find_if(
            std::begin(kFlags), std::end(kFlags),
            [&](const Flag &f) {
                return arg == f.name || (f.alias && arg == f.alias);
            });
        if (flag == std::end(kFlags))
            return usageError("unknown option '" + arg + "'", true);
        // Silently ignoring a flag the subcommand never reads (e.g.
        // `replay --patched`) would let the user misattribute results to
        // a configuration that was never applied.
        if (!(flag->commands & command->bit)) {
            return usageError(std::string(flag->name) +
                              " is not valid for the " + command->name +
                              " subcommand (see --help)");
        }
        if (flag->arg && i + 1 >= argc)
            return usageError(std::string(flag->name) + " needs an argument");
        o.given.emplace_back(flag, flag->arg ? argv[++i] : nullptr);
    }

    // The defense rows pick the paper cell; every other row then edits
    // it, so an explicit flag wins over the cell wherever it stands.
    apply(o, true);
    o.cfg = core::paperCell(o.kind, o.patched);
    apply(o, false);

    if (!command->operands && !o.operands.empty())
        return usageError("unexpected argument '" + o.operands[0] + "'", true);
    if (command->needsCorpusDir && o.cfg.corpusDir.empty())
        return usageError("--corpus-dir is required for this subcommand");
    try {
        return command->run(o);
    } catch (const std::exception &e) {
        // Corpus errors, and telemetry I/O failures (unwritable
        // --trace-out/--heartbeat paths).
        std::fprintf(stderr, "campaign_cli: %s\n", e.what());
        return 1;
    }
}
