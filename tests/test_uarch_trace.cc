/**
 * @file
 * Per-instruction pipeline tracing contracts
 * (src/telemetry/uarch_trace.hh):
 *
 *  - the tracer observes exactly the test-program runs (boot and
 *    priming are never traced) and records a coherent lifecycle per
 *    instruction (fetch <= issue <= complete, squashes carry a cause
 *    and the triggering branch);
 *  - a traced run is labelled with the listing of the program loaded
 *    for it, even when that program was flattened where the previous
 *    one lived;
 *  - the exporters are well-formed: Kanata stage begins/ends balance,
 *    O3PipeView lines have the gem5 shape, the Chrome trace is valid
 *    JSON with non-decreasing timestamps per thread;
 *  - firstDivergence localizes a Spectre-v1 leak to the transient
 *    transmitter access, and finds nothing on identical runs;
 *  - SimHarness::replayPair, the one re-run of an input pair, gives the
 *    same runs, lifecycles and events with its event log and a tracer
 *    on together as with either alone or neither, and the tracer sees
 *    exactly its two runs.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/paper_leaks.hh"
#include "corpus/serde.hh"
#include "executor/sim_harness.hh"
#include "isa/assembler.hh"
#include "support/leak_rows.hh"
#include "telemetry/uarch_trace.hh"

namespace
{

using namespace amulet;

executor::HarnessConfig
harnessConfig(defense::DefenseKind kind = defense::DefenseKind::Baseline)
{
    executor::HarnessConfig cfg;
    cfg.defense.kind = kind;
    cfg.bootInsts = 1500;
    return cfg;
}

/** Spectre-v1: slow condition load, architecturally-taken JE predicted
 *  not-taken on first encounter, transient gadget that loads the secret
 *  at [R14+64] and transmits it through a masked load. */
isa::Program
spectreProgram()
{
    // The IMUL chain keeps the window open past the secret load's own
    // miss so the transmitter actually issues before the squash.
    return isa::assemble(R"(
.bb_main.0:
    MOV RAX, qword ptr [R14 + 0]
    IMUL RAX, RAX
    IMUL RAX, RAX
    IMUL RAX, RAX
    IMUL RAX, RAX
    IMUL RAX, RAX
    IMUL RAX, RAX
    IMUL RAX, RAX
    IMUL RAX, RAX
    TEST RAX, RAX
    JE .bb_main.1
    MOV RBX, qword ptr [R14 + 64]
    AND RBX, 0b111110000000
    MOV RCX, qword ptr [R14 + RBX]
    MOV RDX, qword ptr [R14 + 128]
    JMP .bb_main.1
.bb_main.1:
)");
}

/** All-zero sandbox (JE taken) with the one-byte secret at 0x41. */
arch::Input
secretInput(const mem::AddressMap &map, std::uint8_t secret,
            std::uint64_t id = 0)
{
    arch::Input input;
    input.id = id;
    input.regs.fill(0);
    input.sandbox.assign(map.sandboxSize(), 0);
    input.sandbox.set(0x41, secret);
    return input;
}

/** Trace @p inputs through one SimHarness, one run per input. */
std::vector<telemetry::UarchRunTrace>
tracedRuns(const executor::HarnessConfig &cfg, const isa::Program &prog,
           const std::vector<arch::Input> &inputs,
           bool restore_between = false)
{
    executor::SimHarness harness(cfg);
    const isa::FlatProgram fp(prog, cfg.map.codeBase);
    harness.loadProgram(&fp);
    telemetry::UarchTracer tracer;
    harness.setUarchTracer(&tracer);
    const executor::UarchContext ctx = harness.saveContext();
    for (const arch::Input &input : inputs) {
        if (restore_between)
            harness.restoreContext(ctx);
        harness.runInput(input);
    }
    harness.setUarchTracer(nullptr);
    return tracer.takeRuns();
}

// --- tracer core ------------------------------------------------------

TEST(UarchTracer, TracesExactlyTheTestRuns)
{
    const auto cfg = harnessConfig();
    const auto runs = tracedRuns(cfg, spectreProgram(),
                                 {secretInput(cfg.map, 1),
                                  secretInput(cfg.map, 7, 1)});
    // Boot + priming run untraced: exactly one trace per runInput.
    ASSERT_EQ(runs.size(), 2u);
    for (const telemetry::UarchRunTrace &run : runs) {
        EXPECT_GT(run.cycles, 0u);
        ASSERT_FALSE(run.insts.empty());
        ASSERT_FALSE(run.disasm.empty());
        // Records sit in fetch order with contiguous sequence numbers.
        for (std::size_t i = 0; i < run.insts.size(); ++i)
            EXPECT_EQ(run.insts[i].seq, run.insts.front().seq + i);
    }
}

TEST(UarchTracer, LifecycleOrderingAndSquashForensics)
{
    const auto cfg = harnessConfig();
    const auto runs =
        tracedRuns(cfg, spectreProgram(), {secretInput(cfg.map, 1)});
    ASSERT_EQ(runs.size(), 1u);
    const telemetry::UarchRunTrace &run = runs[0];

    const telemetry::InstLifecycle *branch = nullptr;
    for (const telemetry::InstLifecycle &inst : run.insts) {
        if (inst.issued)
            EXPECT_GE(inst.issueCycle, inst.fetchCycle);
        if (inst.completed) {
            EXPECT_GE(inst.completeCycle, inst.fetchCycle);
            if (inst.issued)
                EXPECT_GE(inst.completeCycle, inst.issueCycle);
        }
        EXPECT_FALSE(inst.committed && inst.squashed);
        if (inst.committed)
            EXPECT_GE(inst.commitCycle, inst.fetchCycle);
        if (inst.squashed) {
            EXPECT_NE(inst.squashCause, telemetry::SquashCause::None);
            EXPECT_NE(inst.squashTrigger, kNoSeq);
            EXPECT_GE(inst.squashCycle, inst.fetchCycle);
        }
        if (inst.isBranch && inst.mispredicted && !branch)
            branch = &inst;
    }
    // The JE mispredicts (weakly-not-taken PHT vs a taken branch) and
    // its wrong path is squashed with branch-mispredict forensics.
    ASSERT_NE(branch, nullptr);
    unsigned wrong_path = 0;
    for (const telemetry::InstLifecycle &inst : run.insts) {
        if (inst.squashed && inst.squashTrigger == branch->seq) {
            ++wrong_path;
            EXPECT_EQ(inst.squashCause,
                      telemetry::SquashCause::BranchMispredict);
            // Same-cycle fetch is possible: the front end fetches
            // several instructions per cycle.
            EXPECT_GE(inst.fetchCycle, branch->fetchCycle);
        }
    }
    EXPECT_GT(wrong_path, 0u);
}

// A program flattened into the storage the previous one occupied has its
// address; the second run must still carry the second listing. (The
// campaign worker and every program plan reuse storage this way.)
TEST(UarchTracer, EachLoadedProgramLabelsItsOwnRuns)
{
    const auto cfg = harnessConfig();
    const isa::Program first =
        isa::assemble(".bb_main.0:\n MOV RAX, 1\n ADD RAX, 2\n");
    const isa::Program second =
        isa::assemble(".bb_main.0:\n XOR RBX, RBX\n");
    executor::SimHarness harness(cfg);
    telemetry::UarchTracer tracer;
    harness.setUarchTracer(&tracer);
    std::optional<isa::FlatProgram> flat;
    for (const isa::Program *prog : {&first, &second}) {
        flat.emplace(*prog, cfg.map.codeBase);
        harness.loadProgram(&*flat);
        harness.runInput(secretInput(cfg.map, 1));
    }
    harness.setUarchTracer(nullptr);
    const auto runs = tracer.takeRuns();
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_EQ(runs[0].disasm,
              (std::vector<std::string>{"bb_main.0+0: MOV RAX, 1",
                                        "bb_main.0+1: ADD RAX, 2",
                                        "exit+0: HLT"}));
    EXPECT_EQ(runs[1].disasm,
              (std::vector<std::string>{"bb_main.0+0: XOR RBX, RBX",
                                        "exit+0: HLT"}));
}

// --- exporters --------------------------------------------------------

TEST(UarchTraceExport, KanataStagesBalanceAndEveryInstRetires)
{
    const auto cfg = harnessConfig();
    const auto runs =
        tracedRuns(cfg, spectreProgram(), {secretInput(cfg.map, 1)});
    ASSERT_EQ(runs.size(), 1u);
    const std::string text = telemetry::exportKanata(runs[0]);

    std::istringstream lines(text);
    std::string line;
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line, "Kanata\t0004");
    std::set<std::string> declared;           // I-declared lane ids
    std::map<std::string, std::string> open;  // id -> open stage
    std::set<std::string> retired;
    bool saw_start = false;
    while (std::getline(lines, line)) {
        std::vector<std::string> f;
        std::istringstream cells(line);
        for (std::string cell; std::getline(cells, cell, '\t');)
            f.push_back(cell);
        ASSERT_FALSE(f.empty()) << line;
        if (f[0] == "C=") {
            saw_start = true;
        } else if (f[0] == "C") {
            EXPECT_GE(std::stoll(f.at(1)), 0) << line;
        } else if (f[0] == "I") {
            EXPECT_TRUE(declared.insert(f.at(1)).second) << line;
        } else if (f[0] == "S") {
            ASSERT_TRUE(declared.count(f.at(1))) << line;
            // A lane holds at most one open stage at a time.
            EXPECT_FALSE(open.count(f.at(1))) << line;
            open[f.at(1)] = f.at(3);
        } else if (f[0] == "E") {
            auto it = open.find(f.at(1));
            ASSERT_NE(it, open.end()) << line;
            EXPECT_EQ(it->second, f.at(3)) << line;
            open.erase(it);
        } else if (f[0] == "R") {
            EXPECT_FALSE(open.count(f.at(1))) << line;
            EXPECT_TRUE(retired.insert(f.at(1)).second) << line;
        }
    }
    EXPECT_TRUE(saw_start);
    EXPECT_TRUE(open.empty()); // balanced: every S has its E
    EXPECT_EQ(retired.size(), declared.size());
    EXPECT_EQ(declared.size(), runs[0].insts.size());
}

TEST(UarchTraceExport, O3PipeViewHasTheGem5Shape)
{
    const auto cfg = harnessConfig();
    const auto runs =
        tracedRuns(cfg, spectreProgram(), {secretInput(cfg.map, 1)});
    ASSERT_EQ(runs.size(), 1u);
    const std::string text = telemetry::exportO3PipeView(runs[0]);

    std::istringstream lines(text);
    std::string line;
    unsigned fetches = 0, retires = 0;
    std::uint64_t last_fetch_tick = 0;
    while (std::getline(lines, line)) {
        ASSERT_EQ(line.rfind("O3PipeView:", 0), 0u) << line;
        if (line.rfind("O3PipeView:fetch:", 0) == 0) {
            ++fetches;
            const std::uint64_t tick =
                std::stoull(line.substr(std::strlen("O3PipeView:fetch:")));
            EXPECT_EQ(tick % 1000, 0u) << line; // 1000 ticks per cycle
            EXPECT_GE(tick, last_fetch_tick);   // fetch order
            last_fetch_tick = tick;
        } else if (line.rfind("O3PipeView:retire:", 0) == 0) {
            ++retires;
        }
    }
    EXPECT_EQ(fetches, runs[0].insts.size());
    EXPECT_EQ(retires, fetches); // every fetched inst gets a retire line
}

TEST(UarchTraceExport, ChromeTraceIsValidWithMonotonicTsPerTid)
{
    const auto cfg = harnessConfig();
    const auto runs = tracedRuns(cfg, spectreProgram(),
                                 {secretInput(cfg.map, 1),
                                  secretInput(cfg.map, 7, 1)});
    ASSERT_EQ(runs.size(), 2u);
    const std::string text = telemetry::exportUarchChromeTrace(runs);
    const corpus::Json doc = corpus::Json::parse(text);

    std::map<std::uint64_t, double> last_ts;
    unsigned thread_names = 0, spans = 0;
    for (const corpus::Json &ev : doc.at("traceEvents").items()) {
        const std::string ph = ev.at("ph").asStr();
        if (ph == "M") {
            thread_names +=
                ev.at("name").asStr() == std::string("thread_name");
            continue;
        }
        ASSERT_EQ(ph, "X");
        ++spans;
        const std::uint64_t tid = ev.at("tid").asU64();
        const double ts = ev.at("ts").asDouble();
        EXPECT_GE(ev.at("dur").asDouble(), 0.0);
        auto it = last_ts.find(tid);
        if (it != last_ts.end())
            EXPECT_GE(ts, it->second) << "tid " << tid;
        last_ts[tid] = ts;
        EXPECT_FALSE(ev.at("args").at("fate").asStr().empty());
    }
    EXPECT_EQ(thread_names, 2u); // one per traced run
    EXPECT_EQ(spans, runs[0].insts.size() + runs[1].insts.size());
    EXPECT_EQ(last_ts.size(), 2u);
}

// --- divergence localization ------------------------------------------

TEST(UarchDivergence, LocalizesTheTransientTransmitter)
{
    const auto cfg = harnessConfig();
    // Restore the pre-run context between inputs so both runs see the
    // same predictor state — the only difference is the secret byte.
    const auto runs = tracedRuns(cfg, spectreProgram(),
                                 {secretInput(cfg.map, 1),
                                  secretInput(cfg.map, 7, 1)},
                                 /*restore_between=*/true);
    ASSERT_EQ(runs.size(), 2u);
    const telemetry::Divergence div =
        telemetry::firstDivergence(runs[0], runs[1]);
    ASSERT_TRUE(div.found);
    // The earliest difference is the transmitter load's address —
    // reached only transiently, with different secrets.
    EXPECT_NE(div.what.find("memory access"), std::string::npos)
        << div.what;
    EXPECT_NE(div.detailA, div.detailB);
    EXPECT_NE(div.disasm.find("[R14 + RBX]"), std::string::npos)
        << div.disasm;
}

TEST(UarchDivergence, IdenticalRunsHaveNoDivergence)
{
    const auto cfg = harnessConfig();
    const auto runs = tracedRuns(cfg, spectreProgram(),
                                 {secretInput(cfg.map, 1),
                                  secretInput(cfg.map, 1, 1)},
                                 /*restore_between=*/true);
    ASSERT_EQ(runs.size(), 2u);
    // Same secret + same restored context => byte-identical lifecycles.
    EXPECT_EQ(runs[0].insts, runs[1].insts);
    EXPECT_FALSE(telemetry::firstDivergence(runs[0], runs[1]).found);
}

// --- pair replay ------------------------------------------------------

/** One replay of a catalog row's pair from a fresh harness's boot
 *  context, with a tracer and the event log on or off. */
struct PairObservation
{
    executor::SimHarness::PairOutput out;
    std::vector<telemetry::UarchRunTrace> runs;
};

PairObservation
observePair(const core::LeakRow &row, bool traced, bool logged)
{
    executor::SimHarness harness(row.harness());
    telemetry::UarchTracer tracer;
    if (traced)
        harness.setUarchTracer(&tracer);
    const executor::UarchContext boot = harness.saveContext();
    const core::LeakGadget &g = *row.gadget;
    PairObservation seen{
        harness.replayPair(g.flat, g.inputA, boot, g.inputB, boot, logged),
        {}};
    seen.runs = tracer.takeRuns();
    return seen;
}

using PairReplay = fixture::LeakRowTest;

// `inspect` takes a record's pipeline traces and side-by-side events
// from one replay with both observers on; each must see what it sees
// alone, and neither may move the runs.
TEST_P(PairReplay, LogAndTracerTogetherChangeNothing)
{
    const PairObservation both = observePair(row(), true, true);
    const PairObservation neither = observePair(row(), false, false);
    const PairObservation traced = observePair(row(), true, false);
    const PairObservation logged = observePair(row(), false, true);

    for (const PairObservation *other : {&neither, &traced, &logged}) {
        EXPECT_TRUE(both.out.a.trace == other->out.a.trace);
        EXPECT_TRUE(both.out.b.trace == other->out.b.trace);
        EXPECT_TRUE(both.out.a.run == other->out.a.run);
        EXPECT_TRUE(both.out.b.run == other->out.b.run);
    }
    ASSERT_EQ(both.runs.size(), 2u);
    EXPECT_TRUE(both.runs == traced.runs);
    EXPECT_FALSE(both.out.eventsA.empty());
    EXPECT_FALSE(both.out.eventsB.empty());
    EXPECT_TRUE(both.out.eventsA == logged.out.eventsA);
    EXPECT_TRUE(both.out.eventsB == logged.out.eventsB);
    EXPECT_TRUE(neither.out.eventsA.empty() && neither.out.eventsB.empty());
    EXPECT_TRUE(neither.runs.empty() && logged.runs.empty());
}

INSTANTIATE_TEST_SUITE_P(Catalog, PairReplay,
                         ::testing::ValuesIn(fixture::leakRows()),
                         fixture::leakRowName);

} // namespace
