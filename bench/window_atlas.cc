/**
 * @file
 * Speculation-window atlas: how long does the mis-speculation window
 * stay open per defense, and what does each defense do to the wrong
 * path while it is open?
 *
 * For every defense × trigger the atlas runs one seeded Spectre-v1
 * shape and measures, via the per-instruction pipeline tracer
 * (src/telemetry/uarch_trace.hh), the cycles between the mispredicted
 * branch's fetch and its resolution, plus what the wrong path managed
 * to fetch/issue in that window and which defense mechanisms it
 * tripped (spec buffer, undo log, LFB hold, taint).
 *
 * Triggers:
 *   cache-miss  — the branch condition depends on a load that misses
 *                 L1D (conflict-fill/invalidate priming guarantees the
 *                 miss); the D-TLB is prefilled, so the window is the
 *                 memory latency.
 *   tlb-miss    — the condition load also takes a D-TLB miss (64-page
 *                 sandbox, guard-only prefill, load on page 8), so the
 *                 window additionally pays the page walk.
 *
 * No predictor training runs are needed: the PHT initializes to
 * weakly-not-taken, so an architecturally-taken JE is mispredicted the
 * first time it is seen — every cell measures the same first-encounter
 * window.
 *
 * Emits one JSON object ({"schema":"amulet-window-atlas-v1", ...}) on
 * stdout, committed as WINDOW_ATLAS.json. Cycle counts are
 * simulator-deterministic (not host-dependent), so the atlas is stable
 * across machines and scripts/verify.sh compares it byte for byte.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "corpus/serde.hh"
#include "defense/defense.hh"
#include "executor/sim_harness.hh"
#include "isa/assembler.hh"
#include "telemetry/uarch_trace.hh"

namespace
{

using namespace amulet;
using corpus::Json;

struct Trigger
{
    const char *name;
    unsigned sandboxPages;
    executor::TlbPrefill prefill;
    std::int32_t disp; ///< displacement of the condition load
};

constexpr Trigger kTriggers[] = {
    {"cache-miss", 1, executor::TlbPrefill::Auto, 0},
    {"tlb-miss", 64, executor::TlbPrefill::GuardOnly, 8 * 4096},
};

/**
 * The measured shape: a condition load the priming guarantees is slow,
 * an architecturally-taken JE (predicted not-taken on first encounter),
 * and a wrong-path gadget of four loads — secret load, masked
 * transmitter, and two fillers — so every defense has something to act
 * on inside the window.
 */
isa::Program
atlasProgram(std::int32_t trig_disp)
{
    std::string text;
    text += ".bb_main.0:\n";
    text += "    MOV RAX, qword ptr [R14 + " + std::to_string(trig_disp) +
            "]\n";
    text += "    TEST RAX, RAX\n";
    text += "    JE .bb_main.1\n"; // arch: taken; predicted fall-through
    // Wrong path (transient only):
    text += "    MOV RBX, qword ptr [R14 + 64]\n"; // "secret"
    text += "    AND RBX, 0b111110000000\n";
    text += "    MOV RCX, qword ptr [R14 + RBX]\n"; // transmitter
    text += "    MOV RDX, qword ptr [R14 + 128]\n";
    text += "    MOV RSI, qword ptr [R14 + 192]\n";
    text += "    JMP .bb_main.1\n";
    text += ".bb_main.1:\n";
    return isa::assemble(text);
}

/** One defense × trigger measurement. */
Json
measureCell(defense::DefenseKind kind, const Trigger &trigger)
{
    executor::HarnessConfig cfg;
    cfg.defense.kind = kind;
    cfg.map.sandboxPages = trigger.sandboxPages;
    cfg.tlbPrefill = trigger.prefill;
    // Paper setup: CleanupSpec/SpecLFB reset caches via the hook.
    cfg.prime = (kind == defense::DefenseKind::CleanupSpec ||
                 kind == defense::DefenseKind::SpecLfb)
                    ? executor::PrimeMode::Invalidate
                    : executor::PrimeMode::ConflictFill;
    cfg.bootInsts = 1500;
    // AMULET_NO_CYCLE_SKIP=1 disables event-horizon cycle skipping.
    // scripts/verify.sh compares an atlas produced each way with the
    // committed file: both must be byte-identical, since the atlas is
    // derived entirely from committed-cycle timestamps that skipping
    // preserves.
    cfg.cycleSkip = std::getenv("AMULET_NO_CYCLE_SKIP") == nullptr;

    const isa::Program prog = atlasProgram(trigger.disp);
    const isa::FlatProgram fp(prog, cfg.map.codeBase);

    executor::SimHarness harness(cfg);
    harness.loadProgram(&fp);

    arch::Input input;
    input.id = 0;
    input.regs.fill(0);
    // All-zero sandbox: the condition load reads 0, TEST sets ZF, and
    // the JE is architecturally taken.
    input.sandbox.assign(cfg.map.sandboxSize(), 0);

    telemetry::UarchTracer tracer;
    harness.setUarchTracer(&tracer);
    harness.runInput(input);
    harness.setUarchTracer(nullptr);
    const std::vector<telemetry::UarchRunTrace> runs = tracer.takeRuns();
    if (runs.size() != 1) {
        std::fprintf(stderr, "window_atlas: expected 1 traced run, got "
                             "%zu\n",
                     runs.size());
        std::exit(1);
    }
    const telemetry::UarchRunTrace &run = runs[0];

    // The first mispredicted branch is the JE; the atlas is meaningless
    // without the mispredict, so a miss here is a hard failure.
    const telemetry::InstLifecycle *branch = nullptr;
    for (const telemetry::InstLifecycle &inst : run.insts) {
        if (inst.isBranch && inst.mispredicted) {
            branch = &inst;
            break;
        }
    }
    if (!branch || !branch->completed) {
        std::fprintf(stderr,
                     "window_atlas: %s/%s: no resolved mispredicted "
                     "branch in trace\n",
                     defense::defenseKindName(kind), trigger.name);
        std::exit(1);
    }

    // Wrong path = everything squashed by this branch's resolution.
    std::uint64_t fetched = 0, issued = 0, loads_issued = 0;
    bool spec_buffer = false, undo_logged = false, lfb_held = false,
         tainted = false;
    for (const telemetry::InstLifecycle &inst : run.insts) {
        if (!inst.squashed || inst.squashTrigger != branch->seq)
            continue;
        ++fetched;
        if (inst.issued) {
            ++issued;
            if (inst.isLoad)
                ++loads_issued;
        }
        spec_buffer = spec_buffer || inst.inSpecBuffer;
        undo_logged = undo_logged || inst.undoLogged;
        lfb_held = lfb_held || inst.lfbHeld;
        tainted = tainted || inst.tainted;
    }

    Json cell = Json::object();
    cell.set("defense",
             Json::str(defense::defenseKindName(kind)));
    cell.set("trigger", Json::str(trigger.name));
    cell.set("mispredicted", Json::boolean(true));
    cell.set("windowCycles",
             Json::number(static_cast<double>(branch->completeCycle -
                                              branch->fetchCycle)));
    cell.set("branchFetchCycle",
             Json::number(static_cast<double>(branch->fetchCycle)));
    cell.set("branchResolveCycle",
             Json::number(static_cast<double>(branch->completeCycle)));
    cell.set("wrongPathFetched",
             Json::number(static_cast<double>(fetched)));
    cell.set("wrongPathIssued",
             Json::number(static_cast<double>(issued)));
    cell.set("wrongPathLoadsIssued",
             Json::number(static_cast<double>(loads_issued)));
    Json mech = Json::object();
    mech.set("specBuffer", Json::boolean(spec_buffer));
    mech.set("undoLogged", Json::boolean(undo_logged));
    mech.set("lfbHeld", Json::boolean(lfb_held));
    mech.set("tainted", Json::boolean(tainted));
    cell.set("mechanisms", std::move(mech));
    return cell;
}

} // namespace

int
main()
{
    Json atlas = Json::object();
    atlas.set("schema", Json::str("amulet-window-atlas-v1"));
    Json cells = Json::array();
    for (defense::DefenseKind kind : defense::allDefenseKinds())
        for (const Trigger &trigger : kTriggers)
            cells.push(measureCell(kind, trigger));
    atlas.set("cells", std::move(cells));
    const std::string text = atlas.dump();
    std::fwrite(text.data(), 1, text.size(), stdout);
    std::fputc('\n', stdout);
    return 0;
}
