/**
 * @file
 * Contract-trace memoization equivalence contract
 * (src/contracts/README.md): serving probes/siblings from a snapshot of
 * the base input's instrumented emulator pass — forking at the first
 * read of a divergent initial location and replaying only the suffix —
 * must not move a single byte of campaign output. Covers the
 * arch::Emulator snapshot/fork primitives, LeakageModel::collectAll
 * vs cold collect() on random programs per contract, per-defense
 * campaign export equivalence at jobs {1,4} on every executor backend,
 * and the fingerprint exclusion of the knob.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "contracts/leakage_model.hh"
#include "core/generator.hh"
#include "core/input_gen.hh"
#include "isa/assembler.hh"
#include "support/campaign_fixture.hh"

namespace
{

using namespace amulet;
using namespace amulet::fixture;

mem::AddressMap
testMap(unsigned pages = 1)
{
    mem::AddressMap map;
    map.sandboxPages = pages;
    return map;
}

arch::Input
makeInput(const mem::AddressMap &map, std::uint64_t seed)
{
    core::InputGenConfig cfg;
    cfg.map = map;
    Rng rng(seed);
    core::InputGenerator gen(cfg, rng);
    return gen.generate(0);
}

// === arch::Emulator snapshot/fork primitives ==============================

TEST(EmulatorSnapshot, RestoreRoundTrip)
{
    const isa::Program prog = isa::assemble(R"(
        MOV RAX, 5
        MOV qword ptr [R14 + 0], RAX
        ADD RAX, 7
        MOV qword ptr [R14 + 8], RAX
    )");
    const isa::FlatProgram fp(prog, 0x400000);
    const auto map = testMap();
    arch::ArchState st;
    st.loadInput(makeInput(map, 3), map);
    arch::Emulator emu(fp, std::move(st));
    emu.enableJournal();

    const auto init8 = emu.state().mem.read(map.sandboxBase + 8, 8);
    emu.run(2); // RAX = 5, stored to [R14+0]
    const arch::ArchSnapshot snap = emu.snapshot();
    const auto regs_mid = emu.state().regs;

    emu.run();
    EXPECT_TRUE(emu.halted());
    EXPECT_EQ(emu.state().mem.read(map.sandboxBase + 8, 8), 12u);

    emu.restore(snap);
    EXPECT_FALSE(emu.halted());
    EXPECT_EQ(emu.state().regs, regs_mid);
    EXPECT_EQ(emu.state().nextIdx, snap.nextIdx);
    // The second store is undone; the first survives (it predates the
    // snapshot).
    EXPECT_EQ(emu.state().mem.read(map.sandboxBase + 8, 8), init8);
    EXPECT_EQ(emu.state().mem.read(map.sandboxBase + 0, 8), 5u);
    EXPECT_EQ(emu.journalSize(), snap.journalMark);

    // Replay from the snapshot reproduces the run exactly.
    emu.run();
    EXPECT_TRUE(emu.halted());
    EXPECT_EQ(emu.state().mem.read(map.sandboxBase + 8, 8), 12u);
}

TEST(EmulatorSnapshot, SurvivesCheckpointRollback)
{
    const isa::Program prog = isa::assemble(R"(
        MOV qword ptr [R14 + 0], RDI
        MOV qword ptr [R14 + 8], RSI
        MOV qword ptr [R14 + 16], RDX
    )");
    const isa::FlatProgram fp(prog, 0x400000);
    const auto map = testMap();
    arch::Input input = makeInput(map, 4);
    input.regs[isa::regIndex(isa::Reg::Rdi)] = 0x11;
    input.regs[isa::regIndex(isa::Reg::Rsi)] = 0x22;
    input.regs[isa::regIndex(isa::Reg::Rdx)] = 0x33;
    arch::ArchState st;
    st.loadInput(input, map);
    arch::Emulator emu(fp, std::move(st));
    emu.enableJournal();

    const auto init8 = emu.state().mem.read(map.sandboxBase + 8, 8);
    const auto init16 = emu.state().mem.read(map.sandboxBase + 16, 8);

    emu.step(); // committed: store 0x11
    const arch::ArchSnapshot snap = emu.snapshot();

    // A speculative excursion between snapshot and restore: its
    // journal entries are rolled back, so the snapshot's watermark
    // stays valid.
    emu.pushCheckpoint();
    emu.step(); // speculative: store 0x22
    EXPECT_EQ(emu.state().mem.read(map.sandboxBase + 8, 8), 0x22u);
    emu.rollbackCheckpoint();
    EXPECT_EQ(emu.state().mem.read(map.sandboxBase + 8, 8), init8);

    emu.run(); // committed: stores 0x22, 0x33
    EXPECT_EQ(emu.state().mem.read(map.sandboxBase + 16, 8), 0x33u);

    emu.restore(snap);
    EXPECT_EQ(emu.state().mem.read(map.sandboxBase + 0, 8), 0x11u);
    EXPECT_EQ(emu.state().mem.read(map.sandboxBase + 8, 8), init8);
    EXPECT_EQ(emu.state().mem.read(map.sandboxBase + 16, 8), init16);
}

TEST(EmulatorSnapshot, PokeByteAndRewindAllWrites)
{
    const isa::Program prog = isa::assemble(R"(
        MOV qword ptr [R14 + 32], RDI
    )");
    const isa::FlatProgram fp(prog, 0x400000);
    const auto map = testMap();
    const arch::Input input = makeInput(map, 5);
    arch::ArchState st;
    st.loadInput(input, map);
    arch::Emulator emu(fp, std::move(st));
    emu.enableJournal();

    const auto init5 = emu.state().mem.readByte(map.sandboxBase + 5);
    emu.pokeByte(map.sandboxBase + 5, 0xab);
    EXPECT_EQ(emu.state().mem.readByte(map.sandboxBase + 5), 0xab);
    emu.pokeByte(map.sandboxBase + 5, 0xcd);
    emu.run();
    EXPECT_TRUE(emu.halted());

    emu.rewindAllWrites();
    EXPECT_EQ(emu.state().mem.readByte(map.sandboxBase + 5), init5);
    EXPECT_EQ(emu.state().mem.read(map.sandboxBase + 32, 8),
              [&] {
                  std::uint64_t v = 0;
                  for (unsigned i = 0; i < 8; ++i)
                      v |= std::uint64_t{input.sandbox[32 + i]} << (8 * i);
                  return v;
              }());
    EXPECT_EQ(emu.journalSize(), 0u);
}

// === LeakageModel batch memoization vs cold collect =======================

/** Batch inputs a CTraceStage session would see: the base, value-
 *  preserving siblings, single-register probes, plus adversarial cases
 *  (flags flip → cold fallback, arbitrary register mutations). */
std::vector<arch::Input>
sessionInputs(contracts::LeakageModel &model, const isa::FlatProgram &fp,
              const mem::AddressMap &map, std::uint64_t seed)
{
    core::InputGenConfig icfg;
    icfg.map = map;
    Rng rng(seed);
    core::InputGenerator gen(icfg, rng);
    const arch::Input base = gen.generate(1);
    const auto offsets = model.archReadOffsets(fp, base, map);

    std::vector<arch::Input> inputs{base};
    for (unsigned k = 0; k < 3; ++k)
        inputs.push_back(gen.sibling(base, offsets, 100 + k));
    for (unsigned r = 0; r < isa::kNumRegs; ++r) {
        arch::Input probe = base;
        probe.regs[r] ^= 0x5a5a5a5a5a5aULL;
        inputs.push_back(probe);
    }
    arch::Input flags = base;
    flags.flagsByte ^= 0x01;
    inputs.push_back(flags);
    arch::Input scrambled = gen.generate(2);
    scrambled.flagsByte = base.flagsByte;
    inputs.push_back(scrambled);
    return inputs;
}

TEST(CTraceMemo, MatchesColdCollectOnRandomPrograms)
{
    const contracts::ContractSpec specs[] = {
        contracts::ctSeq(), contracts::ctCond(), contracts::archSeq()};
    for (const auto &spec : specs) {
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
            SCOPED_TRACE(spec.name + " seed=" + std::to_string(seed));
            core::GeneratorConfig gcfg;
            gcfg.map = testMap();
            Rng rng(seed);
            const isa::Program prog =
                core::ProgramGenerator(gcfg, rng).generate();
            const isa::FlatProgram fp(prog, gcfg.map.codeBase);
            contracts::LeakageModel model(spec);

            const auto inputs = sessionInputs(model, fp, gcfg.map, seed);
            const auto memo =
                model.collectAll(fp, inputs, gcfg.map, true);
            ASSERT_EQ(memo.size(), inputs.size());
            for (std::size_t i = 0; i < inputs.size(); ++i) {
                SCOPED_TRACE("input " + std::to_string(i));
                EXPECT_EQ(memo[i],
                          model.collect(fp, inputs[i], gcfg.map));
            }
            // The base pass derives the same offsets the standalone
            // pass computes.
            EXPECT_EQ(model.batchReadOffsets(),
                      model.archReadOffsets(fp, inputs[0], gcfg.map));

            // Memo off is the cold path — and identical.
            EXPECT_EQ(memo,
                      model.collectAll(fp, inputs, gcfg.map, false));

            // The equality-only fast path agrees with trace equality.
            model.batchBegin(fp, inputs[0], gcfg.map, true);
            for (std::size_t i = 0; i < inputs.size(); ++i) {
                SCOPED_TRACE("match input " + std::to_string(i));
                EXPECT_EQ(model.batchMatchesBase(inputs[i]),
                          memo[i] == memo[0]);
            }
        }
    }
}

// Under non-exploring contracts the tracked initial reads are exactly
// the architectural read offsets, and sibling() preserves those bytes:
// every sibling must be a full prefix hit — one emulator pass serves
// the whole batch. This is the mechanism behind the STT ctraceSec
// collapse.
TEST(CTraceMemo, SiblingsAreFullHitsUnderCtSeq)
{
    core::GeneratorConfig gcfg;
    gcfg.map = testMap();
    Rng rng(11);
    const isa::Program prog = core::ProgramGenerator(gcfg, rng).generate();
    const isa::FlatProgram fp(prog, gcfg.map.codeBase);
    contracts::LeakageModel model(contracts::ctSeq());

    core::InputGenConfig icfg;
    icfg.map = gcfg.map;
    Rng irng(12);
    core::InputGenerator gen(icfg, irng);
    const arch::Input base = gen.generate(1);
    const auto offsets = model.archReadOffsets(fp, base, gcfg.map);
    std::vector<arch::Input> inputs{base};
    for (unsigned k = 0; k < 4; ++k)
        inputs.push_back(gen.sibling(base, offsets, 100 + k));

    model.takeBatchStats();
    const auto traces = model.collectAll(fp, inputs, gcfg.map, true);
    const auto stats = model.takeBatchStats();
    EXPECT_EQ(stats.fullRuns, 1u);
    EXPECT_EQ(stats.memoHits, 4u);
    EXPECT_EQ(stats.memoReplaySteps, 0u);
    for (const auto &t : traces)
        EXPECT_EQ(t, traces[0]);
}

// === Campaign-level equivalence ===========================================

void
ctraceMemoOff(core::CampaignConfig &cfg)
{
    cfg.ctraceMemo = false;
}

TEST(CTraceMemoEquivalence, Baseline)
{
    runEquivalence(defense::DefenseKind::Baseline, true, ctraceMemoOff);
}

TEST(CTraceMemoEquivalence, InvisiSpec)
{
    runEquivalence(defense::DefenseKind::InvisiSpec, false, ctraceMemoOff);
}

TEST(CTraceMemoEquivalence, CleanupSpec)
{
    runEquivalence(defense::DefenseKind::CleanupSpec, false, ctraceMemoOff);
}

TEST(CTraceMemoEquivalence, SpecLfb)
{
    runEquivalence(defense::DefenseKind::SpecLfb, false, ctraceMemoOff);
}

TEST(CTraceMemoEquivalence, Stt)
{
    runEquivalence(defense::DefenseKind::Stt, false, ctraceMemoOff);
}

// CT-COND with register mutation enabled is the densest client of the
// batch API (16 dead-register probes + mutation confirmations per base
// input, all under speculative exploration). Check export equivalence
// and that the memo actually removes emulator work rather than moving
// it around.
TEST(CTraceMemoEquivalence, CtCondAblationCampaign)
{
    ScratchDir scratch("ctcond");
    auto make = [&](bool memo) {
        auto cfg = campaignConfig(defense::DefenseKind::Baseline, 1,
                                  executor::BackendKind::InProcess);
        cfg.ctraceMemo = memo;
        cfg.contract = contracts::ctCond();
        cfg.numPrograms = 10;
        return cfg;
    };
    core::CampaignConfig on_cfg = make(true);
    on_cfg.corpusDir = scratch.sub("on");
    const auto on = core::Campaign(on_cfg).run();
    core::CampaignConfig off_cfg = make(false);
    off_cfg.corpusDir = scratch.sub("off");
    const auto off = core::Campaign(off_cfg).run();

    EXPECT_EQ(corpus::CorpusStore::exportCanonical(scratch.sub("on")),
              corpus::CorpusStore::exportCanonical(scratch.sub("off")));
    EXPECT_EQ(on.confirmedViolations, off.confirmedViolations);
    EXPECT_EQ(on.violatingTestCases, off.violatingTestCases);
    EXPECT_EQ(on.candidateViolations, off.candidateViolations);
    EXPECT_EQ(on.signatureCounts, off.signatureCounts);
    // The off run re-executes the whole program per probe/sibling; the
    // memoized run serves them from the batch session. The memo
    // counters are the deterministic witness (a wall-clock comparison
    // here would flap under load: this cell's sandbox is small, so the
    // absolute margin is tiny).
    const auto counter = [](const core::CampaignStats &s,
                            const char *name) {
        const auto it = s.metrics.find(name);
        return it == s.metrics.end() ? 0.0 : it->second.value;
    };
    EXPECT_GT(counter(on, "ctrace.memoHits"), 0.0);
    EXPECT_EQ(counter(off, "ctrace.memoHits"), 0.0);
    EXPECT_LT(counter(on, "ctrace.fullRuns"),
              counter(off, "ctrace.fullRuns"));
}

// A corpus journaled without the memo resumes under it (and the other
// way around).
TEST(CTraceMemoEquivalence, FingerprintIgnoresTheKnob)
{
    expectResumeAcrossKnob(ctraceMemoOff);
}

} // namespace
