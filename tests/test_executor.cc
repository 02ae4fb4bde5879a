/**
 * @file
 * Executor/harness tests: run determinism, context snapshot/replay,
 * Naive-vs-Opt restart behaviour, priming modes, trace-format extraction,
 * and the generated-program disassembly round-trip.
 */

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>

#include "core/generator.hh"
#include "core/input_gen.hh"
#include "executor/sim_harness.hh"
#include "isa/assembler.hh"
#include "isa/disasm.hh"

namespace
{

using namespace amulet;
using executor::HarnessConfig;
using executor::PrimeMode;
using executor::SimHarness;
using executor::TraceFormat;

HarnessConfig
fastConfig()
{
    HarnessConfig cfg;
    cfg.bootInsts = 1000;
    return cfg;
}

struct Fixture
{
    Fixture()
        : rng(5),
          gcfg([] {
              core::GeneratorConfig g;
              g.map = mem::AddressMap{};
              return g;
          }()),
          gen(gcfg, Rng(5))
    {
        prog = gen.generate();
        fp = std::make_unique<isa::FlatProgram>(prog, gcfg.map.codeBase);
        core::InputGenConfig icfg;
        icfg.map = gcfg.map;
        core::InputGenerator igen(icfg, Rng(6));
        input = igen.generate(0);
    }

    Rng rng;
    core::GeneratorConfig gcfg;
    core::ProgramGenerator gen;
    isa::Program prog;
    std::unique_ptr<isa::FlatProgram> fp;
    arch::Input input;
};

TEST(Harness, RunIsDeterministicUnderSavedContext)
{
    Fixture f;
    SimHarness harness(fastConfig());
    harness.loadProgram(f.fp.get());
    const auto ctx = harness.saveContext();
    const auto t1 = harness.runInput(f.input).trace;
    harness.restoreContext(ctx);
    const auto t2 = harness.runInput(f.input).trace;
    EXPECT_EQ(t1, t2);
}

// Contexts arrive from the journal and the wire, so every table's size
// is checked against the configured core before any state changes: an
// empty BTB used to be read past its end, an empty PHT masked with
// SIZE_MAX.
TEST(Harness, RestoreContextRejectsTablesThatDoNotFitTheCore)
{
    Fixture f;
    SimHarness harness(fastConfig());
    harness.loadProgram(f.fp.get());
    const auto ctx = harness.saveContext();
    const auto reference = harness.runInput(f.input).trace;
    std::vector<executor::UarchContext> bad(6, ctx);
    bad[0].bp.pht.clear();
    bad[1].bp.pht.pop_back();
    bad[2].bp.btbTags.clear();
    bad[3].bp.btbTargets.clear();
    bad[4].mdp.clear();
    bad[5].mdp.push_back(0);
    for (const auto &b : bad)
        EXPECT_THROW(harness.restoreContext(b), std::invalid_argument);
    harness.restoreContext(ctx);
    EXPECT_EQ(harness.runInput(f.input).trace, reference);
}

TEST(Harness, NaiveRestartsPerInputOptDoesNot)
{
    Fixture f;
    auto cfg = fastConfig();
    cfg.naiveMode = true;
    SimHarness naive(cfg);
    naive.loadProgram(f.fp.get());
    naive.runInput(f.input);
    naive.runInput(f.input);
    naive.runInput(f.input);
    EXPECT_EQ(naive.startCount(), 3u);

    SimHarness opt(fastConfig());
    opt.loadProgram(f.fp.get());
    opt.runInput(f.input);
    opt.runInput(f.input);
    opt.runInput(f.input);
    EXPECT_EQ(opt.startCount(), 1u);
}

TEST(Harness, NaiveRunsAreIdenticalAcrossRestarts)
{
    Fixture f;
    auto cfg = fastConfig();
    cfg.naiveMode = true;
    SimHarness harness(cfg);
    harness.loadProgram(f.fp.get());
    const auto t1 = harness.runInput(f.input).trace;
    const auto t2 = harness.runInput(f.input).trace;
    EXPECT_EQ(t1, t2) << "cold restarts must be reproducible";
}

TEST(Harness, ConflictFillPrimesEverySet)
{
    Fixture f;
    auto cfg = fastConfig();
    cfg.prime = PrimeMode::ConflictFill;
    SimHarness harness(cfg);
    harness.loadProgram(f.fp.get());
    harness.runInput(f.input);
    // After a run, lines outside the sandbox (prime region) dominate the
    // L1D; every set was filled before the test touched anything.
    const auto &l1d = harness.pipeline().memSys().l1d();
    std::size_t prime_lines = 0;
    for (Addr line : l1d.snapshot()) {
        if (line >= cfg.map.primeBase)
            ++prime_lines;
    }
    EXPECT_GT(prime_lines,
              static_cast<std::size_t>(l1d.numSets() * l1d.numWays() /
                                       2));
}

TEST(Harness, InvalidatePrimeStartsClean)
{
    Fixture f;
    auto cfg = fastConfig();
    cfg.prime = PrimeMode::Invalidate;
    SimHarness harness(cfg);
    harness.loadProgram(f.fp.get());
    harness.runInput(f.input);
    const auto &l1d = harness.pipeline().memSys().l1d();
    for (Addr line : l1d.snapshot())
        EXPECT_LT(line, cfg.map.primeBase) << "no prime lines expected";
}

TEST(Harness, AllTraceFormatsExtractAndAreStable)
{
    Fixture f;
    SimHarness harness(fastConfig());
    harness.loadProgram(f.fp.get());
    const auto ctx = harness.saveContext();
    harness.runInput(f.input);
    std::vector<executor::UTrace> first;
    for (auto fmt : executor::allTraceFormats())
        first.push_back(harness.extractExtra(fmt));
    harness.restoreContext(ctx);
    harness.runInput(f.input);
    std::size_t i = 0;
    for (auto fmt : executor::allTraceFormats()) {
        const auto again = harness.extractExtra(fmt);
        EXPECT_EQ(again, first[i++]) << executor::traceFormatName(fmt);
        EXPECT_FALSE(again.words.empty())
            << executor::traceFormatName(fmt);
    }
}

TEST(Harness, TimeBreakdownAccumulates)
{
    Fixture f;
    SimHarness harness(fastConfig());
    harness.loadProgram(f.fp.get());
    harness.runInput(f.input);
    const auto &t = harness.times();
    EXPECT_GT(t.startupSec, 0.0);
    EXPECT_GT(t.primeSec, 0.0); // input-switch cost, split from simulate
    EXPECT_GT(t.simulateSec, 0.0);
    EXPECT_GE(t.traceExtractSec, 0.0);
    EXPECT_GE(t.totalSec(),
              t.startupSec + t.primeSec + t.simulateSec);
}

// The memo must survive the harness's own context save/restore cycle
// and stay byte-stable across many inputs: with the cache on, repeated
// runs of one input produce the trace the uncached harness produces.
TEST(Harness, PrimeCacheMatchesRealPriming)
{
    Fixture f;
    auto cached_cfg = fastConfig();
    auto uncached_cfg = fastConfig();
    uncached_cfg.primeCache = false;
    SimHarness cached(cached_cfg);
    SimHarness uncached(uncached_cfg);
    cached.loadProgram(f.fp.get());
    uncached.loadProgram(f.fp.get());
    for (int i = 0; i < 3; ++i) {
        const auto a = cached.runInput(f.input);
        const auto b = uncached.runInput(f.input);
        EXPECT_EQ(a.trace, b.trace) << "run " << i;
        EXPECT_EQ(a.run.cycles, b.run.cycles) << "run " << i;
    }
}

TEST(HarnessBatch, EmptyBatchRunsNothing)
{
    Fixture f;
    SimHarness harness(fastConfig());
    harness.loadProgram(f.fp.get());
    const auto out = harness.runBatch({});
    EXPECT_TRUE(out.runs.empty());
    EXPECT_TRUE(out.startContexts.empty());
    EXPECT_TRUE(out.extras.empty());
    EXPECT_FALSE(out.hitCycleCap);
}

// A batch that hits the cycle cap mid-way must return the completed
// prefix: runs.size() < batch size, one saved start context per
// *completed* run (the capped run's context is popped), and the flag
// set.
TEST(HarnessBatch, CycleCapMidBatchReturnsCompletedPrefix)
{
    Fixture f;

    // Find a batch [a, b] where b (running after a, under a's trained
    // predictor state) needs at least two more cycles than a: a cap
    // between the two completes a and cuts b. Inputs differ in sandbox
    // contents, so cycle counts vary; search a few candidates.
    core::InputGenConfig icfg;
    icfg.map = f.gcfg.map;
    core::InputGenerator igen(icfg, Rng(9));
    const arch::Input a = igen.generate(100);
    std::optional<arch::Input> b;
    Cycle cap = 0;
    for (unsigned i = 0; i < 12 && !b; ++i) {
        SimHarness probe(fastConfig());
        probe.loadProgram(f.fp.get());
        const arch::Input candidate = igen.generate(101 + i);
        const auto out = probe.runBatch({&a, &candidate});
        ASSERT_EQ(out.runs.size(), 2u);
        const Cycle ca = out.runs[0].run.cycles;
        const Cycle cb = out.runs[1].run.cycles;
        if (cb >= ca + 2) {
            b = candidate;
            cap = (ca + cb) / 2;
        }
    }
    ASSERT_TRUE(b) << "no input pair with distinct cycle counts found";

    auto cfg = fastConfig();
    cfg.core.maxCyclesPerRun = cap;
    SimHarness harness(cfg);
    harness.loadProgram(f.fp.get());
    const auto out = harness.runBatch({&a, &*b});
    EXPECT_TRUE(out.hitCycleCap);
    ASSERT_EQ(out.runs.size(), 1u);
    EXPECT_EQ(out.startContexts.size(), 1u);
    EXPECT_TRUE(out.runs[0].run.halted);
}

// Extra trace formats come back one list per run, in request order —
// including when the request is a permuted subset — and each equals a
// per-input extraction replayed from the same starting context.
TEST(HarnessBatch, ExtrasFollowRequestOrder)
{
    Fixture f;
    const std::vector<TraceFormat> formats = {
        TraceFormat::BpState, TraceFormat::MemAccessOrder,
        TraceFormat::L1dTlb};

    core::InputGenConfig icfg;
    icfg.map = f.gcfg.map;
    core::InputGenerator igen(icfg, Rng(9));
    const arch::Input i0 = igen.generate(0);
    const arch::Input i1 = igen.generate(1);

    SimHarness harness(fastConfig());
    harness.loadProgram(f.fp.get());
    const auto start = harness.saveContext();
    const auto batched = harness.runBatch({&i0, &i1}, &formats);
    ASSERT_EQ(batched.runs.size(), 2u);
    ASSERT_EQ(batched.extras.size(), 2u);

    // Replay per input from the same start context.
    harness.restoreContext(start);
    for (std::size_t i = 0; i < 2; ++i) {
        harness.runInput(i == 0 ? i0 : i1);
        ASSERT_EQ(batched.extras[i].size(), formats.size());
        for (std::size_t fmt = 0; fmt < formats.size(); ++fmt) {
            EXPECT_EQ(batched.extras[i][fmt].format, formats[fmt])
                << "extras must follow the request order";
            EXPECT_EQ(batched.extras[i][fmt],
                      harness.extractExtra(formats[fmt]))
                << "run " << i << " format " << fmt;
        }
    }
}

TEST(GeneratedPrograms, DisassemblyRoundTripsThroughAssembler)
{
    Rng rng(31);
    core::GeneratorConfig gcfg;
    gcfg.map = mem::AddressMap{};
    for (int i = 0; i < 25; ++i) {
        core::ProgramGenerator gen(gcfg, rng.split());
        const isa::Program prog = gen.generate();
        const std::string text = isa::formatProgram(prog);
        const isa::Program back = isa::assemble(text);
        ASSERT_EQ(back.blocks.size(), prog.blocks.size()) << text;
        for (std::size_t b = 0; b < prog.blocks.size(); ++b)
            EXPECT_EQ(back.blocks[b].body, prog.blocks[b].body)
                << "block " << b << " of\n" << text;
    }
}

TEST(GeneratedPrograms, SimulateDeterministicallyAcrossHarnesses)
{
    Fixture f;
    SimHarness h1(fastConfig());
    SimHarness h2(fastConfig());
    h1.loadProgram(f.fp.get());
    h2.loadProgram(f.fp.get());
    const auto t1 = h1.runInput(f.input).trace;
    const auto t2 = h2.runInput(f.input).trace;
    EXPECT_EQ(t1, t2);
}

} // namespace
