/**
 * @file
 * Google-benchmark microbenchmarks for the simulator's components:
 * cache/TLB operations, the reference emulator, contract-trace collection,
 * program generation, end-to-end simulated test cases, the per-input
 * trace extraction and prime restore, and input generation (the page
 * jump, one materialized sandbox page, one sibling). These quantify the
 * cost model behind Tables 2-4.
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "arch/emulator.hh"
#include "contracts/leakage_model.hh"
#include "core/generator.hh"
#include "core/input_gen.hh"
#include "executor/sim_harness.hh"
#include "mem/sandbox_image.hh"
#include "uarch/cache.hh"

namespace
{

using namespace amulet;

void
BM_CacheInstallEvict(benchmark::State &state)
{
    uarch::CacheParams params{32 * 1024, 8, 64};
    uarch::Cache cache(params);
    Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.install(addr));
        addr += 64;
    }
}
BENCHMARK(BM_CacheInstallEvict);

void
BM_CacheSnapshot(benchmark::State &state)
{
    uarch::CacheParams params{32 * 1024, 8, 64};
    uarch::Cache cache(params);
    for (Addr a = 0; a < 32 * 1024; a += 64)
        cache.install(a);
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.snapshot());
}
BENCHMARK(BM_CacheSnapshot);

core::GeneratorConfig
genConfig()
{
    core::GeneratorConfig cfg;
    cfg.map = mem::AddressMap{};
    return cfg;
}

void
BM_ProgramGeneration(benchmark::State &state)
{
    Rng rng(7);
    for (auto _ : state) {
        core::ProgramGenerator gen(genConfig(), rng.split());
        benchmark::DoNotOptimize(gen.generate());
    }
}
BENCHMARK(BM_ProgramGeneration);

void
BM_EmulatorRun(benchmark::State &state)
{
    Rng rng(7);
    core::ProgramGenerator gen(genConfig(), rng.split());
    const isa::Program prog = gen.generate();
    const isa::FlatProgram fp(prog, 0x400000);
    core::InputGenConfig icfg;
    icfg.map = mem::AddressMap{};
    core::InputGenerator igen(icfg, rng.split());
    const arch::Input input = igen.generate(0);
    for (auto _ : state) {
        arch::ArchState st;
        st.loadInput(input, icfg.map);
        arch::Emulator emu(fp, std::move(st));
        benchmark::DoNotOptimize(emu.run());
    }
}
BENCHMARK(BM_EmulatorRun);

void
BM_ContractTraceCtSeq(benchmark::State &state)
{
    Rng rng(9);
    core::ProgramGenerator gen(genConfig(), rng.split());
    const isa::Program prog = gen.generate();
    const isa::FlatProgram fp(prog, 0x400000);
    core::InputGenConfig icfg;
    icfg.map = mem::AddressMap{};
    core::InputGenerator igen(icfg, rng.split());
    const arch::Input input = igen.generate(0);
    contracts::LeakageModel model(contracts::ctSeq());
    for (auto _ : state)
        benchmark::DoNotOptimize(model.collect(fp, input, icfg.map));
}
BENCHMARK(BM_ContractTraceCtSeq);

void
BM_ContractTraceCtCond(benchmark::State &state)
{
    Rng rng(9);
    core::ProgramGenerator gen(genConfig(), rng.split());
    const isa::Program prog = gen.generate();
    const isa::FlatProgram fp(prog, 0x400000);
    core::InputGenConfig icfg;
    icfg.map = mem::AddressMap{};
    core::InputGenerator igen(icfg, rng.split());
    const arch::Input input = igen.generate(0);
    contracts::LeakageModel model(contracts::ctCond());
    for (auto _ : state)
        benchmark::DoNotOptimize(model.collect(fp, input, icfg.map));
}
BENCHMARK(BM_ContractTraceCtCond);

void
BM_SimulatedTestCase(benchmark::State &state)
{
    executor::HarnessConfig cfg;
    cfg.defense.kind = static_cast<defense::DefenseKind>(state.range(0));
    cfg.prime = executor::PrimeMode::ConflictFill;
    cfg.bootInsts = 2000;
    executor::SimHarness harness(cfg);

    Rng rng(11);
    core::ProgramGenerator gen(genConfig(), rng.split());
    const isa::Program prog = gen.generate();
    const isa::FlatProgram fp(prog, cfg.map.codeBase);
    harness.loadProgram(&fp);
    core::InputGenConfig icfg;
    icfg.map = cfg.map;
    core::InputGenerator igen(icfg, rng.split());
    const arch::Input input = igen.generate(0);

    for (auto _ : state)
        benchmark::DoNotOptimize(harness.runInput(input));
}
BENCHMARK(BM_SimulatedTestCase)
    ->Arg(static_cast<int>(defense::DefenseKind::Baseline))
    ->Arg(static_cast<int>(defense::DefenseKind::InvisiSpec))
    ->Arg(static_cast<int>(defense::DefenseKind::CleanupSpec))
    ->Arg(static_cast<int>(defense::DefenseKind::Stt))
    ->Arg(static_cast<int>(defense::DefenseKind::SpecLfb));

void
BM_SimulatorStartup(benchmark::State &state)
{
    executor::HarnessConfig cfg;
    cfg.bootInsts = 8000;
    for (auto _ : state) {
        executor::SimHarness harness(cfg);
        harness.start();
        benchmark::DoNotOptimize(harness.startCount());
    }
}
BENCHMARK(BM_SimulatorStartup);

/** A harness after two inputs of a generated program: the L1D holds the
 *  conflict prime (restored from the memo for the second input) plus
 *  what that test touched. */
struct PrimedHarness
{
    PrimedHarness()
    {
        cfg.prime = executor::PrimeMode::ConflictFill;
        cfg.bootInsts = 2000;
        harness = std::make_unique<executor::SimHarness>(cfg);
        Rng rng(11);
        core::ProgramGenerator gen(genConfig(), rng.split());
        fp = std::make_unique<isa::FlatProgram>(gen.generate(),
                                                cfg.map.codeBase);
        harness->loadProgram(fp.get());
        core::InputGenConfig icfg;
        icfg.map = cfg.map;
        core::InputGenerator igen(icfg, rng.split());
        harness->runInput(igen.generate(0));
        harness->runInput(igen.generate(1));
    }

    executor::HarnessConfig cfg;
    std::unique_ptr<isa::FlatProgram> fp;
    std::unique_ptr<executor::SimHarness> harness;
};

void
BM_ExtractTraceL1dTlb(benchmark::State &state)
{
    PrimedHarness primed;
    for (auto _ : state) {
        benchmark::DoNotOptimize(executor::extractTrace(
            primed.harness->pipeline(), executor::TraceFormat::L1dTlb));
    }
}
BENCHMARK(BM_ExtractTraceL1dTlb);

void
BM_MemRestorePrime(benchmark::State &state)
{
    // Per iteration: a run's worth of cache traffic on top of the
    // post-prime state (sandbox lines into the L1D, code lines into the
    // L1I, both into the L2), then the prime-snapshot restore that
    // starts the next input.
    PrimedHarness primed;
    uarch::MemSystem &mem = primed.harness->pipeline().memSys();
    const uarch::MemSnapshot snap = mem.save();
    mem.restore(snap);
    const Addr sandbox = primed.cfg.map.sandboxBase;
    const Addr code = primed.fp->codeBase();
    for (auto _ : state) {
        for (Addr i = 0; i < 16; ++i) {
            mem.l1d().install(sandbox + 64 * (i * 5 % 64));
            mem.l1i().install(code + 64 * i);
            mem.l2().install(code + 64 * i);
            mem.l2().install(sandbox + 64 * i);
        }
        mem.restore(snap);
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_MemRestorePrime);

void
BM_RngJumpPage(benchmark::State &state)
{
    // One page-table jump: the stream 512 * 77 draws ahead.
    Rng::State s = Rng(13).state();
    for (auto _ : state) {
        s = mem::pageJump(s, 77);
        benchmark::DoNotOptimize(s);
    }
}
BENCHMARK(BM_RngJumpPage);

void
BM_MaterializePage(benchmark::State &state)
{
    // One page of a 128-page sibling image: jump, fill, patch overlay.
    core::InputGenConfig icfg;
    icfg.map.sandboxPages = 128;
    core::InputGenerator igen(icfg, Rng(13));
    const arch::Input base = igen.generate(0);
    std::vector<std::size_t> offsets;
    for (std::size_t off = 0; off < icfg.map.sandboxSize(); off += 8191)
        offsets.push_back(off);
    const arch::Input sib = igen.sibling(base, offsets, 1);
    std::vector<std::uint8_t> page(mem::kPageSize);
    std::uint8_t *out = page.data();
    std::size_t p = 0;
    for (auto _ : state) {
        sib.sandbox.copyPage(p, out);
        benchmark::DoNotOptimize(out);
        benchmark::ClobberMemory();
        p = (p + 37) % 128;
    }
}
BENCHMARK(BM_MaterializePage);

void
BM_GenerateSibling(benchmark::State &state)
{
    // One sibling of a base, as the ctrace stage makes them: read-offset
    // patches computed once per base, buffers recycled through the
    // shard's pool.
    core::InputGenConfig icfg;
    icfg.map.sandboxPages = static_cast<unsigned>(state.range(0));
    core::InputBufferPool pool;
    core::InputGenerator igen(icfg, Rng(13), &pool);
    const arch::Input base = igen.generate(0);
    Rng pick(14);
    std::vector<std::size_t> offsets;
    for (int i = 0; i < 32; ++i)
        offsets.push_back(pick.nextBelow(icfg.map.sandboxSize()));
    const auto patches = core::InputGenerator::siblingPatches(base, offsets);
    std::vector<arch::Input> dead(1);
    for (auto _ : state) {
        dead[0] = igen.sibling(base, patches, 1);
        benchmark::DoNotOptimize(dead[0]);
        pool.recycleAll(dead);
    }
}
BENCHMARK(BM_GenerateSibling)->Arg(1)->Arg(128);

} // namespace

BENCHMARK_MAIN();
