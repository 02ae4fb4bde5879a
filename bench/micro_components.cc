/**
 * @file
 * Google-benchmark microbenchmarks for the simulator's components:
 * cache/TLB operations, the reference emulator, contract-trace collection,
 * program generation, end-to-end simulated test cases, and the per-input
 * trace extraction and prime restore. These quantify the cost model
 * behind Tables 2-4.
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "arch/emulator.hh"
#include "contracts/leakage_model.hh"
#include "core/generator.hh"
#include "core/input_gen.hh"
#include "executor/sim_harness.hh"
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

} // namespace

BENCHMARK_MAIN();
