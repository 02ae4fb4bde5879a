/**
 * @file
 * Staged per-program pipeline tests (src/pipeline/): stage order and
 * composition, observer instrumentation, per-stage behaviour in
 * isolation (TestGen determinism, CTrace consistency including the
 * reused mutation-confirmation trace, Filter semantics), and the
 * SimHarness batch API the ExecuteStage is built on.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "isa/disasm.hh"
#include "pipeline/pipeline.hh"
#include "pipeline/stages.hh"

namespace
{

using namespace amulet;

core::CampaignConfig
smallConfig()
{
    core::CampaignConfig cfg;
    cfg.harness.bootInsts = 500;
    cfg.baseInputsPerProgram = 2;
    cfg.siblingsPerBase = 2;
    cfg.seed = 7;
    return cfg;
}

/** One backend + model + canonical context, as a shard would own. */
struct Fixture
{
    core::CampaignConfig cfg = smallConfig();
    executor::InProcessBackend backend{cfg.harness};
    executor::SimHarness &harness = backend.harness();
    contracts::LeakageModel model{cfg.contract};
    executor::UarchContext canonicalCtx = backend.saveContext();
    pipeline::StageContext ctx{cfg, backend, model, canonicalCtx,
                               pipeline::Clock::now()};
};

/** Minimal injectable stage for composition/instrumentation tests. */
class HookStage : public pipeline::Stage
{
  public:
    HookStage(const char *name,
              std::function<void(pipeline::ProgramPlan &)> fn)
        : name_(name), fn_(std::move(fn))
    {
    }
    const char *name() const override { return name_; }
    void run(pipeline::StageContext &,
             pipeline::ProgramPlan &plan) override
    {
        fn_(plan);
    }

  private:
    const char *name_;
    std::function<void(pipeline::ProgramPlan &)> fn_;
};

TEST(ProgramPipeline, StandardStageOrderMatchesThePaperLoop)
{
    const auto p = pipeline::ProgramPipeline::standard();
    const char *expected[] = {"testgen", "ctrace",   "filter", "execute",
                              "analyze", "validate", "record"};
    ASSERT_EQ(p.size(), 7u);
    for (std::size_t i = 0; i < p.size(); ++i)
        EXPECT_STREQ(p.stage(i).name(), expected[i]);
}

TEST(ProgramPipeline, ObserverSeesEveryStageAndHaltStopsThePipeline)
{
    Fixture f;
    pipeline::ProgramPipeline p;
    p.append(std::make_unique<HookStage>("one", [](auto &) {}));
    p.append(std::make_unique<HookStage>("two",
                                         [](auto &plan) { plan.halt = true; }));
    p.append(std::make_unique<HookStage>("never", [](auto &) {
        FAIL() << "stage after halt must not run";
    }));

    std::vector<std::string> seen;
    p.setObserver([&](const pipeline::Stage &stage,
                      const pipeline::ProgramPlan &, double seconds) {
        EXPECT_GE(seconds, 0.0);
        seen.push_back(stage.name());
    });
    pipeline::ProgramPlan plan =
        pipeline::ProgramPlan::forProgram(0, Rng(1));
    p.run(f.ctx, plan);
    EXPECT_EQ(seen, (std::vector<std::string>{"one", "two"}));
}

TEST(TestGenStage, DeterministicForEqualStreams)
{
    Fixture f;
    pipeline::TestGenStage stage;
    auto plan_a = pipeline::ProgramPlan::forProgram(3, Rng(42));
    auto plan_b = pipeline::ProgramPlan::forProgram(3, Rng(42));
    stage.run(f.ctx, plan_a);
    stage.run(f.ctx, plan_b);
    EXPECT_EQ(isa::formatProgram(plan_a.program),
              isa::formatProgram(plan_b.program));
    EXPECT_GT(plan_a.outcome.testGenSec, 0.0);
}

// Every stored contract trace — including the reused trace that
// confirmed a register mutation — must equal a fresh collect for its
// input, or downstream equivalence classes would be built on lies.
TEST(CTraceStage, StoredTracesMatchFreshCollects)
{
    Fixture f;
    f.cfg.regMutationPct = 100; // force the mutation path
    pipeline::TestGenStage gen;
    pipeline::CTraceStage ctrace;
    auto plan = pipeline::ProgramPlan::forProgram(0, Rng(f.cfg.seed));
    gen.run(f.ctx, plan);
    ctrace.run(f.ctx, plan);

    const std::size_t expected = f.cfg.baseInputsPerProgram *
                                 (1 + f.cfg.siblingsPerBase);
    ASSERT_EQ(plan.inputs.size(), expected);
    ASSERT_EQ(plan.ctraces.size(), expected);
    for (std::size_t i = 0; i < plan.inputs.size(); ++i) {
        EXPECT_EQ(plan.ctraces[i],
                  f.model.collect(*plan.flat, plan.inputs[i],
                                  f.cfg.harness.map))
            << "input " << i;
    }
}

/** Plan with synthetic ctraces: values spell the class layout. */
pipeline::ProgramPlan
planWithCTraces(const std::vector<std::uint64_t> &values)
{
    pipeline::ProgramPlan plan;
    for (std::uint64_t v : values) {
        plan.inputs.emplace_back();
        plan.ctraces.push_back(
            {{contracts::Obs::Kind::LoadAddr, v}});
    }
    return plan;
}

TEST(FilterStage, DropsSingletonClassesWhenOn)
{
    Fixture f;
    pipeline::FilterStage stage;
    // Classes: {0,1,3} (A), {2} (B), {4} (C) — one effective, two
    // singletons.
    auto plan = planWithCTraces({7, 7, 8, 7, 9});
    stage.run(f.ctx, plan);
    EXPECT_EQ(plan.outcome.effectiveClasses, 1u);
    EXPECT_EQ(plan.executeClasses, (std::vector<std::size_t>{0}));
    EXPECT_EQ(plan.outcome.filteredTestCases, 2u);
    EXPECT_FALSE(plan.halt);
}

TEST(FilterStage, OffKeepsSingletonsAfterEveryEffectiveClass)
{
    Fixture f;
    f.cfg.filterIneffective = false;
    pipeline::FilterStage stage;
    // Classes in first-occurrence order: {0} (A), {1,3} (B), {2} (C).
    auto plan = planWithCTraces({7, 8, 9, 8});
    stage.run(f.ctx, plan);
    EXPECT_EQ(plan.outcome.filteredTestCases, 0u);
    // Effective class first, then the singletons in class order: the
    // executed prefix is what filtering on would run.
    EXPECT_EQ(plan.executeClasses, (std::vector<std::size_t>{1, 0, 2}));
    EXPECT_FALSE(plan.halt);
}

TEST(FilterStage, ZeroEffectiveClassesSkipsTheSimulatorEntirely)
{
    Fixture f;
    pipeline::FilterStage stage;
    auto plan = planWithCTraces({1, 2, 3});
    stage.run(f.ctx, plan);
    EXPECT_TRUE(plan.halt);
    EXPECT_TRUE(plan.outcome.skippedProgram);
    EXPECT_TRUE(plan.outcome.ran);
    EXPECT_EQ(plan.outcome.testCases, 3u);
    EXPECT_EQ(plan.outcome.filteredTestCases, 3u);
    EXPECT_TRUE(plan.executeClasses.empty());

    // Filtering off must still execute those singletons.
    Fixture off;
    off.cfg.filterIneffective = false;
    auto plan_off = planWithCTraces({1, 2, 3});
    stage.run(off.ctx, plan_off);
    EXPECT_FALSE(plan_off.halt);
    EXPECT_EQ(plan_off.executeClasses.size(), 3u);
}

// The batch API must be observationally identical to the per-input
// loop it replaces: same traces, same pre-run contexts.
TEST(SimHarnessBatch, MatchesPerInputRuns)
{
    Fixture f;
    pipeline::TestGenStage gen;
    pipeline::CTraceStage ctrace;
    auto plan = pipeline::ProgramPlan::forProgram(0, Rng(f.cfg.seed));
    gen.run(f.ctx, plan);
    ctrace.run(f.ctx, plan);
    ASSERT_GE(plan.inputs.size(), 3u);
    std::vector<const arch::Input *> batch;
    for (std::size_t i = 0; i < 3; ++i)
        batch.push_back(&plan.inputs[i]);

    f.harness.loadProgram(&*plan.flat);
    f.harness.restoreContext(f.canonicalCtx);
    const auto res = f.harness.runBatch(batch);
    ASSERT_FALSE(res.hitCycleCap);
    ASSERT_EQ(res.runs.size(), batch.size());
    ASSERT_EQ(res.startContexts.size(), batch.size());

    f.harness.restoreContext(f.canonicalCtx);
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const auto manual = f.harness.runInput(*batch[i]);
        EXPECT_TRUE(manual.trace == res.runs[i].trace) << "input " << i;
    }
}

// ExecuteStage must stay usable in a pipeline composed without a
// FilterStage: it plans every class itself instead of silently
// executing nothing.
TEST(ExecuteStage, RunsAllClassesWhenFilterStageWasSkipped)
{
    Fixture f;
    pipeline::ProgramPipeline p;
    p.append(std::make_unique<pipeline::TestGenStage>());
    p.append(std::make_unique<pipeline::CTraceStage>());
    p.append(std::make_unique<pipeline::ExecuteStage>()); // no Filter
    auto plan = pipeline::ProgramPlan::forProgram(0, Rng(f.cfg.seed));
    p.run(f.ctx, plan);
    ASSERT_TRUE(plan.outcome.ran);
    EXPECT_EQ(plan.outcome.testCases, plan.inputs.size());
    EXPECT_FALSE(plan.classes.classes.empty());
    // Every input executed: every context slot was filled.
    std::size_t executed = 0;
    for (std::size_t c : plan.executeClasses)
        executed += plan.classes.classes[c].size();
    EXPECT_EQ(executed, plan.inputs.size());
}

// A pipeline prefix composes without ever touching the simulator: the
// contract-side stages are dispatchable on harness-free workers.
TEST(ProgramPipeline, ContractSideStagesComposeWithoutExecution)
{
    Fixture f;
    pipeline::ProgramPipeline p;
    p.append(std::make_unique<pipeline::TestGenStage>());
    p.append(std::make_unique<pipeline::CTraceStage>());
    p.append(std::make_unique<pipeline::FilterStage>());
    auto plan = pipeline::ProgramPlan::forProgram(1, Rng(9));
    p.run(f.ctx, plan);
    EXPECT_FALSE(plan.inputs.empty());
    EXPECT_EQ(plan.ctraces.size(), plan.inputs.size());
    EXPECT_FALSE(plan.classes.classes.empty());
    EXPECT_TRUE(plan.traces.empty()); // ExecuteStage never ran
}

} // namespace
