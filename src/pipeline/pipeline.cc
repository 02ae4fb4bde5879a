#include "pipeline/pipeline.hh"

#include "pipeline/stages.hh"

namespace amulet::pipeline
{

ProgramPlan
ProgramPlan::forProgram(unsigned programIndex, Rng prog_rng)
{
    ProgramPlan plan;
    plan.programIndex = programIndex;
    // Stream state first, then the fixed split order: gen, input,
    // mutate. Replays and journaled records depend on this order.
    plan.streamState = prog_rng.state();
    plan.genRng = prog_rng.split();
    plan.inputRng = prog_rng.split();
    plan.mutateRng = prog_rng.split();
    return plan;
}

ProgramPipeline
ProgramPipeline::standard()
{
    ProgramPipeline p;
    p.append(std::make_unique<TestGenStage>());
    p.append(std::make_unique<CTraceStage>());
    p.append(std::make_unique<FilterStage>());
    p.append(std::make_unique<ExecuteStage>());
    p.append(std::make_unique<AnalyzeStage>());
    p.append(std::make_unique<ValidateStage>());
    p.append(std::make_unique<RecordStage>());
    return p;
}

void
ProgramPipeline::append(std::unique_ptr<Stage> stage)
{
    stages_.push_back(std::move(stage));
}

void
ProgramPipeline::run(StageContext &ctx, ProgramPlan &plan) const
{
    for (const auto &stage : stages_) {
        const auto t0 = Clock::now();
        stage->run(ctx, plan);
        if (observer_)
            observer_(*stage, plan, secondsSince(t0));
        if (plan.halt)
            break;
    }
}

} // namespace amulet::pipeline
