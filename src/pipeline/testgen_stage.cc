#include "pipeline/stages.hh"

#include <utility>

#include "core/generator.hh"

namespace amulet::pipeline
{

void
TestGenStage::run(StageContext &ctx, ProgramPlan &plan)
{
    const auto t0 = Clock::now();
    // The campaign has one address map, the harness's (gen.map is
    // ignored), so programs mask into the sandbox the simulator maps.
    core::GeneratorConfig gen = ctx.cfg.gen;
    gen.map = ctx.cfg.harness.map;
    core::ProgramGenerator generator(std::move(gen), plan.genRng);
    plan.program = generator.generate();
    plan.flat.emplace(plan.program, ctx.cfg.harness.map.codeBase);
    plan.outcome.testGenSec += secondsSince(t0);
}

} // namespace amulet::pipeline
