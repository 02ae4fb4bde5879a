#include "runtime/shard_executor.hh"

#include <string>

namespace amulet::runtime
{

ShardExecutor::ShardExecutor(const core::CampaignConfig &cfg,
                             Clock::time_point t0,
                             telemetry::CampaignTelemetry *telemetry,
                             unsigned shardId)
    : cfg_(cfg),
      sink_(telemetry ? &telemetry->shardSink(shardId) : nullptr),
      backend_(executor::makeBackend(cfg.backend, cfg.harness)),
      model_(cfg.contract), t0_(t0)
{
    if (telemetry) {
        // A private sink gives the backend's op spans their own trace
        // track, next to the shard's stage spans.
        backend_->setTelemetry(&telemetry->newSink(
            "shard" + std::to_string(shardId) + "/sim"));
    }
    canonicalCtx_ = backend_->saveContext(); // boots the simulator
    if (sink_) {
        // Stage wall times flow into the shard sink: a "stage.<name>"
        // timer + hotspot entry always, plus a per-program trace span
        // when tracing. The span's start is reconstructed from the
        // observer's measured duration.
        pipeline_.setObserver([this](const pipeline::Stage &stage,
                                     const pipeline::ProgramPlan &plan,
                                     double seconds) {
            const auto start =
                Clock::now() -
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
            const std::string name = std::string("stage.") + stage.name();
            sink_->recordTimed(name.c_str(), start, seconds,
                               plan.programIndex);
        });
    }
}

ProgramOutcome
ShardExecutor::runProgram(unsigned p, Rng prog_rng)
{
    pipeline::ProgramPlan plan =
        pipeline::ProgramPlan::forProgram(p, std::move(prog_rng));
    pipeline::StageContext ctx{cfg_,          *backend_, model_,
                               canonicalCtx_, t0_,       sink_,
                               &inputPool_};
    pipeline_.run(ctx, plan);
    // RecordStage copies inputs into corpus records and never
    // references them, so the sandbox buffers can go back to the pool.
    inputPool_.recycleAll(plan.inputs);
    return std::move(plan.outcome);
}

} // namespace amulet::runtime
