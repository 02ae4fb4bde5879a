/**
 * @file
 * Per-worker campaign pipeline driver.
 *
 * A ShardExecutor owns one executor backend (src/executor/backend.hh)
 * plus one leakage model and drives every claimed program through
 * pipeline::ProgramPipeline::standard() (src/pipeline/). A program's
 * outcome is meant to be a pure function of (config, program index,
 * program RNG stream):
 *
 *  - all randomness comes from the per-program Rng stream handed in by
 *    the scheduler (pre-split from the campaign seed in program order),
 *  - the predictor state (branch + memory-dependence) is restored to the
 *    canonical post-boot context before every program's execution, and
 *    the harness already canonicalizes caches/TLB between inputs,
 *
 * so that any worker may run any program, on any backend. One gap is
 * still open: the simulator's guard page after the sandbox keeps bytes
 * earlier programs stored there, so at jobs > 1 an outcome can depend
 * on which programs ran before it on the same shard
 * (src/runtime/README.md).
 * At jobs 1 the order is fixed and the campaign is deterministic.
 */

#ifndef AMULET_RUNTIME_SHARD_EXECUTOR_HH
#define AMULET_RUNTIME_SHARD_EXECUTOR_HH

#include <memory>

#include "common/rng.hh"
#include "contracts/leakage_model.hh"
#include "core/campaign.hh"
#include "core/input_gen.hh"
#include "executor/backend.hh"
#include "pipeline/pipeline.hh"
#include "runtime/violation_sink.hh"
#include "telemetry/telemetry.hh"

namespace amulet::runtime
{

/** Campaign wall clock (detection timestamps, time breakdowns). */
using Clock = pipeline::Clock;

/** Seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return pipeline::secondsSince(t0);
}

/** One worker's private pipeline state. */
class ShardExecutor
{
  public:

    /**
     * Construct the worker's backend (and boot its simulator). @p t0 is
     * the campaign start time; detection timestamps are measured
     * against it. @p telemetry (optional) attaches this shard to the
     * campaign telemetry: the shard records stage spans into its shard
     * sink, and the backend gets a private "shardN/sim" sink for its
     * op spans.
     */
    ShardExecutor(const core::CampaignConfig &cfg, Clock::time_point t0,
                  telemetry::CampaignTelemetry *telemetry = nullptr,
                  unsigned shardId = 0);

    /** Run one program with its dedicated RNG stream. An exception
     *  leaves the executor unfit for another program: the scheduler
     *  discards it and re-runs the program on a fresh one. */
    ProgramOutcome runProgram(unsigned programIndex, Rng prog_rng);

    /** Harness time breakdown accumulated so far (startup/sim/extract). */
    const executor::TimeBreakdown &times() { return backend_->times(); }

  private:
    const core::CampaignConfig &cfg_;
    telemetry::TelemetrySink *sink_ = nullptr; ///< this worker thread's
    std::unique_ptr<executor::SimBackend> backend_;
    contracts::LeakageModel model_;
    /** Recycles input sandbox storage across the shard's programs, so
     *  the CTrace stage's hot loop allocates nothing after warm-up. */
    core::InputBufferPool inputPool_;
    executor::UarchContext canonicalCtx_; ///< post-boot predictor state
    Clock::time_point t0_;
    pipeline::ProgramPipeline pipeline_ =
        pipeline::ProgramPipeline::standard();
};

} // namespace amulet::runtime

#endif // AMULET_RUNTIME_SHARD_EXECUTOR_HH
