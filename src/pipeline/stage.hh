/**
 * @file
 * Staged per-program pipeline: stage interface and the typed state the
 * stages exchange.
 *
 * One test program flows through an ordered list of stages
 * (TestGen → CTrace → Filter → Execute → Analyze → Validate → Record),
 * each reading and extending one ProgramPlan. Stages are stateless —
 * everything a program accumulates lives in its plan, and everything the
 * stages share (config, executor backend, leakage model) comes in via
 * the StageContext — so a pipeline instance can be reused across
 * programs, stages can be reordered, skipped, or instrumented, and a
 * stage can later be dispatched to a remote or out-of-process backend by
 * shipping its plan.
 *
 * Determinism contract (inherited from src/runtime/): a plan's outcome
 * is a pure function of (config, program index, program RNG stream).
 * Stages must draw randomness only from the plan's pre-split streams and
 * touch the simulator (through the backend) only from the canonical
 * per-program starting
 * context.
 */

#ifndef AMULET_PIPELINE_STAGE_HH
#define AMULET_PIPELINE_STAGE_HH

#include <chrono>
#include <cstddef>
#include <optional>
#include <vector>

#include "common/rng.hh"
#include "contracts/leakage_model.hh"
#include "contracts/observation.hh"
#include "core/analyzer.hh"
#include "core/campaign.hh"
#include "executor/backend.hh"
#include "isa/program.hh"

namespace amulet::telemetry
{
class TelemetrySink;
}

namespace amulet::core
{
class InputBufferPool;
}

namespace amulet::pipeline
{

/** Campaign wall clock (detection timestamps, stage timings). */
using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Shared services a stage may use. The context is per-shard: one
 * executor backend and one model, never shared across workers. Stages
 * never see a concrete SimHarness — the backend decides whether the
 * simulator runs in this thread or in another process
 * (src/executor/backend.hh).
 */
struct StageContext
{
    const core::CampaignConfig &cfg;
    executor::SimBackend &backend;
    contracts::LeakageModel &model;
    /** Post-boot predictor state every program starts from. */
    const executor::UarchContext &canonicalCtx;
    /** Campaign start; detection timestamps are measured against it. */
    Clock::time_point t0;
    /** The owning shard's telemetry sink (src/telemetry/), or null when
     *  the campaign runs without telemetry. Stage wall times are
     *  recorded by the pipeline observer, not by stages; the handle is
     *  here for stages that want finer-grained custom metrics.
     *  Observability only — stages must never branch on it. */
    telemetry::TelemetrySink *telemetry = nullptr;
    /** Shard-lived recycler for input sandbox buffers (or null). Purely
     *  an allocation optimization: generated inputs are byte-identical
     *  with or without it (src/core/input_gen.hh). */
    core::InputBufferPool *inputPool = nullptr;
};

/** A candidate pair that survived context-swap validation. */
struct ConfirmedPair
{
    std::size_t a;
    std::size_t b;
    double detectSeconds; ///< wall time since campaign start
};

/**
 * Everything one test program accumulates on its way through the
 * pipeline. Vectors indexed "like inputs" keep one slot per generated
 * input; slots of inputs the FilterStage dropped stay default-
 * constructed and are never read downstream.
 */
struct ProgramPlan
{
    unsigned programIndex = 0;
    /** Pre-split stream state, captured before any draw: with it, a
     *  journaled record can re-derive this whole program offline. */
    Rng::State streamState{};
    Rng genRng{0};    ///< program generation draws
    Rng inputRng{0};  ///< input generation draws
    Rng mutateRng{0}; ///< register-mutation draws

    // TestGenStage
    isa::Program program;
    std::optional<isa::FlatProgram> flat;

    // CTraceStage
    std::vector<arch::Input> inputs;
    std::vector<contracts::CTrace> ctraces;

    // FilterStage
    core::EquivalenceClasses classes;
    /** Classes to execute, in execution order: effective classes first
     *  (class order), then — only with filtering off — the singleton
     *  classes whose runs nothing downstream can use. */
    std::vector<std::size_t> executeClasses;

    // ExecuteStage (indexed like inputs)
    std::vector<executor::UTrace> traces;
    std::vector<executor::UarchContext> contexts; ///< pre-run context
    std::vector<std::vector<executor::UTrace>> extraTraces;

    // AnalyzeStage / ValidateStage
    core::AnalysisResult analysis;
    std::vector<ConfirmedPair> confirmed;

    /** The product: what this program contributes to campaign stats. */
    core::ProgramOutcome outcome;

    /** Set by a stage to stop the pipeline after it returns (program
     *  skipped or aborted; the outcome is already final). */
    bool halt = false;

    /** Plan for one program: captures the stream state, then pre-splits
     *  the per-purpose streams in the fixed order the stages expect. */
    static ProgramPlan forProgram(unsigned programIndex, Rng prog_rng);
};

/** One pipeline stage. Implementations are stateless and thread-
 *  confined: a stage object may be shared by the programs of one shard
 *  but never across shards. */
class Stage
{
  public:
    virtual ~Stage() = default;

    /** Stable stage name (instrumentation, logs). */
    virtual const char *name() const = 0;

    /** Advance @p plan. Set plan.halt to stop the pipeline. */
    virtual void run(StageContext &ctx, ProgramPlan &plan) = 0;
};

} // namespace amulet::pipeline

#endif // AMULET_PIPELINE_STAGE_HH
