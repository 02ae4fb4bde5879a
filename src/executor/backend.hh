/**
 * @file
 * Executor backend abstraction: the seam between test-case orchestration
 * and simulator execution.
 *
 * The pipeline stages (src/pipeline/) and the shard runtime
 * (src/runtime/) drive an abstract SimBackend instead of a concrete
 * SimHarness, so the simulator can live in this thread or in another
 * process without the fuzzing loop knowing. Revizor and SpecFuzz draw
 * the same line between orchestration and execution target; here it is
 * what lets one campaign definition run against gem5-style
 * out-of-process simulators or remote shards later.
 *
 * Determinism contract: every backend executes the exact same simulator
 * operation sequence a plain SimHarness would — program loads, context
 * restores, per-input priming, batch order — so for a fixed
 * (config, seed), confirmed violations, signatures, counters, and
 * journaled records are byte-identical across backends.
 * The backend variant of tests/test_equivalence.cc enforces this per
 * defense.
 *
 * Two backends ship behind makeBackend():
 *  - InProcessBackend: wraps a SimHarness directly (default).
 *  - SubprocessBackend (backend_subprocess.hh): forks an
 *    amulet_sim_worker process and ships whole class batches over a
 *    stdin/stdout JSONL protocol (sim_protocol.hh), with crash
 *    detection and an op timeout. A failed worker fails its op; the
 *    scheduler re-runs the program on a fresh executor.
 */

#ifndef AMULET_EXECUTOR_BACKEND_HH
#define AMULET_EXECUTOR_BACKEND_HH

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "executor/sim_harness.hh"

namespace amulet::telemetry
{
class TelemetrySink;
}

namespace amulet::executor
{

/** Selectable executor backends. */
enum class BackendKind
{
    InProcess,  ///< harness in the calling thread (default)
    Subprocess, ///< harness in a forked amulet_sim_worker process
};

/** What a backend supports beyond the core interface. */
struct BackendCaps
{
    /** The simulator lives in another process (no shared memory with
     *  the caller; programs travel as disassembly). */
    bool outOfProcess = false;
};

/**
 * Abstract executor backend. One backend instance is owned by one shard
 * and driven from that shard's worker thread only; backends are never
 * shared across workers. Every operation is synchronous: it returns
 * when the simulator has finished it.
 */
class SimBackend
{
  public:
    using RunOutput = SimHarness::RunOutput;
    using BatchOutput = SimHarness::BatchOutput;

    /** Result of one validation-style single run. */
    struct SingleOutput
    {
        UTrace trace;
        bool hitCycleCap = false;
        /** One trace per requested extra format, in request order. */
        std::vector<UTrace> extras;
    };

    virtual ~SimBackend() = default;

    /** Stable backend token, its corpus::Tokens<BackendKind> token. */
    virtual const char *name() const = 0;

    virtual BackendCaps caps() const = 0;

    /**
     * Select the test program for subsequent dispatches. @p source is
     * the program's source listing (out-of-process backends ship it as
     * disassembly); @p flat is the flattened image in-process backends
     * execute. Both must outlive every dispatch up to the next load.
     */
    virtual void loadProgram(const isa::Program &source,
                             const isa::FlatProgram &flat) = 0;

    /** @name μarch context (predictor state). Starts the simulator
     *  first when needed. */
    /// @{
    virtual UarchContext saveContext() = 0;
    virtual void restoreContext(const UarchContext &ctx) = 0;
    /// @}

    /**
     * Execute one contract-equivalence-class batch (the dispatch unit,
     * see SimHarness::runBatch).
     */
    virtual BatchOutput
    dispatchBatch(const std::vector<const arch::Input *> &batch,
                  const std::vector<TraceFormat> *extraFormats) = 0;

    /**
     * One validation re-run: the μarch trace of @p input under the
     * current context (plus any extra formats), without batch
     * bookkeeping. Equivalent to SimHarness::runInput + extractExtra.
     */
    virtual SingleOutput
    runOne(const arch::Input &input,
           const std::vector<TraceFormat> *extraFormats) = 0;

    /**
     * Classify a confirmed violation by signature: replay both inputs
     * on the loaded program, each from its original context, with the
     * event log on (SimHarness::replayPair), and match the logs
     * (core::classifyViolation).
     */
    virtual std::string classify(const arch::Input &inputA,
                                 const arch::Input &inputB,
                                 const UarchContext &ctxA,
                                 const UarchContext &ctxB) = 0;

    /** Harness wall-clock breakdown accumulated so far. */
    virtual const TimeBreakdown &times() = 0;

    /**
     * Attach a telemetry sink (src/telemetry/) for op timers/spans and
     * the per-input sim latency histogram; null detaches. Attach before
     * the first operation. Observability only — the operation sequence
     * is identical with or without a sink.
     */
    virtual void setTelemetry(telemetry::TelemetrySink *sink)
    {
        telemetry_ = sink;
    }

  protected:
    telemetry::TelemetrySink *telemetry_ = nullptr;
};

/** The default backend: a SimHarness driven from the calling thread. */
class InProcessBackend final : public SimBackend
{
  public:
    explicit InProcessBackend(const HarnessConfig &config);

    const char *name() const override { return "inproc"; }
    BackendCaps caps() const override { return {}; }

    void loadProgram(const isa::Program &source,
                     const isa::FlatProgram &flat) override;
    UarchContext saveContext() override;
    void restoreContext(const UarchContext &ctx) override;
    BatchOutput
    dispatchBatch(const std::vector<const arch::Input *> &batch,
                  const std::vector<TraceFormat> *extraFormats) override;
    SingleOutput runOne(const arch::Input &input,
                        const std::vector<TraceFormat> *extraFormats) override;
    std::string classify(const arch::Input &inputA,
                         const arch::Input &inputB, const UarchContext &ctxA,
                         const UarchContext &ctxB) override;
    const TimeBreakdown &times() override { return harness_.times(); }
    void setTelemetry(telemetry::TelemetrySink *sink) override;

    /** The wrapped harness (tests). */
    SimHarness &harness() { return harness_; }

  private:
    SimHarness harness_;
    const isa::FlatProgram *flat_ = nullptr;
};

/** Backend-construction options beyond the harness config. */
struct BackendOptions
{
    /** amulet_sim_worker executable (subprocess backend); empty: resolve
     *  via $AMULET_SIM_WORKER, then next to the current executable. */
    std::string workerPath;
    /** Per-operation reply timeout for out-of-process workers; a worker
     *  that stays silent longer is killed and the op fails (seconds,
     *  clamped to one day). $AMULET_SIM_OP_TIMEOUT_SEC overrides this
     *  (the scheduler builds backends with default options, so
     *  campaign-level tests tighten the watchdog via the environment);
     *  a value that is not a finite positive number makes the backend
     *  constructor throw std::runtime_error naming the variable. */
    double opTimeoutSec = 600.0;
};

/**
 * The out-of-process worker failed this op (a crash, a missed deadline,
 * a garbled reply, or a fault-plan poison) and is gone; the scheduler
 * re-runs the program on a fresh executor.
 */
class WorkerQuarantineError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Build a backend for @p kind. Throws std::runtime_error when the kind
 *  needs a helper this installation lacks (e.g. no amulet_sim_worker
 *  found). */
std::unique_ptr<SimBackend> makeBackend(BackendKind kind,
                                        const HarnessConfig &config,
                                        const BackendOptions &options = {});

} // namespace amulet::executor

#endif // AMULET_EXECUTOR_BACKEND_HH
