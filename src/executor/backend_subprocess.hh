/**
 * @file
 * Out-of-process executor backend: the simulator runs in a forked
 * amulet_sim_worker process, driven over a stdin/stdout JSONL protocol
 * (sim_protocol.hh).
 *
 * The backend tracks everything needed to rebuild a worker from scratch
 * — harness config, the loaded program's disassembly, and the last
 * known predictor context (every state-mutating reply carries endCtx) —
 * so a crashed or hung worker is killed, restarted, restored, and the
 * failed operation retried, with results byte-identical to an
 * uninterrupted run. A per-operation timeout bounds how long a wedged
 * worker can stall a shard.
 *
 * With a telemetry sink attached, every line written to the worker adds
 * its bytes (newline included) to the wire.requestBytes counter and
 * every line read back to wire.replyBytes, retries and respawn
 * handshakes included: the wire's weight, measured on this side of the
 * pipe.
 */

#ifndef AMULET_EXECUTOR_BACKEND_SUBPROCESS_HH
#define AMULET_EXECUTOR_BACKEND_SUBPROCESS_HH

#include <memory>
#include <optional>
#include <string>

#include "corpus/serde.hh"
#include "executor/backend.hh"

namespace amulet::executor
{

/** Locate the amulet_sim_worker executable: $AMULET_SIM_WORKER, then
 *  next to the current executable (same dir, examples/, ../examples/).
 *  Throws std::runtime_error when none is found. */
std::string findSimWorker();

/** Build the forked-worker backend. @p options.workerPath empty means
 *  findSimWorker(). */
std::unique_ptr<SimBackend>
makeSubprocessBackend(const HarnessConfig &config,
                      const BackendOptions &options = {});

/** Concrete subprocess backend — exposed (rather than factory-only) so
 *  tests can kill the worker and observe recovery directly. */
class SubprocessBackend final : public SimBackend
{
  public:
    SubprocessBackend(const HarnessConfig &config, BackendOptions options);
    ~SubprocessBackend() override;

    SubprocessBackend(const SubprocessBackend &) = delete;
    SubprocessBackend &operator=(const SubprocessBackend &) = delete;

    const char *name() const override { return "subprocess"; }
    BackendCaps
    caps() const override
    {
        BackendCaps caps;
        caps.outOfProcess = true;
        caps.uarchTrace = true;
        return caps;
    }

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
    const TimeBreakdown &times() override;

    /** Per-request wire flag (protocol v3): while on, run/batch
     *  requests ask the worker to trace and ship the per-instruction
     *  pipeline trace back in the reply. No restart state needed — a
     *  respawned worker honors the flag on the next request. */
    void setUarchTracing(bool on) override { utrace_ = on; }
    std::vector<telemetry::UarchRunTrace> takeUarchTraces() override;

    /** Current worker pid (-1: none). Diagnostics and kill tests. */
    int workerPid() const { return pid_; }

    /** Worker restarts performed so far (crash/timeout recoveries). */
    unsigned restarts() const { return restarts_; }

    /** Total restart-storm backoff slept so far (seconds). */
    double backoffSeconds() const { return backoffSec_; }

  private:
    /** Round-trip one request, restarting a dead/hung worker and
     *  re-establishing its state before a retry; after
     *  BackendOptions::maxAttempts failures on one op, throws
     *  WorkerQuarantineError (per-program verdict, see backend.hh). */
    corpus::Json roundTrip(const corpus::Json &request);

    /** Exponential pre-respawn sleep for retry @p attempt (>= 2). */
    void backoffBeforeRestart(unsigned attempt);

    /** Append any "utraces" the reply carried to collectedTraces_. */
    void collectReplyTraces(const corpus::Json &reply);

    void spawnWorker();      ///< fork/exec + hello (+ reload + restore)
    void killWorker();       ///< SIGKILL + reap + close pipes
    bool sendLine(const std::string &line);
    bool recvLine(std::string &line);

    HarnessConfig cfg_;
    BackendOptions opts_;

    int pid_ = -1;
    int toWorker_ = -1;   ///< write end of the worker's stdin
    int fromWorker_ = -1; ///< read end of the worker's stdout
    std::string rbuf_;    ///< partial-line read buffer

    /** Re-establishable worker state. */
    std::string programText_;
    std::optional<UarchContext> ctx_; ///< last known predictor state
    /** The current worker's boot context, from its hello reply: every
     *  context on the wire is a delta against it (sim_protocol.hh). */
    std::optional<UarchContext> anchor_;

    bool utrace_ = false;
    std::vector<telemetry::UarchRunTrace> collectedTraces_;

    unsigned restarts_ = 0;
    double backoffSec_ = 0;
    /** Breakdown accumulated by workers that have since died; every
     *  mutating reply refreshes lastWorkerTimes_, so a crash loses at
     *  most one operation's worth of timing. */
    TimeBreakdown deadWorkerTimes_;
    TimeBreakdown lastWorkerTimes_; ///< current worker, as of last reply
    TimeBreakdown times_;           ///< storage for times()
};

} // namespace amulet::executor

#endif // AMULET_EXECUTOR_BACKEND_SUBPROCESS_HH
