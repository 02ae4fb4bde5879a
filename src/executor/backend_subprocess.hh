/**
 * @file
 * Out-of-process executor backend: the simulator runs in a forked
 * amulet_sim_worker process, driven over a stdin/stdout JSONL protocol
 * (sim_protocol.hh).
 *
 * Each backend spawns one worker in its constructor and keeps it for
 * its whole life. An op the worker fails (a crash, a reply missing its
 * per-operation deadline, a garbled reply) kills the worker and throws
 * WorkerQuarantineError; the backend is then spent, and the scheduler
 * re-runs the program on a fresh executor (src/runtime/README.md,
 * "Failure model").
 *
 * With a telemetry sink attached, every line written to the worker adds
 * its bytes (newline included) to the wire.requestBytes counter and
 * every line read back to wire.replyBytes: the wire's weight, measured
 * on this side of the pipe.
 */

#ifndef AMULET_EXECUTOR_BACKEND_SUBPROCESS_HH
#define AMULET_EXECUTOR_BACKEND_SUBPROCESS_HH

#include <memory>
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
 *  tests can kill the worker and observe the failure directly. */
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
    /** The breakdown of the worker's last reply (hello, batch, run or
     *  classify): load, save and restore change none of it once hello
     *  has booted the worker. No round trip. */
    const TimeBreakdown &times() override { return times_; }

    /** Current worker pid (-1: none). Diagnostics and kill tests. */
    int workerPid() const { return pid_; }

  private:
    /** Send one request and return its reply. A worker error reply
     *  throws std::runtime_error; a failed worker is killed, and the op
     *  throws WorkerQuarantineError (backend.hh). */
    corpus::Json roundTrip(const corpus::Json &request);

    void spawnWorker();      ///< fork/exec + hello
    void killWorker();       ///< SIGKILL + reap + close pipes
    bool sendLine(const std::string &line);
    bool recvLine(std::string &line);

    HarnessConfig cfg_;
    BackendOptions opts_;

    int pid_ = -1;
    int toWorker_ = -1;   ///< write end of the worker's stdin
    int fromWorker_ = -1; ///< read end of the worker's stdout
    std::string rbuf_;    ///< partial-line read buffer

    /** The worker's boot context, from its hello reply: every context
     *  on the wire is a delta against it (sim_protocol.hh). */
    UarchContext anchor_;
    TimeBreakdown times_; ///< the worker's, as of its last reply
};

} // namespace amulet::executor

#endif // AMULET_EXECUTOR_BACKEND_SUBPROCESS_HH
