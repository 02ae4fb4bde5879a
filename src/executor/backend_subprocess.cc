#include "executor/backend_subprocess.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>

#include <fcntl.h>
#include <limits.h>
#include <poll.h>
#include <signal.h>
#include <sys/uio.h>
#include <sys/wait.h>
#include <unistd.h>

#include "corpus/fields.hh"
#include "executor/sim_protocol.hh"
#include "isa/disasm.hh"
#include "runtime/fault.hh"
#include "telemetry/telemetry.hh"

namespace amulet::executor
{

namespace
{

using corpus::Json;
using protocol::kProtocolVersion;

/** Directory part of @p path (empty when there is none). */
std::string
dirName(const std::string &path)
{
    const auto slash = path.find_last_of('/');
    return slash == std::string::npos ? std::string()
                                      : path.substr(0, slash);
}

/** Writing to a worker that died mid-shutdown must surface as EPIPE on
 *  the write (handled as a crash), not as a process-killing SIGPIPE. */
void
ignoreSigpipeOnce()
{
    static const bool done = [] {
        struct sigaction sa;
        std::memset(&sa, 0, sizeof(sa));
        sa.sa_handler = SIG_IGN;
        sigaction(SIGPIPE, &sa, nullptr);
        return true;
    }();
    (void)done;
}

} // namespace

std::string
findSimWorker()
{
    if (const char *env = std::getenv("AMULET_SIM_WORKER")) {
        if (access(env, X_OK) == 0)
            return env;
        throw std::runtime_error(
            std::string("AMULET_SIM_WORKER is not executable: ") + env);
    }
    char buf[PATH_MAX];
    const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        const std::string dir = dirName(buf);
        for (const std::string &candidate :
             {dir + "/amulet_sim_worker",
              dir + "/examples/amulet_sim_worker",
              dir + "/../examples/amulet_sim_worker"}) {
            if (access(candidate.c_str(), X_OK) == 0)
                return candidate;
        }
    }
    throw std::runtime_error(
        "amulet_sim_worker not found next to this executable; build the "
        "examples or set AMULET_SIM_WORKER");
}

SubprocessBackend::SubprocessBackend(const HarnessConfig &config,
                                     BackendOptions options)
    : cfg_(config), opts_(std::move(options))
{
    ignoreSigpipeOnce();
    if (opts_.workerPath.empty())
        opts_.workerPath = findSimWorker();
    if (const char *env = std::getenv("AMULET_SIM_OP_TIMEOUT_SEC")) {
        const double sec = std::strtod(env, nullptr);
        if (sec > 0)
            opts_.opTimeoutSec = sec;
    }
    spawnWorker();
}

SubprocessBackend::~SubprocessBackend()
{
    if (pid_ < 0)
        return;
    // The sink may be gone before its backend; the exit line is not
    // counted.
    telemetry_ = nullptr;
    // Polite shutdown first; the worker exits on "exit" or on EOF.
    Json req = Json::object();
    req.set("op", Json::str("exit"));
    sendLine(req.dump());
    close(toWorker_);
    toWorker_ = -1;
    // Give it a moment, then force.
    for (int i = 0; i < 50; ++i) {
        if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
            pid_ = -1;
            break;
        }
        usleep(2000);
    }
    if (pid_ >= 0) {
        kill(pid_, SIGKILL);
        waitpid(pid_, nullptr, 0);
    }
    if (fromWorker_ >= 0)
        close(fromWorker_);
}

void
SubprocessBackend::spawnWorker()
{
    int to_child[2];   // parent writes -> child stdin
    int from_child[2]; // child stdout -> parent reads
    // O_CLOEXEC: concurrently forked sibling workers (jobs > 1) must
    // not inherit this backend's pipe ends — a stray write end held
    // open in another worker would defeat EOF-based crash detection
    // (dup2 below clears the flag on the child's stdio copies).
    if (pipe2(to_child, O_CLOEXEC) != 0)
        throw std::runtime_error("subprocess backend: pipe() failed");
    if (pipe2(from_child, O_CLOEXEC) != 0) {
        close(to_child[0]);
        close(to_child[1]);
        throw std::runtime_error("subprocess backend: pipe() failed");
    }

    const pid_t pid = fork();
    if (pid < 0) {
        for (const int fd : {to_child[0], to_child[1], from_child[0],
                             from_child[1]})
            close(fd);
        throw std::runtime_error("subprocess backend: fork() failed");
    }
    if (pid == 0) {
        // Child: wire the pipes to stdio and become the worker.
        dup2(to_child[0], STDIN_FILENO);
        dup2(from_child[1], STDOUT_FILENO);
        close(to_child[0]);
        close(to_child[1]);
        close(from_child[0]);
        close(from_child[1]);
        execl(opts_.workerPath.c_str(), opts_.workerPath.c_str(),
              static_cast<char *>(nullptr));
        _exit(127); // exec failed
    }
    close(to_child[0]);
    close(from_child[1]);
    pid_ = pid;
    toWorker_ = to_child[1];
    fromWorker_ = from_child[0];
    rbuf_.clear();

    // Handshake, then re-establish the worker's session state. These go
    // through raw send/recv (not roundTrip): a worker that cannot even
    // say hello is not worth retry loops. Every failure kills and reaps
    // the worker before it throws, so a failed spawn leaves no process
    // and no pipe behind, and the message names the step that failed.
    auto exchange = [&](const Json &req) {
        std::string reply_text;
        if (!sendLine(req.dump()) || !recvLine(reply_text))
            throw std::runtime_error("no reply (bad executable or crash "
                                     "at startup?)");
        Json reply = Json::parse(reply_text);
        if (!reply.at("ok").asBool())
            throw std::runtime_error("error: " + reply.at("error").asStr());
        return reply;
    };
    const char *step = "hello";
    try {
        Json hello = Json::object();
        hello.set("op", Json::str("hello"));
        hello.set("version",
                  Json::number(std::uint64_t{kProtocolVersion}));
        // Runtime scope: the worker's simulator must honor the
        // operator's runtime knobs, which the corpus encoding leaves out.
        hello.set("harness", corpus::encode<corpus::Scope::Runtime>(cfg_));
        UarchContext boot =
            protocol::contextFromWire(nullptr, exchange(hello).at("ctx"));
        // A request being retried was coded against the anchor of the
        // worker this one replaces. Boot is deterministic, so a worker
        // that booted another context is broken, not merely different.
        if (anchor_ && (boot.bp != anchor_->bp || boot.mdp != anchor_->mdp))
            throw std::runtime_error("booted another context than the "
                                     "worker it replaces");
        anchor_ = std::move(boot);

        if (!programText_.empty()) {
            step = "program reload";
            Json load = Json::object();
            load.set("op", Json::str("load"));
            load.set("program", Json::str(programText_));
            exchange(load);
        }
        if (ctx_) {
            step = "context restore";
            Json restore = Json::object();
            restore.set("op", Json::str("restore"));
            restore.set("ctx", protocol::contextToWire(&*anchor_, *ctx_));
            exchange(restore);
        }
    } catch (const std::exception &e) {
        killWorker();
        throw std::runtime_error(std::string("subprocess backend: worker ") +
                                 step + " failed: " + e.what());
    }
}

void
SubprocessBackend::killWorker()
{
    if (pid_ >= 0) {
        kill(pid_, SIGKILL);
        waitpid(pid_, nullptr, 0);
        pid_ = -1;
        // The worker's counters die with it; fold in what its last
        // reply reported (at most one operation of timing is lost).
        deadWorkerTimes_.accumulate(lastWorkerTimes_);
        lastWorkerTimes_ = TimeBreakdown{};
    }
    if (toWorker_ >= 0) {
        close(toWorker_);
        toWorker_ = -1;
    }
    if (fromWorker_ >= 0) {
        close(fromWorker_);
        fromWorker_ = -1;
    }
    rbuf_.clear();
}

bool
SubprocessBackend::sendLine(const std::string &line)
{
    if (toWorker_ < 0)
        return false;
    // Gather-write the line and its '\n' so the request is never copied
    // just to frame it.
    char newline = '\n';
    const std::size_t total = line.size() + 1;
    std::size_t off = 0;
    while (off < total) {
        struct iovec iov[2];
        int count = 0;
        if (off < line.size()) {
            iov[count].iov_base = const_cast<char *>(line.data() + off);
            iov[count++].iov_len = line.size() - off;
        }
        iov[count].iov_base = &newline;
        iov[count++].iov_len = 1;
        const ssize_t n = writev(toWorker_, iov, count);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false; // EPIPE: worker died
        }
        off += static_cast<std::size_t>(n);
    }
    if (telemetry_)
        telemetry_->metrics().counter("wire.requestBytes").add(total);
    return true;
}

bool
SubprocessBackend::recvLine(std::string &line)
{
    if (fromWorker_ < 0)
        return false;
    const double timeout = opts_.opTimeoutSec;
    // The watchdog is a monotonic per-*operation* deadline, not a
    // per-poll() budget: a worker trickling one byte per poll interval
    // would otherwise reset the timeout forever and evade the kill.
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(timeout > 0 ? timeout : 0));
    std::size_t scanned = 0; // rbuf_ prefix known to hold no '\n'
    for (;;) {
        const auto nl = rbuf_.find('\n', scanned);
        scanned = rbuf_.size();
        if (nl != std::string::npos) {
            line = rbuf_.substr(0, nl);
            rbuf_.erase(0, nl + 1);
            if (telemetry_)
                telemetry_->metrics().counter("wire.replyBytes").add(nl + 1);
            return true;
        }
        struct pollfd pfd;
        pfd.fd = fromWorker_;
        pfd.events = POLLIN;
        int timeout_ms = -1;
        if (timeout > 0) {
            const auto left =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - std::chrono::steady_clock::now())
                    .count();
            if (left <= 0)
                return false; // deadline spent: wedged or trickling
            timeout_ms = static_cast<int>(
                std::min<long long>(left, INT_MAX));
        }
        const int ready = poll(&pfd, 1, timeout_ms);
        if (ready == 0)
            return false; // wedged worker: caller kills and restarts
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        char chunk[65536];
        const ssize_t n = read(fromWorker_, chunk, sizeof(chunk));
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            return false; // EOF: worker died
        }
        rbuf_.append(chunk, static_cast<std::size_t>(n));
    }
}

corpus::Json
SubprocessBackend::roundTrip(const Json &request)
{
    // The wire span covers serialization, the worker's execution, and
    // reply parsing — the true cost of shipping this op out of process
    // (restarted attempts included).
    const std::string spanName = "wire." + request.at("op").asStr();
    telemetry::SpanScope span(telemetry_, spanName.c_str());
    const std::string text = request.dump();
    // Deterministic chaos layer: ops inside a ShardExecutor program
    // scope carry a stable (program, op#) key the fault plan can
    // target. Boot and shard-end ops are unscoped and never faulted.
    const runtime::fault::FaultPlan *plan =
        runtime::fault::FaultPlan::active();
    const std::uint64_t opKey = runtime::fault::ProgramScope::nextOpKey();
    const unsigned program = runtime::fault::ProgramScope::currentProgram();
    const bool poisonedOp =
        plan && program != runtime::fault::ProgramScope::kNoProgram &&
        plan->poisoned(program);
    // Retries run on a fresh worker: the crash handler re-establishes
    // the exact pre-operation state (config, program, predictor
    // context), so a retried operation is deterministic. A worker that
    // fails every allowed attempt at one operation is poisoned by that
    // operation — escalate to a per-program quarantine instead of
    // killing the campaign.
    const unsigned max_attempts = std::max(1u, opts_.maxAttempts);
    for (unsigned attempt = 0; attempt < max_attempts; ++attempt) {
        if (attempt >= 2)
            backoffBeforeRestart(attempt);
        if (poisonedOp) {
            // Injected persistent failure: the op never reaches a
            // worker, every attempt fails, quarantine must trigger.
            killWorker();
            continue;
        }
        if (pid_ < 0) {
            ++restarts_;
            if (telemetry_)
                telemetry_->noteBackendRestart();
            spawnWorker();
        }
        if (plan && attempt == 0 && plan->fires("wire.crash", opKey))
            killWorker(); // simulated crash: the send below fails
        std::string reply_text;
        if (sendLine(text) && recvLine(reply_text)) {
            if (plan && attempt == 0) {
                if (plan->fires("wire.drop", opKey)) {
                    // Simulated hang: discard the good reply and take
                    // the timeout-kill-restart path.
                    killWorker();
                    continue;
                }
                if (plan->fires("wire.garble", opKey))
                    reply_text.resize(reply_text.size() / 2);
            }
            // A reply that does not parse, or parses without the
            // protocol's ok/error shape, is a worker malfunction — the
            // crash path (kill, restart, retry), never a campaign-
            // killing exception.
            std::optional<Json> reply;
            std::string workerError;
            bool isWorkerError = false;
            try {
                Json parsed = Json::parse(reply_text);
                if (!parsed.at("ok").asBool()) {
                    workerError = parsed.at("error").asStr();
                    isWorkerError = true;
                } else {
                    reply.emplace(std::move(parsed));
                }
            } catch (const corpus::CorpusError &) {
                // garbled/truncated reply: fall through to killWorker
            }
            if (isWorkerError)
                throw std::runtime_error(
                    "subprocess backend: worker error: " + workerError);
            if (reply)
                return *std::move(reply);
        }
        killWorker();
    }
    throw WorkerQuarantineError(
        "subprocess backend: worker failed " +
        std::to_string(max_attempts) + " attempts at one operation (op " +
        request.at("op").asStr() + ")" +
        (poisonedOp ? " [fault-plan poison]" : ""));
}

void
SubprocessBackend::backoffBeforeRestart(unsigned attempt)
{
    // Restart-storm guard: exponential backoff from the second retry
    // on (the first retry is immediate — a clean crash-restart should
    // not pay latency). Slept time is visible as the
    // backend.restartBackoffSec timer.
    const double sec =
        opts_.restartBackoffSec * static_cast<double>(1u << (attempt - 2));
    if (sec <= 0)
        return;
    usleep(static_cast<useconds_t>(sec * 1e6));
    backoffSec_ += sec;
    if (telemetry_)
        telemetry_->metrics().timer("backend.restartBackoffSec").add(sec);
}

void
SubprocessBackend::loadProgram(const isa::Program &source,
                               const isa::FlatProgram &)
{
    telemetry::SpanScope span(telemetry_, "op.loadProgram");
    programText_ = isa::formatProgram(source);
    Json req = Json::object();
    req.set("op", Json::str("load"));
    req.set("program", Json::str(programText_));
    roundTrip(req);
}

UarchContext
SubprocessBackend::saveContext()
{
    Json req = Json::object();
    req.set("op", Json::str("save"));
    const Json reply = roundTrip(req);
    UarchContext ctx = protocol::contextFromWire(&*anchor_, reply.at("ctx"));
    // Remember the state so a crash before the next mutating op
    // restores to it.
    ctx_ = ctx;
    return ctx;
}

void
SubprocessBackend::restoreContext(const UarchContext &ctx)
{
    telemetry::SpanScope span(telemetry_, "op.restoreContext");
    Json req = Json::object();
    req.set("op", Json::str("restore"));
    // A context whose tables do not fit the anchor's is refused here,
    // before it reaches the wire.
    req.set("ctx", protocol::contextToWire(&*anchor_, ctx));
    roundTrip(req);
    ctx_ = ctx;
}

SimBackend::BatchOutput
SubprocessBackend::dispatchBatch(const std::vector<const arch::Input *> &batch,
                                 const std::vector<TraceFormat> *extraFormats)
{
    telemetry::SpanScope span(telemetry_, "op.dispatchBatch");
    const Json reply =
        roundTrip(protocol::batchRequest(batch, extraFormats, utrace_));
    UarchContext endCtx;
    BatchOutput out =
        protocol::batchOutputFromJson(reply, &endCtx, &*anchor_);
    if (!extraFormats)
        out.extras.clear();
    ctx_ = std::move(endCtx);
    lastWorkerTimes_ = corpus::decode<TimeBreakdown>(reply.at("times"));
    collectReplyTraces(reply);
    return out;
}

SimBackend::SingleOutput
SubprocessBackend::runOne(const arch::Input &input,
                          const std::vector<TraceFormat> *extraFormats)
{
    telemetry::SpanScope span(telemetry_, "op.runOne");
    const Json reply =
        roundTrip(protocol::runRequest(input, extraFormats, utrace_));
    SingleOutput out;
    out.trace = corpus::decode<UTrace>(reply.at("trace"));
    out.hitCycleCap = reply.at("hitCycleCap").asBool();
    out.extras = corpus::decode<std::vector<UTrace>>(reply.at("extras"));
    ctx_ = protocol::contextFromWire(&*anchor_, reply.at("endCtx"));
    lastWorkerTimes_ = corpus::decode<TimeBreakdown>(reply.at("times"));
    collectReplyTraces(reply);
    return out;
}

void
SubprocessBackend::collectReplyTraces(const Json &reply)
{
    // Traces travel only in the successful reply, so the crash-retry
    // path can never record a duplicate.
    if (const Json *traces = reply.find("utraces")) {
        for (const Json &t : traces->items())
            collectedTraces_.push_back(protocol::uarchRunTraceFromJson(t));
    }
}

std::vector<telemetry::UarchRunTrace>
SubprocessBackend::takeUarchTraces()
{
    std::vector<telemetry::UarchRunTrace> out =
        std::move(collectedTraces_);
    collectedTraces_.clear();
    return out;
}

std::string
SubprocessBackend::classify(const arch::Input &inputA,
                            const arch::Input &inputB,
                            const UarchContext &ctxA, const UarchContext &ctxB)
{
    telemetry::SpanScope span(telemetry_, "op.classify");
    const Json reply = roundTrip(
        protocol::classifyRequest(inputA, inputB, ctxA, ctxB, *anchor_));
    ctx_ = protocol::contextFromWire(&*anchor_, reply.at("endCtx"));
    lastWorkerTimes_ = corpus::decode<TimeBreakdown>(reply.at("times"));
    return reply.at("signature").asStr();
}

const TimeBreakdown &
SubprocessBackend::times()
{
    Json req = Json::object();
    req.set("op", Json::str("times"));
    const Json reply = roundTrip(req);
    lastWorkerTimes_ = corpus::decode<TimeBreakdown>(reply.at("times"));
    times_ = deadWorkerTimes_;
    times_.accumulate(lastWorkerTimes_);
    return times_;
}

std::unique_ptr<SimBackend>
makeSubprocessBackend(const HarnessConfig &config,
                      const BackendOptions &options)
{
    return std::make_unique<SubprocessBackend>(config, options);
}

} // namespace amulet::executor
