/**
 * @file
 * Out-of-process simulator worker: the executable half of the
 * SubprocessBackend (src/executor/backend_subprocess.hh).
 *
 * Speaks the JSONL protocol of src/executor/sim_protocol.hh on
 * stdin/stdout: one request line in, one reply line out, until EOF or
 * an "exit" op. The worker owns exactly one SimHarness, configured by
 * the "hello" message; programs arrive as disassembly and are reparsed
 * through the assembler — the same round trip the violation corpus
 * relies on.
 *
 * Test hooks (both count state-mutating operations — batch/run/
 * classify — and fire *before* executing the op, so recovery reruns a
 * complete operation):
 *
 *   AMULET_SIM_WORKER_CRASH_AFTER=N   die (exit 42) on the (N+1)-th
 *                                     mutating op.
 *   AMULET_SIM_WORKER_HANG_AFTER=N    wedge forever (pause loop) on
 *                                     the (N+1)-th mutating op; the
 *                                     parent's per-op deadline
 *                                     (BackendOptions::opTimeoutSec /
 *                                     $AMULET_SIM_OP_TIMEOUT_SEC) must
 *                                     kill and restart it.
 *
 * tests/test_backend.cc uses these to prove that backend crash and
 * hang recovery reproduce an uninterrupted campaign byte for byte.
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include <unistd.h>

#include "core/signature.hh"
#include "corpus/fields.hh"
#include "executor/sim_harness.hh"
#include "executor/sim_protocol.hh"
#include "isa/assembler.hh"
#include "telemetry/uarch_trace.hh"

namespace
{

using namespace amulet;
using corpus::Json;
using executor::protocol::errorReply;
using executor::protocol::okReply;
using Formats = std::vector<executor::TraceFormat>;

struct Worker
{
    std::optional<executor::SimHarness> harness;
    std::optional<isa::Program> program; ///< keeps the source alive
    std::optional<isa::FlatProgram> flat;
    unsigned long crashAfter = 0; ///< 0: never (test hook)
    unsigned long hangAfter = 0;  ///< 0: never (test hook)
    unsigned long mutatingOps = 0;

    executor::SimHarness &
    sim()
    {
        if (!harness)
            throw std::runtime_error("no hello received yet");
        return *harness;
    }

    /** Count a state-mutating op; fire the fault-injection hooks. */
    void
    mutatingOp()
    {
        if (crashAfter == 0 && hangAfter == 0)
            return;
        ++mutatingOps;
        if (crashAfter > 0 && mutatingOps > crashAfter)
            std::_Exit(42);
        if (hangAfter > 0 && mutatingOps > hangAfter) {
            // Wedge without dying: the parent sees silence, not EOF,
            // and only its per-operation deadline can save it.
            for (;;)
                pause();
        }
    }

    /** Pipeline tracing for one request (protocol v3 "utrace"). The
     *  RAII shape guarantees the tracer detaches even when the run
     *  throws, so a failed op cannot leave the harness tracing. */
    struct TraceScope
    {
        executor::SimHarness &sim;
        telemetry::UarchTracer tracer;
        bool on;

        TraceScope(executor::SimHarness &h, const Json &req)
            : sim(h), on(false)
        {
            const Json *flag = req.find("utrace");
            on = flag && flag->asBool();
            if (on)
                sim.setUarchTracer(&tracer);
        }

        ~TraceScope()
        {
            if (on)
                sim.setUarchTracer(nullptr);
        }

        /** Attach the traced runs to @p reply as "utraces". */
        void
        attach(Json &reply)
        {
            if (!on)
                return;
            Json traces = Json::array();
            for (const telemetry::UarchRunTrace &run : tracer.takeRuns())
                traces.push(
                    executor::protocol::uarchRunTraceToJson(run));
            reply.set("utraces", std::move(traces));
        }
    };

    Json
    handle(const Json &req)
    {
        const std::string &op = req.at("op").asStr();
        if (op == "hello") {
            const unsigned version = req.at("version").asUnsigned();
            if (version != executor::protocol::kProtocolVersion) {
                return errorReply("protocol version mismatch: got " +
                                  std::to_string(version));
            }
            harness.emplace(
                corpus::decode<executor::HarnessConfig,
                               corpus::Scope::Runtime>(req.at("harness")));
            return okReply();
        }
        if (op == "load") {
            program = isa::assemble(req.at("program").asStr());
            flat.emplace(*program, sim().config().map.codeBase);
            sim().loadProgram(&*flat);
            return okReply();
        }
        if (op == "save") {
            Json reply = okReply();
            reply.set("ctx", corpus::toJson(sim().saveContext()));
            return reply;
        }
        if (op == "restore") {
            sim().restoreContext(corpus::contextFromJson(req.at("ctx")));
            return okReply();
        }
        if (op == "batch") {
            mutatingOp();
            const auto inputs =
                corpus::decode<std::vector<arch::Input>>(req.at("inputs"));
            std::vector<const arch::Input *> batch;
            batch.reserve(inputs.size());
            for (const arch::Input &input : inputs)
                batch.push_back(&input);
            std::optional<Formats> extras;
            if (const Json *e = req.find("extras"))
                extras = corpus::decode<Formats>(*e);
            TraceScope trace(sim(), req);
            const auto out =
                sim().runBatch(batch, extras ? &*extras : nullptr);
            const executor::UarchContext endCtx = sim().saveContext();
            Json reply = executor::protocol::batchOutputToJson(out, &endCtx);
            reply.set("ok", Json::boolean(true));
            trace.attach(reply);
            // Cumulative breakdown rides along so the parent loses at
            // most one operation's worth of timing when this worker
            // later dies (backend_subprocess times accounting).
            reply.set("times", corpus::encode(sim().times()));
            return reply;
        }
        if (op == "run") {
            mutatingOp();
            const arch::Input input =
                corpus::inputFromJson(req.at("input"));
            TraceScope trace(sim(), req);
            const auto out = sim().runInput(input);
            Json reply = okReply();
            trace.attach(reply);
            reply.set("trace", corpus::toJson(out.trace));
            reply.set("hitCycleCap",
                      Json::boolean(out.run.hitCycleCap));
            Json extra_traces = Json::array();
            if (const Json *e = req.find("extras")) {
                for (executor::TraceFormat fmt : corpus::decode<Formats>(*e)) {
                    extra_traces.push(
                        corpus::toJson(sim().extractExtra(fmt)));
                }
            }
            reply.set("extras", std::move(extra_traces));
            reply.set("endCtx", corpus::toJson(sim().saveContext()));
            // Cumulative breakdown rides along so the parent loses at
            // most one operation's worth of timing when this worker
            // later dies (backend_subprocess times accounting).
            reply.set("times", corpus::encode(sim().times()));
            return reply;
        }
        if (op == "classify") {
            mutatingOp();
            if (!flat)
                return errorReply("classify with no loaded program");
            const std::string signature = core::classifyViolation(
                sim(), *flat, corpus::inputFromJson(req.at("inputA")),
                corpus::inputFromJson(req.at("inputB")),
                corpus::contextFromJson(req.at("ctxA")),
                corpus::contextFromJson(req.at("ctxB")));
            Json reply = okReply();
            reply.set("signature", Json::str(signature));
            reply.set("endCtx", corpus::toJson(sim().saveContext()));
            // Cumulative breakdown rides along so the parent loses at
            // most one operation's worth of timing when this worker
            // later dies (backend_subprocess times accounting).
            reply.set("times", corpus::encode(sim().times()));
            return reply;
        }
        if (op == "times") {
            Json reply = okReply();
            reply.set("times", corpus::encode(sim().times()));
            return reply;
        }
        return errorReply("unknown op: " + op);
    }
};

} // namespace

int
main()
{
    Worker worker;
    if (const char *env = std::getenv("AMULET_SIM_WORKER_CRASH_AFTER"))
        worker.crashAfter = std::strtoul(env, nullptr, 10);
    if (const char *env = std::getenv("AMULET_SIM_WORKER_HANG_AFTER"))
        worker.hangAfter = std::strtoul(env, nullptr, 10);

    // Requests are read only through cin and replies written only
    // through stdio, so neither needs the other's synchronization.
    std::ios::sync_with_stdio(false);
    std::cin.tie(nullptr);

    std::string line;
    while (std::getline(std::cin, line)) {
        if (line.empty())
            continue;
        Json reply;
        bool exiting = false;
        std::string op = "?";
        try {
            const Json req = Json::parse(line);
            op = req.at("op").asStr();
            if (op == "exit") {
                reply = okReply();
                exiting = true;
            } else {
                reply = worker.handle(req);
            }
        } catch (const std::exception &e) {
            reply = errorReply("op " + op + ": " + e.what());
        }
        const std::string text = reply.dump();
        std::fwrite(text.data(), 1, text.size(), stdout);
        std::fputc('\n', stdout);
        std::fflush(stdout);
        if (exiting)
            return 0;
    }
    return 0;
}
