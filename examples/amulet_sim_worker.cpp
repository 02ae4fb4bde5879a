/**
 * @file
 * Out-of-process simulator worker: the executable half of the
 * SubprocessBackend (src/executor/backend_subprocess.hh).
 *
 * Speaks the JSONL protocol of src/executor/sim_protocol.hh on
 * stdin/stdout: one request line in, one reply line out, until EOF or
 * an "exit" op. The worker owns exactly one InProcessBackend,
 * configured by the "hello" message, and serves every op through it, so
 * its results are the in-process backend's by construction (the backend
 * variant of tests/test_equivalence.cc checks the wire in between).
 * Programs arrive as disassembly and are reparsed through the assembler
 * — the same round trip the violation corpus relies on.
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
 * SubprocessRecovery.* (tests/test_backend.cc) uses these to prove that
 * backend crash and hang recovery reproduce an uninterrupted campaign
 * byte for byte.
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include <unistd.h>

#include "corpus/fields.hh"
#include "executor/backend.hh"
#include "executor/sim_protocol.hh"
#include "isa/assembler.hh"

namespace
{

using namespace amulet;
using corpus::Json;
using executor::UarchContext;
using executor::protocol::contextFromWire;
using executor::protocol::contextToWire;
using executor::protocol::errorReply;
using executor::protocol::inputFromWire;
using executor::protocol::okReply;
using Formats = std::vector<executor::TraceFormat>;

struct Worker
{
    /** Serves every op, so replies match the in-process backend's
     *  results by construction. */
    std::optional<executor::InProcessBackend> backend;
    std::optional<isa::Program> program; ///< keeps the source alive
    std::optional<isa::FlatProgram> flat;
    /** The boot context hello sent in full: every other context on the
     *  wire is a delta against it (sim_protocol.hh). */
    UarchContext anchor;
    unsigned long crashAfter = 0; ///< 0: never (test hook)
    unsigned long hangAfter = 0;  ///< 0: never (test hook)
    unsigned long mutatingOps = 0;

    executor::InProcessBackend &
    sim()
    {
        if (!backend)
            throw std::runtime_error("no hello received yet");
        return *backend;
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
     *  scope guard turns tracing off and drops undelivered runs even
     *  when the op throws, so a failed op cannot leave the backend
     *  tracing. */
    struct TraceScope
    {
        executor::InProcessBackend &sim;
        bool on;

        TraceScope(executor::InProcessBackend &b, const Json &req)
            : sim(b), on(false)
        {
            const Json *flag = req.find("utrace");
            on = flag && flag->asBool();
            if (on)
                sim.setUarchTracing(true);
        }

        TraceScope(const TraceScope &) = delete;
        TraceScope &operator=(const TraceScope &) = delete;

        ~TraceScope()
        {
            if (on) {
                sim.setUarchTracing(false);
                sim.takeUarchTraces();
            }
        }

        /** Attach the traced runs to @p reply as "utraces". */
        void
        attach(Json &reply)
        {
            if (!on)
                return;
            Json traces = Json::array();
            for (const telemetry::UarchRunTrace &run :
                 sim.takeUarchTraces())
                traces.push(
                    executor::protocol::uarchRunTraceToJson(run));
            reply.set("utraces", std::move(traces));
        }
    };

    /** Attach the cumulative breakdown. It rides along every mutating
     *  op's reply so the parent loses at most one operation's worth of
     *  timing when this worker later dies (backend_subprocess times
     *  accounting). */
    void
    attachTimes(Json &reply)
    {
        reply.set("times", corpus::encode(sim().times()));
    }

    /** The request's extra trace formats, if it names any. */
    static std::optional<Formats>
    extrasOf(const Json &req)
    {
        if (const Json *e = req.find("extras"))
            return corpus::decode<Formats>(*e);
        return std::nullopt;
    }

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
            backend.emplace(
                corpus::decode<executor::HarnessConfig,
                               corpus::Scope::Runtime>(req.at("harness")));
            // Boot now: it does not depend on the program, and the boot
            // context is the anchor both sides code contexts against.
            anchor = sim().saveContext();
            Json reply = okReply();
            reply.set("ctx", contextToWire(nullptr, anchor));
            return reply;
        }
        if (op == "load") {
            program = isa::assemble(req.at("program").asStr());
            flat.emplace(*program, sim().harness().config().map.codeBase);
            sim().loadProgram(*program, *flat);
            return okReply();
        }
        if (op == "save") {
            Json reply = okReply();
            reply.set("ctx", contextToWire(&anchor, sim().saveContext()));
            return reply;
        }
        if (op == "restore") {
            sim().restoreContext(contextFromWire(&anchor, req.at("ctx")));
            return okReply();
        }
        if (op == "batch") {
            mutatingOp();
            const auto extras = extrasOf(req);
            const auto &wire = req.at("inputs").items();
            std::vector<arch::Input> inputs;
            inputs.reserve(wire.size());
            for (const Json &input : wire)
                inputs.push_back(inputFromWire(input));
            std::vector<const arch::Input *> batch;
            batch.reserve(inputs.size());
            for (const arch::Input &input : inputs)
                batch.push_back(&input);
            TraceScope trace(sim(), req);
            const auto out =
                sim().dispatchBatch(batch, extras ? &*extras : nullptr);
            const UarchContext endCtx = sim().saveContext();
            Json reply =
                executor::protocol::batchOutputToJson(out, &endCtx, &anchor);
            reply.set("ok", Json::boolean(true));
            trace.attach(reply);
            attachTimes(reply);
            return reply;
        }
        if (op == "run") {
            mutatingOp();
            const auto input = inputFromWire(req.at("input"));
            const auto extras = extrasOf(req);
            TraceScope trace(sim(), req);
            const auto out =
                sim().runOne(input, extras ? &*extras : nullptr);
            Json reply = okReply();
            trace.attach(reply);
            reply.set("trace", corpus::encode(out.trace));
            reply.set("hitCycleCap", Json::boolean(out.hitCycleCap));
            reply.set("extras", corpus::encode(out.extras));
            reply.set("endCtx", contextToWire(&anchor, sim().saveContext()));
            attachTimes(reply);
            return reply;
        }
        if (op == "classify") {
            mutatingOp();
            const std::string signature = sim().classify(
                inputFromWire(req.at("inputA")),
                inputFromWire(req.at("inputB")),
                contextFromWire(&anchor, req.at("ctxA")),
                contextFromWire(&anchor, req.at("ctxB")));
            Json reply = okReply();
            reply.set("signature", Json::str(signature));
            reply.set("endCtx", contextToWire(&anchor, sim().saveContext()));
            attachTimes(reply);
            return reply;
        }
        if (op == "times") {
            Json reply = okReply();
            attachTimes(reply);
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
