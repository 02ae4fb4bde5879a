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
 * classify — over this worker's life and fire *before* executing the
 * op). A failed op fails its program's attempt; the retry runs on a
 * fresh executor whose fresh worker counts from zero again:
 *
 *   AMULET_SIM_WORKER_CRASH_AFTER=N   die (exit 42) on the (N+1)-th
 *                                     mutating op.
 *   AMULET_SIM_WORKER_HANG_AFTER=N    wedge forever (pause loop) on
 *                                     the (N+1)-th mutating op; the
 *                                     parent's per-op deadline
 *                                     (BackendOptions::opTimeoutSec /
 *                                     $AMULET_SIM_OP_TIMEOUT_SEC) must
 *                                     kill it.
 *
 * Each value must be an unsigned decimal integer, the whole token; any
 * other value makes the worker refuse its hello naming the variable, so
 * a typo in a hook fails the backend instead of silently disarming it.
 *
 * SubprocessRecovery.* (tests/test_backend.cc) uses these to prove that
 * re-running failed programs reproduces an uninterrupted campaign byte
 * for byte.
 */

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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
    /** Why a test hook's value was refused (hello answers with it). */
    std::string hookError;

    /** Read test hook @p name into @p value: unset leaves it 0 (off); a
     *  value that is not wholly an unsigned decimal integer sets
     *  hookError instead. */
    void
    readHook(const char *name, unsigned long &value)
    {
        const char *text = std::getenv(name);
        if (!text)
            return;
        const char *end = text + std::strlen(text);
        const auto [stop, ec] = std::from_chars(text, end, value);
        if (ec != std::errc{} || stop != end) {
            value = 0;
            hookError = std::string(name) +
                        " must be an unsigned integer, got '" + text + "'";
        }
    }

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

    /** Attach the cumulative breakdown to the hello and every
     *  mutating op's reply: the parent's times() reads the last one
     *  (load, save and restore change none of it). */
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
            if (!hookError.empty())
                return errorReply(hookError);
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
            attachTimes(reply);
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
            const auto out =
                sim().dispatchBatch(batch, extras ? &*extras : nullptr);
            Json reply = executor::protocol::batchOutputToJson(out, &anchor);
            reply.set("ok", Json::boolean(true));
            attachTimes(reply);
            return reply;
        }
        if (op == "run") {
            mutatingOp();
            const auto input = inputFromWire(req.at("input"));
            const auto extras = extrasOf(req);
            const auto out =
                sim().runOne(input, extras ? &*extras : nullptr);
            Json reply = okReply();
            reply.set("trace", corpus::encode(out.trace));
            reply.set("hitCycleCap", Json::boolean(out.hitCycleCap));
            reply.set("extras", corpus::encode(out.extras));
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
    worker.readHook("AMULET_SIM_WORKER_CRASH_AFTER", worker.crashAfter);
    worker.readHook("AMULET_SIM_WORKER_HANG_AFTER", worker.hangAfter);

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
