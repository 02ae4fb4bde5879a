/**
 * @file
 * Subprocess backend recovery (src/executor/backend_subprocess.hh): the
 * backend survives killed and hung workers. Crash injection
 * (AMULET_SIM_WORKER_CRASH_AFTER), hang injection
 * (AMULET_SIM_WORKER_HANG_AFTER) and a direct SIGKILL mid-program all end
 * in results identical to an uninterrupted run; a worker that trickles
 * bytes cannot outlast the per-operation deadline; a worker that fails
 * its hello is reaped; and exhausted retries escalate to a per-program
 * quarantine. The wire counters show that no reply after the hello
 * carries a full predictor context. That the subprocess backend
 * reproduces the in-process one is the backend variant of
 * tests/test_equivalence.cc.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdlib>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/generator.hh"
#include "core/input_gen.hh"
#include "corpus/fields.hh"
#include "executor/backend_subprocess.hh"
#include "runtime/fault.hh"
#include "support/campaign_fixture.hh"
#include "telemetry/telemetry.hh"

namespace
{

using namespace amulet;
using namespace amulet::fixture;

/** The crash and hang campaigns' size (seed 1 detects within 8
 *  programs). */
constexpr CampaignSize kSize{2000, 8};

// === Subprocess crash recovery =============================================

/** Scoped env var (the crash-injection hook reads the environment). */
struct ScopedEnv
{
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        setenv(name, value, 1);
    }
    ~ScopedEnv() { unsetenv(name_); }
    const char *name_;
};

// Every subprocess worker dies after three simulator operations; the
// backend must restart it, restore its exact pre-operation state, and
// finish the campaign with results identical to an undisturbed run.
TEST(SubprocessRecovery, CrashInjectedWorkersReproduceTheCampaign)
{
    const auto reference =
        core::Campaign(campaignConfig(defense::DefenseKind::Baseline, 1,
                                      executor::BackendKind::InProcess,
                                      kSize))
            .run();
    ScopedEnv crash("AMULET_SIM_WORKER_CRASH_AFTER", "3");
    const auto crashed =
        core::Campaign(campaignConfig(defense::DefenseKind::Baseline, 1,
                                      executor::BackendKind::Subprocess,
                                      kSize))
            .run();
    EXPECT_TRUE(reference.detected());
    expectEquivalent(reference, crashed);
    // The wire counters are the subprocess backend's alone.
    EXPECT_EQ(reference.metrics.count("wire.requestBytes"), 0u);
    EXPECT_EQ(reference.metrics.count("wire.replyBytes"), 0u);
    EXPECT_GT(metric(crashed, "wire.requestBytes"), 0.0);
    EXPECT_GT(metric(crashed, "wire.replyBytes"), 0.0);
}

/** One generated program and two inputs, run as two one-input batches
 *  on a fresh subprocess backend: the direct-dispatch recovery tests
 *  compare an undisturbed run with a disturbed one. */
struct DispatchPair
{
    executor::HarnessConfig hcfg;
    isa::Program prog;
    std::optional<isa::FlatProgram> flat;
    arch::Input in0;
    arch::Input in1;

    DispatchPair()
    {
        hcfg.bootInsts = 1000;
        core::GeneratorConfig gcfg;
        gcfg.map = hcfg.map;
        prog = core::ProgramGenerator(gcfg, Rng(5)).generate();
        flat.emplace(prog, gcfg.map.codeBase);
        core::InputGenConfig icfg;
        icfg.map = gcfg.map;
        core::InputGenerator igen(icfg, Rng(6));
        in0 = igen.generate(0);
        in1 = igen.generate(1);
    }

    /** The two batches' traces; @p between runs after the first. The
     *  worker must restart iff the run is @p disturbed. */
    std::pair<executor::UTrace, executor::UTrace>
    run(const executor::BackendOptions &opts, bool disturbed,
        const std::function<void(executor::SubprocessBackend &)> &between =
            nullptr)
    {
        executor::SubprocessBackend backend(hcfg, opts);
        backend.saveContext();
        backend.loadProgram(prog, *flat);
        auto first = backend.dispatchBatch({&in0}, nullptr);
        if (between)
            between(backend);
        auto second = backend.dispatchBatch({&in1}, nullptr);
        if (disturbed)
            EXPECT_GE(backend.restarts(), 1u);
        else
            EXPECT_EQ(backend.restarts(), 0u);
        return {first.runs.at(0).trace, second.runs.at(0).trace};
    }
};

// Kill the worker process outright between dispatches; the next
// dispatch must restart it and produce the exact traces an untouched
// backend produces — including the predictor state carried across the
// kill (the batch after the kill starts from the pre-kill context).
TEST(SubprocessRecovery, SigkilledWorkerRestartsWithIdenticalResults)
{
    DispatchPair pair;
    const auto clean = pair.run({}, false);
    const auto killed =
        pair.run({}, true, [](executor::SubprocessBackend &backend) {
            ASSERT_NE(backend.workerPid(), -1);
            kill(backend.workerPid(), SIGKILL);
        });
    EXPECT_EQ(clean.first, killed.first);
    EXPECT_EQ(clean.second, killed.second)
        << "post-kill batch must start from the pre-kill predictor "
           "context";
}

// === Hung workers ==========================================================

// A worker that wedges (stops answering without dying) must be caught
// by the per-operation watchdog, killed, and restarted with identical
// results — the hang-detection sibling of the crash tests above. The
// direct dispatch pair keeps the timing tight and deterministic: its
// ops take milliseconds, so the clean pair must see no restart under a
// half-second deadline, and the hung pair waits that long once.
TEST(SubprocessRecovery, HungWorkerIsTimedOutKilledAndRestarted)
{
    DispatchPair pair;
    executor::BackendOptions opts;
    opts.opTimeoutSec = 0.5;
    const auto clean = pair.run(opts, false);
    // The worker freezes before its 2nd mutating op; the watchdog must
    // fire instead of waiting forever.
    ScopedEnv hang("AMULET_SIM_WORKER_HANG_AFTER", "1");
    const auto hung = pair.run(opts, true);
    EXPECT_EQ(clean.first, hung.first);
    EXPECT_EQ(clean.second, hung.second)
        << "post-hang batch must start from the pre-hang predictor "
           "context";
}

// Campaign-level hang recovery: workers that periodically wedge must
// still produce a campaign equivalent to an undisturbed in-process run.
// The one-second timeout is still two orders of magnitude above a
// legitimate (sanitizer-slowed) op of this campaign; only real hangs
// trip it, and the one wedge costs one timeout.
TEST(SubprocessRecovery, HangInjectedWorkersReproduceTheCampaign)
{
    auto config = [](executor::BackendKind backend) {
        auto cfg = campaignConfig(defense::DefenseKind::Baseline, 1,
                                  backend, kSize);
        cfg.numPrograms = 4;
        return cfg;
    };
    const auto reference =
        core::Campaign(config(executor::BackendKind::InProcess)).run();
    ScopedEnv hang("AMULET_SIM_WORKER_HANG_AFTER", "40");
    ScopedEnv timeout("AMULET_SIM_OP_TIMEOUT_SEC", "1");
    const auto hung =
        core::Campaign(config(executor::BackendKind::Subprocess)).run();
    expectEquivalent(reference, hung);
    EXPECT_GE(metric(hung, "backend.restarts"), 1.0)
        << "the hang hook must actually have wedged a worker";
}

/** A shell-script worker in the temp directory, removed on scope
 *  exit. */
struct ScriptWorker
{
    std::string path;

    ScriptWorker(const std::string &name, const std::string &body)
        : path((std::filesystem::temp_directory_path() /
                ("amulet_" + name + "_" + std::to_string(::getpid()) +
                 ".sh"))
                   .string())
    {
        std::ofstream(path) << "#!/bin/sh\n" << body;
        chmod(path.c_str(), 0755);
    }
    ~ScriptWorker() { std::filesystem::remove(path); }

    executor::BackendOptions
    options() const
    {
        executor::BackendOptions opts;
        opts.workerPath = path;
        return opts;
    }
};

/** The script line that prints a hello reply: a boot context with
 *  empty predictor tables (it decodes; no scripted op needs more) whose
 *  ghr is the shell word @p ghr. */
std::string
cannedHello(const std::string &ghr = "0")
{
    return "printf '{\"ok\":true,\"ctx\":{\"bp\":{\"ghr\":%s,"
           "\"pht\":\"\",\"btbTags\":[],\"btbTargets\":[]},"
           "\"mdp\":\"\"}}\\n' " +
           ghr + "\n";
}

// Watchdog regression: the receive deadline is per *operation*, not per
// poll. A worker trickling bytes forever — each arriving well inside
// the poll window, the full line never — must still be timed out; with
// a per-poll budget every byte would reset the clock and the campaign
// would hang for good.
TEST(SubprocessRecovery, TricklingWorkerCannotEvadeTheWatchdog)
{
    // Answers the hello handshake properly, then dribbles one byte
    // every 50 ms — a fifth of the deadline — without ever terminating
    // the reply line.
    const ScriptWorker script("trickle_worker",
                              "read line\n" + cannedHello() +
                                  "read line\n"
                                  "while :; do printf 'x'; sleep 0.05; "
                                  "done\n");
    executor::BackendOptions opts = script.options();
    opts.opTimeoutSec = 0.25;
    const auto t0 = std::chrono::steady_clock::now();
    {
        executor::SubprocessBackend backend(executor::HarnessConfig{},
                                            opts);
        EXPECT_THROW(backend.saveContext(),
                     executor::WorkerQuarantineError)
            << "a never-completing reply must exhaust the retry budget";
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    // 3 attempts x 0.25 s plus backoff and process churn; anything
    // close to a minute means the deadline reset per poll.
    EXPECT_LT(elapsed, 30.0);
}

/** Open file descriptors of this process. */
std::size_t
openFds()
{
    namespace fs = std::filesystem;
    return static_cast<std::size_t>(std::distance(
        fs::directory_iterator("/proc/self/fd"), fs::directory_iterator()));
}

// A worker whose hello fails is killed and reaped before the
// constructor throws, its pipes closed, and the error names the step.
// The constructor's throw skips the destructor, so the failure path is
// the only one that can reap it; an orphan would keep the test's output
// pipe open for its whole sleep.
TEST(SubprocessRecovery, FailedHelloLeavesNoWorkerBehind)
{
    const std::string pidFile =
        (std::filesystem::temp_directory_path() /
         ("amulet_hello_pid_" + std::to_string(::getpid())))
            .string();
    for (const char *reply : {R"({"ok":false,"error":"nope"})", "garbage"}) {
        const ScriptWorker script("failing_hello",
                                  "echo $$ > " + pidFile + "\nread line\n" +
                                      "printf '%s\\n' '" + reply + "'\n" +
                                      "exec sleep 30\n");
        const std::size_t fds = openFds();
        try {
            executor::SubprocessBackend backend(executor::HarnessConfig{},
                                                script.options());
            ADD_FAILURE() << "a failed hello must throw: " << reply;
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("hello"),
                      std::string::npos)
                << e.what();
        }
        pid_t pid = 0;
        std::ifstream(pidFile) >> pid;
        ASSERT_GT(pid, 0) << reply;
        errno = 0;
        EXPECT_EQ(kill(pid, 0), -1) << reply;
        EXPECT_EQ(errno, ESRCH) << "the worker is still alive: " << reply;
        EXPECT_EQ(openFds(), fds) << reply;
    }
    std::filesystem::remove(pidFile);
}

// Requests in flight are coded against the anchor of the worker that
// died; a respawned worker that boots another context must be refused,
// not fed deltas against a base it does not have.
TEST(SubprocessRecovery, RespawnWithAnotherBootContextIsRefused)
{
    const std::string countFile =
        (std::filesystem::temp_directory_path() /
         ("amulet_boot_count_" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove(countFile);
    // Each incarnation boots a ghr one higher, then dies on its first op.
    const ScriptWorker script(
        "drifting_boot",
        "n=$(cat " + countFile + " 2>/dev/null || echo 0)\n"
        "echo $((n + 1)) > " + countFile + "\n"
        "read line\n" +
            cannedHello("\"$n\"") + "read line\n");
    executor::SubprocessBackend backend(executor::HarnessConfig{},
                                        script.options());
    try {
        backend.saveContext();
        ADD_FAILURE() << "a respawn with another anchor must be refused";
    } catch (const executor::WorkerQuarantineError &e) {
        ADD_FAILURE() << "retried into quarantine: " << e.what();
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("booted another context"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(backend.workerPid(), -1);
    std::filesystem::remove(countFile);
}

// A context whose tables do not fit the worker's is refused in the
// parent, before it reaches the wire: a delta against the anchor cannot
// express it. The worker stays up and is not restarted.
TEST(SubprocessRecovery, ContextThatDoesNotFitIsRefusedBeforeTheWire)
{
    executor::HarnessConfig hcfg;
    hcfg.bootInsts = 1000;
    executor::SubprocessBackend backend(hcfg, {});
    const executor::UarchContext ctx = backend.saveContext();
    const unsigned restarts = backend.restarts();
    executor::UarchContext bad = ctx;
    bad.bp.btbTags.clear();
    bad.bp.btbTargets.clear();
    try {
        backend.restoreContext(bad);
        ADD_FAILURE() << "a malformed context must be refused";
    } catch (const executor::WorkerQuarantineError &e) {
        ADD_FAILURE() << "the worker crashed: " << e.what();
    } catch (const corpus::CorpusError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("does not fit"), std::string::npos) << what;
    }
    EXPECT_NO_THROW(backend.restoreContext(ctx));
    EXPECT_EQ(backend.restarts(), restarts);
}

// === Wire weight ===========================================================

// Protocol v7 codes every context after the hello as a delta against
// the worker's boot context: no op's reply, and no restore request,
// weighs as much as one full default-geometry context. The bytes come
// from the backend's own wire counters.
TEST(SubprocessWire, NoOpAfterHelloShipsAFullContext)
{
    DispatchPair pair;
    telemetry::TelemetrySink sink("wire", telemetry::Clock::now(), false,
                                  nullptr);
    executor::SubprocessBackend backend(pair.hcfg, {});
    backend.setTelemetry(&sink);
    auto bytes = [&sink](const char *counter) {
        return sink.metrics().counter(counter).value();
    };
    std::uint64_t replyBefore = 0;
    std::size_t fullContext = 0;
    auto expectLight = [&](const char *op) {
        const std::uint64_t reply = bytes("wire.replyBytes") - replyBefore;
        EXPECT_GT(reply, 0u) << op;
        EXPECT_LT(reply, fullContext) << op;
        replyBefore = bytes("wire.replyBytes");
    };

    const executor::UarchContext boot = backend.saveContext();
    fullContext = corpus::encode(boot).dump().size();
    EXPECT_GT(fullContext, 8000u);
    expectLight("save");
    backend.loadProgram(pair.prog, *pair.flat);
    replyBefore = bytes("wire.replyBytes");
    const std::uint64_t requestBefore = bytes("wire.requestBytes");
    backend.restoreContext(boot);
    EXPECT_LT(bytes("wire.requestBytes") - requestBefore, 256u)
        << "restoring the boot context is an empty delta";
    expectLight("restore");
    const auto batch = backend.dispatchBatch({&pair.in0, &pair.in1}, nullptr);
    ASSERT_EQ(batch.startContexts.size(), 2u);
    expectLight("batch");
    backend.runOne(pair.in0, nullptr);
    expectLight("run");
    backend.classify(pair.in0, pair.in1, batch.startContexts[0],
                     batch.startContexts[1]);
    expectLight("classify");
    EXPECT_EQ(backend.restarts(), 0u);
}

// === Per-program quarantine at the backend boundary ========================

// When every recovery attempt at one operation fails, roundTrip must
// escalate to WorkerQuarantineError — the per-program verdict the shard
// executor converts into a quarantined outcome — and a fresh program on
// the same backend must still work (the poison is per-program).
TEST(SubprocessRecovery, ExhaustedRetriesEscalateToQuarantine)
{
    struct PlanGuard
    {
        PlanGuard() { runtime::fault::FaultPlan::install("poison=7"); }
        ~PlanGuard() { runtime::fault::FaultPlan::uninstall(); }
    } guard;

    executor::HarnessConfig hcfg;
    hcfg.bootInsts = 1000;
    executor::SubprocessBackend backend(hcfg, {});
    backend.saveContext(); // boot op: unscoped, never faulted
    {
        runtime::fault::ProgramScope scope(7);
        EXPECT_THROW(backend.saveContext(),
                     executor::WorkerQuarantineError);
    }
    {
        // A non-poisoned program right after: the backend must recover.
        runtime::fault::ProgramScope scope(8);
        EXPECT_NO_THROW(backend.saveContext());
    }
}

} // namespace
