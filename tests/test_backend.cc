/**
 * @file
 * Subprocess backend failures (src/executor/backend_subprocess.hh): a
 * killed, hung, trickling or poisoned worker fails its op with
 * WorkerQuarantineError and is reaped, and the scheduler's one recovery
 * rule (re-run the program on a fresh executor) makes crash and hang
 * injection (AMULET_SIM_WORKER_CRASH_AFTER, AMULET_SIM_WORKER_HANG_AFTER)
 * invisible in a campaign's results, while a worker that can finish no
 * program aborts it. The per-operation deadline is a finite positive
 * number of seconds, at most a day; a worker that fails its hello is
 * reaped, and one given a malformed test hook fails it; a backend that
 * cannot be built aborts the campaign. The wire counters show that no
 * reply after the hello carries a full predictor context. That the
 * subprocess backend reproduces the in-process one is the backend
 * variant of tests/test_equivalence.cc.
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
#include <iterator>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

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

/** Above the 24 mutating ops of this campaign's longest program, so
 *  every program fits on one fresh worker. */
constexpr const char *kCrashAfter = "25";

// Every subprocess worker dies after kCrashAfter simulator operations;
// the program it was running re-runs on a fresh executor, and the
// campaign finishes with results identical to an undisturbed run.
TEST(SubprocessRecovery, CrashInjectedWorkersReproduceTheCampaign)
{
    const auto reference =
        core::Campaign(campaignConfig(defense::DefenseKind::Baseline, 1,
                                      executor::BackendKind::InProcess,
                                      kSize))
            .run();
    ScopedEnv crash("AMULET_SIM_WORKER_CRASH_AFTER", kCrashAfter);
    const auto crashed =
        core::Campaign(campaignConfig(defense::DefenseKind::Baseline, 1,
                                      executor::BackendKind::Subprocess,
                                      kSize))
            .run();
    EXPECT_TRUE(reference.detected());
    expectEquivalent(reference, crashed);
    EXPECT_EQ(crashed.quarantinedPrograms, 0u);
    EXPECT_GE(metric(crashed, "backend.restarts"), 1.0)
        << "the crash hook must actually have killed a worker";
    // The wire counters are the subprocess backend's alone.
    EXPECT_EQ(reference.metrics.count("wire.requestBytes"), 0u);
    EXPECT_EQ(reference.metrics.count("wire.replyBytes"), 0u);
    EXPECT_GT(metric(crashed, "wire.requestBytes"), 0.0);
    EXPECT_GT(metric(crashed, "wire.replyBytes"), 0.0);
}

// A worker that dies after three operations can finish no program of
// this campaign on any fresh worker: the systemic failure the give-up
// rule aborts (8 failed attempts in a row), not a run of quarantines.
TEST(SubprocessRecovery, WorkersThatFinishNoProgramAbortTheCampaign)
{
    ScopedEnv crash("AMULET_SIM_WORKER_CRASH_AFTER", "3");
    EXPECT_THROW(
        core::Campaign(campaignConfig(defense::DefenseKind::Baseline, 1,
                                      executor::BackendKind::Subprocess,
                                      kSize))
            .run(),
        executor::WorkerQuarantineError);
}

/** One generated program and two inputs for the direct-dispatch
 *  tests. */
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
};

/** Expect @p pid, a worker's, to be gone: killed and reaped. */
void
expectReaped(int pid)
{
    errno = 0;
    EXPECT_EQ(kill(pid, 0), -1);
    EXPECT_EQ(errno, ESRCH) << "worker " << pid << " is still alive";
}

// Kill the worker process outright between dispatches: the next
// dispatch fails and reaps it, and the backend is spent.
TEST(SubprocessRecovery, SigkilledWorkerFailsTheNextOp)
{
    DispatchPair pair;
    executor::SubprocessBackend backend(pair.hcfg, {});
    backend.loadProgram(pair.prog, *pair.flat);
    backend.dispatchBatch({&pair.in0}, nullptr);
    const int pid = backend.workerPid();
    ASSERT_NE(pid, -1);
    kill(pid, SIGKILL);
    EXPECT_THROW(backend.dispatchBatch({&pair.in1}, nullptr),
                 executor::WorkerQuarantineError);
    EXPECT_EQ(backend.workerPid(), -1);
    expectReaped(pid);
}

// === Hung workers ==========================================================

// A worker that wedges (stops answering without dying) must be caught
// by the per-operation watchdog and killed — the hang-detection sibling
// of the kill test above. Its ops take milliseconds, so only the hang
// can spend a half-second deadline, and it spends it once.
TEST(SubprocessRecovery, HungWorkerIsTimedOutAndReaped)
{
    DispatchPair pair;
    executor::BackendOptions opts;
    opts.opTimeoutSec = 0.5;
    // The worker freezes before its 2nd mutating op; the watchdog must
    // fire instead of waiting forever.
    ScopedEnv hang("AMULET_SIM_WORKER_HANG_AFTER", "1");
    executor::SubprocessBackend backend(pair.hcfg, opts);
    backend.loadProgram(pair.prog, *pair.flat);
    backend.dispatchBatch({&pair.in0}, nullptr);
    const int pid = backend.workerPid();
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_THROW(backend.dispatchBatch({&pair.in1}, nullptr),
                 executor::WorkerQuarantineError);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    EXPECT_GE(elapsed, opts.opTimeoutSec);
    EXPECT_LT(elapsed, 30.0);
    EXPECT_EQ(backend.workerPid(), -1);
    expectReaped(pid);
}

// Campaign-level hang recovery: a worker that wedges costs its program
// one re-run on a fresh executor, and the campaign stays equivalent to
// an undisturbed in-process run. The one-second timeout is still two
// orders of magnitude above a legitimate (sanitizer-slowed) op of this
// campaign; only real hangs trip it, and the one wedge costs one
// timeout.
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

// The worker reads each test hook whole, as an unsigned decimal integer:
// garbage, a trailing unit, an empty value, a sign or leading space is
// refused at the hello naming the variable, not read as "off" or as a
// prefix, so the backend's construction fails naming it.
TEST(SubprocessRecovery, MalformedTestHookIsRefusedNamingIt)
{
    for (const char *hook : {"AMULET_SIM_WORKER_CRASH_AFTER",
                             "AMULET_SIM_WORKER_HANG_AFTER"}) {
        for (const char *bad : {"abc", "5x", "", "-1", " 3"}) {
            ScopedEnv env(hook, bad);
            try {
                executor::SubprocessBackend backend(
                    executor::HarnessConfig{}, {});
                ADD_FAILURE() << hook << " accepted '" << bad << "'";
            } catch (const std::runtime_error &e) {
                EXPECT_NE(std::string(e.what()).find(hook),
                          std::string::npos)
                    << e.what();
            }
        }
    }
}

// A backend that cannot be built is a configuration error, the same for
// every shard and program: the campaign throws it whatever its size and
// jobs, and quarantines nothing for it.
TEST(SubprocessRecovery, UnbuildableBackendAbortsTheCampaign)
{
    ScopedEnv worker("AMULET_SIM_WORKER", "/nonexistent");
    const ScratchDir scratch("unbuildable");
    for (unsigned programs : {1u, 2u, 3u}) {
        for (unsigned jobs : {1u, 2u}) {
            const std::string tag = "p" + std::to_string(programs) + "j" +
                                    std::to_string(jobs);
            SCOPED_TRACE(tag);
            core::CampaignConfig cfg =
                campaignConfig(defense::DefenseKind::Baseline, jobs,
                               executor::BackendKind::Subprocess,
                               {500, programs});
            cfg.corpusDir = scratch.sub(tag);
            try {
                core::Campaign(cfg).run();
                ADD_FAILURE() << "the campaign must abort";
            } catch (const std::runtime_error &e) {
                EXPECT_NE(std::string(e.what()).find("AMULET_SIM_WORKER"),
                          std::string::npos)
                    << e.what();
            }
            EXPECT_TRUE(
                corpus::CorpusStore::readQuarantined(cfg.corpusDir).empty());
        }
    }
}

// $AMULET_SIM_OP_TIMEOUT_SEC is read whole, as a finite positive number
// of seconds: garbage, a trailing unit, zero, a negative or non-finite
// value, or one past a double's range is refused naming the variable,
// not ignored. The constructor throws before any worker is spawned.
TEST(SubprocessWatchdog, MalformedTimeoutVariableThrowsNamingIt)
{
    for (const char *bad :
         {"abc", "5x", "", " 5", "0", "-1", "inf", "nan", "1e400"}) {
        ScopedEnv timeout("AMULET_SIM_OP_TIMEOUT_SEC", bad);
        try {
            executor::SubprocessBackend backend(executor::HarnessConfig{},
                                                {});
            ADD_FAILURE() << "accepted '" << bad << "'";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("AMULET_SIM_OP_TIMEOUT_SEC"),
                      std::string::npos)
                << e.what();
        }
    }
}

// A deadline past what the clock's ticks hold (1e10 s is 1e19 ns, more
// than a 64-bit tick count) is clamped to a day: the hello and an op
// complete, where the unclamped conversion was undefined behaviour (the
// sanitize job's float-cast-overflow check aborts on it).
TEST(SubprocessWatchdog, HugeTimeoutIsClampedAndOpsComplete)
{
    executor::HarnessConfig hcfg;
    hcfg.bootInsts = 1000;
    for (const double sec : {1e10, std::numeric_limits<double>::infinity()}) {
        executor::BackendOptions opts;
        opts.opTimeoutSec = sec;
        executor::SubprocessBackend backend(hcfg, opts);
        const int pid = backend.workerPid();
        EXPECT_NO_THROW(backend.saveContext()) << sec;
        EXPECT_EQ(backend.workerPid(), pid) << sec;
    }
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
 *  empty predictor tables (it decodes; no scripted op needs more) and a
 *  zero time breakdown. */
std::string
cannedHello()
{
    return "printf '{\"ok\":true,\"ctx\":{\"bp\":{\"ghr\":0,"
           "\"pht\":\"\",\"btbTags\":[],\"btbTargets\":[]},"
           "\"mdp\":\"\"},\"times\":{\"startupSec\":0,\"primeSec\":0,"
           "\"simulateSec\":0,\"traceExtractSec\":0}}\\n'\n";
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
            << "a never-completing reply must fail the op";
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    // One 0.25 s deadline plus process churn; anything close to a
    // minute means the deadline reset per poll.
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

// A context whose tables do not fit the worker's is refused in the
// parent, before it reaches the wire: a delta against the anchor cannot
// express it. The worker stays up.
TEST(SubprocessRecovery, ContextThatDoesNotFitIsRefusedBeforeTheWire)
{
    executor::HarnessConfig hcfg;
    hcfg.bootInsts = 1000;
    executor::SubprocessBackend backend(hcfg, {});
    const executor::UarchContext ctx = backend.saveContext();
    const int pid = backend.workerPid();
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
    EXPECT_EQ(backend.workerPid(), pid);
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
    const int pid = backend.workerPid();
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
    EXPECT_EQ(backend.workerPid(), pid);
}

// === Poison at the backend boundary ========================================

// A poisoned program's op fails before the wire with
// WorkerQuarantineError naming the poison, and kills the worker; the
// next program runs on a fresh backend, as the scheduler's retry does
// (the poison is per-program).
TEST(SubprocessRecovery, PoisonedOpThrowsAndAFreshBackendServesTheNext)
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
        try {
            backend.saveContext();
            ADD_FAILURE() << "a poisoned op must throw";
        } catch (const executor::WorkerQuarantineError &e) {
            EXPECT_NE(std::string(e.what()).find("poison"),
                      std::string::npos)
                << e.what();
        }
    }
    EXPECT_EQ(backend.workerPid(), -1);
    executor::SubprocessBackend fresh(hcfg, {});
    runtime::fault::ProgramScope scope(8);
    EXPECT_NO_THROW(fresh.saveContext());
}

} // namespace
