/**
 * @file
 * Subprocess backend recovery (src/executor/backend_subprocess.hh): the
 * backend survives killed and hung workers. Crash injection
 * (AMULET_SIM_WORKER_CRASH_AFTER), hang injection
 * (AMULET_SIM_WORKER_HANG_AFTER) and a direct SIGKILL mid-program all end
 * in results identical to an uninterrupted run; a worker that trickles
 * bytes cannot outlast the per-operation deadline; and exhausted retries
 * escalate to a per-program quarantine. That the subprocess backend
 * reproduces the in-process one is the backend variant of
 * tests/test_equivalence.cc.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/generator.hh"
#include "core/input_gen.hh"
#include "executor/backend_subprocess.hh"
#include "runtime/fault.hh"
#include "support/campaign_fixture.hh"

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

// Watchdog regression: the receive deadline is per *operation*, not per
// poll. A worker trickling bytes forever — each arriving well inside
// the poll window, the full line never — must still be timed out; with
// a per-poll budget every byte would reset the clock and the campaign
// would hang for good.
TEST(SubprocessRecovery, TricklingWorkerCannotEvadeTheWatchdog)
{
    namespace fs = std::filesystem;
    const std::string script =
        (fs::temp_directory_path() /
         ("amulet_trickle_worker_" + std::to_string(::getpid()) + ".sh"))
            .string();
    {
        std::ofstream out(script);
        // Answers the hello handshake properly, then dribbles one byte
        // every 50 ms — a fifth of the deadline — without ever
        // terminating the reply line.
        out << "#!/bin/sh\n"
               "read line\n"
               "printf '{\"ok\":true}\\n'\n"
               "read line\n"
               "while :; do printf 'x'; sleep 0.05; done\n";
    }
    chmod(script.c_str(), 0755);

    executor::BackendOptions opts;
    opts.workerPath = script;
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
    fs::remove(script);
}

// A context that does not fit the worker's core gets an error reply and
// the worker stays up. It used to crash the worker (an empty BTB read
// past its end), which the backend retried into quarantine.
TEST(SubprocessRecovery, MalformedContextGetsAnErrorReply)
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
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("worker error"), std::string::npos) << what;
        EXPECT_NE(what.find("does not fit"), std::string::npos) << what;
    }
    EXPECT_NO_THROW(backend.restoreContext(ctx));
    EXPECT_EQ(backend.restarts(), restarts);
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
