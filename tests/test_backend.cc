/**
 * @file
 * Executor backend equivalence contract (src/executor/backend.hh): for
 * every defense, a campaign reaches exactly the same verdicts —
 * confirmed violations, signature counts, counters, and byte-identical
 * record contents — on the subprocess backend as in-process, at jobs=1
 * and jobs=4. And the subprocess backend survives killed workers: crash
 * injection (AMULET_SIM_WORKER_CRASH_AFTER) and a direct SIGKILL
 * mid-program both end in results identical to an uninterrupted run.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "core/generator.hh"
#include "core/input_gen.hh"
#include "executor/backend_subprocess.hh"
#include "runtime/fault.hh"
#include "support/campaign_fixture.hh"

namespace
{

using namespace amulet;
using namespace amulet::fixture;

/** This suite's campaign size (seed 1 detects within 8 programs). */
constexpr CampaignSize kSize{2000, 8};

void
expectBackendsAgree(defense::DefenseKind kind, bool expect_detection)
{
    for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        const auto reference =
            core::Campaign(campaignConfig(kind, jobs,
                                          executor::BackendKind::InProcess,
                                          kSize))
                .run();
        if (expect_detection)
            EXPECT_TRUE(reference.detected());
        const auto other =
            core::Campaign(campaignConfig(kind, jobs,
                                          executor::BackendKind::Subprocess,
                                          kSize))
                .run();
        expectEquivalent(reference, other);
    }
}

TEST(BackendEquivalence, Baseline)
{
    expectBackendsAgree(defense::DefenseKind::Baseline, true);
}

TEST(BackendEquivalence, InvisiSpec)
{
    expectBackendsAgree(defense::DefenseKind::InvisiSpec, false);
}

TEST(BackendEquivalence, CleanupSpec)
{
    expectBackendsAgree(defense::DefenseKind::CleanupSpec, false);
}

TEST(BackendEquivalence, SpecLfb)
{
    expectBackendsAgree(defense::DefenseKind::SpecLfb, false);
}

TEST(BackendEquivalence, Stt)
{
    expectBackendsAgree(defense::DefenseKind::Stt, false);
}

// CT-COND exercises the path where the filter resolves whole programs
// before they reach the simulator, and is the campaign of the
// filter-ctcond benchmark workload.
TEST(BackendEquivalence, CtCond)
{
    for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        auto make = [&](executor::BackendKind backend) {
            auto cfg = campaignConfig(defense::DefenseKind::Baseline,
                                      jobs, backend, kSize);
            cfg.contract = contracts::ctCond();
            cfg.numPrograms = 12;
            return cfg;
        };
        const auto reference =
            core::Campaign(make(executor::BackendKind::InProcess)).run();
        const auto other =
            core::Campaign(make(executor::BackendKind::Subprocess)).run();
        expectEquivalent(reference, other);
    }
}

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

// Kill the worker process outright between dispatches; the next
// dispatch must restart it and produce the exact traces an untouched
// backend produces — including the predictor state carried across the
// kill (the batch after the kill starts from the pre-kill context).
TEST(SubprocessRecovery, SigkilledWorkerRestartsWithIdenticalResults)
{
    executor::HarnessConfig hcfg;
    hcfg.bootInsts = 1000;
    core::GeneratorConfig gcfg;
    gcfg.map = hcfg.map;
    core::ProgramGenerator gen(gcfg, Rng(5));
    const isa::Program prog = gen.generate();
    const isa::FlatProgram flat(prog, gcfg.map.codeBase);
    core::InputGenConfig icfg;
    icfg.map = gcfg.map;
    core::InputGenerator igen(icfg, Rng(6));
    const arch::Input in0 = igen.generate(0);
    const arch::Input in1 = igen.generate(1);

    std::vector<std::pair<executor::UTrace, executor::UTrace>> traces;
    auto run_pair = [&](bool kill_between) {
        executor::SubprocessBackend backend(hcfg, {});
        backend.saveContext();
        backend.loadProgram(prog, flat);
        auto first = backend.dispatchBatch({&in0}, nullptr);
        if (kill_between) {
            ASSERT_NE(backend.workerPid(), -1);
            kill(backend.workerPid(), SIGKILL);
        }
        auto second = backend.dispatchBatch({&in1}, nullptr);
        ASSERT_EQ(first.runs.size(), 1u);
        ASSERT_EQ(second.runs.size(), 1u);
        if (kill_between)
            EXPECT_GE(backend.restarts(), 1u);
        traces.push_back({first.runs[0].trace, second.runs[0].trace});
    };
    run_pair(false);
    run_pair(true);
    ASSERT_EQ(traces.size(), 2u);
    EXPECT_EQ(traces[0].first, traces[1].first);
    EXPECT_EQ(traces[0].second, traces[1].second)
        << "post-kill batch must start from the pre-kill predictor "
           "context";
}

// === Hung workers ==========================================================

// A worker that wedges (stops answering without dying) must be caught
// by the per-operation watchdog, killed, and restarted with identical
// results — the hang-detection sibling of the crash tests above. The
// direct dispatch pair keeps the timing tight and deterministic.
TEST(SubprocessRecovery, HungWorkerIsTimedOutKilledAndRestarted)
{
    executor::HarnessConfig hcfg;
    hcfg.bootInsts = 1000;
    core::GeneratorConfig gcfg;
    gcfg.map = hcfg.map;
    core::ProgramGenerator gen(gcfg, Rng(5));
    const isa::Program prog = gen.generate();
    const isa::FlatProgram flat(prog, gcfg.map.codeBase);
    core::InputGenConfig icfg;
    icfg.map = gcfg.map;
    core::InputGenerator igen(icfg, Rng(6));
    const arch::Input in0 = igen.generate(0);
    const arch::Input in1 = igen.generate(1);

    std::vector<std::pair<executor::UTrace, executor::UTrace>> traces;
    auto run_pair = [&](bool hang) {
        executor::BackendOptions opts;
        opts.opTimeoutSec = 2.0;
        std::optional<ScopedEnv> env;
        if (hang) {
            // The worker freezes before its 2nd mutating op; the
            // watchdog must fire instead of waiting forever.
            env.emplace("AMULET_SIM_WORKER_HANG_AFTER", "1");
        }
        executor::SubprocessBackend backend(hcfg, opts);
        backend.saveContext();
        backend.loadProgram(prog, flat);
        auto first = backend.dispatchBatch({&in0}, nullptr);
        auto second = backend.dispatchBatch({&in1}, nullptr);
        ASSERT_EQ(first.runs.size(), 1u);
        ASSERT_EQ(second.runs.size(), 1u);
        if (hang)
            EXPECT_GE(backend.restarts(), 1u);
        traces.push_back({first.runs[0].trace, second.runs[0].trace});
    };
    run_pair(false);
    run_pair(true);
    ASSERT_EQ(traces.size(), 2u);
    EXPECT_EQ(traces[0].first, traces[1].first);
    EXPECT_EQ(traces[0].second, traces[1].second)
        << "post-hang batch must start from the pre-hang predictor "
           "context";
}

// Campaign-level hang recovery: workers that periodically wedge must
// still produce a campaign equivalent to an undisturbed in-process run.
// The generous timeout keeps legitimate (sanitizer-slowed) ops under
// the watchdog; only real hangs trip it.
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
    ScopedEnv timeout("AMULET_SIM_OP_TIMEOUT_SEC", "4");
    const auto hung =
        core::Campaign(config(executor::BackendKind::Subprocess)).run();
    expectEquivalent(reference, hung);
    const auto it = hung.metrics.find("backend.restarts");
    ASSERT_NE(it, hung.metrics.end())
        << "the hang hook must actually have wedged a worker";
    EXPECT_GE(it->second.value, 1.0);
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
        // every 100 ms without ever terminating the reply line.
        out << "#!/bin/sh\n"
               "read line\n"
               "printf '{\"ok\":true}\\n'\n"
               "read line\n"
               "while :; do printf 'x'; sleep 0.1; done\n";
    }
    chmod(script.c_str(), 0755);

    executor::BackendOptions opts;
    opts.workerPath = script;
    opts.opTimeoutSec = 0.6;
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
    // 3 attempts x 0.6 s plus backoff and process churn; anything close
    // to a minute means the deadline reset per poll.
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
