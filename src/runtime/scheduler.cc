#include "runtime/scheduler.hh"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "common/rng.hh"
#include "corpus/checkpoint.hh"
#include "corpus/corpus_store.hh"
#include "corpus/fields.hh"
#include "corpus/serde.hh"
#include "runtime/fault.hh"
#include "runtime/shard_executor.hh"
#include "runtime/violation_sink.hh"
#include "runtime/worker_pool.hh"
#include "telemetry/telemetry.hh"

namespace amulet::runtime
{

CampaignScheduler::CampaignScheduler(core::CampaignConfig config)
    : cfg_(std::move(config))
{
}

core::CampaignStats
CampaignScheduler::run()
{
    const auto t0 = Clock::now();
    const unsigned num_programs = cfg_.numPrograms;
    unsigned jobs = resolveJobs(cfg_.jobs);
    if (num_programs == 0) {
        // Nothing to shard; report an empty campaign without booting
        // any simulator (also guards absurd jobs requests).
        core::CampaignStats stats;
        stats.jobs = 1;
        stats.backend = corpus::enumToken(cfg_.backend);
        return stats;
    }
    if (jobs > num_programs)
        jobs = num_programs;

    // Deterministic chaos layer (src/runtime/fault.hh): armed for this
    // campaign from --fault-plan, disarmed on every exit path.
    // Runtime-only: the plan is never part of the corpus fingerprint,
    // and a run with no plan takes none of the injected branches.
    struct PlanGuard
    {
        bool armed = false;
        ~PlanGuard()
        {
            if (armed)
                fault::FaultPlan::uninstall();
        }
    } plan_guard;
    if (!cfg_.faultPlan.empty()) {
        fault::FaultPlan::install(cfg_.faultPlan);
        plan_guard.armed = true;
    }

    // Campaign telemetry (src/telemetry/): per-shard metric registries
    // and span buffers, live-progress atomics, and the optional
    // heartbeat/trace channels. Observability only — nothing recorded
    // here feeds back into scheduling or results.
    telemetry::CampaignTelemetry telem(cfg_.telemetry, jobs,
                                       num_programs, t0);
    telemetry::CampaignProgress &progress = telem.progress();

    // One RNG stream per program, split in program order so that the
    // stream a program sees does not depend on which worker claims it.
    std::vector<Rng> streams;
    streams.reserve(num_programs);
    Rng master(cfg_.seed);
    for (unsigned p = 0; p < num_programs; ++p)
        streams.push_back(master.split());

    ViolationSink sink(num_programs, cfg_.maxViolationsRecorded);
    std::atomic<unsigned> next_program{0};
    std::atomic<bool> stop{false};

    // --- Corpus persistence (src/corpus/) --------------------------------
    // Preload checkpointed outcomes *before* subscribing the store to the
    // sink: their records are already journaled, and the store's dedup
    // index would drop the duplicates anyway, but not streaming them at
    // all keeps the journal append-only in spirit as well as in bytes.
    std::unique_ptr<corpus::CorpusStore> store;
    std::unordered_set<unsigned> completed;
    bool already_detected = false;
    if (!cfg_.corpusDir.empty()) {
        store = std::make_unique<corpus::CorpusStore>(cfg_.corpusDir, cfg_);
        // Each program's checkpoint entry is encoded once, as it is
        // reported (restored outcomes included), not at every checkpoint.
        sink.setEntryEncoder(corpus::checkpointEntry);
        if (cfg_.resume) {
            auto restored = corpus::loadCheckpoint(cfg_.corpusDir, cfg_);
            if (!restored.empty()) {
                // Checkpoints carry counters only; the records of each
                // completed program rehydrate from the journal, in
                // journal order (= within-program detection order).
                // Journaled records of *unfinished* programs are left
                // alone — their program re-runs and re-derives them.
                for (core::ViolationRecord &rec :
                     corpus::CorpusStore::readJournal(cfg_.corpusDir)) {
                    auto it = restored.find(rec.programIndex);
                    if (it != restored.end())
                        it->second.records.push_back(std::move(rec));
                }
            }
            for (auto &[index, outcome] : restored) {
                already_detected |= outcome.confirmedViolations > 0;
                // A restored outcome's campaign-phase seconds feed the
                // registry exactly like a freshly reported one's, so
                // the final breakdown of a resumed campaign matches an
                // uninterrupted run's accounting.
                auto &sched = telem.schedulerSink().metrics();
                sched.timer("time.testGen").add(outcome.testGenSec);
                sched.timer("time.ctrace").add(outcome.ctraceSec);
                sched.timer("time.filter").add(outcome.filterSec);
                progress.resumedPrograms.fetch_add(
                    1, std::memory_order_relaxed);
                progress.testCases.fetch_add(outcome.testCases,
                                             std::memory_order_relaxed);
                progress.violations.fetch_add(
                    outcome.confirmedViolations,
                    std::memory_order_relaxed);
                sink.report(index, std::move(outcome));
                completed.insert(index);
            }
        }
        sink.setRecordCallback(
            [&store](unsigned, const core::ViolationRecord &rec) {
                store->append(rec);
            });
    }
    // Under stopAtFirstViolation a resumed campaign whose checkpoint
    // already holds a detection is finished; do not run more programs.
    if (cfg_.stopAtFirstViolation && already_detected)
        stop.store(true, std::memory_order_relaxed);

    std::mutex checkpoint_mu;
    std::atomic<unsigned> checkpoint_failures{0};
    auto write_checkpoint = [&] {
        std::lock_guard<std::mutex> lock(checkpoint_mu);
        try {
            corpus::writeCheckpointEntries(cfg_.corpusDir, cfg_,
                                           sink.checkpointEntries());
        } catch (const corpus::CorpusError &) {
            // A checkpoint is derived progress-markers, not data, and
            // its write is atomic (tmp + rename): a failed write leaves
            // the previous checkpoint intact and consistent. Keep the
            // campaign running — a resume just re-runs a few more
            // programs, whose journal appends dedup — and count the
            // failure for the merged registry.
            checkpoint_failures.fetch_add(1, std::memory_order_relaxed);
        }
    };
    std::atomic<unsigned> claimed_this_run{0};
    std::atomic<unsigned> reported_this_run{0};

    // Recovery (src/runtime/README.md, "Failure model"): a program whose
    // run or report throws re-runs from scratch on a fresh executor; its
    // pre-split RNG stream makes the re-run the run that failed. After
    // kMaxProgramAttempts failed attempts it is quarantined. A shard
    // that fails kMaxFailuresInARow attempts without completing a
    // program is systemic breakage (a worker that cannot finish any
    // program, a dead disk): it stops the campaign.
    constexpr unsigned kMaxProgramAttempts = 3;
    constexpr unsigned kMaxFailuresInARow = 8;
    // The failure that stops the campaign, rethrown once the pool
    // drains: a backend that cannot be built (no worker executable, a
    // malformed environment variable, the same for every shard and
    // program), a shard past kMaxFailuresInARow, or a quarantine that
    // could not be reported.
    std::exception_ptr failure;
    std::mutex failure_mu;
    auto abort_campaign = [&](std::exception_ptr e) {
        stop.store(true, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(failure_mu);
        if (!failure)
            failure = std::move(e);
    };

    // Claim program indices dynamically for load balance; determinism
    // is per-program, not per-claim-order. The budget is enforced at
    // claim time, across all shards.
    auto claim = [&]() -> std::optional<unsigned> {
        for (;;) {
            if (stop.load(std::memory_order_relaxed))
                return std::nullopt;
            const unsigned p =
                next_program.fetch_add(1, std::memory_order_relaxed);
            if (p >= num_programs)
                return std::nullopt;
            if (completed.count(p))
                continue; // restored from the checkpoint
            if (cfg_.maxProgramsThisRun > 0) {
                const unsigned claimed = claimed_this_run.fetch_add(
                                             1, std::memory_order_relaxed) +
                                         1;
                if (claimed >= cfg_.maxProgramsThisRun) {
                    // Budget reached: stop claiming. The final
                    // checkpoint makes the partial campaign resumable.
                    stop.store(true, std::memory_order_relaxed);
                }
                if (claimed > cfg_.maxProgramsThisRun)
                    return std::nullopt; // lost the race for the budget
            }
            return p;
        }
    };
    auto report = [&](unsigned p, ProgramOutcome out) {
        const bool detected = out.confirmedViolations > 0;
        // A quarantine is journaled like the program's records would
        // have been — *before* the sink marks the program reported, so
        // an append failure leaves it unreported rather than silently
        // dropped.
        if (out.quarantined && store)
            store->appendQuarantine(p, out.quarantineReason);
        sink.report(p, std::move(out));
        if (detected && cfg_.stopAtFirstViolation)
            stop.store(true, std::memory_order_relaxed);
        const unsigned done =
            reported_this_run.fetch_add(1, std::memory_order_relaxed) + 1;
        if (store && cfg_.checkpointEvery > 0 &&
            done % cfg_.checkpointEvery == 0) {
            write_checkpoint();
        }
    };

    // One shard per worker. The executor (one simulator boot) is only
    // constructed once the worker has actually claimed a program, so
    // workers that arrive after the queue drained — or after a
    // stop-first detection — cost nothing.
    auto shard_task = [&](unsigned s) {
        telemetry::TelemetrySink &tsink = telem.shardSink(s);
        telemetry::ShardLive &live = progress.shard(s);
        // Claim/report run on this worker thread, so their spans land
        // in the shard's own sink. Claim spans make queue contention
        // and stop-flag stalls visible in a trace.
        auto claim_traced = [&]() -> std::optional<unsigned> {
            telemetry::SpanScope span(&tsink, "sched.claim");
            return claim();
        };
        auto report_traced = [&](unsigned p, ProgramOutcome out) {
            // Deterministic chaos site: a shard-thread exception in the
            // report path, thrown before the sink sees the outcome, so
            // the program stays unreported and re-runs.
            if (const auto *plan = fault::FaultPlan::active()) {
                if (!out.quarantined && plan->fires("shard.throw", p))
                    throw std::runtime_error(
                        "fault plan: injected shard failure at "
                        "program " + std::to_string(p));
            }
            // Counted once the report has succeeded: a report that
            // throws (a torn journal append) re-runs its program, whose
            // next report counts it.
            const double testGenSec = out.testGenSec;
            const double ctraceSec = out.ctraceSec;
            const double filterSec = out.filterSec;
            const std::uint64_t testCases = out.testCases;
            const std::uint64_t violations = out.confirmedViolations;
            {
                telemetry::SpanScope span(&tsink, "sched.report", p);
                report(p, std::move(out));
            }
            // Campaign-phase accounting timers — the same values the
            // sink merges into per-program counters.
            auto &m = tsink.metrics();
            m.timer("time.testGen").add(testGenSec);
            m.timer("time.ctrace").add(ctraceSec);
            m.timer("time.filter").add(filterSec);
            // Live heartbeat counters. progressIndex bumps once per
            // report — the shard's monotonic liveness index.
            const auto relaxed = std::memory_order_relaxed;
            auto toUs = [](double sec) {
                return static_cast<std::uint64_t>(sec * 1e6);
            };
            progress.programsDone.fetch_add(1, relaxed);
            progress.testCases.fetch_add(testCases, relaxed);
            progress.violations.fetch_add(violations, relaxed);
            progress.testGenUs.fetch_add(toUs(testGenSec), relaxed);
            progress.ctraceUs.fetch_add(toUs(ctraceSec), relaxed);
            progress.filterUs.fetch_add(toUs(filterSec), relaxed);
            live.currentProgram.store(p, relaxed);
            live.programsDone.fetch_add(1, relaxed);
            live.progressIndex.fetch_add(1, relaxed);
        };
        std::optional<ShardExecutor> exec;
        // Fold a retiring executor's harness breakdown into the time.*
        // timers, so discarded executors' work is accounted too.
        auto retire = [&] {
            const executor::TimeBreakdown &tb = exec->times();
            auto &m = tsink.metrics();
            m.timer("time.startup").add(tb.startupSec);
            m.timer("time.prime").add(tb.primeSec);
            m.timer("time.simulate").add(tb.simulateSec);
            m.timer("time.traceExtract").add(tb.traceExtractSec);
            exec.reset();
        };
        unsigned failures_in_a_row = 0;
        // Run one claimed program attempt by attempt; false when the
        // campaign is stopping on this shard's failure.
        auto run_program = [&](unsigned p) -> bool {
            for (unsigned attempt = 0;; ++attempt) {
                if (!exec) {
                    // Built outside the program scope: construction ops
                    // are never faulted.
                    try {
                        exec.emplace(cfg_, t0, &telem, s);
                    } catch (...) {
                        abort_campaign(std::current_exception());
                        return false;
                    }
                }
                std::exception_ptr error;
                std::string reason;
                try {
                    fault::ProgramScope scope(p, attempt);
                    report_traced(p, exec->runProgram(p, streams[p]));
                    failures_in_a_row = 0;
                    return true;
                } catch (const std::exception &e) {
                    error = std::current_exception();
                    reason = e.what();
                } catch (...) {
                    error = std::current_exception();
                    reason = "unknown exception";
                }
                retire();
                tsink.noteBackendRestart();
                if (++failures_in_a_row == kMaxFailuresInARow) {
                    abort_campaign(error);
                    return false;
                }
                if (attempt + 1 == kMaxProgramAttempts) {
                    try {
                        report_traced(p, core::ProgramOutcome::makeQuarantined(
                                             std::move(reason)));
                        return true;
                    } catch (...) {
                        // The program would vanish silently: an abort,
                        // not a survivable fault.
                        abort_campaign(std::current_exception());
                        return false;
                    }
                }
            }
        };
        while (const std::optional<unsigned> p = claim_traced()) {
            if (!run_program(*p))
                break;
        }
        if (exec)
            retire();
    };

    telem.startHeartbeat();
    if (jobs <= 1) {
        shard_task(0);
    } else {
        WorkerPool pool(jobs);
        for (unsigned s = 0; s < jobs; ++s)
            pool.submit([&shard_task, s] { shard_task(s); });
        pool.wait();
    }
    telem.stopHeartbeat(); // emits the final snapshot line
    if (failure)
        std::rethrow_exception(failure);
    telem.writeTraceFile();

    // Final checkpoint: everything completed (including this run's tail
    // and any preloaded outcomes) is resumable state.
    if (store)
        write_checkpoint();

    core::CampaignStats stats = sink.finalize();
    stats.jobs = jobs;
    stats.backend = corpus::enumToken(cfg_.backend);
    stats.resumedPrograms = static_cast<unsigned>(completed.size());
    stats.wallSeconds = secondsSince(t0);

    // Campaign-level tallies into the scheduler sink, so the merged
    // registry is a self-contained record of the run.
    {
        auto &m = telem.schedulerSink().metrics();
        m.gauge("campaign.jobs").set(jobs);
        m.gauge("campaign.wallSeconds").set(stats.wallSeconds);
        auto count = [&m](const char *name, std::uint64_t v) {
            m.counter(name).add(v);
        };
        count("campaign.programs", stats.programs);
        count("campaign.skippedPrograms", stats.skippedPrograms);
        count("campaign.resumedPrograms", stats.resumedPrograms);
        count("campaign.testCases", stats.testCases);
        count("campaign.filteredTestCases", stats.filteredTestCases);
        count("campaign.simInputRuns", stats.simInputRuns());
        count("campaign.effectiveClasses", stats.effectiveClasses);
        count("campaign.candidateViolations", stats.candidateViolations);
        count("campaign.validationRuns", stats.validationRuns);
        count("campaign.violatingTestCases", stats.violatingTestCases);
        count("campaign.confirmedViolations", stats.confirmedViolations);
        count("campaign.quarantinedPrograms", stats.quarantinedPrograms);
        if (const unsigned cf =
                checkpoint_failures.load(std::memory_order_relaxed))
            m.counter("corpus.checkpointFailures").add(cf);
    }

    // The merged registry is the single source of truth for the time
    // breakdown: every report() above fed the campaign-phase timers and
    // every shard flushed its harness breakdown into the time.* timers.
    stats.metrics = telem.mergedMetrics();
    auto timed = [&](const char *name) -> double {
        auto it = stats.metrics.find(name);
        return it == stats.metrics.end() ? 0.0 : it->second.value;
    };
    stats.times.startupSec = timed("time.startup");
    stats.times.primeSec = timed("time.prime");
    stats.times.simulateSec = timed("time.simulate");
    stats.times.traceExtractSec = timed("time.traceExtract");
    stats.times.testGenSec = timed("time.testGen");
    stats.times.ctraceSec = timed("time.ctrace");
    stats.times.filterSec = timed("time.filter");
    // Across jobs workers, jobs * wallSeconds of worker time was
    // available; whatever the harness and campaign phases did not measure
    // is scheduling overhead and idle tail.
    const double measured = telemetry::timedSectionTotalSec(stats.metrics);
    stats.times.otherSec =
        std::max(0.0, stats.wallSeconds * jobs - measured);
#ifndef NDEBUG
    // The accounting sections are disjoint slices of worker time only
    // when the harness runs on the worker's own thread (in-process
    // backend); the subprocess backend's sections are measured by the
    // worker process on its own clock, so they are not slices of it.
    // Resumed campaigns replay past runs' seconds against this run's
    // (shorter) wall clock, so exclude them too.
    // A chaos plan legitimately redoes work (re-run programs), so the
    // budget check only holds fault-free.
    if (cfg_.backend == executor::BackendKind::InProcess &&
        stats.resumedPrograms == 0 &&
        fault::FaultPlan::active() == nullptr) {
        assert(measured <= stats.wallSeconds * jobs * 1.05 + 0.25 &&
               "timed sections exceed available worker time");
    }
#endif
    if (store)
        store->writeMetrics(
            telemetry::metricsJson(stats.metrics, telem.topSpans()));
    return stats;
}

} // namespace amulet::runtime
