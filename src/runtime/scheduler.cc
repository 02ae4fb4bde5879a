#include "runtime/scheduler.hh"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <unordered_map>
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

    // A failure inside a pool thread must surface as the library's own
    // exception, not as std::terminate from one escaping a std::thread:
    // capture the first failure. Whether it aborts the campaign is
    // decided by the containment verdict after the pool drains — a
    // shard death whose work was re-leased and finished elsewhere is
    // telemetry, not an abort.
    std::exception_ptr failure;
    // A backend that cannot be built (no worker executable, a malformed
    // environment variable) fails alike for every shard and program: a
    // configuration error, not a shard death. The first one stops all
    // claiming, nothing is re-leased or quarantined for it, and it
    // aborts the campaign once the pool drains, whatever its size.
    std::exception_ptr build_failure;
    std::mutex failure_mu;

    // --- Shard containment (re-lease) state ------------------------------
    // When a shard thread dies, the programs it had claimed but not yet
    // reported go back on a release queue that every claimant serves
    // before the fresh-program range. Pre-split per-program RNG streams
    // make the re-run byte-identical to the run the dead shard never
    // finished — the exact re-lease/dedup path the distributed fabric
    // will reuse for node loss. A program whose runs die
    // kMaxProgramAttempts times is quarantined instead of re-leased.
    constexpr unsigned kMaxProgramAttempts = 3;
    // Per-thread reincarnation budget: a shard that keeps dying is
    // systemic breakage (broken worker binary, dead disk), not bad
    // luck; it gives up, and the campaign aborts once every shard has.
    constexpr unsigned kMaxShardDeaths = 8;
    std::mutex lease_mu;
    std::deque<unsigned> release_queue;      // guarded by lease_mu
    std::unordered_map<unsigned, unsigned> release_attempts; // by lease_mu
    unsigned shards_gave_up = 0;             // guarded by lease_mu
    unsigned live_claimants = jobs;          // guarded by lease_mu
    bool work_abandoned = false;             // guarded by lease_mu
    std::atomic<bool> containment_broken{false};

    // Claim program indices dynamically for load balance; determinism
    // is per-program, not per-claim-order. Re-leased programs are
    // served first and bypass the per-process budget (they were already
    // counted at first claim). The budget is enforced at claim time,
    // across all shards.
    auto claim = [&]() -> std::optional<unsigned> {
        for (;;) {
            if (stop.load(std::memory_order_relaxed))
                return std::nullopt;
            {
                std::lock_guard<std::mutex> lock(lease_mu);
                if (!release_queue.empty()) {
                    const unsigned p = release_queue.front();
                    release_queue.pop_front();
                    return p;
                }
            }
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
        // an append failure leaves it unreported (and re-leased) rather
        // than silently dropped.
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
    // stop-first detection — cost nothing. ShardExecutor::runClaimed
    // owns the claim-run-report loop.
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
            // report path, keyed by (program, re-lease attempt) so a
            // re-leased run of the same program can succeed. Thrown
            // before the sink sees the outcome — the program stays
            // unreported and containment re-leases it.
            if (const auto *plan = fault::FaultPlan::active()) {
                if (!out.quarantined) {
                    unsigned attempt = 0;
                    {
                        std::lock_guard<std::mutex> lock(lease_mu);
                        const auto it = release_attempts.find(p);
                        if (it != release_attempts.end())
                            attempt = it->second;
                    }
                    if (plan->fires("shard.throw",
                                    (std::uint64_t{p} << 8) | attempt))
                        throw std::runtime_error(
                            "fault plan: injected shard failure at "
                            "program " + std::to_string(p));
                }
            }
            // Campaign-phase accounting timers — the same values the
            // sink merges into per-program counters.
            auto &m = tsink.metrics();
            m.timer("time.testGen").add(out.testGenSec);
            m.timer("time.ctrace").add(out.ctraceSec);
            m.timer("time.filter").add(out.filterSec);
            // Live heartbeat counters. progressIndex bumps once per
            // report — the shard's monotonic liveness index.
            const auto relaxed = std::memory_order_relaxed;
            auto toUs = [](double sec) {
                return static_cast<std::uint64_t>(sec * 1e6);
            };
            progress.programsDone.fetch_add(1, relaxed);
            progress.testCases.fetch_add(out.testCases, relaxed);
            progress.violations.fetch_add(out.confirmedViolations,
                                          relaxed);
            progress.testGenUs.fetch_add(toUs(out.testGenSec), relaxed);
            progress.ctraceUs.fetch_add(toUs(out.ctraceSec), relaxed);
            progress.filterUs.fetch_add(toUs(out.filterSec), relaxed);
            live.currentProgram.store(p, relaxed);
            live.programsDone.fetch_add(1, relaxed);
            live.progressIndex.fetch_add(1, relaxed);
            telemetry::SpanScope span(&tsink, "sched.report", p);
            report(p, std::move(out));
        };
        // Programs this shard has claimed but not yet reported. On a
        // shard death every entry is re-leased (or quarantined after
        // kMaxProgramAttempts deaths). The sink's single-report
        // invariant holds because a program is owned by exactly one
        // incarnation at a time: it leaves `outstanding` only after a
        // successful report or by going back through the lease queue.
        std::vector<unsigned> outstanding;
        auto claim_mine = [&]() -> std::optional<unsigned> {
            const std::optional<unsigned> p = claim_traced();
            if (p)
                outstanding.push_back(*p);
            return p;
        };
        auto report_mine = [&](unsigned p, ProgramOutcome out) {
            report_traced(p, std::move(out));
            outstanding.erase(
                std::remove(outstanding.begin(), outstanding.end(), p),
                outstanding.end());
        };
        unsigned deaths = 0;
        bool gave_up = false;
        for (;;) {
            std::optional<ShardExecutor> exec;
            bool clean = true;
            try {
                const std::optional<unsigned> first = claim_mine();
                if (first) {
                    try {
                        exec.emplace(cfg_, t0, &telem, s);
                    } catch (...) {
                        stop.store(true, std::memory_order_relaxed);
                        std::lock_guard<std::mutex> lock(failure_mu);
                        if (!build_failure)
                            build_failure = std::current_exception();
                        break;
                    }
                    bool first_pending = true;
                    exec->runClaimed(
                        [&]() -> std::optional<unsigned> {
                            if (first_pending) {
                                first_pending = false;
                                return first;
                            }
                            return claim_mine();
                        },
                        streams, report_mine);
                }
            } catch (...) {
                clean = false;
                ++deaths;
                tsink.metrics().counter("sched.shardDeaths").add();
                std::lock_guard<std::mutex> lock(failure_mu);
                if (!failure)
                    failure = std::current_exception();
            }
            if (exec) {
                // times() is a round trip for an out-of-process worker
                // and can fail on its own (e.g. the worker died at the
                // shard-end times op). The breakdown is diagnostics; a
                // surviving campaign must not abort over it.
                try {
                    const executor::TimeBreakdown &tb = exec->times();
                    auto &m = tsink.metrics();
                    m.timer("time.startup").add(tb.startupSec);
                    m.timer("time.prime").add(tb.primeSec);
                    m.timer("time.simulate").add(tb.simulateSec);
                    m.timer("time.traceExtract").add(tb.traceExtractSec);
                } catch (...) {
                    tsink.metrics()
                        .counter("sched.timesFlushFailures")
                        .add();
                }
            }
            if (clean)
                break;
            // Death: hand back what this incarnation still owed.
            // Programs that have now died kMaxProgramAttempts times are
            // quarantined right here instead of re-leased — this thread
            // still owns them, so the report cannot race another
            // shard's.
            std::vector<unsigned> to_quarantine;
            {
                std::lock_guard<std::mutex> lock(lease_mu);
                for (const unsigned p : outstanding) {
                    if (++release_attempts[p] >= kMaxProgramAttempts)
                        to_quarantine.push_back(p);
                    else
                        release_queue.push_back(p);
                }
            }
            outstanding.clear();
            for (const unsigned p : to_quarantine) {
                try {
                    report_traced(
                        p, core::ProgramOutcome::makeQuarantined(
                               "shard thread failed repeatedly while "
                               "running this program"));
                } catch (...) {
                    // Containment itself failed (the quarantine record
                    // could not be reported): the program would vanish
                    // silently. That is an abort, not a survivable
                    // fault.
                    containment_broken.store(true,
                                             std::memory_order_relaxed);
                    stop.store(true, std::memory_order_relaxed);
                    std::lock_guard<std::mutex> lock(failure_mu);
                    if (!failure)
                        failure = std::current_exception();
                }
            }
            if (containment_broken.load(std::memory_order_relaxed) ||
                deaths > kMaxShardDeaths) {
                gave_up = true;
                break;
            }
            // Reincarnate: the next iteration builds a fresh executor
            // (fresh simulator boot, fresh worker) and serves the lease
            // queue first — including this shard's own re-leases, so
            // even a lone shard survives its own death.
        }
        {
            std::lock_guard<std::mutex> lock(lease_mu);
            if (gave_up)
                ++shards_gave_up;
            --live_claimants;
            // The last claimant walking away from a non-empty lease
            // queue would strand re-leased programs; flag it for the
            // post-pool verdict (harmless when stop was set on
            // purpose).
            if (live_claimants == 0 && !release_queue.empty())
                work_abandoned = true;
        }
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
    if (build_failure)
        std::rethrow_exception(build_failure);
    // Containment verdict: a captured shard failure aborts the campaign
    // only when containment actually lost work — every shard gave up,
    // the quarantine path itself broke, or the pool drained with
    // re-leased programs nobody served (and no deliberate stop). A
    // death whose programs were re-run elsewhere (or quarantined, and
    // so accounted for) is telemetry, not an abort.
    {
        std::lock_guard<std::mutex> lock(lease_mu);
        const bool campaign_lost =
            containment_broken.load(std::memory_order_relaxed) ||
            shards_gave_up == jobs ||
            (work_abandoned && !stop.load(std::memory_order_relaxed));
        if (failure && campaign_lost)
            std::rethrow_exception(failure);
    }
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
    // A chaos plan legitimately redoes work (re-leased programs,
    // restarted workers), so the budget check only holds fault-free.
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
