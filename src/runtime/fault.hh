/**
 * @file
 * Deterministic fault-injection layer ("chaos plan") for campaign
 * survivability testing.
 *
 * A FaultPlan is a seeded, site-addressed schedule of injected
 * failures: worker crashes, hung workers, garbled wire replies, torn
 * journal appends, failed checkpoint writes, and shard-thread
 * exceptions. Each injection site asks `plan->fires(site, key)` with a
 * *stable* key (program index, per-program operation number, or an
 * occurrence counter), and the answer is a pure function of
 * (seed, site, key) — so a given plan injects the same faults at the
 * same logical points on every run, at every `--jobs` value, which is
 * what makes "chaos run ≡ clean run for all surviving programs" a
 * testable equality rather than a flaky hope.
 *
 * The plan is runtime-only: `CampaignConfig::faultPlan` is never
 * serialized into the corpus fingerprint (corpus/serde.cc), it is off
 * by default, and every injected fault is routed through the same
 * recovery code a real fault would take (the program re-runs on a
 * fresh executor, quarantine after 3 failed attempts, torn-tail
 * repair). Nothing in this header may alter results for programs the
 * plan does not poison.
 *
 * Spec grammar (';' or ',' separated `key=value` pairs):
 *
 *     seed=42                 hash seed (default 0)
 *     poison=4:9              programs whose wire ops always fail
 *                             (':'-separated indices) → quarantined
 *     wire.crash=25           per-mille rates (0..1000) for the rate
 *     wire.garble=25          sites listed below
 *     wire.drop=25
 *     shard.throw=25
 *     journal.shortwrite=25
 *     checkpoint.fail=500
 *     journal.once=3          fail exactly the 3rd journal append
 *
 * Sites and their keys:
 *
 *   wire.crash        kill the worker before sending an op (simulated
 *                     worker crash); key = (program, op#)
 *   wire.garble       truncate the worker's reply mid-line (parse
 *                     failure path); key = (program, op#)
 *   wire.drop         discard a good reply (simulated hang: the worker
 *                     is killed as on a timeout); key = (program, op#)
 *   shard.throw       throw from the scheduler's report path; key =
 *                     program
 *   journal.shortwrite  tear a CorpusStore append (half the line, then
 *                     ENOSPC); key = record program index
 *   journal.once=K    tear exactly the K-th append (1-based occurrence)
 *   checkpoint.fail   fail a checkpoint write before its atomic
 *                     rename; key = occurrence counter
 *
 * A failed program re-runs from scratch on a fresh executor, inside a
 * ProgramScope that carries the attempt. Every rate site but
 * checkpoint.fail fires only on a program's *first* attempt, so every
 * program the plan does not poison completes by its second. A poisoned
 * program fails every attempt and exercises the quarantine path.
 * journal.once and checkpoint.fail count occurrences, whatever the
 * attempt.
 *
 * The layer lives in src/runtime/ but is include-free (standard
 * library only) so lower layers (corpus, executor) may consult it
 * without an include cycle.
 */

#ifndef AMULET_RUNTIME_FAULT_HH
#define AMULET_RUNTIME_FAULT_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>

namespace amulet::runtime::fault
{

class FaultPlan
{
  public:
    /** Parse @p spec (grammar above). Throws std::runtime_error on an
     *  unknown site, malformed pair, or out-of-range rate. */
    static FaultPlan parse(const std::string &spec);

    /** Arm @p spec process-wide (replacing any armed plan). The
     *  scheduler installs at campaign start and uninstalls at campaign
     *  end; installation mid-campaign is not supported. */
    static void install(const std::string &spec);
    static void uninstall();

    /** The armed plan, or nullptr when chaos is off (the default). */
    static const FaultPlan *active();

    /** Deterministic per-mille decision for a rate site. False for
     *  unknown sites, zero rates, the unscoped sentinel key, and, for
     *  every site but checkpoint.fail, inside a ProgramScope whose
     *  attempt is not the first. */
    bool fires(const char *site, std::uint64_t key) const;

    /** 1-based occurrence counter for @p site (used to key sites with
     *  no natural stable id, e.g. checkpoint writes). Deterministic
     *  only where the call sequence is (checkpoint cadence is). */
    std::uint64_t occurrence(const char *site) const;

    /** Combined journal-append decision: `journal.shortwrite` rate
     *  keyed by @p programIndex, plus `journal.once=K` firing on the
     *  K-th append. */
    bool journalAppendFault(std::uint64_t programIndex) const;

    /** True when @p program is on the poison list: every wire op for
     *  it fails, on every attempt, forcing quarantine. */
    bool poisoned(unsigned program) const;

    std::uint64_t seed() const { return seed_; }
    unsigned rate(const std::string &site) const;

    /** Canonical one-line rendering (for banners/logs). */
    std::string describe() const;

  private:
    std::uint64_t seed_ = 0;
    std::map<std::string, unsigned> rates_; ///< per-mille by site
    std::set<unsigned> poison_;
    std::uint64_t journalOnce_ = 0; ///< 0 = off

    /// Guarded by a file-static mutex in fault.cc (plans must stay
    /// movable; one plan is armed at a time anyway).
    mutable std::map<std::string, std::uint64_t> occurrences_;
};

/**
 * RAII thread-local scope tying one attempt at a program to the
 * (program, op#) key space. The scheduler opens one around each
 * attempt's run and report; SubprocessBackend::roundTrip calls
 * nextOpKey() per op. The per-program op sequence is deterministic
 * (results are a pure function of (config, program, stream)), so the
 * keys — and therefore the injected wire faults — are identical across
 * jobs counts. Ops outside any scope (the executor's boot) return
 * kUnscopedKey and are never faulted.
 */
class ProgramScope
{
  public:
    static constexpr std::uint64_t kUnscopedKey = ~std::uint64_t(0);
    static constexpr unsigned kNoProgram = ~0u;

    /** @p attempt counts from 0, the program's first run. */
    explicit ProgramScope(unsigned program, unsigned attempt = 0);
    ~ProgramScope();

    ProgramScope(const ProgramScope &) = delete;
    ProgramScope &operator=(const ProgramScope &) = delete;

    /** (program << 20) | op-counter for the enclosing scope, advancing
     *  the counter; kUnscopedKey when no scope is open. */
    static std::uint64_t nextOpKey();

    /** Program of the enclosing scope, or kNoProgram. */
    static unsigned currentProgram();

    /** Attempt of the enclosing scope; 0 when no scope is open. */
    static unsigned currentAttempt();

  private:
    bool prevActive_;
    unsigned prevProgram_;
    unsigned prevAttempt_;
    std::uint32_t prevOps_;
};

} // namespace amulet::runtime::fault

#endif // AMULET_RUNTIME_FAULT_HH
