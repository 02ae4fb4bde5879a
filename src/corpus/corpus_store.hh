/**
 * @file
 * Per-campaign corpus store: an append-only violation journal plus a
 * signature/record index.
 *
 * Layout of one campaign directory:
 *
 *     meta.json      — format version + campaign config + fingerprint
 *     journal.jsonl  — one confirmed ViolationRecord per line, appended
 *                      (and flushed) the moment the sink confirms it
 *     checkpoint.json — periodic resume state (see checkpoint.hh)
 *     metrics.json   — the run's merged telemetry registry (counters,
 *                      timers, latency percentiles, top spans). A
 *                      runtime artifact like the checkpoint: not part
 *                      of the fingerprint, never exported, overwritten
 *                      per run (campaign_cli stats renders it).
 *
 * The journal is append-only and flushed per record, so a killed
 * campaign keeps every violation confirmed before the kill. The
 * in-memory index dedups by record key across runs: a resumed campaign
 * re-runs unfinished programs, deterministically re-derives the same
 * records, and the duplicate appends are dropped. The same index makes
 * journals from independent shards mergeable (mergeInto), which is the
 * transport for the distributed-shards follow-on: ship program ranges
 * out, ship journals back, merge.
 */

#ifndef AMULET_CORPUS_CORPUS_STORE_HH
#define AMULET_CORPUS_CORPUS_STORE_HH

#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/campaign.hh"
#include "core/violation.hh"

namespace amulet::corpus
{

/** One campaign's on-disk corpus. */
class CorpusStore
{
  public:
    /**
     * Open (creating the directory and meta.json as needed) the corpus
     * at @p dir for campaign @p config. An existing corpus must carry
     * the same config fingerprint; on mismatch this throws CorpusError —
     * mixing campaign definitions in one journal would poison replay.
     * Existing journal records are loaded into the dedup index.
     */
    CorpusStore(std::string dir, const core::CampaignConfig &config);

    ~CorpusStore();

    CorpusStore(const CorpusStore &) = delete;
    CorpusStore &operator=(const CorpusStore &) = delete;

    /**
     * Append one confirmed record to the journal (thread-safe, flushed
     * before returning). Returns false when the dedup index already
     * holds the record's key — e.g. a resumed program re-deriving a
     * violation the killed run had journaled.
     *
     * On an append failure (short write/ENOSPC, injected or real) the
     * store throws CorpusError *after* self-healing: the journal is
     * truncated back to its last known-good byte length, so the torn
     * fragment cannot fuse with a later append into a terminated —
     * i.e. permanently corrupt — line. A transient disk error costs
     * one record (whose program stays unreported and re-runs),
     * never the journal.
     */
    bool append(const core::ViolationRecord &record);

    /**
     * Journal a quarantined program (`"kind":"quarantine"` line, v3):
     * its executor exhausted recovery, so it has no records, but the
     * fact must survive kills — resume skips quarantined programs and
     * `campaign_cli quarantined` lists them. Deduped per program.
     * Quarantine lines are invisible to readJournal/exportCanonical:
     * exports cover exactly the non-quarantined programs' records.
     */
    bool appendQuarantine(unsigned programIndex, const std::string &reason);

    /** Records currently journaled (journal order; quarantine lines
     *  excluded). */
    std::size_t size() const;

    /**
     * Overwrite metrics.json with @p json (one telemetry-registry
     * document, see telemetry::metricsJson). Runtime observability
     * only — not fingerprinted, not exported, latest run wins.
     */
    void writeMetrics(const std::string &json);

    /** Raw metrics.json text of the corpus at @p dir ("" if none). */
    static std::string readMetricsText(const std::string &dir);

    const std::string &dir() const { return dir_; }

    /**
     * Dedup key: (programIndex, inputA, inputB, signature). Identical
     * for re-derived records because program outcomes are pure functions
     * of (config, program index, RNG stream).
     */
    static std::string recordKey(const core::ViolationRecord &record);

    /** @name Reading a corpus back */
    /// @{
    /** Campaign config stored in meta.json; throws CorpusError when it
     *  does not hash to the stored fingerprint. */
    static core::CampaignConfig readConfig(const std::string &dir);

    /** All journaled records, in journal (append) order; deduped.
     *  Quarantine lines are skipped. */
    static std::vector<core::ViolationRecord>
    readJournal(const std::string &dir);

    /** One journaled quarantine fact. */
    struct QuarantineEntry
    {
        unsigned programIndex = 0;
        std::string reason;
    };

    /** All journaled quarantine lines, deduped by program, in program
     *  order. */
    static std::vector<QuarantineEntry>
    readQuarantined(const std::string &dir);

    /**
     * Canonical export: records sorted by key with the wall-clock
     * detectSeconds field zeroed, one JSON document per line, preceded
     * by a header line. Byte-identical for every run of the same
     * (config, seed) regardless of jobs, kills, and resumes — the
     * property scripts/verify.sh and tests/test_corpus.cc enforce.
     * The second form reuses already-loaded journal records so callers
     * that also list them (campaign_cli export) parse the journal once.
     */
    static std::string exportCanonical(const std::string &dir);
    static std::string
    exportCanonical(const std::string &dir,
                    std::vector<core::ViolationRecord> records);
    /// @}

    /**
     * Merge the journals of @p src_dirs into the corpus at @p dst_dir
     * (created if missing, config taken from the first source). All
     * sources must share one config fingerprint. Returns the number of
     * newly appended (non-duplicate) records.
     */
    static std::size_t mergeInto(const std::string &dst_dir,
                                 const std::vector<std::string> &src_dirs);

  private:
    std::string journalPath() const;

    /** Locked append of one pre-rendered journal line under @p key.
     *  @p faultProgram keys the injected-ENOSPC chaos site (pass
     *  kNoFaultKey to exempt the line, e.g. quarantine facts). */
    bool appendLine(const std::string &line, const std::string &key,
                    std::uint64_t faultProgram);

    /** Truncate the journal back to validBytes_ after a failed append
     *  (call with mu_ held). Sets broken_ when even that fails. */
    void healTornAppend();

    static constexpr std::uint64_t kNoFaultKey = ~std::uint64_t(0);

    mutable std::mutex mu_;
    std::string dir_;
    std::string fingerprint_;
    std::set<std::string> index_;
    std::size_t count_ = 0;
    std::FILE *journal_ = nullptr;
    /** Journal byte length known to hold only complete lines. */
    std::uintmax_t validBytes_ = 0;
    /** A failed append could not be healed; further appends refuse
     *  rather than risk fusing lines into permanent corruption. */
    bool broken_ = false;
};

} // namespace amulet::corpus

#endif // AMULET_CORPUS_CORPUS_STORE_HH
