/**
 * @file
 * Versioned JSON serialization for the violation corpus (§3.3).
 *
 * Everything a violation needs to be re-derived offline is expressible
 * as JSON: the record itself (program as disassembly, input pair, μarch
 * traces, predictor contexts, RNG stream state) and the campaign
 * configuration that produced it. Programs are stored as paper-style
 * listings and reparsed through the assembler on load, so a corpus stays
 * human-readable and the assembler↔disassembler round trip is the
 * load-bearing invariant (tested over generator output in test_isa).
 *
 * The Json value type below is deliberately tiny: objects keep insertion
 * order and numbers are stored as text, so serialization is canonical —
 * equal values produce byte-equal dumps, which is what corpus exports
 * and config fingerprints are built on.
 *
 * Flat structs (configs, records, checkpointed outcomes, wire run
 * results and times) are declared once, as field tables in
 * corpus/fields.hh that one generic encode/decode walks. Adding a field
 * takes one table entry; a Definition entry changes every corpus
 * fingerprint. This header keeps the leaf codecs with their own shapes
 * and the entry points that add a version check.
 */

#ifndef AMULET_CORPUS_SERDE_HH
#define AMULET_CORPUS_SERDE_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "arch/input.hh"
#include "common/rng.hh"
#include "core/campaign.hh"
#include "core/violation.hh"
#include "executor/sim_harness.hh"
#include "executor/uarch_trace.hh"
#include "runtime/violation_sink.hh"

namespace amulet::corpus
{

/** Corpus format version; bumped on any incompatible schema change.
 *  v2: CampaignConfig::filterIneffective joins the campaign definition
 *  (and thus the fingerprint); ProgramOutcome carries the filtering
 *  counters (skippedProgram, filteredTestCases, filterSec).
 *  v3: the journal gains a `"kind":"quarantine"` record kind (programs
 *  whose executor exhausted recovery) and ProgramOutcome carries the
 *  quarantined/quarantineReason fields in checkpoints. */
inline constexpr unsigned kFormatVersion = 3;

/** Thrown on malformed or incompatible corpus data. */
class CorpusError : public std::runtime_error
{
  public:
    explicit CorpusError(const std::string &msg) : std::runtime_error(msg)
    {}
};

/** Minimal JSON value: null, bool, number, string, array, object. */
class Json
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Num,
        Str,
        Arr,
        Obj,
    };

    Json() = default;

    static Json boolean(bool value);
    static Json number(std::uint64_t value);
    static Json number(double value);
    static Json str(std::string value);
    static Json array();
    static Json object();

    Kind kind() const { return kind_; }

    /** @name Accessors (throw CorpusError on kind mismatch) */
    /// @{
    bool asBool() const;
    std::uint64_t asU64() const;
    unsigned asUnsigned() const;
    double asDouble() const;
    const std::string &asStr() const;
    const std::vector<Json> &items() const;
    /** Object members in insertion order. */
    const std::vector<std::pair<std::string, Json>> &members() const;
    /// @}

    /** Append to an array. */
    void push(Json value);

    /** Set/overwrite an object member (insertion order preserved). */
    void set(const std::string &key, Json value);

    /** Object member (throws CorpusError when absent). */
    const Json &at(const std::string &key) const;

    /** Object member or nullptr. */
    const Json *find(const std::string &key) const;

    /** Serialize canonically (no whitespace, members in insertion
     *  order). */
    std::string dump() const;

    /** Parse one JSON document (must consume the whole text). */
    static Json parse(const std::string &text);

  private:
    /** Append this value's canonical dump to @p out; dump() runs the
     *  whole tree through one buffer instead of a string per node. */
    void dumpTo(std::string &out) const;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    std::string scalar_; ///< number text or string payload
    std::vector<Json> items_;
    std::vector<std::pair<std::string, Json>> members_;
};

/** @name Building blocks */
/// @{
Json toJson(const arch::Input &input);
arch::Input inputFromJson(const Json &json);

Json toJson(const executor::UTrace &trace);
executor::UTrace traceFromJson(const Json &json);

Json toJson(const executor::UarchContext &ctx);
executor::UarchContext contextFromJson(const Json &json);

Json toJson(const Rng::State &state);
Rng::State rngStateFromJson(const Json &json);
/// @}

/**
 * @name Violation records
 * The program travels as its disassembly and is reparsed through the
 * assembler on load; recordFromJson throws CorpusError when the listing
 * no longer assembles.
 */
/// @{
Json toJson(const core::ViolationRecord &record);
core::ViolationRecord recordFromJson(const Json &json);
/// @}

/**
 * @name Campaign configuration
 * Serializes the campaign *definition*: the Definition entries of the
 * field tables (corpus/fields.hh), which also list every Runtime knob
 * (jobs, backend, the fast paths, corpus and telemetry settings) that
 * may legally differ between the runs of one corpus. configFromJson
 * throws CorpusError on a config the simulator cannot run (sandbox or
 * cache geometry).
 */
/// @{
Json configToJson(const core::CampaignConfig &config);
core::CampaignConfig configFromJson(const Json &json);

/** Stable hex fingerprint of the campaign definition (FNV-1a over the
 *  canonical dump). Checkpoints and journals refuse to mix
 *  fingerprints. */
std::string configFingerprint(const core::CampaignConfig &config);
/// @}

} // namespace amulet::corpus

#endif // AMULET_CORPUS_SERDE_HH
