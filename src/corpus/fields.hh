/**
 * @file
 * Field tables: the one declaration of every struct the corpus and the
 * simulator wire serialize, and the generic codec that walks them.
 *
 * A table lists a struct's fields in key order; each entry names the JSON
 * key and the member. Members that are not tables are leaves of a few
 * kinds, each decoded with its bound: unsigned and 64-bit numbers,
 * bytes (at most 0xff), bools, strings, enums (corpus::Tokens), vectors,
 * fixed-size arrays (exact item count), byte vectors as hex, sandbox
 * patch lists as hex, and sandbox images. A sandbox image has two forms:
 * hex of whole pages (at most kMaxSandboxPages), the only form at
 * Scope::Definition, so the corpus always stores bytes that replay
 * without the generator; and, at Scope::Runtime (the subprocess wire),
 * the generator's descriptor table (mem::SandboxImage::Descriptor) when
 * the image has one. Every decoder of foreign bytes (meta.json,
 * checkpoints, the journal, the subprocess wire) is one walk over these
 * tables, so the hostile-entry test in tests/test_corpus.cc covers each
 * leaf with no per-leaf code.
 *
 * Entries of HarnessConfig and CampaignConfig also carry a class
 * (Scope): Definition entries define a campaign and are in
 * the corpus dump, and so in configFingerprint; Runtime entries are
 * results-invisible knobs the corpus never holds. The subprocess wire
 * encodes the hello's harness and every input at Scope::Runtime, so the
 * harness's Runtime entries travel to the worker, and generated inputs
 * travel as descriptors. Adding a field takes one entry; a Definition
 * entry changes every corpus fingerprint, and a Runtime entry needs a
 * variant (or a named exemption) in the equivalence matrix,
 * tests/test_equivalence.cc, whose completeness test walks these tables.
 * A campaign_cli flag row names the key of the field it sets: a Runtime
 * entry with a row is listed on the runtime-knobs line of
 * `campaign_cli --list`, and scripts/verify.sh smokes each `--no-*` flag
 * on that line.
 */

#ifndef AMULET_CORPUS_FIELDS_HH
#define AMULET_CORPUS_FIELDS_HH

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "arch/input.hh"
#include "corpus/serde.hh"
#include "executor/sim_harness.hh"
#include "executor/uarch_trace.hh"
#include "mem/sandbox_image.hh"
#include "runtime/violation_sink.hh"
#include "uarch/params.hh"
#include "uarch/predictors.hh"

namespace amulet::corpus
{

/** The class of a table entry (an entry without one is Definition). A
 *  walk at scope s encodes the entries whose scope is <= s. */
enum class Scope
{
    Definition, ///< campaign definition: corpus dump and fingerprint
    Runtime,    ///< results-invisible knob: never in the corpus
};

/** One table entry: JSON key plus a member pointer, or a stateless
 *  accessor returning a reference for a member of a member. */
template <Scope kScope, class Get>
struct Field
{
    static constexpr Scope scope = kScope;
    const char *key;
    Get get;
};

template <class Get>
constexpr Field<Scope::Definition, Get>
field(const char *key, Get get)
{
    return {key, get};
}

template <class Get>
constexpr Field<Scope::Runtime, Get>
runtimeField(const char *key, Get get)
{
    return {key, get};
}

/** Field table of S: `static constexpr std::tuple list`, and optionally
 *  `static void check(S &)`, which decode runs on the decoded value: it
 *  throws CorpusError when an invariant fails, and may rebuild a member
 *  the encoding leaves out. */
template <class S>
struct Fields;

template <class T>
concept Tabled = requires { Fields<T>::list; };

template <class T>
inline constexpr bool kIsVector = false;
template <class T>
inline constexpr bool kIsVector<std::vector<T>> = true;

template <class T>
inline constexpr bool kIsArray = false;
template <class T, std::size_t N>
inline constexpr bool kIsArray<std::array<T, N>> = true;

/** Call @p fn on every entry of S's table, in key order. */
template <class S, class Fn>
constexpr void
forEachField(Fn &&fn)
{
    std::apply([&](const auto &...f) { (fn(f), ...); }, Fields<S>::list);
}

/** Call @p fn(key, scope, is_bool) on every entry of S's table. */
template <class S, class Fn>
void
forEachEntry(Fn &&fn)
{
    forEachField<S>([&](const auto &f) {
        using Member = std::remove_cvref_t<decltype(std::invoke(
            f.get, std::declval<S &>()))>;
        fn(std::string(f.key), std::remove_cvref_t<decltype(f)>::scope,
           std::is_same_v<Member, bool>);
    });
}

// === The tables ============================================================

template <>
struct Fields<uarch::CacheParams>
{
    using S = uarch::CacheParams;
    static constexpr std::tuple list{
        field("sizeBytes", &S::sizeBytes),
        field("ways", &S::ways),
        field("lineBytes", &S::lineBytes),
    };
};

template <>
struct Fields<uarch::CoreParams>
{
    using S = uarch::CoreParams;
    static constexpr std::tuple list{
        field("fetchWidth", &S::fetchWidth),
        field("issueWidth", &S::issueWidth),
        field("commitWidth", &S::commitWidth),
        field("robSize", &S::robSize),
        field("lqSize", &S::lqSize),
        field("sqSize", &S::sqSize),
        field("l1d", &S::l1d),
        field("l1i", &S::l1i),
        field("l2", &S::l2),
        field("l1dMshrs", &S::l1dMshrs),
        field("l1iMshrs", &S::l1iMshrs),
        field("l1HitLatency", &S::l1HitLatency),
        field("l2HitLatency", &S::l2HitLatency),
        field("memLatency", &S::memLatency),
        field("l2ServiceInterval", &S::l2ServiceInterval),
        field("tlbEntries", &S::tlbEntries),
        field("tlbWalkLatency", &S::tlbWalkLatency),
        field("aluLatency", &S::aluLatency),
        field("mulLatency", &S::mulLatency),
        field("branchLatency", &S::branchLatency),
        field("ghrBits", &S::ghrBits),
        field("phtBits", &S::phtBits),
        field("btbEntries", &S::btbEntries),
        field("mdpEntries", &S::mdpEntries),
        field("specBufferEntries", &S::specBufferEntries),
        field("lfbEntries", &S::lfbEntries),
        field("cleanupLatency", &S::cleanupLatency),
        field("maxCyclesPerRun", &S::maxCyclesPerRun),
    };

    static void
    check(const S &core)
    {
        if (!core.validGeometry())
            throw CorpusError("cache geometry or predictor tables the "
                              "simulator cannot model (see "
                              "CoreParams::validGeometry)");
    }
};

template <>
struct Fields<mem::AddressMap>
{
    using S = mem::AddressMap;
    static constexpr std::tuple list{
        field("codeBase", &S::codeBase),
        field("sandboxBase", &S::sandboxBase),
        field("sandboxPages", &S::sandboxPages),
        field("primeBase", &S::primeBase),
    };

    static void
    check(const S &map)
    {
        if (!S::validSandboxPages(map.sandboxPages))
            throw CorpusError("sandboxPages must be a power of two in 1.." +
                              std::to_string(mem::kMaxSandboxPages));
    }
};

template <>
struct Fields<defense::DefenseConfig>
{
    using S = defense::DefenseConfig;
    static constexpr std::tuple list{
        field("kind", &S::kind),
        field("invisispecBugSpecEviction", &S::invisispecBugSpecEviction),
        field("cleanupBugStoreNotCleaned", &S::cleanupBugStoreNotCleaned),
        field("cleanupBugSplitNotCleaned", &S::cleanupBugSplitNotCleaned),
        field("cleanupNoCleanPatch", &S::cleanupNoCleanPatch),
        field("sttBugTaintedStoreTlb", &S::sttBugTaintedStoreTlb),
        field("speclfbBugFirstLoad", &S::speclfbBugFirstLoad),
    };
};

template <>
struct Fields<contracts::ContractSpec>
{
    using S = contracts::ContractSpec;
    static constexpr std::tuple list{
        field("name", &S::name),
        field("observePc", &S::observePc),
        field("observeMemAddr", &S::observeMemAddr),
        field("observeLoadValues", &S::observeLoadValues),
        field("exposeInitialRegs", &S::exposeInitialRegs),
        field("exploreMispredictedBranches",
              &S::exploreMispredictedBranches),
        field("speculationWindow", &S::speculationWindow),
        field("maxNesting", &S::maxNesting),
    };
};

/** No map entry: a campaign's stages generate with harness.map. */
template <>
struct Fields<core::GeneratorConfig>
{
    using S = core::GeneratorConfig;
    static constexpr std::tuple list{
        field("minBlocks", &S::minBlocks),
        field("maxBlocks", &S::maxBlocks),
        field("minInstsPerBlock", &S::minInstsPerBlock),
        field("maxInstsPerBlock", &S::maxInstsPerBlock),
        field("memAccessPct", &S::memAccessPct),
        field("storePct", &S::storePct),
        field("rmwPct", &S::rmwPct),
        field("cmovLoadPct", &S::cmovLoadPct),
        field("fencePct", &S::fencePct),
        field("setccPct", &S::setccPct),
        field("condBranchPct", &S::condBranchPct),
        field("loopnePct", &S::loopnePct),
        field("branchOnLoadPct", &S::branchOnLoadPct),
        field("unalignedPct", &S::unalignedPct),
        field("widthWeights", &S::widthWeights),
    };
};

template <>
struct Fields<executor::HarnessConfig>
{
    using S = executor::HarnessConfig;
    static constexpr std::tuple list{
        field("core", &S::core),
        field("defense", &S::defense),
        field("map", &S::map),
        field("prime", &S::prime),
        field("traceFormat", &S::traceFormat),
        field("naiveMode", &S::naiveMode),
        field("tlbPrefill", &S::tlbPrefill),
        field("bootInsts", &S::bootInsts),
        runtimeField("primeCache", &S::primeCache),
        runtimeField("cycleSkip", &S::cycleSkip),
    };
};

template <>
struct Fields<core::CampaignConfig>
{
    using S = core::CampaignConfig;
    static constexpr std::tuple list{
        field("harness", &S::harness),
        field("contract", &S::contract),
        field("gen", &S::gen),
        // No inputs.map entry: like gen.map, the stages use harness.map.
        field("inputSmallRegPct",
              [](auto &c) -> auto & { return c.inputs.smallRegPct; }),
        field("numPrograms", &S::numPrograms),
        field("baseInputsPerProgram", &S::baseInputsPerProgram),
        field("siblingsPerBase", &S::siblingsPerBase),
        field("regMutationPct", &S::regMutationPct),
        // Filtering changes which inputs the simulator executes (and how
        // μarch state evolves across them), so corpora written with it
        // on and off must not mix.
        field("filterIneffective", &S::filterIneffective),
        field("stopAtFirstViolation", &S::stopAtFirstViolation),
        field("collectSignatures", &S::collectSignatures),
        field("collectAllFormats", &S::collectAllFormats),
        field("maxViolationsRecorded", &S::maxViolationsRecorded),
        field("seed", &S::seed),
        // Never encoded: knobs that may differ between the runs of one
        // corpus (each member's comment says why).
        runtimeField("jobs", &S::jobs),
        runtimeField("backend", &S::backend),
        runtimeField("ctraceMemo", &S::ctraceMemo),
        runtimeField("corpusDir", &S::corpusDir),
        runtimeField("resume", &S::resume),
        runtimeField("checkpointEvery", &S::checkpointEvery),
        runtimeField("maxProgramsThisRun", &S::maxProgramsThisRun),
        runtimeField("telemetry", &S::telemetry),
        runtimeField("faultPlan", &S::faultPlan),
    };
};

/** Every entry of the two tables that carry Runtime entries. */
template <class Fn>
void
forEachConfigEntry(Fn &&fn)
{
    forEachEntry<executor::HarnessConfig>(fn);
    forEachEntry<core::CampaignConfig>(fn);
}

template <>
struct Fields<core::FormatTally>
{
    using S = core::FormatTally;
    static constexpr std::tuple list{
        field("violatingTestCases", &S::violatingTestCases),
        field("coveredByBaseline", &S::coveredByBaseline),
    };
};

/** Checkpoint payload. No records entry: the journal already holds them,
 *  so checkpoints stay O(counters) and resume rehydrates records by
 *  program index. */
template <>
struct Fields<core::ProgramOutcome>
{
    using S = core::ProgramOutcome;
    static constexpr std::tuple list{
        field("ran", &S::ran),
        field("skippedProgram", &S::skippedProgram),
        field("quarantined", &S::quarantined),
        field("quarantineReason", &S::quarantineReason),
        field("testCases", &S::testCases),
        field("filteredTestCases", &S::filteredTestCases),
        field("effectiveClasses", &S::effectiveClasses),
        field("candidateViolations", &S::candidateViolations),
        field("validationRuns", &S::validationRuns),
        field("violatingTestCases", &S::violatingTestCases),
        field("confirmedViolations", &S::confirmedViolations),
        field("firstDetectSeconds", &S::firstDetectSeconds),
        field("testGenSec", &S::testGenSec),
        field("ctraceSec", &S::ctraceSec),
        field("filterSec", &S::filterSec),
        field("signatureCounts", &S::signatureCounts),
        field("formatTallies", &S::formatTallies),
    };
};

/** Record body; toJson(record) writes "version" before it. */
template <>
struct Fields<core::ViolationRecord>
{
    using S = core::ViolationRecord;
    static constexpr std::tuple list{
        field("defense", &S::defenseName),
        field("contract", &S::contractName),
        field("programIndex", &S::programIndex),
        field("program", &S::programText),
        field("inputA", &S::inputA),
        field("inputB", &S::inputB),
        field("traceA", &S::traceA),
        field("traceB", &S::traceB),
        field("ctxA", &S::ctxA),
        field("ctxB", &S::ctxB),
        field("ctraceHash", &S::ctraceHash),
        field("signature", &S::signature),
        field("rngState", &S::rngState),
        field("detectSeconds", &S::detectSeconds),
    };
};

template <>
struct Fields<uarch::RunResult>
{
    using S = uarch::RunResult;
    static constexpr std::tuple list{
        field("halted", &S::halted),
        field("cycles", &S::cycles),
        field("committedInsts", &S::committedInsts),
        field("squashes", &S::squashes),
        field("hitCycleCap", &S::hitCycleCap),
    };
};

/** The worker's share of the breakdown; the campaign fills the rest. */
template <>
struct Fields<executor::TimeBreakdown>
{
    using S = executor::TimeBreakdown;
    static constexpr std::tuple list{
        field("startupSec", &S::startupSec),
        field("primeSec", &S::primeSec),
        field("simulateSec", &S::simulateSec),
        field("traceExtractSec", &S::traceExtractSec),
    };
};

/** An input (record field, wire request): registers, flags, sandbox. */
template <>
struct Fields<arch::Input>
{
    using S = arch::Input;
    static constexpr std::tuple list{
        field("id", &S::id),
        field("regs", &S::regs),
        field("flags", &S::flagsByte),
        field("sandbox", &S::sandbox),
    };
};

/** A generator sandbox's descriptor: the Scope::Runtime form of a
 *  sandbox image that has one (see the file comment). */
template <>
struct Fields<mem::SandboxImage::Descriptor>
{
    using S = mem::SandboxImage::Descriptor;
    static constexpr std::tuple list{
        field("state", &S::first),
        field("size", &S::size),
        field("patches", &S::patches),
    };

    static void
    check(const S &desc)
    {
        if (desc.size % mem::kPageSize != 0 ||
            desc.size / mem::kPageSize > mem::kMaxSandboxPages)
            throw CorpusError("sandbox descriptor is not a whole number of "
                              "pages up to " +
                              std::to_string(mem::kMaxSandboxPages));
        if (!desc.patches)
            return;
        std::uint64_t next = 0; // the least offset the next patch may take
        for (const mem::SandboxImage::Patch &p : *desc.patches) {
            if (p.off < next || p.off >= desc.size)
                throw CorpusError("sandbox descriptor patches are not "
                                  "strictly increasing offsets inside the "
                                  "sandbox");
            next = std::uint64_t{p.off} + 1;
        }
    }
};

template <>
struct Fields<executor::UTrace>
{
    using S = executor::UTrace;
    static constexpr std::tuple list{
        field("format", &S::format),
        field("words", &S::words),
    };

    /** The hash cache is never serialized; rebuild it so traces that
     *  crossed the wire or the journal take the same fast-inequality
     *  path as freshly extracted ones. */
    static void check(S &trace) { trace.finalizeHash(); }
};

/** Branch-predictor snapshot. Decode bounds its tables by the largest
 *  core (uarch/params.hh); a harness restoring it then requires the
 *  exact geometry of its own core. */
template <>
struct Fields<uarch::BranchPredictor::State>
{
    using S = uarch::BranchPredictor::State;
    static constexpr std::tuple list{
        field("ghr", &S::ghr),
        field("pht", &S::pht),
        field("btbTags", &S::btbTags),
        field("btbTargets", &S::btbTargets),
    };

    static void
    check(const S &bp)
    {
        if (bp.pht.size() > std::size_t{1} << uarch::kMaxPhtBits ||
            bp.btbTags.size() > uarch::kMaxBtbEntries)
            throw CorpusError("predictor context does not fit any core: "
                              "tables larger than the largest core's");
        if (bp.btbTargets.size() != bp.btbTags.size())
            throw CorpusError("predictor context does not fit any core: "
                              "BTB tags and targets differ in length");
    }
};

template <>
struct Fields<executor::UarchContext>
{
    using S = executor::UarchContext;
    static constexpr std::tuple list{
        field("bp", &S::bp),
        field("mdp", &S::mdp),
    };

    static void
    check(const S &ctx)
    {
        if (ctx.mdp.size() > uarch::kMaxMdpEntries)
            throw CorpusError("predictor context does not fit any core: "
                              "MDP larger than the largest core's");
    }
};

/** One run of a batch reply (executor/sim_protocol.hh). */
template <>
struct Fields<executor::SimHarness::RunOutput>
{
    using S = executor::SimHarness::RunOutput;
    static constexpr std::tuple list{
        field("trace", &S::trace),
        field("run", &S::run),
    };
};

/** Token table of an enum a table member holds: each enumerator with
 *  its JSON token. The tokens are the format; display names may differ. */
template <class E>
struct Tokens;

template <>
struct Tokens<executor::PrimeMode>
{
    using E = executor::PrimeMode;
    static constexpr const char *what = "prime mode";
    static constexpr std::pair<E, const char *> list[] = {
        {E::ConflictFill, "conflictfill"},
        {E::Invalidate, "invalidate"},
    };
};

template <>
struct Tokens<executor::TlbPrefill>
{
    using E = executor::TlbPrefill;
    static constexpr const char *what = "tlb prefill";
    static constexpr std::pair<E, const char *> list[] = {
        {E::Auto, "auto"},
        {E::GuardOnly, "guardonly"},
    };
};

template <>
struct Tokens<executor::TraceFormat>
{
    using E = executor::TraceFormat;
    static constexpr const char *what = "trace format";
    static constexpr std::pair<E, const char *> list[] = {
        {E::L1dTlb, "l1dtlb"},
        {E::L1dTlbL1i, "l1dtlbl1i"},
        {E::BpState, "bpstate"},
        {E::MemAccessOrder, "memorder"},
        {E::BranchPredOrder, "branchorder"},
    };
};

/** In Table 4's row order, which `campaign_cli --list` prints. */
template <>
struct Tokens<defense::DefenseKind>
{
    using E = defense::DefenseKind;
    static constexpr const char *what = "defense";
    static constexpr std::pair<E, const char *> list[] = {
        {E::Baseline, "Baseline"},
        {E::InvisiSpec, "InvisiSpec"},
        {E::CleanupSpec, "CleanupSpec"},
        {E::SpecLfb, "SpecLFB"},
        {E::Stt, "STT"},
    };
};

template <>
struct Tokens<executor::BackendKind>
{
    using E = executor::BackendKind;
    static constexpr const char *what = "backend";
    static constexpr std::pair<E, const char *> list[] = {
        {E::InProcess, "inproc"},
        {E::Subprocess, "subprocess"},
    };
};

/** JSON token of @p value ("?" for a value outside the enum). */
template <class E>
constexpr const char *
enumToken(E value)
{
    for (const auto &[e, token] : Tokens<E>::list) {
        if (e == value)
            return token;
    }
    return "?";
}

// === The codec =============================================================

/** The patch-list leaf of a sandbox descriptor. Its hex holds four
 *  bytes a patch: the offset, most significant byte first, in three,
 *  then the value. */
using SandboxPatches = std::shared_ptr<const mem::SandboxImage::Patches>;
inline constexpr std::size_t kPatchBytes = 4;
static_assert(mem::kMaxSandboxPages * mem::kPageSize <= std::size_t{1} << 24,
              "a patch offset must fit its three bytes");

/** Encode a leaf (see the file comment) or Tabled struct. A walk at
 *  Scope::Definition (the corpus) skips Runtime entries and writes
 *  every sandbox as hex; one at Scope::Runtime (the subprocess wire)
 *  writes Runtime entries too, and a described sandbox as its
 *  descriptor. */
template <Scope kScope = Scope::Definition, class T>
Json encode(const T &value);

/** Append Tabled @p s's entries to object @p obj. */
template <Scope kScope = Scope::Definition, Tabled S>
void
encodeInto(const S &s, Json &obj)
{
    forEachField<S>([&](const auto &f) {
        if constexpr (std::remove_cvref_t<decltype(f)>::scope <= kScope)
            obj.set(f.key, encode<kScope>(std::invoke(f.get, s)));
    });
}

/** Decode what encode<kScope> writes (out-of-scope entries keep their
 *  defaults), then run the table's check. Throws CorpusError on a missing
 *  key, a wrong JSON kind, an out-of-range number, a wrong item count or
 *  length, or a failed check. */
template <class T, Scope kScope = Scope::Definition>
T
decode(const Json &json)
{
    using FormatTallies = std::map<executor::TraceFormat, core::FormatTally>;
    if constexpr (std::is_same_v<T, bool>) {
        return json.asBool();
    } else if constexpr (std::is_same_v<T, std::uint8_t>) {
        const std::uint64_t v = json.asU64();
        if (v > 0xff) // 257 must not read as 1
            throw CorpusError("JSON: values over 0xff do not fit a byte: " +
                              std::to_string(v));
        return static_cast<std::uint8_t>(v);
    } else if constexpr (std::is_same_v<T, unsigned>) {
        return json.asUnsigned();
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
        return json.asU64();
    } else if constexpr (std::is_same_v<T, double>) {
        return json.asDouble();
    } else if constexpr (std::is_same_v<T, std::string>) {
        return json.asStr();
    } else if constexpr (std::is_enum_v<T>) {
        const std::string &token = json.asStr();
        for (const auto &[e, t] : Tokens<T>::list) {
            if (token == t)
                return e;
        }
        throw CorpusError(std::string("unknown ") + Tokens<T>::what + ": " +
                          token);
    } else if constexpr (Tabled<T>) {
        T out{};
        forEachField<T>([&](const auto &f) {
            if constexpr (std::remove_cvref_t<decltype(f)>::scope <= kScope) {
                auto &member = std::invoke(f.get, out);
                member = decode<std::remove_cvref_t<decltype(member)>,
                                kScope>(json.at(f.key));
            }
        });
        if constexpr (requires { Fields<T>::check(out); })
            Fields<T>::check(out);
        return out;
    } else if constexpr (std::is_same_v<T, FormatTallies>) {
        T out;
        for (const Json &t : json.items()) {
            out[decode<executor::TraceFormat>(t.at("format"))] =
                decode<core::FormatTally, kScope>(t);
        }
        return out;
    } else if constexpr (std::is_same_v<T, std::map<std::string,
                                                    std::uint64_t>>) {
        T out;
        for (const auto &[key, value] : json.members())
            out[key] = value.asU64();
        return out;
    } else if constexpr (std::is_same_v<T, std::vector<std::uint8_t>>) {
        return hexDecode(json.asStr());
    } else if constexpr (std::is_same_v<T, SandboxPatches>) {
        const std::vector<std::uint8_t> raw = hexDecode(json.asStr());
        if (raw.size() % kPatchBytes != 0)
            throw CorpusError("sandbox patch list is not whole patches");
        if (raw.empty())
            return nullptr;
        auto patches = std::make_shared<mem::SandboxImage::Patches>();
        patches->reserve(raw.size() / kPatchBytes);
        for (std::size_t i = 0; i < raw.size(); i += kPatchBytes) {
            const std::uint32_t off =
                std::uint32_t{raw[i]} << 16 | raw[i + 1] << 8 | raw[i + 2];
            patches->push_back({off, raw[i + 3]});
        }
        return patches;
    } else if constexpr (std::is_same_v<T, mem::SandboxImage>) {
        if (json.kind() == Json::Kind::Obj) {
            if constexpr (kScope == Scope::Runtime)
                return mem::SandboxImage::generated(
                    decode<mem::SandboxImage::Descriptor, kScope>(json));
            throw CorpusError("sandbox descriptors travel only on the "
                              "subprocess wire; the corpus holds hex");
        }
        const std::string &hex = json.asStr();
        // Whole pages only, at most the largest legal sandbox: checked on
        // the text, before decoding allocates anything.
        if (hex.size() % (2 * mem::kPageSize) != 0 ||
            hex.size() / (2 * mem::kPageSize) > mem::kMaxSandboxPages)
            throw CorpusError("sandbox is not a whole number of pages up "
                              "to " +
                              std::to_string(mem::kMaxSandboxPages));
        return mem::SandboxImage(hexDecode(hex));
    } else if constexpr (kIsVector<T>) {
        T out;
        out.reserve(json.items().size());
        for (const Json &item : json.items())
            out.push_back(decode<typename T::value_type, kScope>(item));
        return out;
    } else {
        static_assert(kIsArray<T>, "no JSON codec for this type");
        T out{};
        const auto &items = json.items();
        if (items.size() != out.size())
            throw CorpusError("JSON: expected " +
                              std::to_string(out.size()) + " items, got " +
                              std::to_string(items.size()));
        for (std::size_t i = 0; i < out.size(); ++i)
            out[i] = decode<typename T::value_type, kScope>(items[i]);
        return out;
    }
}

template <Scope kScope, class T>
Json
encode(const T &value)
{
    using FormatTallies = std::map<executor::TraceFormat, core::FormatTally>;
    if constexpr (std::is_same_v<T, bool>) {
        return Json::boolean(value);
    } else if constexpr (std::is_same_v<T, std::uint8_t> ||
                         std::is_same_v<T, unsigned> ||
                         std::is_same_v<T, std::uint64_t>) {
        return Json::number(std::uint64_t{value});
    } else if constexpr (std::is_same_v<T, double>) {
        return Json::number(value);
    } else if constexpr (std::is_same_v<T, std::string>) {
        return Json::str(value);
    } else if constexpr (std::is_enum_v<T>) {
        return Json::str(enumToken(value));
    } else if constexpr (Tabled<T>) {
        Json obj = Json::object();
        encodeInto<kScope>(value, obj);
        return obj;
    } else if constexpr (std::is_same_v<T, FormatTallies>) {
        // One {"format", ...FormatTally} object per trace format.
        Json arr = Json::array();
        for (const auto &[format, tally] : value) {
            Json t = Json::object();
            t.set("format", encode(format));
            encodeInto<kScope>(tally, t);
            arr.push(std::move(t));
        }
        return arr;
    } else if constexpr (std::is_same_v<T, std::map<std::string,
                                                    std::uint64_t>>) {
        Json obj = Json::object();
        for (const auto &[key, count] : value)
            obj.set(key, Json::number(count));
        return obj;
    } else if constexpr (std::is_same_v<T, std::vector<std::uint8_t>>) {
        return Json::str(hexEncode(value.data(), value.size()));
    } else if constexpr (std::is_same_v<T, SandboxPatches>) {
        std::vector<std::uint8_t> raw;
        if (value) {
            raw.reserve(value->size() * kPatchBytes);
            for (const mem::SandboxImage::Patch &p : *value) {
                for (int shift = 16; shift >= 0; shift -= 8)
                    raw.push_back(static_cast<std::uint8_t>(p.off >> shift));
                raw.push_back(p.value);
            }
        }
        return encode(raw);
    } else if constexpr (std::is_same_v<T, mem::SandboxImage>) {
        if constexpr (kScope == Scope::Runtime) {
            if (const mem::SandboxImage::Descriptor *desc =
                    value.descriptor())
                return encode<kScope>(*desc);
        }
        if (const std::vector<std::uint8_t> *bytes = value.explicitBytes())
            return encode(*bytes);
        return encode(value.toBytes());
    } else {
        static_assert(kIsVector<T> || kIsArray<T>,
                      "no JSON codec for this type");
        Json arr = Json::array();
        for (const auto &item : value)
            arr.push(encode<kScope>(item));
        return arr;
    }
}

} // namespace amulet::corpus

#endif // AMULET_CORPUS_FIELDS_HH
