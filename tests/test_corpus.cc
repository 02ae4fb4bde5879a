/**
 * @file
 * Corpus-subsystem tests: serde round-trips, the kill/resume
 * determinism contract (resumed campaign ≡ uninterrupted campaign,
 * byte-identical canonical exports), journal merge dedup, and
 * replayer-confirms-violation for every defense target.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "core/input_gen.hh"
#include "corpus/checkpoint.hh"
#include "corpus/fields.hh"
#include "corpus/replayer.hh"
#include "isa/assembler.hh"
#include "runtime/fault.hh"
#include "support/campaign_fixture.hh"

namespace fs = std::filesystem;

namespace
{

using namespace amulet;
using namespace amulet::fixture;

/** Seed 1 detects spectre-v1 within these 12 programs. */
core::CampaignConfig
smallCampaign()
{
    return campaignConfig(defense::DefenseKind::Baseline, 1,
                          executor::BackendKind::InProcess, {2000, 12});
}

/** The defense campaigns of tests/test_campaign.cc (STT on seed 8). */
core::CampaignConfig
defenseCampaign(defense::DefenseKind kind)
{
    core::CampaignConfig cfg = core::paperCell(kind);
    cfg.harness.bootInsts = 2000;
    cfg.numPrograms = 40;
    cfg.seed = kind == defense::DefenseKind::Stt ? 8 : 33;
    // Bound the journal: STT inputs carry a 512 KiB sandbox each.
    cfg.maxViolationsRecorded = 4;
    return cfg;
}

/** A synthetic but fully populated record for serde tests. */
core::ViolationRecord
sampleRecord()
{
    core::ViolationRecord rec;
    rec.defenseName = "Baseline";
    rec.contractName = "CT-SEQ";
    rec.programText = ".bb_main.0:\n"
                      "    AND RBX, 0b111111111111\n"
                      "    MOV RAX, qword ptr [R14 + RBX]\n"
                      "    JNE .exit\n";
    rec.programIndex = 7;
    rec.inputA.id = 70001;
    rec.inputA.regs.fill(0x1122334455667788ULL);
    rec.inputA.flagsByte = 0x15;
    rec.inputA.sandbox.assign(4096, 0xab);
    rec.inputA.sandbox.set(13, 0x07);
    rec.inputB = rec.inputA;
    rec.inputB.id = 70004;
    for (std::size_t i = 0; i < rec.inputB.regs.size(); ++i)
        rec.inputB.regs[i] = i * 0x0101010101010101ULL;
    rec.inputB.sandbox.set(512, 0xcd);
    rec.traceA.format = executor::TraceFormat::L1dTlb;
    rec.traceA.words = {0xd1d1000000000001ULL, 42, 99};
    rec.traceB = rec.traceA;
    rec.traceB.words.push_back(1234567);
    rec.ctxA.bp.ghr = 0xbeef;
    rec.ctxA.bp.pht = {0, 1, 2, 3, 2, 1};
    rec.ctxA.bp.btbTags = {~0ULL, 0x400010};
    rec.ctxA.bp.btbTargets = {5, 9};
    rec.ctxA.mdp = {0, 3, 1};
    rec.ctxB = rec.ctxA;
    rec.ctxB.bp.ghr = 0xf00d;
    rec.ctraceHash = 0xdeadbeefcafef00dULL;
    rec.signature = "spectre-v1-branch";
    rec.detectSeconds = 12.25;
    rec.rngState = {1, 2, 0xffffffffffffffffULL, 4};
    return rec;
}

/** The sibling of a generated @p pages-page base that restores the
 *  bytes at 1, 0x1000 and the sandbox's last: its sandbox carries a
 *  descriptor. */
arch::Input
generatedSibling(unsigned pages)
{
    core::InputGenConfig cfg;
    cfg.map.sandboxPages = pages;
    core::InputGenerator gen(cfg, Rng(4));
    const arch::Input base = gen.generate(0);
    return gen.sibling(base, {1, 0x1000, pages * mem::kPageSize - 1}, 1);
}

/** @p json with every string longer than 256 characters replaced by its
 *  length and FNV-1a hash, so a pinned dump stays readable. */
corpus::Json
hashLongStrings(const corpus::Json &json)
{
    using corpus::Json;
    switch (json.kind()) {
      case Json::Kind::Str: {
        const std::string &s = json.asStr();
        if (s.size() <= 256)
            return json;
        std::uint64_t h = 0xcbf29ce484222325ULL;
        for (unsigned char c : s)
            h = (h ^ c) * 0x100000001b3ULL;
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%zu:%016llx", s.size(),
                      static_cast<unsigned long long>(h));
        return Json::str(buf);
      }
      case Json::Kind::Arr: {
        Json out = Json::array();
        for (const Json &item : json.items())
            out.push(hashLongStrings(item));
        return out;
      }
      case Json::Kind::Obj: {
        Json out = Json::object();
        for (const auto &[key, value] : json.members())
            out.set(key, hashLongStrings(value));
        return out;
      }
      default:
        return json;
    }
}

/** A fully populated checkpoint outcome (every counter distinct). */
runtime::ProgramOutcome
sampleOutcome()
{
    runtime::ProgramOutcome o;
    o.ran = true;
    o.skippedProgram = true;
    o.quarantined = true;
    o.quarantineReason = "poisoned \"worker\"\n";
    o.testCases = 120;
    o.filteredTestCases = 17;
    o.effectiveClasses = 9;
    o.candidateViolations = 5;
    o.validationRuns = 44;
    o.violatingTestCases = 3;
    o.confirmedViolations = 2;
    o.firstDetectSeconds = 1.5;
    o.testGenSec = 0.125;
    o.ctraceSec = 0.0625;
    o.filterSec = 3e-05;
    o.signatureCounts["spectre-v1-branch"] = 2;
    o.signatureCounts["uv1-spec-eviction"] = 1;
    o.formatTallies[executor::TraceFormat::L1dTlb] = {3, 3};
    o.formatTallies[executor::TraceFormat::BpState] = {1, 0};
    return o;
}

/** @name Leaf perturbations: each changes how the value encodes. */
/// @{
void perturb(bool &v) { v = !v; }
void perturb(unsigned &v) { ++v; }
void perturb(std::uint64_t &v) { ++v; }
void perturb(std::string &v) { v += "x"; }
void perturb(std::vector<std::uint32_t> &v) { v.push_back(1); }
void perturb(telemetry::TelemetryConfig &v) { v.traceOutPath += "x"; }

template <class E>
    requires std::is_enum_v<E>
void
perturb(E &v)
{
    v = static_cast<E>(static_cast<int>(v) + 1); // defaults are never last
}
/// @}

/**
 * Call visit(name, scope, get) for every leaf entry below table S, where
 * get(config) returns that leaf's reference in a CampaignConfig and
 * scope is Runtime when the leaf or any table entry above it is.
 */
template <class S, class Get, class Visit>
void
forEachLeaf(const std::string &prefix, corpus::Scope scope, Get get,
            Visit &visit)
{
    corpus::forEachField<S>([&](const auto &f) {
        using F = std::remove_cvref_t<decltype(f)>;
        const corpus::Scope leaf_scope =
            F::scope == corpus::Scope::Runtime ? F::scope : scope;
        auto sub = [get, member = f.get](core::CampaignConfig &c) -> auto & {
            return std::invoke(member, get(c));
        };
        using T = std::remove_cvref_t<
            decltype(sub(std::declval<core::CampaignConfig &>()))>;
        if constexpr (corpus::Tabled<T>)
            forEachLeaf<T>(prefix + f.key + ".", leaf_scope, sub, visit);
        else
            visit(prefix + f.key, leaf_scope, sub);
    });
}

/** A value of @p good's kind that T's decoder must refuse: a number past
 *  T's range, a vector holding one past its element's, an array one item
 *  short, hex that is not whole bytes (whole pages, for a sandbox; whole
 *  patches, for a patch list), a sandbox descriptor of a page and a
 *  byte; none for the other kinds. */
template <class T>
std::optional<corpus::Json>
outOfRange(const corpus::Json &good)
{
    using corpus::Json;
    if constexpr (std::is_same_v<T, std::uint8_t>) {
        return Json::number(std::uint64_t{256});
    } else if constexpr (std::is_same_v<T, unsigned>) {
        return Json::number(std::uint64_t{1} << 32);
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
        return Json::parse("18446744073709551616");
    } else if constexpr (std::is_same_v<T, std::vector<std::uint8_t>>) {
        return Json::str(good.asStr() + "0");
    } else if constexpr (std::is_same_v<T, mem::SandboxImage>) {
        if (good.kind() == Json::Kind::Obj) { // a descriptor: a page + 1
            Json bad = good;
            bad.set("size", Json::number(good.at("size").asU64() + 1));
            return bad;
        }
        return Json::str(good.asStr() + "00");
    } else if constexpr (std::is_same_v<T, corpus::SandboxPatches>) {
        return Json::str(good.asStr() + "00");
    } else if constexpr (corpus::kIsVector<T>) {
        using E = typename T::value_type;
        if constexpr (std::is_arithmetic_v<E>) {
            if (const auto bad = outOfRange<E>(Json{})) {
                Json arr = Json::array();
                arr.push(Json::number(std::uint64_t{2}));
                arr.push(*bad);
                return arr;
            }
        }
    } else if constexpr (corpus::kIsArray<T>) {
        const auto &items = good.items();
        Json fewer = Json::array();
        for (std::size_t i = 0; i + 1 < items.size(); ++i)
            fewer.push(items[i]);
        return fewer;
    }
    return std::nullopt;
}

/**
 * Decode @p sample's encoding with one entry of S's table at a time
 * missing, of the wrong JSON kind, or out of range for its member type;
 * each must throw CorpusError.
 */
template <class S, corpus::Scope kScope = corpus::Scope::Definition>
void
expectHostileEntriesThrow(const S &sample)
{
    using corpus::Json;
    const Json good = corpus::encode<kScope>(sample);
    ASSERT_NO_THROW((corpus::decode<S, kScope>(good)));
    corpus::forEachField<S>([&](const auto &f) {
        using F = std::remove_cvref_t<decltype(f)>;
        if constexpr (F::scope <= kScope) {
            using T = std::remove_cvref_t<decltype(std::invoke(f.get,
                                                               sample))>;
            auto decodeWith = [&](const Json *value) {
                Json j = Json::object();
                for (const auto &[key, v] : good.members()) {
                    if (key != f.key)
                        j.set(key, v);
                    else if (value)
                        j.set(key, *value);
                }
                return corpus::decode<S, kScope>(j);
            };
            EXPECT_THROW(decodeWith(nullptr), corpus::CorpusError)
                << f.key << " missing";
            const Json wrong = good.at(f.key).kind() == Json::Kind::Str
                                   ? Json::number(std::uint64_t{1})
                                   : Json::str("x");
            EXPECT_THROW(decodeWith(&wrong), corpus::CorpusError)
                << f.key << " of the wrong kind";
            if (const auto bad = outOfRange<T>(good.at(f.key))) {
                EXPECT_THROW(decodeWith(&*bad), corpus::CorpusError)
                    << f.key << " out of range";
            }
        }
    });
}

TEST(CorpusSerde, RecordRoundTripsExactly)
{
    const core::ViolationRecord rec = sampleRecord();
    const std::string dump = corpus::toJson(rec).dump();
    const core::ViolationRecord back =
        corpus::recordFromJson(corpus::Json::parse(dump));

    EXPECT_EQ(back.defenseName, rec.defenseName);
    EXPECT_EQ(back.contractName, rec.contractName);
    EXPECT_EQ(back.programText, rec.programText);
    EXPECT_EQ(back.programIndex, rec.programIndex);
    EXPECT_TRUE(back.inputA == rec.inputA);
    EXPECT_EQ(back.inputA.id, rec.inputA.id);
    EXPECT_TRUE(back.inputB == rec.inputB);
    EXPECT_TRUE(back.traceA == rec.traceA);
    EXPECT_TRUE(back.traceB == rec.traceB);
    EXPECT_EQ(back.ctxA.bp, rec.ctxA.bp);
    EXPECT_EQ(back.ctxA.mdp, rec.ctxA.mdp);
    EXPECT_EQ(back.ctxB.bp, rec.ctxB.bp);
    EXPECT_EQ(back.ctraceHash, rec.ctraceHash);
    EXPECT_EQ(back.signature, rec.signature);
    EXPECT_DOUBLE_EQ(back.detectSeconds, rec.detectSeconds);
    EXPECT_EQ(back.rngState, rec.rngState);

    // Canonical: dumping the reloaded record reproduces the bytes.
    EXPECT_EQ(corpus::toJson(back).dump(), dump);
}

TEST(CorpusSerde, ParserFailsLoudlyOnMalformedInput)
{
    // Corrupt documents must raise CorpusError, never load garbage or
    // crash: truncated numbers, out-of-range doubles, nesting bombs.
    EXPECT_THROW(corpus::Json::parse("{\"x\":-}"), corpus::CorpusError);
    EXPECT_THROW(corpus::Json::parse("{\"x\":1e}"), corpus::CorpusError);
    EXPECT_THROW(corpus::Json::parse("{\"x\":1e999}"),
                 corpus::CorpusError);
    EXPECT_THROW(corpus::Json::parse(std::string(100000, '[')),
                 corpus::CorpusError);
    EXPECT_THROW(corpus::Json::parse("{\"x\":1}garbage"),
                 corpus::CorpusError);
}

TEST(CorpusSerde, CanonicalDumpsReparseByteIdentically)
{
    // Escapes: quotes, backslashes, the named control escapes, and every
    // other control character as \u00XX; bytes >= 0x7f pass raw.
    std::string controls;
    for (int c = 0; c < 0x20; ++c) {
        if (c == '\n' || c == '\t' || c == '\r')
            continue;
        static const char digits[] = "0123456789abcdef";
        controls += "\\u00";
        controls += digits[c >> 4];
        controls += digits[c & 0xf];
    }
    std::string hex;
    for (int i = 0; i < 8192; ++i)
        hex += "0123456789abcdef"[(i * 7) % 16];
    const std::vector<std::string> docs = {
        R"({"q":"a\"b\"","bs":"\\x\\\\y\\","e":"\n\t\r"})",
        "[\"" + controls + "\",\"\x7f\xc3\xa9\xff\"]",
        R"({"sandbox":")" + hex + R"("})",
        "[\"" + hex + "\\\"" + hex + "\\u0001" + hex + "\\\\\"]",
        R"({"":"","a":[],"b":{},)"
        R"("c":[null,true,false,0,18446744073709551615,-1.5]})",
    };
    for (const std::string &doc : docs)
        EXPECT_EQ(corpus::Json::parse(doc).dump(), doc);

    // The hex runs round-trip as payload, not just as text.
    arch::Input input;
    std::vector<std::uint8_t> bytes(4096);
    for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<std::uint8_t>(i * 37);
    input.sandbox = mem::SandboxImage(std::move(bytes));
    const std::string dump = corpus::encode(input).dump();
    EXPECT_TRUE(corpus::decode<arch::Input>(corpus::Json::parse(dump)) ==
                input);
}

TEST(CorpusSerde, MalformedHexAndStringsThrow)
{
    arch::Input input;
    input.sandbox.assign(4096, 0xab);
    const corpus::Json good = corpus::encode(input);
    // Bytes >= 0x80 are bad digits too (the digit table is indexed as
    // unsigned char), as is an embedded NUL. Each ends a page-long
    // string, so the digit check — not the length check — rejects it.
    for (const std::string &bad : std::vector<std::string>{
             "0g", "zz", "0\x80", "\xff" "0", std::string("a\0", 2)}) {
        corpus::Json j = good;
        j.set("sandbox",
              corpus::Json::str(std::string(2 * 4096 - 2, '0') + bad));
        EXPECT_THROW(corpus::decode<arch::Input>(j), corpus::CorpusError)
            << bad;
    }
    // Unterminated strings: the bulk-copy run reaches end of text.
    const std::string hex(8192, 'a');
    for (const std::string &bad : std::vector<std::string>{
             "\"", "\"" + hex, "{\"sandbox\":\"" + hex, "[\"x\\",
             "\"\\u00", "\"" + hex + "\\\"" + hex}) {
        EXPECT_THROW(corpus::Json::parse(bad), corpus::CorpusError);
    }
}

TEST(CorpusSerde, BrokenSandboxGeometryIsRejected)
{
    // Inputs: a sandbox must be whole pages, at most 128 of them.
    arch::Input input;
    input.sandbox.assign(4096, 0x5a);
    const corpus::Json good = corpus::encode(input);
    EXPECT_TRUE(corpus::decode<arch::Input>(good) == input);
    for (std::size_t bytes : {std::size_t{1}, std::size_t{4095},
                              std::size_t{4097}, std::size_t{129 * 4096}}) {
        corpus::Json j = good;
        j.set("sandbox", corpus::Json::str(std::string(2 * bytes, '0')));
        EXPECT_THROW(corpus::decode<arch::Input>(j), corpus::CorpusError)
            << bytes;
    }
    corpus::Json odd = good;
    odd.set("sandbox", corpus::Json::str(std::string(2 * 4096 + 1, '0')));
    EXPECT_THROW(corpus::decode<arch::Input>(odd), corpus::CorpusError);

    // Configs: sandboxPages must be a power of two in 1..128, or the
    // generated index mask lets accesses escape (0) or skip pages (3).
    const core::CampaignConfig cfg =
        defenseCampaign(defense::DefenseKind::Stt);
    const std::string dump = corpus::configToJson(cfg).dump();
    for (unsigned pages : {0u, 3u, 96u, 256u, 4096u}) {
        corpus::Json j = corpus::Json::parse(dump);
        corpus::Json harness = j.at("harness");
        corpus::Json map = harness.at("map");
        map.set("sandboxPages", corpus::Json::number(std::uint64_t{pages}));
        harness.set("map", map);
        j.set("harness", harness);
        EXPECT_THROW(corpus::configFromJson(j), corpus::CorpusError)
            << pages;
    }
    for (unsigned pages : {1u, 2u, 64u, 128u}) {
        core::CampaignConfig ok = cfg;
        ok.harness.map.sandboxPages = pages;
        EXPECT_EQ(corpus::configFromJson(corpus::configToJson(ok))
                      .harness.map.sandboxPages,
                  pages);
    }
}

TEST(CorpusSerde, RecordWithBadProgramIsRejected)
{
    corpus::Json j = corpus::toJson(sampleRecord());
    j.set("program", corpus::Json::str("FROB RAX, RBX\n"));
    EXPECT_THROW(corpus::recordFromJson(j), corpus::CorpusError);
}

// An input's flags are one byte: 256 is refused, not truncated to 0 (a
// different input, so a replay that silently tests something else).
TEST(CorpusSerde, InputFlagsWiderThanAByteAreRejected)
{
    arch::Input input;
    input.sandbox.assign(4096, 0);
    corpus::Json j = corpus::encode(input);
    for (std::uint64_t flags : {256u, 257u, 0x1ffu}) {
        j.set("flags", corpus::Json::number(flags));
        EXPECT_THROW(corpus::decode<arch::Input>(j), corpus::CorpusError)
            << flags;
    }
    input.flagsByte = 0xff;
    EXPECT_TRUE(corpus::decode<arch::Input>(corpus::Json::parse(
                    corpus::encode(input).dump())) == input);
}

TEST(CorpusSerde, RngStreamStateResumesSequence)
{
    Rng rng(42);
    rng.next();
    const Rng::State state = rng.state();
    const std::string dump = corpus::encode(state).dump();
    Rng restored = Rng::fromState(
        corpus::decode<Rng::State>(corpus::Json::parse(dump)));
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(restored.next(), rng.next());
}

TEST(CorpusSerde, ConfigRoundTripsAndFingerprintIgnoresRuntimeKnobs)
{
    core::CampaignConfig cfg = defenseCampaign(defense::DefenseKind::Stt);
    cfg.harness.core.l1d.ways = 2;
    cfg.harness.core.l1dMshrs = 2;
    cfg.collectAllFormats = true;

    const std::string dump = corpus::configToJson(cfg).dump();
    const core::CampaignConfig back =
        corpus::configFromJson(corpus::Json::parse(dump));
    EXPECT_EQ(corpus::configToJson(back).dump(), dump);
    EXPECT_EQ(back.contract.name, cfg.contract.name);
    EXPECT_EQ(back.harness.map.sandboxPages,
              cfg.harness.map.sandboxPages);
    EXPECT_EQ(back.harness.core.l1d.ways, 2u);
    EXPECT_EQ(back.seed, cfg.seed);

    // Walk the field tables down to every leaf: perturbing a Definition
    // entry must move the fingerprint, perturbing a Runtime entry must
    // not — a resumed run may use a different jobs value, backend, fast
    // path or corpus cadence against the same corpus.
    const std::string fp = corpus::configFingerprint(cfg);
    core::CampaignConfig variant = cfg; // every Runtime entry perturbed
    unsigned definitions = 0;
    unsigned runtimes = 0;
    auto visit = [&](const std::string &name, corpus::Scope scope,
                     auto get) {
        core::CampaignConfig one = cfg;
        perturb(get(one));
        if (scope == corpus::Scope::Definition) {
            ++definitions;
            EXPECT_NE(corpus::configFingerprint(one), fp) << name;
        } else {
            ++runtimes;
            EXPECT_EQ(corpus::configFingerprint(one), fp) << name;
            perturb(get(variant));
        }
    };
    forEachLeaf<core::CampaignConfig>(
        "", corpus::Scope::Definition,
        [](core::CampaignConfig &c) -> core::CampaignConfig & { return c; },
        visit);
    EXPECT_GE(runtimes, 11u); // 9 of CampaignConfig, 2 of HarnessConfig
    EXPECT_GE(definitions, 84u);
    EXPECT_EQ(corpus::configFingerprint(variant),
              corpus::configFingerprint(cfg));

    // The campaign definition does.
    variant = cfg;
    variant.seed = cfg.seed + 1;
    EXPECT_NE(corpus::configFingerprint(variant),
              corpus::configFingerprint(cfg));
}

// The subprocess hello encodes the harness at Runtime scope: its
// Runtime entries travel inside "harness"; the corpus scope drops them.
TEST(CorpusSerde, WireScopeHarnessKeepsRuntimeEntries)
{
    executor::HarnessConfig harness;
    harness.primeCache = false;
    harness.cycleSkip = false;
    const corpus::Json wire =
        corpus::encode<corpus::Scope::Runtime>(harness);
    const auto back =
        corpus::decode<executor::HarnessConfig, corpus::Scope::Runtime>(
            corpus::Json::parse(wire.dump()));
    EXPECT_FALSE(back.primeCache);
    EXPECT_FALSE(back.cycleSkip);
    EXPECT_EQ(corpus::encode<corpus::Scope::Runtime>(back).dump(),
              wire.dump());

    // Every Runtime entry reaches the wire, none reaches the corpus.
    corpus::forEachField<executor::HarnessConfig>([&](const auto &f) {
        using F = std::remove_cvref_t<decltype(f)>;
        EXPECT_NE(wire.find(f.key), nullptr) << f.key;
        EXPECT_EQ(corpus::encode(harness).find(f.key) != nullptr,
                  F::scope == corpus::Scope::Definition)
            << f.key;
    });
    const auto stored = corpus::decode<executor::HarnessConfig>(
        corpus::encode(harness));
    EXPECT_TRUE(stored.primeCache);
    EXPECT_TRUE(stored.cycleSkip);
}

// Bytes written before the field tables existed, pinned: the corpus
// dump (and so every fingerprint) and checkpoint outcomes must not move.
TEST(CorpusSerde, EncodingMatchesPinnedBytes)
{
    core::CampaignConfig stt;
    stt.harness.defense.kind = defense::DefenseKind::Stt;
    stt.contract = contracts::archSeq();
    stt.harness.map.sandboxPages = 128;
    core::CampaignConfig cleanup;
    cleanup.harness.defense =
        defense::DefenseConfig::patched(defense::DefenseKind::CleanupSpec);
    cleanup.harness.prime = executor::PrimeMode::Invalidate;
    cleanup.harness.core.l1d.ways = 2;
    cleanup.harness.core.l1dMshrs = 2;
    cleanup.collectAllFormats = true;
    cleanup.filterIneffective = false;

    const struct
    {
        core::CampaignConfig cfg;
        std::string dump;
        const char *fingerprint;
    } pins[] = {
        {core::CampaignConfig{},
         R"({"version":3,"harness":{"core":{"fetchWidth":4,"issueWidth":4,"co)"
         R"(mmitWidth":4,"robSize":192,"lqSize":32,"sqSize":32,"l1d":{"sizeBy)"
         R"(tes":32768,"ways":8,"lineBytes":64},"l1i":{"sizeBytes":32768,"way)"
         R"(s":8,"lineBytes":64},"l2":{"sizeBytes":262144,"ways":8,"lineBytes)"
         R"(":64},"l1dMshrs":256,"l1iMshrs":4,"l1HitLatency":2,"l2HitLatency")"
         R"(:12,"memLatency":80,"l2ServiceInterval":4,"tlbEntries":64,"tlbWal)"
         R"(kLatency":20,"aluLatency":1,"mulLatency":3,"branchLatency":1,"ghr)"
         R"(Bits":12,"phtBits":12,"btbEntries":512,"mdpEntries":512,"specBuff)"
         R"(erEntries":32,"lfbEntries":8,"cleanupLatency":6,"maxCyclesPerRun")"
         R"(:1000000},"defense":{"kind":"Baseline","invisispecBugSpecEviction)"
         R"(":true,"cleanupBugStoreNotCleaned":true,"cleanupBugSplitNotCleane)"
         R"(d":true,"cleanupNoCleanPatch":false,"sttBugTaintedStoreTlb":true,)"
         R"("speclfbBugFirstLoad":true},"map":{"codeBase":4194304,"sandboxBas)"
         R"(e":8388608,"sandboxPages":1,"primeBase":268435456},"prime":"confl)"
         R"(ictfill","traceFormat":"l1dtlb","naiveMode":false,"tlbPrefill":"a)"
         R"(uto","bootInsts":8000},"contract":{"name":"CT-SEQ","observePc":tr)"
         R"(ue,"observeMemAddr":true,"observeLoadValues":false,"exposeInitial)"
         R"(Regs":false,"exploreMispredictedBranches":false,"speculationWindo)"
         R"(w":256,"maxNesting":4},"gen":{"minBlocks":2,"maxBlocks":5,"minIns)"
         R"(tsPerBlock":4,"maxInstsPerBlock":12,"memAccessPct":40,"storePct":)"
         R"(30,"rmwPct":15,"cmovLoadPct":10,"fencePct":2,"setccPct":6,"condBr)"
         R"(anchPct":80,"loopnePct":10,"branchOnLoadPct":60,"unalignedPct":15)"
         R"(,"widthWeights":[2,2,3,5]},"inputSmallRegPct":50,"numPrograms":50)"
         R"(,"baseInputsPerProgram":8,"siblingsPerBase":4,"regMutationPct":70)"
         R"(,"filterIneffective":true,"stopAtFirstViolation":false,"collectSi)"
         R"(gnatures":true,"collectAllFormats":false,"maxViolationsRecorded":)"
         R"(32,"seed":1})",
         "38b8ba7c1428e68c"},
        {stt,
         R"({"version":3,"harness":{"core":{"fetchWidth":4,"issueWidth":4,"co)"
         R"(mmitWidth":4,"robSize":192,"lqSize":32,"sqSize":32,"l1d":{"sizeBy)"
         R"(tes":32768,"ways":8,"lineBytes":64},"l1i":{"sizeBytes":32768,"way)"
         R"(s":8,"lineBytes":64},"l2":{"sizeBytes":262144,"ways":8,"lineBytes)"
         R"(":64},"l1dMshrs":256,"l1iMshrs":4,"l1HitLatency":2,"l2HitLatency")"
         R"(:12,"memLatency":80,"l2ServiceInterval":4,"tlbEntries":64,"tlbWal)"
         R"(kLatency":20,"aluLatency":1,"mulLatency":3,"branchLatency":1,"ghr)"
         R"(Bits":12,"phtBits":12,"btbEntries":512,"mdpEntries":512,"specBuff)"
         R"(erEntries":32,"lfbEntries":8,"cleanupLatency":6,"maxCyclesPerRun")"
         R"(:1000000},"defense":{"kind":"STT","invisispecBugSpecEviction":tru)"
         R"(e,"cleanupBugStoreNotCleaned":true,"cleanupBugSplitNotCleaned":tr)"
         R"(ue,"cleanupNoCleanPatch":false,"sttBugTaintedStoreTlb":true,"spec)"
         R"(lfbBugFirstLoad":true},"map":{"codeBase":4194304,"sandboxBase":83)"
         R"(88608,"sandboxPages":128,"primeBase":268435456},"prime":"conflict)"
         R"(fill","traceFormat":"l1dtlb","naiveMode":false,"tlbPrefill":"auto)"
         R"(","bootInsts":8000},"contract":{"name":"ARCH-SEQ","observePc":tru)"
         R"(e,"observeMemAddr":true,"observeLoadValues":true,"exposeInitialRe)"
         R"(gs":true,"exploreMispredictedBranches":false,"speculationWindow":)"
         R"(256,"maxNesting":4},"gen":{"minBlocks":2,"maxBlocks":5,"minInstsP)"
         R"(erBlock":4,"maxInstsPerBlock":12,"memAccessPct":40,"storePct":30,)"
         R"("rmwPct":15,"cmovLoadPct":10,"fencePct":2,"setccPct":6,"condBranc)"
         R"(hPct":80,"loopnePct":10,"branchOnLoadPct":60,"unalignedPct":15,"w)"
         R"(idthWeights":[2,2,3,5]},"inputSmallRegPct":50,"numPrograms":50,"b)"
         R"(aseInputsPerProgram":8,"siblingsPerBase":4,"regMutationPct":70,"f)"
         R"(ilterIneffective":true,"stopAtFirstViolation":false,"collectSigna)"
         R"(tures":true,"collectAllFormats":false,"maxViolationsRecorded":32,)"
         R"("seed":1})",
         "3fe0cfccea2fc743"},
        {cleanup,
         R"({"version":3,"harness":{"core":{"fetchWidth":4,"issueWidth":4,"co)"
         R"(mmitWidth":4,"robSize":192,"lqSize":32,"sqSize":32,"l1d":{"sizeBy)"
         R"(tes":32768,"ways":2,"lineBytes":64},"l1i":{"sizeBytes":32768,"way)"
         R"(s":8,"lineBytes":64},"l2":{"sizeBytes":262144,"ways":8,"lineBytes)"
         R"(":64},"l1dMshrs":2,"l1iMshrs":4,"l1HitLatency":2,"l2HitLatency":1)"
         R"(2,"memLatency":80,"l2ServiceInterval":4,"tlbEntries":64,"tlbWalkL)"
         R"(atency":20,"aluLatency":1,"mulLatency":3,"branchLatency":1,"ghrBi)"
         R"(ts":12,"phtBits":12,"btbEntries":512,"mdpEntries":512,"specBuffer)"
         R"(Entries":32,"lfbEntries":8,"cleanupLatency":6,"maxCyclesPerRun":1)"
         R"(000000},"defense":{"kind":"CleanupSpec","invisispecBugSpecEvictio)"
         R"(n":false,"cleanupBugStoreNotCleaned":false,"cleanupBugSplitNotCle)"
         R"(aned":false,"cleanupNoCleanPatch":true,"sttBugTaintedStoreTlb":fa)"
         R"(lse,"speclfbBugFirstLoad":false},"map":{"codeBase":4194304,"sandb)"
         R"(oxBase":8388608,"sandboxPages":1,"primeBase":268435456},"prime":")"
         R"(invalidate","traceFormat":"l1dtlb","naiveMode":false,"tlbPrefill")"
         R"(:"auto","bootInsts":8000},"contract":{"name":"CT-SEQ","observePc")"
         R"(:true,"observeMemAddr":true,"observeLoadValues":false,"exposeInit)"
         R"(ialRegs":false,"exploreMispredictedBranches":false,"speculationWi)"
         R"(ndow":256,"maxNesting":4},"gen":{"minBlocks":2,"maxBlocks":5,"min)"
         R"(InstsPerBlock":4,"maxInstsPerBlock":12,"memAccessPct":40,"storePc)"
         R"(t":30,"rmwPct":15,"cmovLoadPct":10,"fencePct":2,"setccPct":6,"con)"
         R"(dBranchPct":80,"loopnePct":10,"branchOnLoadPct":60,"unalignedPct")"
         R"(:15,"widthWeights":[2,2,3,5]},"inputSmallRegPct":50,"numPrograms")"
         R"(:50,"baseInputsPerProgram":8,"siblingsPerBase":4,"regMutationPct")"
         R"(:70,"filterIneffective":false,"stopAtFirstViolation":false,"colle)"
         R"(ctSignatures":true,"collectAllFormats":true,"maxViolationsRecorde)"
         R"(d":32,"seed":1})",
         "43d3c68d3423cf93"},
    };
    for (const auto &pin : pins) {
        EXPECT_EQ(corpus::configToJson(pin.cfg).dump(), pin.dump);
        EXPECT_EQ(corpus::configFingerprint(pin.cfg), pin.fingerprint);
        EXPECT_EQ(corpus::configToJson(
                      corpus::configFromJson(corpus::Json::parse(pin.dump)))
                      .dump(),
                  pin.dump);
    }

    // The paper cell of every defense, as published and patched: the
    // campaigns of the benches, tests and examples build on these.
    using K = defense::DefenseKind;
    const std::tuple<K, const char *, const char *> cells[] = {
        {K::Baseline, "02ea769ffd88a88e", "a9c9407b382c800a"},
        {K::InvisiSpec, "7c53ac17cae86c88", "8a0661e8ad0e56f4"},
        {K::CleanupSpec, "9f15de59ba5e86fa", "bb3d1e580ea1b676"},
        {K::SpecLfb, "5c751d3f957b6fa4", "3b2694928a94b600"},
        {K::Stt, "ac0662453de5ef15", "4d3eb356402d8cf9"},
    };
    for (const auto &[kind, published, patched] : cells) {
        EXPECT_EQ(corpus::configFingerprint(core::paperCell(kind)), published);
        EXPECT_EQ(corpus::configFingerprint(core::paperCell(kind, true)),
                  patched);
    }

    const std::string outcome =
        R"({"ran":true,"skippedProgram":true,"quarantined":true,"quarantineRe)"
        R"(ason":"poisoned \"worker\"\n","testCases":120,"filteredTestCases":)"
        R"(17,"effectiveClasses":9,"candidateViolations":5,"validationRuns":4)"
        R"(4,"violatingTestCases":3,"confirmedViolations":2,"firstDetectSecon)"
        R"(ds":1.5,"testGenSec":0.125,"ctraceSec":0.0625,"filterSec":3e-05,"s)"
        R"(ignatureCounts":{"spectre-v1-branch":2,"uv1-spec-eviction":1},"for)"
        R"(matTallies":[{"format":"l1dtlb","violatingTestCases":3,"coveredByB)"
        R"(aseline":3},{"format":"bpstate","violatingTestCases":1,"coveredByB)"
        R"(aseline":0}]})";
    EXPECT_EQ(corpus::encode(sampleOutcome()).dump(), outcome);
    EXPECT_EQ(corpus::encode(corpus::decode<runtime::ProgramOutcome>(
                                 corpus::Json::parse(outcome)))
                  .dump(),
              outcome);

    // A record's leaves, pinned before they moved onto field tables:
    // both inputs (each 4 KiB sandbox as its hex length and hash), both
    // traces, both predictor contexts and the RNG state.
    const std::string record = corpus::toJson(sampleRecord()).dump();
    const std::string record_pin =
        R"({"version":3,"defense":"Baseline","contract":"CT-SEQ","programInde)"
        R"(x":7,"program":".bb_main.0:\n    AND RBX, 0b111111111111\n    MOV )"
        R"(RAX, qword ptr [R14 + RBX]\n    JNE .exit\n","inputA":{"id":70001,)"
        R"("regs":[1234605616436508552,1234605616436508552,123460561643650855)"
        R"(2,1234605616436508552,1234605616436508552,1234605616436508552,1234)"
        R"(605616436508552,1234605616436508552,1234605616436508552,1234605616)"
        R"(436508552,1234605616436508552,1234605616436508552,1234605616436508)"
        R"(552,1234605616436508552,1234605616436508552,1234605616436508552],")"
        R"(flags":21,"sandbox":"8192:9ef45b100eaf59df"},"inputB":{"id":70004,)"
        R"("regs":[0,72340172838076673,144680345676153346,217020518514230019,)"
        R"(289360691352306692,361700864190383365,434041037028460038,506381209)"
        R"(866536711,578721382704613384,651061555542690057,723401728380766730)"
        R"(,795741901218843403,868082074056920076,940422246894996749,10127624)"
        R"(19733073422,1085102592571150095],"flags":21,"sandbox":"8192:8a96a2)"
        R"(165b8daea7"},"traceA":{"format":"l1dtlb","words":[1511886542405946)"
        R"(5729,42,99]},"traceB":{"format":"l1dtlb","words":[1511886542405946)"
        R"(5729,42,99,1234567]},"ctxA":{"bp":{"ghr":48879,"pht":"000102030201)"
        R"(","btbTags":[18446744073709551615,4194320],"btbTargets":[5,9]},"md)"
        R"(p":"000301"},"ctxB":{"bp":{"ghr":61453,"pht":"000102030201","btbTa)"
        R"(gs":[18446744073709551615,4194320],"btbTargets":[5,9]},"mdp":"0003)"
        R"(01"},"ctraceHash":16045690984503111693,"signature":"spectre-v1-bra)"
        R"(nch","rngState":[1,2,18446744073709551615,4],"detectSeconds":12.25)"
        R"(})";
    EXPECT_EQ(hashLongStrings(corpus::Json::parse(record)).dump(),
              record_pin);
    EXPECT_EQ(corpus::toJson(corpus::recordFromJson(
                                 corpus::Json::parse(record)))
                  .dump(),
              record);
}

// Every decoder of foreign bytes (meta.json, checkpoints, the journal,
// the subprocess wire) walks the tables: for every entry a missing key,
// a wrong JSON kind or an out-of-range value (number, byte, item count,
// hex length) must raise CorpusError.
// Descriptors are a wire form only: a record of generator inputs stores
// their bytes as hex, and a Definition-scope decode (journal, meta.json,
// checkpoints) refuses the object form.
TEST(CorpusSerde, CorpusKeepsGeneratedSandboxesAsHex)
{
    core::ViolationRecord rec = sampleRecord();
    rec.inputA = generatedSibling(1);
    rec.inputB = generatedSibling(128);
    ASSERT_NE(rec.inputA.sandbox.descriptor(), nullptr);
    ASSERT_NE(rec.inputB.sandbox.descriptor(), nullptr);
    const corpus::Json json = corpus::toJson(rec);
    EXPECT_EQ(json.at("inputA").at("sandbox").asStr().size(),
              2 * mem::kPageSize);
    EXPECT_EQ(json.at("inputB").at("sandbox").asStr().size(),
              2 * 128 * mem::kPageSize);
    const core::ViolationRecord back =
        corpus::recordFromJson(corpus::Json::parse(json.dump()));
    EXPECT_TRUE(back.inputA == rec.inputA);
    EXPECT_TRUE(back.inputB == rec.inputB);

    const corpus::Json wire =
        corpus::encode<corpus::Scope::Runtime>(rec.inputB);
    ASSERT_EQ(wire.at("sandbox").kind(), corpus::Json::Kind::Obj);
    EXPECT_THROW(corpus::decode<arch::Input>(wire), corpus::CorpusError);
    corpus::Json edited = json;
    edited.set("inputB", wire);
    EXPECT_THROW(corpus::recordFromJson(edited), corpus::CorpusError);
}

TEST(CorpusSerde, HostileEntriesThrowForEveryTable)
{
    expectHostileEntriesThrow(uarch::CacheParams{});
    expectHostileEntriesThrow(uarch::CoreParams{});
    expectHostileEntriesThrow(mem::AddressMap{});
    expectHostileEntriesThrow(
        defense::DefenseConfig::patched(defense::DefenseKind::Stt));
    expectHostileEntriesThrow(contracts::ctCond());
    expectHostileEntriesThrow(core::GeneratorConfig{});
    expectHostileEntriesThrow(executor::HarnessConfig{});
    expectHostileEntriesThrow<executor::HarnessConfig,
                              corpus::Scope::Runtime>({});
    expectHostileEntriesThrow(defenseCampaign(defense::DefenseKind::Stt));
    expectHostileEntriesThrow(core::FormatTally{3, 1});
    expectHostileEntriesThrow(sampleOutcome());
    expectHostileEntriesThrow(sampleRecord());
    expectHostileEntriesThrow(uarch::RunResult{true, 120, 40, 2, false});
    expectHostileEntriesThrow(executor::TimeBreakdown{0.5, 0.25, 2, 1});
    const core::ViolationRecord rec = sampleRecord();
    expectHostileEntriesThrow(rec.inputB);
    expectHostileEntriesThrow(rec.traceB);
    expectHostileEntriesThrow(rec.ctxA.bp);
    expectHostileEntriesThrow(rec.ctxA);
    expectHostileEntriesThrow(executor::SimHarness::RunOutput{
        rec.traceA, uarch::RunResult{true, 120, 40, 2, false}});

    // The wire form of a generator input: its sandbox descriptor.
    const arch::Input sibling = generatedSibling(2);
    const mem::SandboxImage::Descriptor &desc = *sibling.sandbox.descriptor();
    expectHostileEntriesThrow<arch::Input, corpus::Scope::Runtime>(sibling);
    expectHostileEntriesThrow(desc);
    const corpus::Json good = corpus::encode(desc);
    // Four bytes a patch: the offset in three, then the value.
    const std::string p1 = "00000199", p2 = "0010005f", p3 = "001fff77";
    ASSERT_EQ(good.at("patches").asStr(), p1 + p2 + p3);
    auto expectRefused = [&](const char *key, corpus::Json value,
                             const char *what) {
        corpus::Json bad = good;
        bad.set(key, std::move(value));
        EXPECT_THROW(corpus::decode<mem::SandboxImage::Descriptor>(bad),
                     corpus::CorpusError)
            << what;
        corpus::Json input = corpus::encode<corpus::Scope::Runtime>(sibling);
        input.set("sandbox", bad);
        EXPECT_THROW((corpus::decode<arch::Input, corpus::Scope::Runtime>(
                         input)),
                     corpus::CorpusError)
            << what << " (in an input)";
    };
    using corpus::Json;
    expectRefused("size", Json::number(std::uint64_t{8191}),
                  "size not whole pages");
    expectRefused("size", Json::number(std::uint64_t{129 * 4096}),
                  "more than kMaxSandboxPages");
    expectRefused("patches", Json::str(p1 + p2 + "001fffzz"), "not hex");
    expectRefused("patches", Json::str(p2 + p1 + p3), "unsorted offsets");
    expectRefused("patches", Json::str(p1 + p1 + p3), "a repeated offset");
    expectRefused("patches", Json::str(p1 + p2 + "00200077"),
                  "an offset past the sandbox");
    expectRefused("patches", Json::str(p1 + p2 + "001fff100"),
                  "a patch value above 0xff");
    const auto &words = good.at("state").items();
    Json five = good.at("state");
    five.push(words[0]);
    expectRefused("state", five, "five state words");
    Json three = Json::array();
    for (std::size_t i = 0; i < 3; ++i)
        three.push(words[i]);
    expectRefused("state", three, "three state words");
}

// §3.4 amplification shrinks ways and MSHRs; geometry the cache model
// cannot index (or that divides by zero) must be refused on load, not
// crash the replay or silently fold sets.
TEST(CorpusSerde, BrokenCacheGeometryIsRejected)
{
    const core::CampaignConfig cfg = smallCampaign();
    std::vector<std::function<void(uarch::CoreParams &)>> broken = {
        [](auto &c) { c.l1d.ways = 0; },
        [](auto &c) { c.l1d.ways = 3; },
        [](auto &c) { c.l1d.ways = 1024; },
        [](auto &c) { c.l1d.ways = 1u << 27; }, // ways * line overflows
        [](auto &c) { c.l1i.ways = 0; },
        [](auto &c) { c.l2.lineBytes = 48; },
        [](auto &c) { c.l2.lineBytes = 0; },
        [](auto &c) { c.l1d.sizeBytes = 0; },
        [](auto &c) { c.l1dMshrs = 0; },
        [](auto &c) { c.l1iMshrs = 0; },
        // The predictors index by modulo (0 divides by zero), and
        // phtBits sizes the PHT as 1 << phtBits (64 is an undefined
        // shift, 40 a 1 TiB table).
        [](auto &c) { c.btbEntries = 0; },
        [](auto &c) { c.mdpEntries = 0; },
        [](auto &c) { c.phtBits = 64; },
        [](auto &c) { c.phtBits = 40; },
        [](auto &c) { c.phtBits = 17; },
        [](auto &c) { c.btbEntries = 65537; },
        [](auto &c) { c.mdpEntries = 65537; },
    };
    for (std::size_t i = 0; i < broken.size(); ++i) {
        core::CampaignConfig bad = cfg;
        broken[i](bad.harness.core);
        EXPECT_FALSE(bad.harness.core.validGeometry()) << i;
        EXPECT_THROW(corpus::configFromJson(corpus::configToJson(bad)),
                     corpus::CorpusError)
            << i;
        // The subprocess hello decodes through the same table.
        EXPECT_THROW((corpus::decode<executor::HarnessConfig,
                                           corpus::Scope::Runtime>(
                         corpus::encode<corpus::Scope::Runtime>(
                             bad.harness))),
                     corpus::CorpusError)
            << i;
    }
    // Every geometry in use: Table 6's 8/2 ways with 256/2 MSHRs, and
    // the 1-8 MSHRs the tests sweep.
    for (unsigned ways : {1u, 2u, 4u, 8u, 16u}) {
        for (unsigned mshrs : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 256u}) {
            core::CampaignConfig ok = cfg;
            ok.harness.core.l1d.ways = ways;
            ok.harness.core.l1dMshrs = mshrs;
            EXPECT_TRUE(ok.harness.core.validGeometry()) << ways;
            const auto back =
                corpus::configFromJson(corpus::configToJson(ok));
            EXPECT_EQ(back.harness.core.l1d.ways, ways);
            EXPECT_EQ(back.harness.core.l1dMshrs, mshrs);
        }
    }
    // The predictor bounds are inclusive.
    core::CampaignConfig ok = cfg;
    ok.harness.core.phtBits = uarch::kMaxPhtBits;
    ok.harness.core.btbEntries = uarch::kMaxBtbEntries;
    ok.harness.core.mdpEntries = uarch::kMaxMdpEntries;
    EXPECT_TRUE(ok.harness.core.validGeometry());
    ok.harness.core.phtBits = 0;
    ok.harness.core.btbEntries = 1;
    ok.harness.core.mdpEntries = 1;
    EXPECT_EQ(corpus::configToJson(
                  corpus::configFromJson(corpus::configToJson(ok)))
                  .dump(),
              corpus::configToJson(ok).dump());
}

// A predictor context is refused at decode, not at restoreContext, when
// no core could hold it: a ghr wider than 32 bits (2^32 + 1 would
// otherwise truncate to 1, a different predictor state, so a drifting
// replay), tables larger than the largest core's, or BTB tags and
// targets that do not pair up.
TEST(CorpusSerde, ContextOutsideAnyCoreIsRejected)
{
    using Ctx = executor::UarchContext;
    corpus::Json j = corpus::encode(sampleRecord().ctxA);
    corpus::Json bp = j.at("bp");
    bp.set("ghr", corpus::Json::number((std::uint64_t{1} << 32) + 1));
    j.set("bp", bp);
    EXPECT_THROW(corpus::decode<Ctx>(j), corpus::CorpusError);
    bp.set("ghr", corpus::Json::number(std::uint64_t{0xffffffff}));
    j.set("bp", bp);
    EXPECT_EQ(corpus::decode<Ctx>(j).bp.ghr, 0xffffffffu);

    Ctx max;
    max.bp.pht.assign(std::size_t{1} << uarch::kMaxPhtBits, 1);
    max.bp.btbTags.assign(uarch::kMaxBtbEntries, 7);
    max.bp.btbTargets.assign(uarch::kMaxBtbEntries, 9);
    max.mdp.assign(uarch::kMaxMdpEntries, 2);
    EXPECT_EQ(corpus::decode<Ctx>(corpus::encode(max)).bp, max.bp);
    const std::vector<std::pair<const char *, std::function<void(Ctx &)>>>
        broken = {
            {"pht", [](Ctx &c) { c.bp.pht.push_back(0); }},
            {"btb", [](Ctx &c) {
                 c.bp.btbTags.push_back(0);
                 c.bp.btbTargets.push_back(0);
             }},
            {"mdp", [](Ctx &c) { c.mdp.push_back(0); }},
            {"btb targets", [](Ctx &c) { c.bp.btbTargets.pop_back(); }},
            {"btb tags", [](Ctx &c) { c.bp.btbTags.pop_back(); }},
        };
    for (const auto &[what, edit] : broken) {
        Ctx bad = max;
        edit(bad);
        EXPECT_THROW(corpus::decode<Ctx>(corpus::encode(bad)),
                     corpus::CorpusError)
            << what;
    }
}

TEST(CorpusStore, AppendDedupsAndReloads)
{
    ScratchDir scratch("store");
    const std::string dir = scratch.sub("corpus");
    const core::CampaignConfig cfg = smallCampaign();
    const core::ViolationRecord rec = sampleRecord();

    {
        corpus::CorpusStore store(dir, cfg);
        EXPECT_TRUE(store.append(rec));
        EXPECT_FALSE(store.append(rec)) << "same key must dedup";
        core::ViolationRecord other = rec;
        other.inputB.id = 70009;
        EXPECT_TRUE(store.append(other));
        EXPECT_EQ(store.size(), 2u);
    }

    // Reopening seeds the dedup index from the journal.
    {
        corpus::CorpusStore store(dir, cfg);
        EXPECT_EQ(store.size(), 2u);
        EXPECT_FALSE(store.append(rec));
    }

    const auto records = corpus::CorpusStore::readJournal(dir);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].inputB.id, 70004u);
    EXPECT_EQ(records[1].inputB.id, 70009u);

    // A different campaign config must be refused.
    core::CampaignConfig other_cfg = cfg;
    other_cfg.seed = 999;
    EXPECT_THROW(corpus::CorpusStore(dir, other_cfg),
                 corpus::CorpusError);
}

// meta.json pins the config by fingerprint: a config edited (or
// mis-decoded) after the fact must not replay under another definition.
TEST(CorpusStore, ReadConfigCrossChecksTheStoredFingerprint)
{
    ScratchDir scratch("meta");
    const std::string dir = scratch.sub("corpus");
    const core::CampaignConfig cfg = smallCampaign();
    { corpus::CorpusStore store(dir, cfg); }
    EXPECT_EQ(corpus::configFingerprint(corpus::CorpusStore::readConfig(dir)),
              corpus::configFingerprint(cfg));

    const std::string meta_path = dir + "/meta.json";
    std::string text;
    {
        std::ifstream in(meta_path);
        std::getline(in, text);
    }
    corpus::Json meta = corpus::Json::parse(text);
    corpus::Json config = meta.at("config");
    config.set("seed", corpus::Json::number(cfg.seed + 1));
    meta.set("config", config);
    std::ofstream(meta_path) << meta.dump() << "\n";
    EXPECT_THROW(corpus::CorpusStore::readConfig(dir), corpus::CorpusError);
}

TEST(CorpusStore, MergeDedupsAcrossShards)
{
    ScratchDir scratch("merge");
    const core::CampaignConfig cfg = smallCampaign();
    const core::ViolationRecord rec = sampleRecord();

    // Two "shards" share one record and each has a private one — the
    // distributed-campaign shape: same config, disjoint program ranges
    // would normally make records disjoint, but merge must also cope
    // with overlap (e.g. re-dispatched ranges).
    {
        corpus::CorpusStore a(scratch.sub("a"), cfg);
        corpus::CorpusStore b(scratch.sub("b"), cfg);
        a.append(rec);
        b.append(rec);
        core::ViolationRecord only_a = rec;
        only_a.programIndex = 1;
        a.append(only_a);
        core::ViolationRecord only_b = rec;
        only_b.programIndex = 2;
        b.append(only_b);
    }

    const std::size_t added = corpus::CorpusStore::mergeInto(
        scratch.sub("merged"), {scratch.sub("a"), scratch.sub("b")});
    EXPECT_EQ(added, 3u);
    EXPECT_EQ(corpus::CorpusStore::readJournal(scratch.sub("merged")).size(),
              3u);

    // Shards from a different campaign are rejected.
    core::CampaignConfig other_cfg = cfg;
    other_cfg.seed = 999;
    { corpus::CorpusStore c(scratch.sub("alien"), other_cfg); }
    EXPECT_THROW(corpus::CorpusStore::mergeInto(
                     scratch.sub("merged2"),
                     {scratch.sub("a"), scratch.sub("alien")}),
                 corpus::CorpusError);
}

// A hard kill can tear the journal's final line mid-flush. Readers must
// keep every complete record reachable, and reopening the store must
// repair the tail so subsequent appends are not poisoned. A bad line
// *before* the end is real corruption and must still fail loudly.
TEST(CorpusStore, ToleratesAndRepairsTornJournalTail)
{
    ScratchDir scratch("torn");
    const std::string dir = scratch.sub("corpus");
    const std::string journal =
        (fs::path(dir) / "journal.jsonl").string();
    const core::CampaignConfig cfg = smallCampaign();
    const core::ViolationRecord rec = sampleRecord();

    {
        corpus::CorpusStore store(dir, cfg);
        store.append(rec);
        core::ViolationRecord second = rec;
        second.programIndex = 1;
        store.append(second);
    }
    {
        // Simulate a kill mid-append: an unterminated partial line.
        std::ofstream out(journal, std::ios::binary | std::ios::app);
        out << "{\"version\":1,\"defense\":\"Bas";
    }

    EXPECT_EQ(corpus::CorpusStore::readJournal(dir).size(), 2u)
        << "complete records must stay reachable past a torn tail";

    {
        corpus::CorpusStore store(dir, cfg);
        EXPECT_EQ(store.size(), 2u);
        core::ViolationRecord third = rec;
        third.programIndex = 2;
        EXPECT_TRUE(store.append(third))
            << "reopening must repair the tail and keep appending";
    }
    EXPECT_EQ(corpus::CorpusStore::readJournal(dir).size(), 3u);

    {
        // A *terminated* bad line is corruption, not a torn write.
        std::ofstream out(journal, std::ios::binary | std::ios::app);
        out << "{\"version\":1,\"defense\":\"Bas\n";
        out << corpus::toJson(rec).dump() << "\n";
    }
    EXPECT_THROW(corpus::CorpusStore::readJournal(dir),
                 corpus::CorpusError);
}

/** Arm a chaos plan (src/runtime/fault.hh) for one test's scope. */
struct ScopedFaultPlan
{
    explicit ScopedFaultPlan(const std::string &spec)
    {
        runtime::fault::FaultPlan::install(spec);
    }
    ~ScopedFaultPlan() { runtime::fault::FaultPlan::uninstall(); }
};

// Crash consistency under an injected short write (ENOSPC mid-line):
// the failed append must throw, heal the journal back to its valid
// prefix *in place* (no reopen needed), and keep every prior record;
// a reopened store must agree byte-for-byte.
TEST(CorpusStore, InjectedShortWriteHealsInPlace)
{
    ScratchDir scratch("enospc");
    const std::string dir = scratch.sub("corpus");
    const core::CampaignConfig cfg = smallCampaign();
    const core::ViolationRecord rec = sampleRecord();

    {
        corpus::CorpusStore store(dir, cfg);
        store.append(rec);

        // The 1st append under the plan tears; the retry lands.
        ScopedFaultPlan plan("journal.once=1");
        core::ViolationRecord second = rec;
        second.programIndex = 1;
        EXPECT_THROW(store.append(second), corpus::CorpusError);
        EXPECT_EQ(store.size(), 1u)
            << "a torn record must not be counted as durable";
        EXPECT_TRUE(store.append(second))
            << "healing must allow the very next append to succeed";
        EXPECT_EQ(store.size(), 2u);
    }
    // The journal on disk is exactly the two good records.
    const auto records = corpus::CorpusStore::readJournal(dir);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].programIndex, rec.programIndex);
    EXPECT_EQ(records[1].programIndex, 1u);
    {
        corpus::CorpusStore store(dir, cfg);
        EXPECT_EQ(store.size(), 2u);
    }
}

// A checkpoint write failing (injected ENOSPC before the atomic
// rename) must leave the previous checkpoint fully intact — the torn
// tmp file is invisible to readers.
TEST(CorpusCheckpoint, InjectedWriteFailureLeavesPreviousIntact)
{
    ScratchDir scratch("ckptfail");
    const std::string dir = scratch.sub("corpus");
    fs::create_directories(dir);
    const core::CampaignConfig cfg = smallCampaign();

    corpus::CompletedOutcomes completed;
    core::ProgramOutcome out;
    out.ran = true;
    out.testCases = 24;
    completed[3] = out;
    corpus::writeCheckpoint(dir, cfg, completed);

    {
        ScopedFaultPlan plan("checkpoint.fail=1000");
        completed[4] = out;
        EXPECT_THROW(corpus::writeCheckpoint(dir, cfg, completed),
                     corpus::CorpusError);
    }
    const auto restored = corpus::loadCheckpoint(dir, cfg);
    ASSERT_EQ(restored.size(), 1u)
        << "the failed write must not have replaced the old checkpoint";
    EXPECT_EQ(restored.count(3), 1u);
    EXPECT_EQ(restored.at(3).testCases, 24u);
}

// The kill/resume contract under chaos: a campaign interrupted by a
// program budget *while* faults tear journal appends and fail
// checkpoint writes, then resumed with the plan off, must still export
// byte-identically to an uninterrupted clean run.
TEST(CorpusResume, ChaosInterruptedThenResumedMatchesClean)
{
    ScratchDir scratch("chaosresume");

    core::CampaignConfig full = smallCampaign();
    full.jobs = 1;
    full.corpusDir = scratch.sub("full");
    const auto ref = core::Campaign(full).run();
    ASSERT_GT(ref.confirmedViolations, 0u);

    core::CampaignConfig part = smallCampaign();
    part.jobs = 2;
    part.corpusDir = scratch.sub("part");
    part.checkpointEvery = 2;
    part.maxProgramsThisRun = 5;
    part.faultPlan = "seed=2;journal.once=1;checkpoint.fail=400;"
                     "shard.throw=120";
    const auto partial = core::Campaign(part).run();
    EXPECT_LT(partial.programs, full.numPrograms);

    core::CampaignConfig resumed = smallCampaign();
    resumed.jobs = 3;
    resumed.corpusDir = scratch.sub("part");
    resumed.resume = true;
    const auto stats = core::Campaign(resumed).run();
    EXPECT_EQ(stats.confirmedViolations, ref.confirmedViolations);
    EXPECT_EQ(stats.signatureCounts, ref.signatureCounts);
    EXPECT_EQ(stats.quarantinedPrograms, 0u);
    EXPECT_EQ(corpus::CorpusStore::exportCanonical(scratch.sub("full")),
              corpus::CorpusStore::exportCanonical(scratch.sub("part")));
}

// The acceptance property: for a fixed (config, seed), a campaign
// checkpointed, killed (program budget), and resumed at a different
// jobs value produces (a) identical deterministic stats and (b) a
// byte-identical canonical export, compared to an uninterrupted run.
TEST(CorpusResume, KilledAndResumedEqualsUninterrupted)
{
    ScratchDir scratch("resume");

    // Uninterrupted reference run.
    core::CampaignConfig full = smallCampaign();
    full.jobs = 1;
    full.corpusDir = scratch.sub("full");
    const auto ref = core::Campaign(full).run();
    ASSERT_GT(ref.confirmedViolations, 0u)
        << "the comparison is vacuous without detections";

    // Killed run: budget of 5 programs, checkpoint every 2, 2 workers.
    core::CampaignConfig part = smallCampaign();
    part.jobs = 2;
    part.corpusDir = scratch.sub("part");
    part.checkpointEvery = 2;
    part.maxProgramsThisRun = 5;
    const auto partial = core::Campaign(part).run();
    EXPECT_LT(partial.programs, full.numPrograms)
        << "the budget must actually interrupt the campaign";

    // Resume at a different parallelism, no budget.
    core::CampaignConfig resumed = smallCampaign();
    resumed.jobs = 3;
    resumed.corpusDir = scratch.sub("part");
    resumed.resume = true;
    const auto stats = core::Campaign(resumed).run();

    EXPECT_GT(stats.resumedPrograms, 0u);
    EXPECT_EQ(stats.programs, ref.programs);
    EXPECT_EQ(stats.testCases, ref.testCases);
    EXPECT_EQ(stats.effectiveClasses, ref.effectiveClasses);
    EXPECT_EQ(stats.candidateViolations, ref.candidateViolations);
    EXPECT_EQ(stats.validationRuns, ref.validationRuns);
    EXPECT_EQ(stats.violatingTestCases, ref.violatingTestCases);
    EXPECT_EQ(stats.confirmedViolations, ref.confirmedViolations);
    EXPECT_EQ(stats.signatureCounts, ref.signatureCounts);
    ASSERT_EQ(stats.records.size(), ref.records.size());
    for (std::size_t i = 0; i < ref.records.size(); ++i) {
        EXPECT_EQ(stats.records[i].programIndex,
                  ref.records[i].programIndex);
        EXPECT_EQ(stats.records[i].inputA.id, ref.records[i].inputA.id);
        EXPECT_EQ(stats.records[i].signature, ref.records[i].signature);
    }

    // Byte-identical canonical exports (wall-clock fields are zeroed
    // by the exporter; nothing else may differ).
    const std::string export_full =
        corpus::CorpusStore::exportCanonical(scratch.sub("full"));
    const std::string export_part =
        corpus::CorpusStore::exportCanonical(scratch.sub("part"));
    EXPECT_EQ(export_full, export_part);

    // Resuming a *finished* campaign runs nothing and loses nothing.
    core::CampaignConfig again = resumed;
    const auto noop = core::Campaign(again).run();
    EXPECT_EQ(noop.resumedPrograms, full.numPrograms);
    EXPECT_EQ(noop.confirmedViolations, ref.confirmedViolations);
    EXPECT_EQ(noop.signatureCounts, ref.signatureCounts);
    EXPECT_EQ(corpus::CorpusStore::exportCanonical(scratch.sub("part")),
              export_full);
}

// Every journaled record must replay exactly: recorded traces
// reproduced bit-for-bit and the divergence still present — for each
// defense target (the per-defense campaign recipes are the ones
// test_campaign.cc proves find violations).
TEST(CorpusReplay, ConfirmsEveryRecordForEachDefense)
{
    ScratchDir scratch("replay");
    for (defense::DefenseKind kind : defense::allDefenseKinds()) {
        const char *name = defense::defenseKindName(kind);
        core::CampaignConfig cfg = defenseCampaign(kind);
        if (kind == defense::DefenseKind::SpecLfb ||
            kind == defense::DefenseKind::InvisiSpec ||
            kind == defense::DefenseKind::Baseline) {
            cfg.numPrograms = 20; // these detect well before 20
        }
        cfg.corpusDir = scratch.sub(name);
        const auto stats = core::Campaign(cfg).run();
        ASSERT_GT(stats.records.size(), 0u)
            << name << ": campaign found nothing to replay";

        const core::CampaignConfig stored =
            corpus::CorpusStore::readConfig(cfg.corpusDir);
        const auto records =
            corpus::CorpusStore::readJournal(cfg.corpusDir);
        ASSERT_GT(records.size(), 0u) << name;
        executor::SimHarness harness(stored.harness);
        for (const auto &rec : records) {
            const auto outcome = corpus::replayViolation(harness, rec);
            EXPECT_TRUE(outcome.confirmed())
                << name << " " << rec.summary() << ": "
                << outcome.detail;
        }
    }
}

// A recorded context whose tables do not fit the configured core (here
// an empty BTB, which the simulator would read past its end) is a
// corpus error, so `campaign_cli replay` exits 1 with a message.
TEST(CorpusReplay, ContextThatDoesNotFitTheCoreIsACorpusError)
{
    executor::HarnessConfig hcfg;
    hcfg.bootInsts = 1000;
    executor::SimHarness harness(hcfg);
    core::ViolationRecord rec = sampleRecord();
    rec.ctxA = rec.ctxB = harness.saveContext();
    rec.ctxB.bp.btbTags.clear();
    EXPECT_THROW(corpus::replayViolation(harness, rec), corpus::CorpusError);
}

/** The text of @p dir's checkpoint.json. */
std::string
checkpointText(const std::string &dir)
{
    std::ifstream in(dir + "/checkpoint.json", std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

// checkpoint.json bytes for fixed outcomes, pinned from the build that
// re-encoded every outcome at each checkpoint. The outcome map and a
// sink's kept entries (reported out of program order) write them alike.
TEST(CorpusCheckpoint, BytesMatchPinned)
{
    const core::CampaignConfig cfg = smallCampaign();
    corpus::CompletedOutcomes completed;
    completed[11] = sampleOutcome();
    runtime::ProgramOutcome small;
    small.ran = true;
    small.testCases = 30;
    small.testGenSec = 0.1;
    completed[3] = small;
    completed[0] = runtime::ProgramOutcome{};
    const std::string pinned =
        R"({"version":3,"fingerprint":"eb5df404a4fec5f6","outcomes":[{"prog)"
        R"(ramIndex":0,"outcome":{"ran":false,"skippedProgram":false,"quara)"
        R"(ntined":false,"quarantineReason":"","testCases":0,"filteredTestC)"
        R"(ases":0,"effectiveClasses":0,"candidateViolations":0,"validation)"
        R"(Runs":0,"violatingTestCases":0,"confirmedViolations":0,"firstDet)"
        R"(ectSeconds":-1,"testGenSec":0,"ctraceSec":0,"filterSec":0,"signa)"
        R"(tureCounts":{},"formatTallies":[]}},{"programIndex":3,"outcome":)"
        R"({"ran":true,"skippedProgram":false,"quarantined":false,"quaranti)"
        R"(neReason":"","testCases":30,"filteredTestCases":0,"effectiveClas)"
        R"(ses":0,"candidateViolations":0,"validationRuns":0,"violatingTest)"
        R"(Cases":0,"confirmedViolations":0,"firstDetectSeconds":-1,"testGe)"
        R"(nSec":0.1,"ctraceSec":0,"filterSec":0,"signatureCounts":{},"form)"
        R"(atTallies":[]}},{"programIndex":11,"outcome":{"ran":true,"skippe)"
        R"(dProgram":true,"quarantined":true,"quarantineReason":"poisoned \")"
        R"(worker\"\n","testCases":120,"filteredTestCases":17,"effectiveCl)"
        R"(asses":9,"candidateViolations":5,"validationRuns":44,"violatingT)"
        R"(estCases":3,"confirmedViolations":2,"firstDetectSeconds":1.5,"te)"
        R"(stGenSec":0.125,"ctraceSec":0.0625,"filterSec":3e-05,"signatureC)"
        R"(ounts":{"spectre-v1-branch":2,"uv1-spec-eviction":1},"formatTall)"
        R"(ies":[{"format":"l1dtlb","violatingTestCases":3,"coveredByBaseli)"
        R"(ne":3},{"format":"bpstate","violatingTestCases":1,"coveredByBase)"
        R"(line":0}]}}]})"
        "\n";

    ScratchDir scratch("ckptpin");
    const std::string dir = scratch.sub("c");
    fs::create_directories(dir);
    corpus::writeCheckpoint(dir, cfg, completed);
    EXPECT_EQ(checkpointText(dir), pinned);

    runtime::ViolationSink sink(cfg.numPrograms, cfg.maxViolationsRecorded);
    sink.setEntryEncoder(corpus::checkpointEntry);
    EXPECT_EQ(sink.checkpointEntries(), "");
    corpus::writeCheckpointEntries(dir, cfg, sink.checkpointEntries());
    EXPECT_EQ(checkpointText(dir),
              R"({"version":3,"fingerprint":"eb5df404a4fec5f6","outcomes")"
              R"(:[]})"
              "\n");
    for (unsigned p : {11u, 0u, 3u})
        sink.report(p, completed.at(p));
    corpus::writeCheckpointEntries(dir, cfg, sink.checkpointEntries());
    EXPECT_EQ(checkpointText(dir), pinned);
}

// A campaign's checkpoints join entries encoded when each program was
// reported or restored; they must read as a re-encoding of what they
// hold, before and after a resume.
TEST(CorpusCheckpoint, CampaignEntriesEqualReencodedOutcomes)
{
    ScratchDir scratch("ckptjoin");
    core::CampaignConfig cfg = smallCampaign();
    cfg.jobs = 1;
    cfg.corpusDir = scratch.sub("c");
    cfg.checkpointEvery = 2;
    cfg.maxProgramsThisRun = 5;
    const std::string other = scratch.sub("reencoded");
    fs::create_directories(other);
    auto expectReencodes = [&](const char *when) {
        const auto loaded = corpus::loadCheckpoint(cfg.corpusDir, cfg);
        corpus::writeCheckpoint(other, cfg, loaded);
        EXPECT_EQ(checkpointText(cfg.corpusDir), checkpointText(other))
            << when;
        return loaded.size();
    };
    core::Campaign(cfg).run();
    EXPECT_EQ(expectReencodes("interrupted"), 5u);
    cfg.resume = true;
    cfg.maxProgramsThisRun = 0;
    core::Campaign(cfg).run();
    EXPECT_EQ(expectReencodes("resumed"), cfg.numPrograms);
}

// Checkpoints are versioned and fingerprinted: resuming with a
// different campaign definition must fail loudly, not corrupt results.
TEST(CorpusCheckpoint, RefusesForeignCampaigns)
{
    ScratchDir scratch("ckpt");
    const std::string dir = scratch.sub("c");
    core::CampaignConfig cfg = smallCampaign();
    fs::create_directories(dir);

    corpus::CompletedOutcomes completed;
    runtime::ProgramOutcome out;
    out.ran = true;
    out.testCases = 30;
    out.confirmedViolations = 1;
    out.signatureCounts["spectre-v1-branch"] = 1;
    out.records.push_back(sampleRecord());
    completed[3] = out;
    corpus::writeCheckpoint(dir, cfg, completed);

    const auto loaded = corpus::loadCheckpoint(dir, cfg);
    ASSERT_EQ(loaded.size(), 1u);
    const auto &restored = loaded.at(3);
    EXPECT_TRUE(restored.ran);
    EXPECT_EQ(restored.testCases, 30u);
    EXPECT_EQ(restored.confirmedViolations, 1u);
    EXPECT_EQ(restored.signatureCounts.at("spectre-v1-branch"), 1u);
    // Records live in the journal only; the scheduler rehydrates them
    // on resume (exercised by CorpusResume above).
    EXPECT_TRUE(restored.records.empty());

    core::CampaignConfig other = cfg;
    other.seed = 999;
    EXPECT_THROW(corpus::loadCheckpoint(dir, other), corpus::CorpusError);

    // Missing checkpoint: clean empty resume.
    EXPECT_TRUE(corpus::loadCheckpoint(scratch.sub("nope"), cfg).empty());
}

// Every reader of a versioned document refuses another format version
// and names what it read: records, configs, meta.json, quarantine lines
// and checkpoints.
TEST(CorpusStore, EveryReaderRefusesAnotherFormatVersion)
{
    auto expectRefused = [](const std::function<void()> &read,
                            const std::string &what) {
        try {
            read();
            ADD_FAILURE() << what << " accepted version 2";
        } catch (const corpus::CorpusError &e) {
            EXPECT_NE(std::string(e.what()).find(what + " version 2 "),
                      std::string::npos)
                << e.what();
        }
    };
    const corpus::Json v2 = corpus::Json::number(std::uint64_t{2});
    corpus::Json record = corpus::toJson(sampleRecord());
    record.set("version", v2);
    expectRefused([&] { corpus::recordFromJson(record); }, "corpus record");
    const core::CampaignConfig cfg = smallCampaign();
    corpus::Json config = corpus::configToJson(cfg);
    config.set("version", v2);
    expectRefused([&] { corpus::configFromJson(config); }, "corpus config");

    ScratchDir scratch("version");
    const std::string dir = scratch.sub("c");
    {
        corpus::CorpusStore store(dir, cfg);
        store.appendQuarantine(1, "hung");
    }
    corpus::writeCheckpoint(dir, cfg, corpus::CompletedOutcomes{});
    for (const char *file :
         {"meta.json", "journal.jsonl", "checkpoint.json"}) {
        const std::string path = dir + "/" + file;
        std::string text;
        {
            std::ifstream in(path, std::ios::binary);
            text.assign(std::istreambuf_iterator<char>(in), {});
        }
        const std::size_t at = text.find("\"version\":3");
        ASSERT_NE(at, std::string::npos) << file;
        text[at + 10] = '2';
        std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
    }
    expectRefused([&] { corpus::CorpusStore::readConfig(dir); },
                  "corpus meta.json");
    expectRefused([&] { corpus::CorpusStore::readQuarantined(dir); },
                  "quarantine line");
    expectRefused([&] { corpus::loadCheckpoint(dir, cfg); }, "checkpoint");
}

} // namespace
