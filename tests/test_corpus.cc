/**
 * @file
 * Corpus-subsystem tests: serde round-trips, the kill/resume
 * determinism contract (resumed campaign ≡ uninterrupted campaign,
 * byte-identical canonical exports), journal merge dedup, and
 * replayer-confirms-violation for every defense target.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

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

core::CampaignConfig
smallCampaign(std::uint64_t seed = 1)
{
    core::CampaignConfig cfg;
    cfg.harness.defense.kind = defense::DefenseKind::Baseline;
    cfg.harness.prime = executor::PrimeMode::ConflictFill;
    cfg.harness.bootInsts = 2000;
    cfg.gen.map = cfg.harness.map;
    cfg.inputs.map = cfg.harness.map;
    cfg.numPrograms = 12;
    cfg.baseInputsPerProgram = 6;
    cfg.siblingsPerBase = 4;
    cfg.seed = seed; // seed 1 detects spectre-v1 within 12 programs
    return cfg;
}

/** The defense-campaign recipe of tests/test_campaign.cc. */
core::CampaignConfig
defenseCampaign(defense::DefenseKind kind)
{
    core::CampaignConfig cfg;
    cfg.harness.defense.kind = kind;
    cfg.harness.prime = (kind == defense::DefenseKind::CleanupSpec ||
                         kind == defense::DefenseKind::SpecLfb)
                            ? executor::PrimeMode::Invalidate
                            : executor::PrimeMode::ConflictFill;
    cfg.harness.bootInsts = 2000;
    cfg.seed = 33;
    if (kind == defense::DefenseKind::Stt) {
        cfg.harness.map.sandboxPages = 128;
        cfg.contract = contracts::archSeq();
        cfg.seed = 8;
    }
    cfg.gen.map = cfg.harness.map;
    cfg.inputs.map = cfg.harness.map;
    cfg.numPrograms = 40;
    cfg.baseInputsPerProgram = 6;
    cfg.siblingsPerBase = 4;
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
            Json big = Json::number(std::uint64_t{1} << 32);
            if constexpr (std::is_same_v<T, std::uint64_t>)
                big = Json::parse("18446744073709551616");
            if constexpr (std::is_same_v<T, std::vector<std::uint32_t>>) {
                Json arr = Json::array();
                arr.push(Json::number(std::uint64_t{2}));
                arr.push(big);
                big = arr;
            }
            if constexpr (std::is_same_v<T, unsigned> ||
                          std::is_same_v<T, std::uint64_t> ||
                          std::is_same_v<T, std::vector<std::uint32_t>>) {
                EXPECT_THROW(decodeWith(&big), corpus::CorpusError)
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
    const std::string dump = corpus::toJson(input).dump();
    EXPECT_TRUE(corpus::inputFromJson(corpus::Json::parse(dump)) == input);
}

TEST(CorpusSerde, MalformedHexAndStringsThrow)
{
    arch::Input input;
    input.sandbox.assign(4096, 0xab);
    const corpus::Json good = corpus::toJson(input);
    // Bytes >= 0x80 are bad digits too (the digit table is indexed as
    // unsigned char), as is an embedded NUL. Each ends a page-long
    // string, so the digit check — not the length check — rejects it.
    for (const std::string &bad : std::vector<std::string>{
             "0g", "zz", "0\x80", "\xff" "0", std::string("a\0", 2)}) {
        corpus::Json j = good;
        j.set("sandbox",
              corpus::Json::str(std::string(2 * 4096 - 2, '0') + bad));
        EXPECT_THROW(corpus::inputFromJson(j), corpus::CorpusError) << bad;
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
    const corpus::Json good = corpus::toJson(input);
    EXPECT_TRUE(corpus::inputFromJson(good) == input);
    for (std::size_t bytes : {std::size_t{1}, std::size_t{4095},
                              std::size_t{4097}, std::size_t{129 * 4096}}) {
        corpus::Json j = good;
        j.set("sandbox", corpus::Json::str(std::string(2 * bytes, '0')));
        EXPECT_THROW(corpus::inputFromJson(j), corpus::CorpusError)
            << bytes;
    }
    corpus::Json odd = good;
    odd.set("sandbox", corpus::Json::str(std::string(2 * 4096 + 1, '0')));
    EXPECT_THROW(corpus::inputFromJson(odd), corpus::CorpusError);

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

TEST(CorpusSerde, RngStreamStateResumesSequence)
{
    Rng rng(42);
    rng.next();
    const Rng::State state = rng.state();
    const std::string dump = corpus::toJson(state).dump();
    Rng restored = Rng::fromState(
        corpus::rngStateFromJson(corpus::Json::parse(dump)));
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
    stt.gen.map = stt.harness.map;
    stt.inputs.map = stt.harness.map;
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
}

// Every decoder of foreign bytes (meta.json, checkpoints, the journal,
// the subprocess wire) walks the tables: for every entry a missing key,
// a wrong JSON kind or an out-of-range number must raise CorpusError.
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

} // namespace
