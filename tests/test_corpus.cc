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
#include <string>

#include "corpus/checkpoint.hh"
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

    // Runtime knobs must not affect identity: a resumed run may use a
    // different jobs value or corpus cadence against the same corpus.
    core::CampaignConfig variant = cfg;
    variant.jobs = 16;
    variant.corpusDir = "/elsewhere";
    variant.resume = true;
    variant.checkpointEvery = 1;
    variant.maxProgramsThisRun = 3;
    EXPECT_EQ(corpus::configFingerprint(variant),
              corpus::configFingerprint(cfg));

    // The campaign definition does.
    variant = cfg;
    variant.seed = cfg.seed + 1;
    EXPECT_NE(corpus::configFingerprint(variant),
              corpus::configFingerprint(cfg));
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
