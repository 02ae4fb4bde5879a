/**
 * @file
 * Seeded mutation test of the parsers of foreign bytes that are not
 * field tables (src/corpus/fields.hh, whose hostile-entry walk is in
 * test_corpus): Json::parse, recordFromJson, the CorpusStore journal
 * readers, the wire's context deltas (and its v8 batch request, whose
 * sandbox descriptors are a table), the assembler and the FaultPlan
 * grammar.
 *
 * Valid documents are mutated by bit flips, truncation and splices of two
 * documents, under a fixed seed and a fixed budget. Every mutant must
 * either parse or throw the parser's documented error: CorpusError,
 * AsmError, or std::runtime_error for FaultPlan. Anything else (another
 * exception, a crash, undefined behaviour) fails; the ASan+UBSan CI job
 * runs this suite like every ctest entry.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "core/generator.hh"
#include "core/input_gen.hh"
#include "corpus/fields.hh"
#include "executor/sim_protocol.hh"
#include "isa/assembler.hh"
#include "isa/disasm.hh"
#include "runtime/fault.hh"
#include "support/campaign_fixture.hh"

namespace
{

using namespace amulet;
using corpus::Json;

constexpr std::uint64_t kSeed = 0x6d75746174650001ULL;
constexpr unsigned kBudget = 1000;

/** @p docs[i] mutated one way, picked by @p rng. */
std::string
mutate(const std::vector<std::string> &docs, Rng &rng)
{
    std::string out = docs[rng.pickIndex(docs.size())];
    switch (rng.nextBelow(3)) {
      case 0: // flip one to four bits
        for (std::uint64_t k = rng.nextRange(1, 4); k > 0 && !out.empty();
             --k)
            out[rng.pickIndex(out.size())] ^=
                static_cast<char>(1u << rng.nextBelow(8));
        break;
      case 1: // truncate
        out.resize(rng.nextBelow(out.size() + 1));
        break;
      default: { // splice: a prefix of this one, a suffix of another
        const std::string &other = docs[rng.pickIndex(docs.size())];
        out = out.substr(0, rng.nextBelow(out.size() + 1)) +
              other.substr(rng.nextBelow(other.size() + 1));
      }
    }
    return out;
}

/** Feed @p budget mutants of @p docs to @p parse: each must return or
 *  throw Error. Both outcomes must occur, or the budget tested nothing. */
template <class Error, class Parse>
void
expectMutantsParseOrThrow(const std::vector<std::string> &docs, Parse parse,
                          unsigned budget = kBudget)
{
    for (const std::string &doc : docs)
        ASSERT_NO_THROW(parse(doc)) << doc;
    Rng rng(kSeed);
    unsigned parsed = 0;
    unsigned refused = 0;
    for (unsigned i = 0; i < budget; ++i) {
        const std::string mutant = mutate(docs, rng);
        try {
            parse(mutant);
            ++parsed;
        } catch (const Error &) {
            ++refused;
        } catch (const std::exception &e) {
            ADD_FAILURE() << "mutant " << i << " threw an undocumented "
                          << "error: " << e.what() << "\n"
                          << mutant.substr(0, 400);
        }
    }
    EXPECT_GT(parsed, 0u);
    EXPECT_GT(refused, 0u);
}

/** Generator listings: what the corpus and the wire carry as programs. */
std::vector<std::string>
listings()
{
    std::vector<std::string> out;
    Rng rng(11);
    for (int i = 0; i < 4; ++i) {
        core::ProgramGenerator gen(core::GeneratorConfig{}, rng.split());
        out.push_back(isa::formatProgram(gen.generate()));
    }
    return out;
}

/** Records whose fields are all populated. One input has a one-page
 *  sandbox; the others are empty, so most mutations land on structure
 *  rather than on hex. */
std::vector<core::ViolationRecord>
records()
{
    std::vector<core::ViolationRecord> out;
    const std::vector<std::string> programs = listings();
    for (std::size_t i = 0; i < programs.size(); ++i) {
        core::ViolationRecord rec;
        rec.defenseName = "CleanupSpec";
        rec.contractName = "CT-SEQ";
        rec.programIndex = static_cast<unsigned>(i);
        rec.programText = programs[i];
        rec.inputA.id = 10 * i;
        rec.inputA.regs.fill(0x1234 + i);
        rec.inputA.flagsByte = 0x45;
        if (i == 0)
            rec.inputA.sandbox.assign(4096, 0x5a);
        rec.inputB = rec.inputA;
        rec.inputB.id = 10 * i + 1;
        rec.inputB.regs[3] = 7;
        rec.traceA.words = {0xd1d1000000000001ULL, 64 * i};
        rec.traceB.format = executor::TraceFormat::BpState;
        rec.traceB.words = {3, 1, 4, 1, 5};
        rec.ctxA.bp.ghr = 0xa5;
        rec.ctxA.bp.pht = {1, 2, 3, 0};
        rec.ctxA.bp.btbTags = {0x400000, 0};
        rec.ctxA.bp.btbTargets = {3, 0};
        rec.ctxA.mdp = {0, 2};
        rec.ctxB = rec.ctxA;
        rec.ctxB.bp.ghr = 0x5a;
        rec.ctraceHash = 0xfeedULL + i;
        rec.signature = "uv3-store-not-cleaned";
        rec.rngState = {1, 2, 3, 4 + i};
        rec.detectSeconds = 0.5;
        out.push_back(rec);
    }
    return out;
}

std::vector<std::string>
recordDumps()
{
    std::vector<std::string> out;
    for (const core::ViolationRecord &rec : records())
        out.push_back(corpus::toJson(rec).dump());
    return out;
}

/** Batch reply bodies: a full context and a delta. */
std::vector<std::string>
batchBodies()
{
    std::vector<std::string> out;
    for (const core::ViolationRecord &rec : records()) {
        executor::SimHarness::BatchOutput batch;
        batch.runs = {{rec.traceA, uarch::RunResult{true, 9, 3, 1, false}},
                      {rec.traceB, uarch::RunResult{}}};
        executor::UarchContext trained = rec.ctxB;
        trained.bp.pht[1] = 0;
        trained.bp.btbTargets[1] = 5;
        trained.mdp[0] = 3;
        batch.startContexts = {rec.ctxA, trained};
        batch.extras.resize(2);
        batch.extras[1] = {rec.traceB};
        out.push_back(executor::protocol::batchOutputToJson(batch).dump());
    }
    return out;
}

/** Protocol v8 batch requests, which the worker parses: generator
 *  inputs of one and of 128 pages as descriptors (a base, and siblings
 *  with patch lists), beside a hand-built input whose sandbox travels
 *  as hex (empty, so most mutations land on the descriptors). */
std::vector<std::string>
batchRequests()
{
    std::vector<std::string> out;
    const std::vector<executor::TraceFormat> extras = {
        executor::TraceFormat::BpState};
    for (unsigned pages : {1u, 128u}) {
        core::InputGenConfig cfg;
        cfg.map.sandboxPages = pages;
        core::InputGenerator gen(cfg, Rng(pages));
        const arch::Input base = gen.generate(0);
        const arch::Input a = gen.sibling(base, {2, 3, 40, 4095}, 1);
        const arch::Input b = gen.sibling(base, {7}, 2);
        arch::Input hand;
        hand.id = 3;
        hand.regs[2] = 9;
        out.push_back(executor::protocol::batchRequest(
                          {&base, &a, &b, &hand}, &extras)
                          .dump());
    }
    return out;
}

TEST(ParserMutation, JsonParseRefusesWithCorpusError)
{
    std::vector<std::string> docs = recordDumps();
    docs.push_back(corpus::configToJson(core::CampaignConfig{}).dump());
    docs.push_back(batchBodies()[0]);
    docs.push_back(R"({"s":"a\"\\\né\u0001","n":[-1.5e3,0,1e-300]})");
    expectMutantsParseOrThrow<corpus::CorpusError>(
        docs, [](const std::string &text) { Json::parse(text); });
}

// The wire's positional format, which is not a field table (the context
// deltas of a batch reply), and the v8 batch request the worker parses,
// generator inputs as sandbox descriptors.
TEST(ParserMutation, WireDecodersRefuseWithCorpusError)
{
    expectMutantsParseOrThrow<corpus::CorpusError>(
        batchBodies(), [](const std::string &text) {
            executor::protocol::batchOutputFromJson(Json::parse(text));
        });
    expectMutantsParseOrThrow<corpus::CorpusError>(
        batchRequests(), [](const std::string &text) {
            const Json req = Json::parse(text);
            // Materialized as the worker's memory would: a descriptor
            // that decodes must also fill its pages in bounds.
            for (const Json &input : req.at("inputs").items())
                executor::protocol::inputFromWire(input).sandbox.toBytes();
            if (const Json *extras = req.find("extras"))
                corpus::decode<std::vector<executor::TraceFormat>>(*extras);
        });
}

TEST(ParserMutation, RecordFromJsonRefusesWithCorpusError)
{
    expectMutantsParseOrThrow<corpus::CorpusError>(
        recordDumps(), [](const std::string &text) {
            corpus::recordFromJson(Json::parse(text));
        });
}

TEST(ParserMutation, JournalReadersRefuseWithCorpusError)
{
    fixture::ScratchDir scratch("mutation_journal");
    const std::string dir = scratch.sub("corpus");
    {
        corpus::CorpusStore store(dir, core::CampaignConfig{});
        for (const core::ViolationRecord &rec : records())
            store.append(rec);
        store.appendQuarantine(3, "worker \"died\"\n");
    }
    const std::string path = dir + "/journal.jsonl";
    std::string journal;
    {
        std::ifstream in(path, std::ios::binary);
        journal.assign(std::istreambuf_iterator<char>(in), {});
    }
    // Splices across the journal's lines and whole records.
    std::vector<std::string> docs = recordDumps();
    for (std::string &doc : docs)
        doc = journal + doc + "\n";
    docs.push_back(journal);
    expectMutantsParseOrThrow<corpus::CorpusError>(
        docs,
        [&](const std::string &text) {
            std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
            corpus::CorpusStore::readJournal(dir);
            corpus::CorpusStore::readQuarantined(dir);
        },
        kBudget / 5);
}

TEST(ParserMutation, AssemblerRefusesWithAsmError)
{
    std::vector<std::string> docs = listings();
    docs.push_back(".bb_main.0:\n"
                   "    MOV RAX, -9223372036854775808\n"
                   "    LEA RBX, qword ptr [R14 + RAX - 0x80000000]\n"
                   "    LOOPNE .bb_main.1\n"
                   "    JMP .exit\n"
                   ".bb_main.1:\n"
                   "    CMOVNBE SI, word ptr [R14 + RAX]\n");
    expectMutantsParseOrThrow<isa::AsmError>(
        docs, [](const std::string &text) { isa::assemble(text); });
}

TEST(ParserMutation, FaultPlanRefusesWithRuntimeError)
{
    const std::vector<std::string> docs = {
        "seed=7;poison=1:3:5,journal.once=2",
        "wire.crash=10;wire.garble=5;seed=18446744073709551615",
        "journal.shortwrite=1000,poison=4294967295",
    };
    expectMutantsParseOrThrow<std::runtime_error>(
        docs, [](const std::string &text) {
            runtime::fault::FaultPlan::parse(text);
        });
}

} // namespace
