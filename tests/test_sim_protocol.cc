/**
 * @file
 * Wire codec tests for the subprocess protocol's batch replies
 * (executor/sim_protocol.hh): seeded round trips of delta-coded
 * predictor contexts, and hostile deltas and traced-run tuples that must
 * fail as CorpusError — never std::out_of_range, a crash, or undefined
 * behaviour (this suite also runs under ASan+UBSan in CI).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "corpus/fields.hh"
#include "executor/sim_protocol.hh"
#include "telemetry/uarch_trace.hh"
#include "uarch/params.hh"

namespace
{

using namespace amulet;
using corpus::Json;
using executor::SimHarness;
using executor::UarchContext;

/** A context of the default core's predictor geometry, every entry
 *  drawn from @p rng. */
UarchContext
randomContext(Rng &rng)
{
    const uarch::CoreParams core;
    UarchContext ctx;
    ctx.bp.ghr = static_cast<std::uint32_t>(rng.next());
    ctx.bp.pht.resize(std::size_t{1} << core.phtBits);
    for (std::uint8_t &b : ctx.bp.pht)
        b = static_cast<std::uint8_t>(rng.next() & 3);
    ctx.bp.btbTags.resize(core.btbEntries);
    ctx.bp.btbTargets.resize(core.btbEntries);
    for (std::size_t i = 0; i < core.btbEntries; ++i) {
        ctx.bp.btbTags[i] = rng.next();
        ctx.bp.btbTargets[i] = rng.next();
    }
    ctx.mdp.resize(core.mdpEntries);
    for (std::uint8_t &b : ctx.mdp)
        b = static_cast<std::uint8_t>(rng.next());
    return ctx;
}

/** @p ctx after one run's worth of training: a few predictor entries. */
UarchContext
mutated(UarchContext ctx, Rng &rng)
{
    ctx.bp.ghr = (ctx.bp.ghr << 1) | (rng.next() & 1);
    for (int k = static_cast<int>(rng.next() % 4); k > 0; --k)
        ctx.bp.pht[rng.next() % ctx.bp.pht.size()] ^= 1;
    for (int k = static_cast<int>(rng.next() % 3); k > 0; --k)
        ctx.mdp[rng.next() % ctx.mdp.size()] += 1;
    if (rng.next() % 2) {
        const std::size_t slot = rng.next() % ctx.bp.btbTags.size();
        ctx.bp.btbTags[slot] = rng.next();
        ctx.bp.btbTargets[slot] = rng.next();
    }
    return ctx;
}

SimHarness::RunOutput
randomRun(Rng &rng)
{
    SimHarness::RunOutput run;
    run.trace.format = executor::TraceFormat::L1dTlb;
    for (int i = static_cast<int>(rng.next() % 8); i > 0; --i)
        run.trace.words.push_back(rng.next());
    run.run.halted = rng.next() % 2;
    run.run.cycles = rng.next() % 100000;
    run.run.committedInsts = rng.next() % 1000;
    run.run.squashes = rng.next() % 10;
    return run;
}

/** A batch whose consecutive contexts come from @p next. */
SimHarness::BatchOutput
makeBatch(Rng &rng, std::size_t runs,
          const std::function<UarchContext(const UarchContext &)> &next)
{
    SimHarness::BatchOutput out;
    UarchContext ctx = randomContext(rng);
    for (std::size_t i = 0; i < runs; ++i) {
        if (i)
            ctx = next(ctx);
        out.startContexts.push_back(ctx);
        out.runs.push_back(randomRun(rng));
        std::vector<executor::UTrace> extra(1);
        extra[0].format = executor::TraceFormat::BpState;
        extra[0].words = {rng.next(), rng.next()};
        out.extras.push_back(std::move(extra));
    }
    return out;
}

void
expectSameContext(const UarchContext &a, const UarchContext &b)
{
    EXPECT_EQ(a.bp, b.bp);
    EXPECT_EQ(a.mdp, b.mdp);
}

/** Encode, dump, reparse and decode; check the batch and endCtx come
 *  back exactly and that the re-encoding is byte-identical. */
void
expectRoundTrip(const SimHarness::BatchOutput &out,
                const UarchContext &endCtx)
{
    const std::string text =
        executor::protocol::batchOutputToJson(out, &endCtx).dump();
    UarchContext endBack;
    const SimHarness::BatchOutput back =
        executor::protocol::batchOutputFromJson(Json::parse(text),
                                                &endBack);
    ASSERT_EQ(back.runs.size(), out.runs.size());
    for (std::size_t i = 0; i < out.runs.size(); ++i) {
        EXPECT_TRUE(back.runs[i].trace == out.runs[i].trace);
        EXPECT_EQ(back.runs[i].run, out.runs[i].run);
    }
    ASSERT_EQ(back.startContexts.size(), out.startContexts.size());
    for (std::size_t i = 0; i < out.startContexts.size(); ++i)
        expectSameContext(back.startContexts[i], out.startContexts[i]);
    EXPECT_EQ(back.extras, out.extras);
    EXPECT_EQ(back.hitCycleCap, out.hitCycleCap);
    expectSameContext(endBack, endCtx);
    EXPECT_EQ(executor::protocol::batchOutputToJson(back, &endBack).dump(),
              text);
}

TEST(SimProtocol, BatchRoundTripsAcrossSizesAndSeeds)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        for (std::size_t runs : {0u, 1u, 6u}) {
            Rng rng(seed * 131 + runs);
            const auto train = [&rng](const UarchContext &c) {
                return mutated(c, rng);
            };
            SimHarness::BatchOutput out = makeBatch(rng, runs, train);
            out.hitCycleCap = seed % 2;
            const UarchContext endCtx =
                runs ? mutated(out.startContexts.back(), rng)
                     : randomContext(rng);
            expectRoundTrip(out, endCtx);
            // The bench's body-only encoding still decodes.
            const auto back = executor::protocol::batchOutputFromJson(
                executor::protocol::batchOutputToJson(out));
            EXPECT_EQ(back.startContexts.size(), runs);
        }
    }
}

TEST(SimProtocol, DeltaCoversEveryKindOfNeighbour)
{
    Rng rng(7);
    SimHarness::BatchOutput out;
    UarchContext ctx = randomContext(rng);
    out.startContexts.push_back(ctx);
    out.startContexts.push_back(ctx); // identical neighbour
    ctx.bp.pht[0] ^= 3;
    out.startContexts.push_back(ctx); // single PHT byte, first index
    ctx.mdp.back() ^= 0xff;
    out.startContexts.push_back(ctx); // single MDP byte, last index
    ctx.bp.btbTargets[ctx.bp.btbTargets.size() - 1] += 4;
    out.startContexts.push_back(ctx); // single BTB slot, target only
    out.startContexts.push_back(randomContext(rng)); // fully different
    for (std::size_t i = 0; i < out.startContexts.size(); ++i) {
        out.runs.push_back(randomRun(rng));
        out.extras.emplace_back();
    }
    UarchContext endCtx = out.startContexts.back();
    endCtx.bp.ghr ^= 0x80000000u; // ghr-only change
    expectRoundTrip(out, endCtx);

    // Only contexts[0] travels in full: a one-entry change costs bytes,
    // not kilobytes.
    const Json body = executor::protocol::batchOutputToJson(out, &endCtx);
    const auto &contexts = body.at("contexts").items();
    EXPECT_GT(contexts[0].dump().size(), 8000u);
    for (std::size_t i = 1; i <= 4; ++i)
        EXPECT_LT(contexts[i].dump().size(), 96u) << "context " << i;
    EXPECT_LT(body.at("endCtx").dump().size(), 64u);
}

/** A valid two-run body whose contexts[1] is replaced by @p delta. */
Json
bodyWithDelta(const Json &delta)
{
    Rng rng(3);
    const SimHarness::BatchOutput out = makeBatch(
        rng, 2, [&rng](const UarchContext &c) { return mutated(c, rng); });
    Json body = executor::protocol::batchOutputToJson(out);
    Json contexts = Json::array();
    contexts.push(body.at("contexts").items()[0]);
    contexts.push(delta);
    body.set("contexts", std::move(contexts));
    return body;
}

Json
numbers(const std::vector<std::uint64_t> &values)
{
    Json arr = Json::array();
    for (std::uint64_t v : values)
        arr.push(Json::number(v));
    return arr;
}

Json
delta(Json pht, Json btb, Json mdp)
{
    Json j = Json::object();
    j.set("ghr", Json::number(std::uint64_t{5}));
    j.set("pht", std::move(pht));
    j.set("btb", std::move(btb));
    j.set("mdp", std::move(mdp));
    return j;
}

TEST(SimProtocol, HostileDeltasThrowCorpusError)
{
    const uarch::CoreParams core;
    const std::uint64_t phtSize = std::uint64_t{1} << core.phtBits;
    const Json none = Json::array();
    Json stringEntry = Json::array();
    stringEntry.push(Json::str("0"));
    stringEntry.push(Json::number(std::uint64_t{1}));
    Json negative = Json::array();
    negative.push(Json::number(-1.0));
    negative.push(Json::number(std::uint64_t{1}));

    const std::vector<std::pair<const char *, Json>> hostile = {
        {"pht index == size", delta(numbers({phtSize, 1}), none, none)},
        {"pht index u64 max",
         delta(numbers({~std::uint64_t{0}, 1}), none, none)},
        {"pht value > 0xff", delta(numbers({0, 256}), none, none)},
        {"pht truncated run", delta(numbers({0, 1, 2}), none, none)},
        {"pht non-number index", delta(stringEntry, none, none)},
        {"pht negative index", delta(negative, none, none)},
        {"pht not an array", delta(Json::str("00ff"), none, none)},
        {"mdp index == size",
         delta(none, none, numbers({core.mdpEntries, 1}))},
        {"mdp truncated run", delta(none, none, numbers({7}))},
        {"btb slot == size",
         delta(none, numbers({core.btbEntries, 1, 2}), none)},
        {"btb truncated triple", delta(none, numbers({0, 1}), none)},
        {"btb non-number tag", [&] {
             Json btb = numbers({0});
             btb.push(Json::str("tag"));
             btb.push(Json::number(std::uint64_t{2}));
             return delta(none, std::move(btb), none);
         }()},
    };
    for (const auto &[what, d] : hostile) {
        // Through a real parse, as the bytes would arrive off the pipe.
        const Json body = Json::parse(bodyWithDelta(d).dump());
        EXPECT_THROW(executor::protocol::batchOutputFromJson(body),
                     corpus::CorpusError)
            << what;
    }

    Json wideGhr = delta(none, none, none);
    wideGhr.set("ghr", Json::number(std::uint64_t{1} << 32));
    EXPECT_THROW(
        executor::protocol::batchOutputFromJson(bodyWithDelta(wideGhr)),
        corpus::CorpusError);

    Json noGhr = Json::object();
    noGhr.set("pht", Json::array());
    EXPECT_THROW(
        executor::protocol::batchOutputFromJson(bodyWithDelta(noGhr)),
        corpus::CorpusError);

    // A hostile endCtx, and a required endCtx that is missing.
    Json body = bodyWithDelta(delta(none, none, none));
    UarchContext endCtx;
    EXPECT_THROW(executor::protocol::batchOutputFromJson(body, &endCtx),
                 corpus::CorpusError);
    body.set("endCtx", delta(numbers({phtSize + 9, 0}), none, none));
    EXPECT_THROW(executor::protocol::batchOutputFromJson(body, &endCtx),
                 corpus::CorpusError);
}

TEST(SimProtocol, DeltaAgainstMalformedFullContextStaysInBounds)
{
    // contexts[0] is itself foreign: a base whose BTB target table is
    // shorter than its tag table is refused at decode, before a delta
    // could write past it.
    Rng rng(11);
    UarchContext base = randomContext(rng);
    base.bp.btbTargets.resize(4);
    Json contexts = Json::array();
    contexts.push(corpus::encode(base));
    contexts.push(delta(Json::array(), numbers({4, 1, 2}), Json::array()));
    Json body = executor::protocol::batchOutputToJson({});
    body.set("contexts", std::move(contexts));
    EXPECT_THROW(executor::protocol::batchOutputFromJson(body),
                 corpus::CorpusError);
}

// Wire bytes pinned before the leaf codecs moved onto field tables: a
// batch body with three contexts (one full, two deltas) and an endCtx
// delta.
TEST(SimProtocol, BatchBodyMatchesPinnedBytes)
{
    UarchContext ctx;
    ctx.bp.ghr = 0x5a5;
    ctx.bp.pht = {1, 2, 3, 0, 1, 1, 2, 3};
    ctx.bp.btbTags = {0, 0x400010, ~std::uint64_t{0}};
    ctx.bp.btbTargets = {0, 7, 1};
    ctx.mdp = {0, 3, 2, 0xff};
    SimHarness::BatchOutput out;
    out.startContexts.push_back(ctx);
    ctx.bp.pht[6] = 0;
    ctx.bp.btbTags[0] = 0x400020;
    ctx.bp.btbTargets[0] = 12;
    out.startContexts.push_back(ctx);
    ctx.bp.ghr = 0xb4b;
    ctx.mdp[1] = 1;
    out.startContexts.push_back(ctx);
    for (std::uint64_t i = 0; i < 3; ++i) {
        SimHarness::RunOutput run;
        run.trace.format = executor::TraceFormat::L1dTlb;
        run.trace.words = {0xd1d1000000000000ULL + i, 64 * i};
        run.run = {i != 1, 100 + i, 20 + i, i, false};
        out.runs.push_back(run);
        std::vector<executor::UTrace> extra(1);
        extra[0].format = executor::TraceFormat::BpState;
        extra[0].words = {i};
        out.extras.push_back(std::move(extra));
    }
    out.hitCycleCap = true;
    UarchContext endCtx = ctx;
    endCtx.bp.pht[0] = 3;
    endCtx.bp.btbTargets[2] = 0;

    const std::string body =
        executor::protocol::batchOutputToJson(out, &endCtx).dump();
    EXPECT_EQ(body,
              R"({"runs":[{"trace":{"format":"l1dtlb","words":[15118865424059)"
              R"(465728,0]},"run":{"halted":true,"cycles":100,"committedInsts)"
              R"(":20,"squashes":0,"hitCycleCap":false}},{"trace":{"format":")"
              R"(l1dtlb","words":[15118865424059465729,64]},"run":{"halted":f)"
              R"(alse,"cycles":101,"committedInsts":21,"squashes":1,"hitCycle)"
              R"(Cap":false}},{"trace":{"format":"l1dtlb","words":[1511886542)"
              R"(4059465730,128]},"run":{"halted":true,"cycles":102,"committe)"
              R"(dInsts":22,"squashes":2,"hitCycleCap":false}}],"contexts":[{)"
              R"("bp":{"ghr":1445,"pht":"0102030001010203","btbTags":[0,41943)"
              R"(20,18446744073709551615],"btbTargets":[0,7,1]},"mdp":"000302)"
              R"(ff"},{"ghr":1445,"pht":[6,0],"btb":[0,4194336,12],"mdp":[]},)"
              R"({"ghr":2891,"pht":[],"btb":[],"mdp":[1,1]}],"extras":[[{"for)"
              R"(mat":"bpstate","words":[0]}],[{"format":"bpstate","words":[1)"
              R"(]}],[{"format":"bpstate","words":[2]}]],"hitCycleCap":true,")"
              R"(endCtx":{"ghr":2891,"pht":[0,3],"btb":[2,1844674407370955161)"
              R"(5,0],"mdp":[]}})");
    UarchContext endBack;
    const SimHarness::BatchOutput back =
        executor::protocol::batchOutputFromJson(Json::parse(body), &endBack);
    EXPECT_EQ(executor::protocol::batchOutputToJson(back, &endBack).dump(),
              body);
}

// A traced run's instruction tuples, pinned: between them the
// instructions set each of the 19 wire flag bits.
TEST(SimProtocol, UtraceMatchesPinnedBytes)
{
    using L = telemetry::InstLifecycle;
    // The wire bit order of the packed "flags" slot (protocol v3).
    const std::vector<bool L::*> bits = {
        &L::issued,          &L::completed,     &L::committed,
        &L::squashed,        &L::isLoad,        &L::isStore,
        &L::isBranch,        &L::predTaken,     &L::actualTaken,
        &L::mispredicted,    &L::memAddrKnown,  &L::wasUnsafeAtIssue,
        &L::tainted,         &L::exposePending, &L::inSpecBuffer,
        &L::lfbHeld,         &L::undoLogged,    &L::forwardedFromStore,
        &L::bypassedUnknownStore,
    };
    telemetry::UarchRunTrace run;
    run.label = "inputB";
    run.cycles = 77;
    run.disasm = {"0: MOV RAX, 1", "1: HALT"};
    const std::uint64_t masks[] = {0x55555, 0x2aaaa, 0x7ffff, 0x40001, 0};
    for (std::uint64_t i = 0; i < std::size(masks); ++i) {
        L inst;
        inst.seq = 10 + i;
        inst.idx = i;
        inst.pc = 0x400000 + 4 * i;
        inst.fetchCycle = 1 + i;
        inst.issueCycle = 3 + i;
        inst.completeCycle = 5 + i;
        inst.commitCycle = 7 + i;
        inst.squashCycle = 9 + i;
        inst.squashCause = static_cast<telemetry::SquashCause>(i % 3);
        inst.squashTrigger = i;
        inst.memAddr = 0x800000 + 8 * i;
        for (std::size_t b = 0; b < bits.size(); ++b)
            inst.*bits[b] = (masks[i] >> b) & 1;
        run.insts.push_back(inst);
    }
    const std::string text =
        executor::protocol::uarchRunTraceToJson(run).dump();
    EXPECT_EQ(text,
              R"({"label":"inputB","cycles":77,"disasm":["0: MOV RAX, 1","1: )"
              R"(HALT"],"insts":[[10,0,4194304,1,3,5,7,9,0,0,8388608,349525],)"
              R"([11,1,4194308,2,4,6,8,10,1,1,8388616,174762],[12,2,4194312,3)"
              R"(,5,7,9,11,2,2,8388624,524287],[13,3,4194316,4,6,8,10,12,0,3,)"
              R"(8388632,262145],[14,4,4194320,5,7,9,11,13,1,4,8388640,0]]})");
    EXPECT_EQ(executor::protocol::uarchRunTraceFromJson(Json::parse(text)),
              run);
}

// A traced run's instruction tuples come back from the worker too: a
// squash cause past the last enumerator (an unnamed value, or 256
// wrapping to None) fails like a malformed tuple.
TEST(SimProtocol, HostileUtraceTupleThrowsCorpusError)
{
    telemetry::UarchRunTrace run;
    run.label = "inputA";
    run.cycles = 40;
    run.disasm = {"HALT"};
    telemetry::InstLifecycle inst;
    inst.seq = 3;
    inst.idx = 1;
    inst.pc = 0x404;
    inst.fetchCycle = 2;
    inst.squashed = true;
    inst.squashCycle = 9;
    inst.squashCause = telemetry::SquashCause::MemOrder;
    inst.squashTrigger = 2;
    run.insts.push_back(inst);
    const Json good = Json::parse(
        executor::protocol::uarchRunTraceToJson(run).dump());
    EXPECT_EQ(executor::protocol::uarchRunTraceFromJson(good), run);

    auto with_cause = [&good](const Json &cause) {
        const std::vector<Json> &fields =
            good.at("insts").items().at(0).items();
        Json tuple = Json::array();
        for (std::size_t i = 0; i < fields.size(); ++i)
            tuple.push(i == 8 ? cause : fields[i]);
        Json insts = Json::array();
        insts.push(std::move(tuple));
        Json j = good;
        j.set("insts", std::move(insts));
        return Json::parse(j.dump());
    };
    for (std::uint64_t cause : {3u, 7u, 256u}) {
        EXPECT_THROW(executor::protocol::uarchRunTraceFromJson(
                         with_cause(Json::number(cause))),
                     corpus::CorpusError)
            << cause;
    }
    EXPECT_THROW(executor::protocol::uarchRunTraceFromJson(
                     with_cause(Json::str("mem-order"))),
                 corpus::CorpusError);
}

} // namespace
