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
#include "corpus/serde.hh"
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
    // shorter than its tag table must not let a delta write past it.
    Rng rng(11);
    UarchContext base = randomContext(rng);
    base.bp.btbTargets.resize(4);
    Json contexts = Json::array();
    contexts.push(corpus::toJson(base));
    contexts.push(delta(Json::array(), numbers({4, 1, 2}), Json::array()));
    Json body = executor::protocol::batchOutputToJson({});
    body.set("contexts", std::move(contexts));
    EXPECT_THROW(executor::protocol::batchOutputFromJson(body),
                 corpus::CorpusError);
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
