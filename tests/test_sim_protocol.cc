/**
 * @file
 * Wire codec tests for the subprocess protocol (executor/sim_protocol.hh):
 * seeded round trips of delta-coded predictor contexts, anchored and
 * not, the word scan's boundaries, inputs as sandbox descriptors and as
 * hex, pinned v7 and v8 bytes, and hostile deltas that must fail as
 * CorpusError — never std::out_of_range, a crash, or undefined
 * behaviour (this suite also runs under ASan+UBSan in CI).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "core/input_gen.hh"
#include "corpus/fields.hh"
#include "executor/sim_protocol.hh"
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

/** Encode, dump, reparse and decode, rooted at @p anchor; check the
 *  batch comes back exactly and that the re-encoding is
 *  byte-identical. */
void
expectRoundTrip(const SimHarness::BatchOutput &out,
                const UarchContext *anchor = nullptr)
{
    const std::string text =
        executor::protocol::batchOutputToJson(out, anchor).dump();
    const SimHarness::BatchOutput back =
        executor::protocol::batchOutputFromJson(Json::parse(text), anchor);
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
    EXPECT_EQ(executor::protocol::batchOutputToJson(back, anchor).dump(),
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
            expectRoundTrip(out);
            // Rooted at an anchor a few entries away, as the worker
            // sends it.
            const UarchContext anchor =
                runs ? mutated(out.startContexts.front(), rng)
                     : randomContext(rng);
            expectRoundTrip(out, &anchor);
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
    ctx = out.startContexts.back();
    ctx.bp.ghr ^= 0x80000000u;
    out.startContexts.push_back(ctx); // ghr-only change
    for (std::size_t i = 0; i < out.startContexts.size(); ++i) {
        out.runs.push_back(randomRun(rng));
        out.extras.emplace_back();
    }
    expectRoundTrip(out);

    // Without an anchor only contexts[0] travels in full: a one-entry
    // change costs bytes, not kilobytes.
    const Json body = executor::protocol::batchOutputToJson(out);
    const auto &contexts = body.at("contexts").items();
    EXPECT_GT(contexts[0].dump().size(), 8000u);
    for (std::size_t i = 1; i <= 4; ++i)
        EXPECT_LT(contexts[i].dump().size(), 96u) << "context " << i;
    EXPECT_LT(contexts[6].dump().size(), 64u) << "ghr-only context";
}

/** The bytes of @p next that differ from @p base as a flat [index,
 *  value, ...] list, found one byte at a time. */
Json
changedBytes(const std::vector<std::uint8_t> &base,
             const std::vector<std::uint8_t> &next)
{
    Json runs = Json::array();
    for (std::size_t i = 0; i < next.size(); ++i) {
        if (next[i] != base[i]) {
            runs.push(Json::number(std::uint64_t{i}));
            runs.push(Json::number(std::uint64_t{next[i]}));
        }
    }
    return runs;
}

// The delta scans whole 8-byte words and walks only the words that
// differ, then the bytes past the last whole word. On tables whose sizes
// are not multiples of 8 (a pht of phtBits 2, an mdp of 13 entries, and
// their neighbours), changes on word boundaries and in the tail must
// come out exactly as a byte-by-byte scan finds them, and round trip.
TEST(SimProtocol, WordScanFindsChangesOnBoundariesAndInTheTail)
{
    Rng rng(19);
    for (std::size_t size : {1u, 4u, 7u, 8u, 9u, 13u, 16u, 17u, 31u}) {
        UarchContext base;
        base.bp.ghr = 9;
        base.bp.btbTags = {0x400000};
        base.bp.btbTargets = {0x400040};
        for (std::size_t i = 0; i < size; ++i) {
            base.bp.pht.push_back(static_cast<std::uint8_t>(rng.next() & 3));
            base.mdp.push_back(static_cast<std::uint8_t>(rng.next()));
        }
        // Every single byte, then the word boundaries and the last byte
        // together.
        std::vector<std::vector<std::size_t>> changes;
        for (std::size_t i = 0; i < size; ++i)
            changes.push_back({i});
        std::vector<std::size_t> edges;
        for (std::size_t i : {std::size_t{0}, std::size_t{7}, std::size_t{8},
                              size - 1})
            if (i < size && (edges.empty() || edges.back() < i))
                edges.push_back(i);
        changes.push_back(edges);
        for (const auto &at : changes) {
            UarchContext ctx = base;
            for (std::size_t i : at) {
                ctx.bp.pht[i] ^= 1;
                ctx.mdp[i] += 1;
            }
            const Json wire = executor::protocol::contextToWire(&base, ctx);
            EXPECT_EQ(wire.at("pht").dump(),
                      changedBytes(base.bp.pht, ctx.bp.pht).dump())
                << "size " << size << ", first change " << at[0];
            EXPECT_EQ(wire.at("mdp").dump(),
                      changedBytes(base.mdp, ctx.mdp).dump())
                << "size " << size << ", first change " << at[0];
            expectSameContext(executor::protocol::contextFromWire(
                                  &base, Json::parse(wire.dump())),
                              ctx);
        }
    }
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
    // The anchored root: as the worker sends it, contexts[0] is a
    // delta against the anchor and meets the same checks.
    Rng anchorRng(5);
    const UarchContext anchor = randomContext(anchorRng);
    const auto anchoredRoot = [](const Json &root) {
        Json body = executor::protocol::batchOutputToJson({});
        Json contexts = Json::array();
        contexts.push(root);
        body.set("contexts", std::move(contexts));
        return Json::parse(body.dump());
    };
    for (const auto &[what, d] : hostile) {
        // Through a real parse, as the bytes would arrive off the pipe.
        const Json body = Json::parse(bodyWithDelta(d).dump());
        EXPECT_THROW(executor::protocol::batchOutputFromJson(body),
                     corpus::CorpusError)
            << what;
        EXPECT_THROW(executor::protocol::batchOutputFromJson(
                         anchoredRoot(d), &anchor),
                     corpus::CorpusError)
            << "anchored root: " << what;
    }
    // A full context where the anchored root's delta belongs.
    EXPECT_THROW(executor::protocol::batchOutputFromJson(
                     anchoredRoot(corpus::encode(anchor)), &anchor),
                 corpus::CorpusError);

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

/** The pinned tests' context, of a tiny geometry (pht 8, btb 3, mdp
 *  4) so the pins stay readable. */
UarchContext
pinnedContext()
{
    UarchContext ctx;
    ctx.bp.ghr = 0x5a5;
    ctx.bp.pht = {1, 2, 3, 0, 1, 1, 2, 3};
    ctx.bp.btbTags = {0, 0x400010, ~std::uint64_t{0}};
    ctx.bp.btbTargets = {0, 7, 1};
    ctx.mdp = {0, 3, 2, 0xff};
    return ctx;
}

/** The pinned batch: three runs whose contexts start at
 *  pinnedContext() and train a few entries each. */
SimHarness::BatchOutput
pinnedBatch()
{
    UarchContext ctx = pinnedContext();
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
    return out;
}

/** The context after the pinned batch's last run. */
UarchContext
pinnedTrained()
{
    UarchContext ctx = pinnedBatch().startContexts.back();
    ctx.bp.pht[0] = 3;
    ctx.bp.btbTargets[2] = 0;
    return ctx;
}

/** The anchor of the v7 pins: pinnedContext() before a few entries
 *  were trained, as a worker's boot context would be. */
UarchContext
pinnedAnchor()
{
    UarchContext anchor = pinnedContext();
    anchor.bp.ghr = 0;
    anchor.bp.pht[2] = 0;
    anchor.bp.btbTags[1] = 0;
    anchor.bp.btbTargets[1] = 0;
    anchor.mdp[3] = 0;
    return anchor;
}

// Wire bytes pinned before the leaf codecs moved onto field tables: a
// batch body with three contexts (one full, two deltas). This is the
// body without an anchor, which perfbench weighs.
TEST(SimProtocol, BatchBodyMatchesPinnedBytes)
{
    const SimHarness::BatchOutput out = pinnedBatch();

    const std::string body =
        executor::protocol::batchOutputToJson(out).dump();
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
              R"(]}],[{"format":"bpstate","words":[2]}]],"hitCycleCap":true})");
    const SimHarness::BatchOutput back =
        executor::protocol::batchOutputFromJson(Json::parse(body));
    EXPECT_EQ(executor::protocol::batchOutputToJson(back).dump(), body);
}

// The protocol v7 body: rooted at the worker's anchor, contexts[0] is a
// delta too, so no context in it travels in full.
TEST(SimProtocol, AnchoredBatchBodyMatchesPinnedBytes)
{
    const SimHarness::BatchOutput out = pinnedBatch();
    const UarchContext anchor = pinnedAnchor();

    const std::string body =
        executor::protocol::batchOutputToJson(out, &anchor).dump();
    EXPECT_EQ(body,
              R"({"runs":[{"trace":{"format":"l1dtlb","words":[15118865424059)"
              R"(465728,0]},"run":{"halted":true,"cycles":100,"committedInsts)"
              R"(":20,"squashes":0,"hitCycleCap":false}},{"trace":{"format":")"
              R"(l1dtlb","words":[15118865424059465729,64]},"run":{"halted":f)"
              R"(alse,"cycles":101,"committedInsts":21,"squashes":1,"hitCycle)"
              R"(Cap":false}},{"trace":{"format":"l1dtlb","words":[1511886542)"
              R"(4059465730,128]},"run":{"halted":true,"cycles":102,"committe)"
              R"(dInsts":22,"squashes":2,"hitCycleCap":false}}],"contexts":[{)"
              R"("ghr":1445,"pht":[2,3],"btb":[1,4194320,7],"mdp":[3,255]},{")"
              R"(ghr":1445,"pht":[6,0],"btb":[0,4194336,12],"mdp":[]},{"ghr":)"
              R"(2891,"pht":[],"btb":[],"mdp":[1,1]}],"extras":[[{"format":"b)"
              R"(pstate","words":[0]}],[{"format":"bpstate","words":[1]}],[{")"
              R"(format":"bpstate","words":[2]}]],"hitCycleCap":true})");
    const SimHarness::BatchOutput back =
        executor::protocol::batchOutputFromJson(Json::parse(body), &anchor);
    EXPECT_EQ(executor::protocol::batchOutputToJson(back, &anchor).dump(),
              body);
}

// The protocol v7 requests that carry contexts, built as
// SubprocessBackend builds them: a restore of the anchor itself (a
// shard's per-program restore of its canonical context) is an empty
// delta, and classify's ctxA/ctxB are deltas against the anchor.
TEST(SimProtocol, ContextRequestsMatchPinnedBytes)
{
    const UarchContext anchor = pinnedAnchor();
    const UarchContext trained = pinnedTrained();
    using executor::protocol::contextToWire;

    Json restore = Json::object();
    restore.set("op", Json::str("restore"));
    restore.set("ctx", contextToWire(&anchor, anchor));
    EXPECT_EQ(restore.dump(),
              R"({"op":"restore","ctx":{"ghr":0,"pht":[],"btb":[],"mdp":[]})"
              R"(})");

    arch::Input inputA;
    inputA.id = 1;
    inputA.regs[0] = 5;
    inputA.flagsByte = 2;
    arch::Input inputB = inputA;
    inputB.id = 2;
    inputB.regs[1] = 7;
    Json classify = Json::object();
    classify.set("op", Json::str("classify"));
    classify.set("inputA", corpus::encode(inputA));
    classify.set("inputB", corpus::encode(inputB));
    classify.set("ctxA", contextToWire(&anchor, pinnedContext()));
    classify.set("ctxB", contextToWire(&anchor, trained));
    EXPECT_EQ(classify.dump(),
              R"({"op":"classify","inputA":{"id":1,"regs":[5,0,0,0,0,0,0,0,0,)"
              R"(0,0,0,0,0,0,0],"flags":2,"sandbox":""},"inputB":{"id":2,"reg)"
              R"(s":[5,7,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"flags":2,"sandbox":""})"
              R"(,"ctxA":{"ghr":1445,"pht":[2,3],"btb":[1,4194320,7],"mdp":[3)"
              R"(,255]},"ctxB":{"ghr":2891,"pht":[0,3,2,3,6,0],"btb":[0,41943)"
              R"(36,12,1,4194320,7,2,18446744073709551615,0],"mdp":[1,1,3,255)"
              R"(]}})");
}

/** A base input of @p pages pages and a sibling that restores three of
 *  its bytes (the last one included), from one generator at @p seed;
 *  registers small, so the pins stay readable. */
std::vector<arch::Input>
generatedPair(unsigned pages, std::uint64_t seed)
{
    core::InputGenConfig cfg;
    cfg.map.sandboxPages = pages;
    cfg.smallRegPct = 100;
    core::InputGenerator gen(cfg, Rng(seed));
    std::vector<arch::Input> out;
    out.push_back(gen.generate(0));
    const std::size_t last = std::size_t{pages} * mem::kPageSize - 1;
    out.push_back(gen.sibling(out[0], {0x10, 0x11, last}, 1));
    return out;
}

/** @p input through the protocol's input codec and a dump. */
arch::Input
wireRoundTrip(const arch::Input &input)
{
    return executor::protocol::inputFromWire(
        Json::parse(executor::protocol::inputToWire(input).dump()));
}

// Generator inputs, one page or many, base or sibling, cross the wire as
// descriptors and come back byte-equal, as lazy images.
TEST(SimProtocol, GeneratedInputsRoundTripAsDescriptors)
{
    for (unsigned pages : {1u, 2u, 128u}) {
        for (const arch::Input &input : generatedPair(pages, 40 + pages)) {
            const Json wire = executor::protocol::inputToWire(input);
            ASSERT_EQ(wire.at("sandbox").kind(), Json::Kind::Obj)
                << pages << " pages, input " << input.id;
            const arch::Input back = wireRoundTrip(input);
            EXPECT_TRUE(back == input) << pages << " pages, input "
                                       << input.id;
            EXPECT_EQ(back.id, input.id);
            EXPECT_EQ(back.sandbox.toBytes(), input.sandbox.toBytes());
            EXPECT_TRUE(back.sandbox.isGenerated());
            EXPECT_EQ(executor::protocol::inputToWire(back).dump(),
                      wire.dump());
        }
    }
}

// An edited generator image is no longer what its descriptor describes:
// it must travel as hex and arrive with the edit.
TEST(SimProtocol, EditedInputTravelsAsHex)
{
    arch::Input input = generatedPair(1, 5)[1];
    ASSERT_FALSE(input.sandbox.isGenerated());
    ASSERT_NE(input.sandbox.descriptor(), nullptr);
    const std::uint8_t old = input.sandbox[0x123];
    input.sandbox.set(0x123, old ^ 0x5a);
    EXPECT_EQ(input.sandbox.descriptor(), nullptr);
    const Json wire = executor::protocol::inputToWire(input);
    EXPECT_EQ(wire.at("sandbox").kind(), Json::Kind::Str);
    const arch::Input back = wireRoundTrip(input);
    EXPECT_TRUE(back == input);
    EXPECT_EQ(back.sandbox[0x123], old ^ 0x5a);

    arch::Input assigned = generatedPair(1, 5)[0];
    assigned.sandbox.assign(mem::kPageSize, 3);
    EXPECT_EQ(executor::protocol::inputToWire(assigned).at("sandbox").kind(),
              Json::Kind::Str);
    EXPECT_EQ(wireRoundTrip(assigned).sandbox[7], 3);
}

/** Hex of a page of zero bytes but one, @p value at @p off. */
std::string
hexPage(std::size_t off, const char *value)
{
    std::string hex(2 * mem::kPageSize, '0');
    hex.replace(2 * off, 2, value);
    return hex;
}

// The protocol v8 requests that carry inputs, built by the functions
// SubprocessBackend sends: generator inputs as descriptors (a one-page
// base and its sibling, a 128-page sibling), a hand-built input as hex.
TEST(SimProtocol, InputRequestsMatchPinnedBytes)
{
    using namespace executor::protocol;
    const UarchContext anchor = pinnedAnchor();
    const UarchContext trained = pinnedTrained();
    const std::vector<executor::TraceFormat> extras = {
        executor::TraceFormat::BpState};

    // Both pairs draw the same registers (they come first in the
    // stream); a sibling keeps its base's.
    const std::string regs =
        R"("regs":[25838,15338,32899,46310,58836,5193,46728,51153,41773,4)"
        R"(7587,25086,38138,3721,54788,41562,45609],"flags":13)";
    const std::string untrained = R"({"ghr":0,"pht":[],"btb":[],"mdp":[]})";
    const std::string trainedDelta =
        R"({"ghr":2891,"pht":[0,3,2,3,6,0],"btb":[0,4194336,12,1,4194320,)"
        R"(7,2,18446744073709551615,0],"mdp":[1,1,3,255]})";

    const std::vector<arch::Input> one = generatedPair(1, 3);
    const std::string base1 =
        R"({"id":0,)" + regs +
        R"(,"sandbox":{"state":[6587965041148211857,13816525025375535164,1)"
        R"(0613360081246115665,2292581355059794172],"size":4096,"patches":)"
        R"(""}})";
    const std::string sibling1 =
        R"({"id":1,)" + regs +
        R"(,"sandbox":{"state":[15674215756276464700,10738395743464701605,)"
        R"(2069414428459309222,9050318850409851773],"size":4096,"patches":)"
        R"("0000104200001196000fff3d"}})";
    EXPECT_EQ(batchRequest({&one[0], &one[1]}, nullptr).dump(),
              R"({"op":"batch","inputs":[)" + base1 + "," + sibling1 + "]}");
    EXPECT_EQ(runRequest(one[1], &extras).dump(),
              R"({"op":"run","input":)" + sibling1 +
                  R"(,"extras":["bpstate"]})");
    EXPECT_EQ(classifyRequest(one[0], one[1], anchor, trained, anchor).dump(),
              R"({"op":"classify","inputA":)" + base1 + R"(,"inputB":)" +
                  sibling1 + R"(,"ctxA":)" + untrained + R"(,"ctxB":)" +
                  trainedDelta + "}");

    const arch::Input big = generatedPair(128, 3)[1];
    const std::string sibling128 =
        R"({"id":1,)" + regs +
        R"(,"sandbox":{"state":[16178389889125229425,1069063491580162980,1)"
        R"(5773483665585070847,2908812685009933621],"size":524288,"patches)"
        R"(":"000010420000119607ffffd9"}})";
    EXPECT_EQ(batchRequest({&big}, &extras).dump(),
              R"({"op":"batch","inputs":[)" + sibling128 +
                  R"(],"extras":["bpstate"]})");
    EXPECT_EQ(runRequest(big, nullptr).dump(),
              R"({"op":"run","input":)" + sibling128 + "}");
    EXPECT_EQ(classifyRequest(big, big, trained, anchor, anchor).dump(),
              R"({"op":"classify","inputA":)" + sibling128 +
                  R"(,"inputB":)" + sibling128 + R"(,"ctxA":)" +
                  trainedDelta + R"(,"ctxB":)" + untrained + "}");

    arch::Input hand;
    hand.id = 9;
    hand.regs[3] = 0x41;
    hand.flagsByte = 4;
    hand.sandbox.assign(mem::kPageSize, 0);
    hand.sandbox.set(0x41, 0x07);
    const std::string input = R"({"id":9,"regs":[0,0,0,65,0,0,0,0,0,0,0,0,0)"
                              R"(,0,0,0],"flags":4,"sandbox":")" +
                              hexPage(0x41, "07") + "\"}";
    EXPECT_EQ(batchRequest({&hand}, nullptr).dump(),
              R"({"op":"batch","inputs":[)" + input + "]}");
    EXPECT_EQ(runRequest(hand, nullptr).dump(),
              R"({"op":"run","input":)" + input + "}");
    EXPECT_EQ(classifyRequest(hand, hand, anchor, anchor, anchor).dump(),
              R"({"op":"classify","inputA":)" + input + R"(,"inputB":)" +
                  input + R"(,"ctxA":)" + untrained + R"(,"ctxB":)" +
                  untrained + "}");
}

} // namespace
