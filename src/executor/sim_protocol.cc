#include "executor/sim_protocol.hh"

#include <cstring>
#include <iterator>

#include "corpus/fields.hh"

namespace amulet::executor::protocol
{

namespace
{

/** Flat [index, value, index, value, ...] run of the bytes where
 *  @p next differs from @p base (same table size). Equal 8-byte words,
 *  nearly all of a table, cost one compare; only a word that differs
 *  is walked byte by byte, and the bytes past the last whole word
 *  after it. */
Json
byteDelta(const std::vector<std::uint8_t> &base,
          const std::vector<std::uint8_t> &next)
{
    Json runs = Json::array();
    auto diff = [&](std::size_t from, std::size_t to) {
        for (std::size_t i = from; i < to; ++i) {
            if (next[i] != base[i]) {
                runs.push(Json::number(std::uint64_t{i}));
                runs.push(Json::number(std::uint64_t{next[i]}));
            }
        }
    };
    const std::size_t size = next.size();
    std::size_t i = 0;
    for (; i + 8 <= size; i += 8) {
        std::uint64_t a;
        std::uint64_t b;
        std::memcpy(&a, base.data() + i, 8);
        std::memcpy(&b, next.data() + i, 8);
        if (a != b)
            diff(i, i + 8);
    }
    diff(i, size);
    return runs;
}

/** Apply a byteDelta run to @p bytes. The run came from another
 *  process: every index and value is range-checked. */
void
applyByteDelta(std::vector<std::uint8_t> &bytes, const Json &json,
               const char *table)
{
    const auto &runs = json.items();
    if (runs.size() % 2)
        throw corpus::CorpusError(std::string("sim protocol: truncated ") +
                                  table + " delta");
    for (std::size_t i = 0; i < runs.size(); i += 2) {
        const std::uint64_t index = runs[i].asU64();
        if (index >= bytes.size())
            throw corpus::CorpusError(std::string("sim protocol: ") +
                                      table + " delta out of range");
        bytes[index] = corpus::decode<std::uint8_t>(runs[i + 1]);
    }
}

} // namespace

Json
contextToWire(const UarchContext *base, const UarchContext &ctx)
{
    if (!base)
        return corpus::encode(ctx);
    const auto &bp = ctx.bp;
    if (bp.pht.size() != base->bp.pht.size() ||
        bp.btbTags.size() != base->bp.btbTags.size() ||
        bp.btbTargets.size() != bp.btbTags.size() ||
        base->bp.btbTargets.size() != base->bp.btbTags.size() ||
        ctx.mdp.size() != base->mdp.size()) {
        throw corpus::CorpusError(
            "sim protocol: predictor context does not fit the base it is "
            "coded against (pht " + std::to_string(bp.pht.size()) +
            ", btb " + std::to_string(bp.btbTags.size()) + "/" +
            std::to_string(bp.btbTargets.size()) + ", mdp " +
            std::to_string(ctx.mdp.size()) + " entries; base " +
            std::to_string(base->bp.pht.size()) + ", " +
            std::to_string(base->bp.btbTags.size()) + ", " +
            std::to_string(base->mdp.size()) + ")");
    }
    Json btb = Json::array();
    for (std::size_t i = 0; i < bp.btbTags.size(); ++i) {
        if (bp.btbTags[i] != base->bp.btbTags[i] ||
            bp.btbTargets[i] != base->bp.btbTargets[i]) {
            btb.push(Json::number(std::uint64_t{i}));
            btb.push(Json::number(bp.btbTags[i]));
            btb.push(Json::number(bp.btbTargets[i]));
        }
    }
    Json j = Json::object();
    j.set("ghr", Json::number(std::uint64_t{bp.ghr}));
    j.set("pht", byteDelta(base->bp.pht, bp.pht));
    j.set("btb", std::move(btb));
    j.set("mdp", byteDelta(base->mdp, ctx.mdp));
    return j;
}

UarchContext
contextFromWire(const UarchContext *base, const Json &json)
{
    if (!base)
        return corpus::decode<UarchContext>(json);
    UarchContext ctx = *base;
    ctx.bp.ghr = json.at("ghr").asUnsigned();
    applyByteDelta(ctx.bp.pht, json.at("pht"), "pht");
    applyByteDelta(ctx.mdp, json.at("mdp"), "mdp");
    const auto &btb = json.at("btb").items();
    if (btb.size() % 3)
        throw corpus::CorpusError("sim protocol: truncated btb delta");
    for (std::size_t i = 0; i < btb.size(); i += 3) {
        const std::uint64_t slot = btb[i].asU64();
        if (slot >= ctx.bp.btbTags.size())
            throw corpus::CorpusError("sim protocol: btb delta out of "
                                      "range");
        ctx.bp.btbTags[slot] = btb[i + 1].asU64();
        ctx.bp.btbTargets[slot] = btb[i + 2].asU64();
    }
    return ctx;
}

Json
batchOutputToJson(const SimHarness::BatchOutput &out,
                  const UarchContext *endCtx, const UarchContext *anchor)
{
    Json contexts = Json::array();
    const UarchContext *prev = anchor;
    for (const UarchContext &ctx : out.startContexts) {
        contexts.push(contextToWire(prev, ctx));
        prev = &ctx;
    }
    Json j = Json::object();
    j.set("runs", corpus::encode(out.runs));
    j.set("contexts", std::move(contexts));
    j.set("extras", corpus::encode(out.extras));
    j.set("hitCycleCap", Json::boolean(out.hitCycleCap));
    if (endCtx)
        j.set("endCtx", contextToWire(prev, *endCtx));
    return j;
}

SimHarness::BatchOutput
batchOutputFromJson(const Json &json, UarchContext *endCtx,
                    const UarchContext *anchor)
{
    SimHarness::BatchOutput out;
    out.runs = corpus::decode<std::vector<SimHarness::RunOutput>>(
        json.at("runs"));
    auto last = [&out, anchor]() -> const UarchContext * {
        return out.startContexts.empty() ? anchor
                                         : &out.startContexts.back();
    };
    for (const Json &c : json.at("contexts").items())
        out.startContexts.push_back(contextFromWire(last(), c));
    out.extras =
        corpus::decode<std::vector<std::vector<UTrace>>>(json.at("extras"));
    out.hitCycleCap = json.at("hitCycleCap").asBool();
    if (endCtx)
        *endCtx = contextFromWire(last(), json.at("endCtx"));
    return out;
}

Json
inputToWire(const arch::Input &input)
{
    return corpus::encode<corpus::Scope::Runtime>(input);
}

arch::Input
inputFromWire(const Json &json)
{
    return corpus::decode<arch::Input, corpus::Scope::Runtime>(json);
}

namespace
{

/** A request for @p op, without operands. */
Json
request(const char *op)
{
    Json req = Json::object();
    req.set("op", Json::str(op));
    return req;
}

/** Append a run request's optional keys to @p req. */
void
setRunOptions(Json &req, const std::vector<TraceFormat> *extras, bool utrace)
{
    if (extras)
        req.set("extras", corpus::encode(*extras));
    if (utrace)
        req.set("utrace", Json::boolean(true));
}

} // namespace

Json
batchRequest(const std::vector<const arch::Input *> &batch,
             const std::vector<TraceFormat> *extras, bool utrace)
{
    Json inputs = Json::array();
    for (const arch::Input *input : batch)
        inputs.push(inputToWire(*input));
    Json req = request("batch");
    req.set("inputs", std::move(inputs));
    setRunOptions(req, extras, utrace);
    return req;
}

Json
runRequest(const arch::Input &input, const std::vector<TraceFormat> *extras,
           bool utrace)
{
    Json req = request("run");
    req.set("input", inputToWire(input));
    setRunOptions(req, extras, utrace);
    return req;
}

Json
classifyRequest(const arch::Input &inputA, const arch::Input &inputB,
                const UarchContext &ctxA, const UarchContext &ctxB,
                const UarchContext &anchor)
{
    Json req = request("classify");
    req.set("inputA", inputToWire(inputA));
    req.set("inputB", inputToWire(inputB));
    req.set("ctxA", contextToWire(&anchor, ctxA));
    req.set("ctxB", contextToWire(&anchor, ctxB));
    return req;
}

namespace
{

using Lifecycle = telemetry::InstLifecycle;

/** The InstLifecycle bools of the packed wire "flags" field, each at
 *  the bit of its index. The order is part of protocol v3: append, never
 *  reorder. */
constexpr bool Lifecycle::*kLifecycleFlags[] = {
    &Lifecycle::issued,           &Lifecycle::completed,
    &Lifecycle::committed,        &Lifecycle::squashed,
    &Lifecycle::isLoad,           &Lifecycle::isStore,
    &Lifecycle::isBranch,         &Lifecycle::predTaken,
    &Lifecycle::actualTaken,      &Lifecycle::mispredicted,
    &Lifecycle::memAddrKnown,     &Lifecycle::wasUnsafeAtIssue,
    &Lifecycle::tainted,          &Lifecycle::exposePending,
    &Lifecycle::inSpecBuffer,     &Lifecycle::lfbHeld,
    &Lifecycle::undoLogged,       &Lifecycle::forwardedFromStore,
    &Lifecycle::bypassedUnknownStore,
};

} // namespace

Json
uarchRunTraceToJson(const telemetry::UarchRunTrace &run)
{
    Json disasm = Json::array();
    for (const std::string &line : run.disasm)
        disasm.push(Json::str(line));
    Json insts = Json::array();
    for (const Lifecycle &inst : run.insts) {
        // Fixed-position number tuple, not an object: a trace carries
        // thousands of these, so field names would dominate the line.
        Json tuple = Json::array();
        tuple.push(Json::number(std::uint64_t{inst.seq}));
        tuple.push(Json::number(inst.idx));
        tuple.push(Json::number(std::uint64_t{inst.pc}));
        tuple.push(Json::number(std::uint64_t{inst.fetchCycle}));
        tuple.push(Json::number(std::uint64_t{inst.issueCycle}));
        tuple.push(Json::number(std::uint64_t{inst.completeCycle}));
        tuple.push(Json::number(std::uint64_t{inst.commitCycle}));
        tuple.push(Json::number(std::uint64_t{inst.squashCycle}));
        tuple.push(Json::number(
            std::uint64_t{static_cast<std::uint8_t>(inst.squashCause)}));
        tuple.push(Json::number(std::uint64_t{inst.squashTrigger}));
        tuple.push(Json::number(std::uint64_t{inst.memAddr}));
        std::uint64_t flags = 0;
        for (std::size_t bit = 0; bit < std::size(kLifecycleFlags); ++bit)
            flags |= std::uint64_t{inst.*kLifecycleFlags[bit]} << bit;
        tuple.push(Json::number(flags));
        insts.push(std::move(tuple));
    }
    Json j = Json::object();
    j.set("label", Json::str(run.label));
    j.set("cycles", Json::number(std::uint64_t{run.cycles}));
    j.set("disasm", std::move(disasm));
    j.set("insts", std::move(insts));
    return j;
}

telemetry::UarchRunTrace
uarchRunTraceFromJson(const Json &json)
{
    telemetry::UarchRunTrace run;
    run.label = json.at("label").asStr();
    run.cycles = json.at("cycles").asU64();
    for (const Json &line : json.at("disasm").items())
        run.disasm.push_back(line.asStr());
    for (const Json &tuple : json.at("insts").items()) {
        const auto &fields = tuple.items();
        if (fields.size() != 12)
            throw corpus::CorpusError("sim protocol: malformed utrace "
                                      "inst tuple");
        Lifecycle inst;
        inst.seq = fields[0].asU64();
        inst.idx = fields[1].asU64();
        inst.pc = fields[2].asU64();
        inst.fetchCycle = fields[3].asU64();
        inst.issueCycle = fields[4].asU64();
        inst.completeCycle = fields[5].asU64();
        inst.commitCycle = fields[6].asU64();
        inst.squashCycle = fields[7].asU64();
        const std::uint64_t cause = fields[8].asU64();
        if (cause > static_cast<std::uint64_t>(
                        telemetry::SquashCause::MemOrder))
            throw corpus::CorpusError("sim protocol: utrace squash cause " +
                                      std::to_string(cause) +
                                      " out of range");
        inst.squashCause = static_cast<telemetry::SquashCause>(cause);
        inst.squashTrigger = fields[9].asU64();
        inst.memAddr = fields[10].asU64();
        const std::uint64_t flags = fields[11].asU64();
        for (std::size_t bit = 0; bit < std::size(kLifecycleFlags); ++bit)
            inst.*kLifecycleFlags[bit] = (flags >> bit) & 1;
        run.insts.push_back(inst);
    }
    return run;
}

Json
okReply()
{
    Json j = Json::object();
    j.set("ok", Json::boolean(true));
    return j;
}

Json
errorReply(const std::string &message)
{
    Json j = Json::object();
    j.set("ok", Json::boolean(false));
    j.set("error", Json::str(message));
    return j;
}

} // namespace amulet::executor::protocol
