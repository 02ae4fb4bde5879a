#include "executor/sim_protocol.hh"

#include <algorithm>

#include "corpus/fields.hh"

namespace amulet::executor::protocol
{

namespace
{

/** Flat [index, value, index, value, ...] run of the bytes where
 *  @p next differs from @p base (same table size). */
Json
byteDelta(const std::vector<std::uint8_t> &base,
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
        const std::uint64_t value = runs[i + 1].asU64();
        if (index >= bytes.size() || value > 0xff)
            throw corpus::CorpusError(std::string("sim protocol: ") +
                                      table + " delta out of range");
        bytes[index] = static_cast<std::uint8_t>(value);
    }
}

/** Sparse delta of @p ctx against @p base, the previous context of the
 *  same reply: ghr, changed pht/mdp bytes, and changed BTB slots as
 *  flat [slot, tag, target, ...] triples. Consecutive contexts differ
 *  by the few predictor entries one run trained, so this is a few dozen
 *  bytes where a full context is ~11 KB. */
Json
contextDeltaToJson(const UarchContext &base, const UarchContext &ctx)
{
    const auto &bp = ctx.bp;
    if (bp.pht.size() != base.bp.pht.size() ||
        bp.btbTags.size() != base.bp.btbTags.size() ||
        bp.btbTargets.size() != bp.btbTags.size() ||
        base.bp.btbTargets.size() != base.bp.btbTags.size() ||
        ctx.mdp.size() != base.mdp.size()) {
        throw corpus::CorpusError("sim protocol: predictor geometry "
                                  "changed within one reply");
    }
    Json btb = Json::array();
    for (std::size_t i = 0; i < bp.btbTags.size(); ++i) {
        if (bp.btbTags[i] != base.bp.btbTags[i] ||
            bp.btbTargets[i] != base.bp.btbTargets[i]) {
            btb.push(Json::number(std::uint64_t{i}));
            btb.push(Json::number(bp.btbTags[i]));
            btb.push(Json::number(bp.btbTargets[i]));
        }
    }
    Json j = Json::object();
    j.set("ghr", Json::number(std::uint64_t{bp.ghr}));
    j.set("pht", byteDelta(base.bp.pht, bp.pht));
    j.set("btb", std::move(btb));
    j.set("mdp", byteDelta(base.mdp, ctx.mdp));
    return j;
}

UarchContext
contextFromDelta(const UarchContext &base, const Json &json)
{
    UarchContext ctx = base;
    ctx.bp.ghr = json.at("ghr").asUnsigned();
    applyByteDelta(ctx.bp.pht, json.at("pht"), "pht");
    applyByteDelta(ctx.mdp, json.at("mdp"), "mdp");
    const auto &btb = json.at("btb").items();
    if (btb.size() % 3)
        throw corpus::CorpusError("sim protocol: truncated btb delta");
    // Tags and targets may differ in length only in a hostile base.
    const std::size_t slots =
        std::min(ctx.bp.btbTags.size(), ctx.bp.btbTargets.size());
    for (std::size_t i = 0; i < btb.size(); i += 3) {
        const std::uint64_t slot = btb[i].asU64();
        if (slot >= slots)
            throw corpus::CorpusError("sim protocol: btb delta out of "
                                      "range");
        ctx.bp.btbTags[slot] = btb[i + 1].asU64();
        ctx.bp.btbTargets[slot] = btb[i + 2].asU64();
    }
    return ctx;
}

} // namespace

Json
batchOutputToJson(const SimHarness::BatchOutput &out,
                  const UarchContext *endCtx)
{
    Json runs = Json::array();
    for (const SimHarness::RunOutput &run : out.runs) {
        Json r = Json::object();
        r.set("trace", corpus::toJson(run.trace));
        r.set("run", corpus::encode(run.run));
        runs.push(std::move(r));
    }
    Json contexts = Json::array();
    const UarchContext *prev = nullptr;
    for (const UarchContext &ctx : out.startContexts) {
        contexts.push(prev ? contextDeltaToJson(*prev, ctx)
                           : corpus::toJson(ctx));
        prev = &ctx;
    }
    Json j = Json::object();
    j.set("runs", std::move(runs));
    j.set("contexts", std::move(contexts));
    j.set("extras", corpus::encode(out.extras));
    j.set("hitCycleCap", Json::boolean(out.hitCycleCap));
    if (endCtx) {
        j.set("endCtx", prev ? contextDeltaToJson(*prev, *endCtx)
                             : corpus::toJson(*endCtx));
    }
    return j;
}

SimHarness::BatchOutput
batchOutputFromJson(const Json &json, UarchContext *endCtx)
{
    SimHarness::BatchOutput out;
    for (const Json &r : json.at("runs").items()) {
        SimHarness::RunOutput run;
        run.trace = corpus::traceFromJson(r.at("trace"));
        run.run = corpus::decode<uarch::RunResult>(r.at("run"));
        out.runs.push_back(std::move(run));
    }
    for (const Json &c : json.at("contexts").items()) {
        out.startContexts.push_back(
            out.startContexts.empty()
                ? corpus::contextFromJson(c)
                : contextFromDelta(out.startContexts.back(), c));
    }
    out.extras =
        corpus::decode<std::vector<std::vector<UTrace>>>(json.at("extras"));
    out.hitCycleCap = json.at("hitCycleCap").asBool();
    if (endCtx) {
        const Json &end = json.at("endCtx");
        *endCtx = out.startContexts.empty()
                      ? corpus::contextFromJson(end)
                      : contextFromDelta(out.startContexts.back(), end);
    }
    return out;
}

namespace
{

/** InstLifecycle bool bits for the packed wire "flags" field. The bit
 *  assignment is part of protocol v3 — append, never reorder. */
enum : std::uint64_t
{
    kBitIssued = 1u << 0,
    kBitCompleted = 1u << 1,
    kBitCommitted = 1u << 2,
    kBitSquashed = 1u << 3,
    kBitIsLoad = 1u << 4,
    kBitIsStore = 1u << 5,
    kBitIsBranch = 1u << 6,
    kBitPredTaken = 1u << 7,
    kBitActualTaken = 1u << 8,
    kBitMispredicted = 1u << 9,
    kBitMemAddrKnown = 1u << 10,
    kBitWasUnsafeAtIssue = 1u << 11,
    kBitTainted = 1u << 12,
    kBitExposePending = 1u << 13,
    kBitInSpecBuffer = 1u << 14,
    kBitLfbHeld = 1u << 15,
    kBitUndoLogged = 1u << 16,
    kBitForwardedFromStore = 1u << 17,
    kBitBypassedUnknownStore = 1u << 18,
};

std::uint64_t
packLifecycleFlags(const telemetry::InstLifecycle &inst)
{
    std::uint64_t flags = 0;
    auto put = [&flags](bool value, std::uint64_t bit) {
        if (value)
            flags |= bit;
    };
    put(inst.issued, kBitIssued);
    put(inst.completed, kBitCompleted);
    put(inst.committed, kBitCommitted);
    put(inst.squashed, kBitSquashed);
    put(inst.isLoad, kBitIsLoad);
    put(inst.isStore, kBitIsStore);
    put(inst.isBranch, kBitIsBranch);
    put(inst.predTaken, kBitPredTaken);
    put(inst.actualTaken, kBitActualTaken);
    put(inst.mispredicted, kBitMispredicted);
    put(inst.memAddrKnown, kBitMemAddrKnown);
    put(inst.wasUnsafeAtIssue, kBitWasUnsafeAtIssue);
    put(inst.tainted, kBitTainted);
    put(inst.exposePending, kBitExposePending);
    put(inst.inSpecBuffer, kBitInSpecBuffer);
    put(inst.lfbHeld, kBitLfbHeld);
    put(inst.undoLogged, kBitUndoLogged);
    put(inst.forwardedFromStore, kBitForwardedFromStore);
    put(inst.bypassedUnknownStore, kBitBypassedUnknownStore);
    return flags;
}

void
unpackLifecycleFlags(telemetry::InstLifecycle &inst, std::uint64_t flags)
{
    inst.issued = flags & kBitIssued;
    inst.completed = flags & kBitCompleted;
    inst.committed = flags & kBitCommitted;
    inst.squashed = flags & kBitSquashed;
    inst.isLoad = flags & kBitIsLoad;
    inst.isStore = flags & kBitIsStore;
    inst.isBranch = flags & kBitIsBranch;
    inst.predTaken = flags & kBitPredTaken;
    inst.actualTaken = flags & kBitActualTaken;
    inst.mispredicted = flags & kBitMispredicted;
    inst.memAddrKnown = flags & kBitMemAddrKnown;
    inst.wasUnsafeAtIssue = flags & kBitWasUnsafeAtIssue;
    inst.tainted = flags & kBitTainted;
    inst.exposePending = flags & kBitExposePending;
    inst.inSpecBuffer = flags & kBitInSpecBuffer;
    inst.lfbHeld = flags & kBitLfbHeld;
    inst.undoLogged = flags & kBitUndoLogged;
    inst.forwardedFromStore = flags & kBitForwardedFromStore;
    inst.bypassedUnknownStore = flags & kBitBypassedUnknownStore;
}

} // namespace

Json
uarchRunTraceToJson(const telemetry::UarchRunTrace &run)
{
    Json disasm = Json::array();
    for (const std::string &line : run.disasm)
        disasm.push(Json::str(line));
    Json insts = Json::array();
    for (const telemetry::InstLifecycle &inst : run.insts) {
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
        tuple.push(Json::number(packLifecycleFlags(inst)));
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
        telemetry::InstLifecycle inst;
        inst.seq = fields[0].asU64();
        inst.idx = fields[1].asU64();
        inst.pc = fields[2].asU64();
        inst.fetchCycle = fields[3].asU64();
        inst.issueCycle = fields[4].asU64();
        inst.completeCycle = fields[5].asU64();
        inst.commitCycle = fields[6].asU64();
        inst.squashCycle = fields[7].asU64();
        inst.squashCause =
            static_cast<telemetry::SquashCause>(fields[8].asU64());
        inst.squashTrigger = fields[9].asU64();
        inst.memAddr = fields[10].asU64();
        unpackLifecycleFlags(inst, fields[11].asU64());
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
