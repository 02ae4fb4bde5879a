/**
 * @file
 * Wire protocol between SubprocessBackend and the amulet_sim_worker
 * process: newline-delimited JSON over stdin/stdout. Traces travel as
 * their corpus/fields.hh tables, in exactly the journal's canonical
 * encoding; inputs as their tables at Scope::Runtime, so a generator
 * input's sandbox is its descriptor, not its bytes (inputToWire);
 * predictor contexts as deltas against the worker's boot context
 * (below); programs as disassembly.
 *
 * Each request line gets exactly one reply line ({"ok":true,...} or
 * {"ok":false,"error":...}). Operations:
 *
 *   hello    {harness}                 -> {ctx}
 *   load     {program}                 -> {}
 *   save     {}                        -> {ctx}
 *   restore  {ctx}                     -> {}
 *   batch    {inputs, extras?}         -> {runs, contexts, extras?,
 *                                          hitCycleCap, endCtx}
 *   run      {input, extras?}          -> {trace, hitCycleCap, extras?,
 *                                          endCtx}
 *   classify {inputA,inputB,ctxA,ctxB} -> {signature, endCtx}
 *
 * (inputs, input, inputA and inputB at Scope::Runtime: inputToWire)
 *   times    {}                        -> {times}
 *   exit     {}                        -> (worker exits)
 *
 * The worker boots its simulator inside hello and answers with that
 * boot context in full: it is the worker's anchor. Every later ctx on
 * the wire, in either direction, is a sparse delta against the anchor
 * (contextToWire); a batch reply chains its contexts from it (see
 * batchOutputToJson). A respawned worker sends its own anchor.
 *
 * Every struct travels as its corpus/fields.hh table, so the worker and
 * the parent decode what the other wrote through the same bounded walk:
 * the hello's harness and the inputs at Scope::Runtime (the harness's
 * Runtime entries included, sandboxes as descriptors where they have
 * one), everything else at the default scope.
 *
 * Every state-mutating reply carries endCtx, the worker's predictor
 * state after the operation. The backend tracks it so a crashed worker
 * can be restarted and brought to the exact pre-operation state
 * (hello + load + restore) before the operation is retried — which is
 * what makes recovery invisible in the campaign's results.
 */

#ifndef AMULET_EXECUTOR_SIM_PROTOCOL_HH
#define AMULET_EXECUTOR_SIM_PROTOCOL_HH

#include <string>
#include <vector>

#include "corpus/serde.hh"
#include "executor/backend.hh"

namespace amulet::executor::protocol
{

using corpus::Json;

/** Bumped on any incompatible wire change; hello carries it.
 *  v2: hello carries the primeCache runtime knob (it is deliberately
 *  not part of the serialized harness config — the corpus fingerprint
 *  must not change with it), and times replies carry primeSec.
 *  v3: run requests may carry "utrace":true; the reply then carries
 *  "utrace", the serialized per-instruction pipeline trace of the run
 *  (uarchRunTraceToJson). Purely additive for the result path — traced
 *  and untraced runs are state-identical.
 *  v4: hello also carries the cycleSkip runtime knob (fingerprint-
 *  excluded like primeCache; results are byte-identical either way,
 *  the knob only decides whether the worker's simulator fast-forwards
 *  quiescent cycles).
 *  v5: batch replies delta-code their predictor contexts: contexts[0]
 *  stays full, every later context and endCtx is a sparse delta
 *  against the previous context of the same reply (see
 *  batchOutputToJson). What travels is unchanged; ~95% of a batch
 *  reply used to be full ~11 KB contexts differing by a few bytes.
 *  v6: the hello's harness carries its Runtime entries (primeCache,
 *  cycleSkip) inside "harness", encoded from the same field table as
 *  the corpus config; the two side keys of v2/v4 are gone, and a new
 *  harness knob reaches the worker with one table entry.
 *  v7: hello boots the worker and replies with its boot context in
 *  full, the anchor; every other context on the wire (save, restore,
 *  classify's ctxA/ctxB, run and classify endCtx, and a batch reply's
 *  contexts[0]) is a delta against it. Nothing but the hello carries a
 *  full context any more: a shard's canonical context is the boot
 *  context, so its per-program restore is an empty delta.
 *  v8: inputs travel at Scope::Runtime: a generator input's sandbox,
 *  one page or many, is its descriptor (stream state at the first
 *  word, size, and the sibling patch list as hex) instead of its
 *  sandbox hex, and the worker maps it as a lazy image. Edited and
 *  decoded inputs still travel as hex. A one-page input used to be
 *  8 KiB of hex, a 128-page one 1 MiB.
 *
 *  CampaignConfig::ctraceMemo (the other fingerprint-excluded runtime
 *  knob of its kind) never crosses the wire at all: contract traces
 *  are collected parent-side in CTraceStage, and the worker only ever
 *  sees the simulator half of the pipeline. */
inline constexpr unsigned kProtocolVersion = 8;

/** @name Shared field encodings */
/// @{
/** The protocol's one context codec: @p ctx in full when @p base is
 *  null (only the hello's anchor), else a sparse delta against *base:
 *  ghr, the changed pht/mdp bytes as flat [index, value, ...] runs, and
 *  the changed BTB slots as flat [slot, tag, target, ...] triples.
 *  toWire throws corpus::CorpusError ("does not fit") when a table's
 *  size differs from the base's; fromWire throws it on a malformed or
 *  out-of-range delta, and a decoded delta has the base's geometry. */
Json contextToWire(const UarchContext *base, const UarchContext &ctx);
UarchContext contextFromWire(const UarchContext *base, const Json &json);

/** A batch reply body. Its contexts form one delta chain rooted at
 *  @p anchor: contexts[0] is a delta against the anchor, every later
 *  context a delta against the one before it, and endCtx, when given,
 *  a delta against the last of contexts (the anchor when contexts is
 *  empty). Without an anchor the chain's root is null, so contexts[0]
 *  (or endCtx) travels in full and the body is self-contained; the
 *  product always passes the worker's anchor. fromJson throws
 *  corpus::CorpusError on a malformed or out-of-range delta; with
 *  @p endCtx it also decodes "endCtx", which must then be present. */
Json batchOutputToJson(const SimHarness::BatchOutput &out,
                       const UarchContext *endCtx = nullptr,
                       const UarchContext *anchor = nullptr);
SimHarness::BatchOutput
batchOutputFromJson(const Json &json, UarchContext *endCtx = nullptr,
                    const UarchContext *anchor = nullptr);

/** The protocol's input codec: @p input at Scope::Runtime, its sandbox
 *  as the generator's descriptor when it has one (corpus/fields.hh),
 *  else as hex. fromWire decodes either form, a descriptor into a lazy
 *  image, and throws corpus::CorpusError on a malformed one. */
Json inputToWire(const arch::Input &input);
arch::Input inputFromWire(const Json &json);

/** @name The requests that carry inputs, as SubprocessBackend sends
 *  them: "extras" only with @p extras, "utrace" only when @p utrace, and
 *  classify's contexts as deltas against @p anchor. */
/// @{
Json batchRequest(const std::vector<const arch::Input *> &batch,
                  const std::vector<TraceFormat> *extras, bool utrace);
Json runRequest(const arch::Input &input,
                const std::vector<TraceFormat> *extras, bool utrace);
Json classifyRequest(const arch::Input &inputA, const arch::Input &inputB,
                     const UarchContext &ctxA, const UarchContext &ctxB,
                     const UarchContext &anchor);
/// @}

/** Per-instruction pipeline trace of one run (protocol v3 "utrace"
 *  reply field). Lossless: fromJson(toJson(t)) == t, which is what lets
 *  the forensics path treat subprocess traces exactly like in-process
 *  ones. */
Json uarchRunTraceToJson(const telemetry::UarchRunTrace &run);
telemetry::UarchRunTrace uarchRunTraceFromJson(const Json &json);
/// @}

/** Reply wrappers. */
Json okReply();
Json errorReply(const std::string &message);

} // namespace amulet::executor::protocol

#endif // AMULET_EXECUTOR_SIM_PROTOCOL_HH
