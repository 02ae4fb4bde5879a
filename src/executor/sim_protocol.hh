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
 *   hello    {harness}                 -> {ctx, times}
 *   load     {program}                 -> {}
 *   save     {}                        -> {ctx}
 *   restore  {ctx}                     -> {}
 *   batch    {inputs, extras?}         -> {runs, contexts, extras,
 *                                          hitCycleCap, times}
 *   run      {input, extras?}          -> {trace, hitCycleCap, extras,
 *                                          times}
 *   classify {inputA,inputB,ctxA,ctxB} -> {signature, times}
 *   exit     {}                        -> (worker exits)
 *
 * times is the worker's cumulative TimeBreakdown; load, save and
 * restore change none of it once hello has booted the worker, so the
 * last reply that carries it is current.
 *
 * inputs, input, inputA and inputB travel at Scope::Runtime
 * (inputToWire). Only simulation results cross the wire: a run's
 * per-instruction pipeline trace never does (`campaign_cli inspect`
 * traces journaled violations in its own process).
 *
 * The worker boots its simulator inside hello and answers with that
 * boot context in full: it is the worker's anchor. Every later ctx on
 * the wire, in either direction, is a sparse delta against the anchor
 * (contextToWire); a batch reply chains its contexts from it (see
 * batchOutputToJson).
 *
 * Every struct travels as its corpus/fields.hh table, so the worker and
 * the parent decode what the other wrote through the same bounded walk:
 * the hello's harness and the inputs at Scope::Runtime (the harness's
 * Runtime entries included, sandboxes as descriptors where they have
 * one), everything else at the default scope.
 *
 * A worker that fails an op is not replaced: the backend is spent, and
 * the scheduler re-runs the program on a fresh executor with a fresh
 * worker, so no reply carries state for rebuilding a worker.
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
 *  v3: run requests may carry a flag asking the worker to trace the
 *  run's pipeline and ship the per-instruction trace in the reply
 *  (removed in v9).
 *  v4: hello also carries the cycleSkip runtime knob (fingerprint-
 *  excluded like primeCache; results are byte-identical either way,
 *  the knob only decides whether the worker's simulator fast-forwards
 *  quiescent cycles).
 *  v5: batch replies delta-code their predictor contexts: contexts[0]
 *  stays full, every later context and the end context is a sparse
 *  delta against the previous context of the same reply (see
 *  batchOutputToJson). What travels is unchanged; ~95% of a batch
 *  reply used to be full ~11 KB contexts differing by a few bytes.
 *  v6: the hello's harness carries its Runtime entries (primeCache,
 *  cycleSkip) inside "harness", encoded from the same field table as
 *  the corpus config; the two side keys of v2/v4 are gone, and a new
 *  harness knob reaches the worker with one table entry.
 *  v7: hello boots the worker and replies with its boot context in
 *  full, the anchor; every other context on the wire (save, restore,
 *  classify's ctxA/ctxB, run and classify end contexts, and a batch
 *  reply's contexts[0]) is a delta against it. Nothing but the hello carries a
 *  full context any more: a shard's canonical context is the boot
 *  context, so its per-program restore is an empty delta.
 *  v8: inputs travel at Scope::Runtime: a generator input's sandbox,
 *  one page or many, is its descriptor (stream state at the first
 *  word, size, and the sibling patch list as hex) instead of its
 *  sandbox hex, and the worker maps it as a lazy image. Edited and
 *  decoded inputs still travel as hex. A one-page input used to be
 *  8 KiB of hex, a 128-page one 1 MiB.
 *  v9: v3's tracing flag and the traces its replies carried are gone:
 *  `campaign_cli inspect` replays journaled violations traced from the
 *  journal, so no pipeline trace crosses the wire.
 *  v10: batch, run and classify replies no longer carry the worker's
 *  context after the op (nothing restores a respawned worker to it any
 *  more), hello replies carry times, and the times op is gone.
 *
 *  CampaignConfig::ctraceMemo (the other fingerprint-excluded runtime
 *  knob of its kind) never crosses the wire at all: contract traces
 *  are collected parent-side in CTraceStage, and the worker only ever
 *  sees the simulator half of the pipeline. */
inline constexpr unsigned kProtocolVersion = 10;

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
 *  context a delta against the one before it. Without an anchor the
 *  chain's root is null, so contexts[0] travels in full and the body is
 *  self-contained; the product always passes the worker's anchor.
 *  fromJson throws corpus::CorpusError on a malformed or out-of-range
 *  delta. */
Json batchOutputToJson(const SimHarness::BatchOutput &out,
                       const UarchContext *anchor = nullptr);
SimHarness::BatchOutput
batchOutputFromJson(const Json &json, const UarchContext *anchor = nullptr);

/** The protocol's input codec: @p input at Scope::Runtime, its sandbox
 *  as the generator's descriptor when it has one (corpus/fields.hh),
 *  else as hex. fromWire decodes either form, a descriptor into a lazy
 *  image, and throws corpus::CorpusError on a malformed one. */
Json inputToWire(const arch::Input &input);
arch::Input inputFromWire(const Json &json);

/** @name The requests that carry inputs, as SubprocessBackend sends
 *  them: "extras" only with @p extras, and classify's contexts as
 *  deltas against @p anchor. */
/// @{
Json batchRequest(const std::vector<const arch::Input *> &batch,
                  const std::vector<TraceFormat> *extras);
Json runRequest(const arch::Input &input,
                const std::vector<TraceFormat> *extras);
Json classifyRequest(const arch::Input &inputA, const arch::Input &inputB,
                     const UarchContext &ctxA, const UarchContext &ctxB,
                     const UarchContext &anchor);
/// @}
/// @}

/** Reply wrappers. */
Json okReply();
Json errorReply(const std::string &message);

} // namespace amulet::executor::protocol

#endif // AMULET_EXECUTOR_SIM_PROTOCOL_HH
