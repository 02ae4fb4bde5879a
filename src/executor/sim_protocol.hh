/**
 * @file
 * Wire protocol between SubprocessBackend and the amulet_sim_worker
 * process: newline-delimited JSON over stdin/stdout, reusing the corpus
 * serde building blocks (inputs, traces, contexts travel in exactly the
 * journal's canonical encoding; programs travel as disassembly).
 *
 * Each request line gets exactly one reply line ({"ok":true,...} or
 * {"ok":false,"error":...}). Operations:
 *
 *   hello    {harness}                 -> {}
 *   load     {program}                 -> {}
 *   save     {}                        -> {ctx}
 *   restore  {ctx}                     -> {}
 *   batch    {inputs, extras?}         -> {runs, contexts, extras?,
 *                                          hitCycleCap, endCtx}
 *            (contexts[1..] and endCtx are deltas, see
 *             batchOutputToJson)
 *   run      {input, extras?}          -> {trace, hitCycleCap, extras?,
 *                                          endCtx}
 *   classify {inputA,inputB,ctxA,ctxB} -> {signature, endCtx}
 *   times    {}                        -> {times}
 *   exit     {}                        -> (worker exits)
 *
 * Flat structs travel as their corpus/fields.hh tables: the hello's
 * harness is encoded at Scope::Runtime (its Runtime entries included),
 * run results and times at the default scope.
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
 *
 *  CampaignConfig::ctraceMemo (the other fingerprint-excluded runtime
 *  knob of its kind) never crosses the wire at all: contract traces
 *  are collected parent-side in CTraceStage, and the worker only ever
 *  sees the simulator half of the pipeline. */
inline constexpr unsigned kProtocolVersion = 6;

/** @name Shared field encodings */
/// @{
/** A batch reply body. contexts[0] is a full context; every later
 *  context, and endCtx when given, is a sparse delta against the
 *  context before it in the same body (the last of contexts for
 *  endCtx, or a full context when contexts is empty). A body is thus
 *  self-contained. fromJson throws corpus::CorpusError on a malformed
 *  or out-of-range delta; with @p endCtx it also decodes "endCtx",
 *  which must then be present. */
Json batchOutputToJson(const SimHarness::BatchOutput &out,
                       const UarchContext *endCtx = nullptr);
SimHarness::BatchOutput batchOutputFromJson(const Json &json,
                                            UarchContext *endCtx = nullptr);

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
