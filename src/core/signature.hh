/**
 * @file
 * Violation signatures (§3.3 "Identifying Unique Violations").
 *
 * A confirmed violation is re-run with debug-event recording enabled; the
 * two event streams plus the trace difference are matched against known
 * leak patterns (the equivalent of the paper's regex scripts over gem5
 * debug logs). Distinct signatures are the "unique violations" Table 4
 * counts.
 */

#ifndef AMULET_CORE_SIGNATURE_HH
#define AMULET_CORE_SIGNATURE_HH

#include <string>

#include "executor/sim_harness.hh"
#include "isa/program.hh"

namespace amulet::core
{

/** Signature names (stable identifiers used in reports and tests). */
namespace sig
{
inline constexpr const char *kUv1SpecEviction = "UV1-spec-eviction";
inline constexpr const char *kUv2MshrInterference =
    "UV2-mshr-interference";
inline constexpr const char *kUv3StoreNotCleaned = "UV3-store-not-cleaned";
inline constexpr const char *kUv4SplitNotCleaned = "UV4-split-not-cleaned";
inline constexpr const char *kUv5Overclean = "UV5-overclean";
inline constexpr const char *kUv6FirstLoadBypass = "UV6-first-load-bypass";
inline constexpr const char *kKv3TaintedStoreTlb = "KV3-tainted-store-tlb";
inline constexpr const char *kKv12InstFetch = "KV1/KV2-inst-fetch";
inline constexpr const char *kSpectreV1 = "spectre-v1-branch";
inline constexpr const char *kSpectreV4 = "spectre-v4-store-bypass";
inline constexpr const char *kTiming = "timing-channel";
} // namespace sig

/**
 * Classify a violation from an event-logged replay of its input pair
 * (SimHarness::replayPair, each input from its original μarch context)
 * by matching leak patterns against the differing trace entries.
 * @p prog is the replayed program (its code range marks inst-fetch
 * leaks).
 */
std::string classifyViolation(const isa::FlatProgram &prog,
                              const executor::SimHarness::PairOutput &replay);

} // namespace amulet::core

#endif // AMULET_CORE_SIGNATURE_HH
