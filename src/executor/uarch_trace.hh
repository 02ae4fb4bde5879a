/**
 * @file
 * μarch traces: attacker observations extracted from the simulator.
 *
 * The default format is the snapshot of the final L1D-cache and D-TLB
 * state (§3.2 C1), modelling a realistic software attacker probing the
 * memory system. The alternative formats of Table 5 — branch-predictor
 * state, memory-access order, branch-prediction order — and the L1I
 * extension (used for KV1/KV2) are also available.
 */

#ifndef AMULET_EXECUTOR_UARCH_TRACE_HH
#define AMULET_EXECUTOR_UARCH_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/bitutil.hh"
#include "uarch/pipeline.hh"

namespace amulet::executor
{

/** Selectable μarch trace contents. */
enum class TraceFormat
{
    L1dTlb,          ///< default: final L1D tags + D-TLB VPNs
    L1dTlbL1i,       ///< + final L1I tags (detects KV1/KV2)
    BpState,         ///< final branch-predictor state
    MemAccessOrder,  ///< ordered (pc, addr, kind) of every access issued
    BranchPredOrder, ///< ordered (pc, predicted target) at fetch
};

const char *traceFormatName(TraceFormat format);
std::vector<TraceFormat> allTraceFormats();

/** One μarch trace: canonical word sequence; equality is the relation of
 *  Definition 2.1. */
struct UTrace
{
    TraceFormat format = TraceFormat::L1dTlb;
    std::vector<std::uint64_t> words;

    /** Cached 64-bit content hash, filled at extraction/deserialization
     *  time (0 = not computed). Never serialized — recomputed on load —
     *  and never part of equality; it only accelerates inequality via
     *  tracesEqual(). */
    std::uint64_t hash64 = 0;

    bool
    operator==(const UTrace &other) const
    {
        return format == other.format && words == other.words;
    }

    /** FNV-1a over the format tag and words, one whole word per step.
     *  Each step is a bijection of the running hash, so traces of equal
     *  length that differ in a single word always hash apart. */
    std::uint64_t
    computeHash() const
    {
        std::uint64_t h = 0xcbf29ce484222325ULL;
        auto mix = [&h](std::uint64_t w) { h = (h ^ w) * 0x100000001b3ULL; };
        mix(static_cast<std::uint64_t>(format));
        for (std::uint64_t w : words)
            mix(w);
        return h;
    }

    /** Fill the cache (idempotent; extraction and serde call this). */
    void finalizeHash() { hash64 = computeHash(); }

    /** Human-readable dump (for reports). */
    std::string describe(std::size_t max_words = 64) const;
};

/**
 * Equality with a hash fast path: two traces whose cached hashes both
 * exist and differ cannot be equal — the common case in relational
 * analysis, where almost every comparison is between *different*
 * traces of O(cache-size) words. Falls back to deep comparison on a
 * hash match (collision safety) or when either cache is unset, so the
 * result is always exact equality.
 */
inline bool
tracesEqual(const UTrace &a, const UTrace &b)
{
    if (a.hash64 != 0 && b.hash64 != 0 && a.hash64 != b.hash64)
        return false;
    return a == b;
}

/** Extract a trace of @p format from the pipeline's final state. */
UTrace extractTrace(const uarch::Pipeline &pipe, TraceFormat format);

/** The addresses present in one trace but not the other (L1D/TLB formats;
 *  used by signature analysis). */
std::vector<Addr> traceDiffAddrs(const UTrace &a, const UTrace &b);

} // namespace amulet::executor

#endif // AMULET_EXECUTOR_UARCH_TRACE_HH
