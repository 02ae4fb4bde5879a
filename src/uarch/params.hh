/**
 * @file
 * Micro-architectural configuration.
 *
 * Defaults approximate the gem5 O3 configuration used by the paper:
 * a 4-wide out-of-order core, 32 KiB 8-way L1 caches, a 256 KiB L2,
 * 256 L1D MSHRs, and a 64-entry D-TLB. The leakage-amplification knobs of
 * §3.4 are exactly these fields (fewer ways, fewer MSHRs).
 */

#ifndef AMULET_UARCH_PARAMS_HH
#define AMULET_UARCH_PARAMS_HH

#include <cstdint>
#include <initializer_list>

#include "common/bitutil.hh"
#include "common/types.hh"

namespace amulet::uarch
{

/** Geometry of one cache. */
struct CacheParams
{
    unsigned sizeBytes = 32 * 1024;
    unsigned ways = 8;
    unsigned lineBytes = 64;

    unsigned numSets() const { return sizeBytes / (ways * lineBytes); }
    unsigned numLines() const { return sizeBytes / lineBytes; }
};

/** Safety model used by the speculation tracker (§4.1: Futuristic). */
enum class SpecMode
{
    /** Unsafe only under unresolved control speculation. */
    Spectre,
    /** Unsafe under unresolved control speculation or unresolved older
     *  store addresses (memory speculation). */
    Futuristic,
};

/** Full core + memory-system configuration. */
struct CoreParams
{
    /** @name Pipeline widths and window sizes */
    /// @{
    unsigned fetchWidth = 4;
    unsigned issueWidth = 4;
    unsigned commitWidth = 4;
    unsigned robSize = 192;
    unsigned lqSize = 32;
    unsigned sqSize = 32;
    /// @}

    /** @name Memory hierarchy */
    /// @{
    CacheParams l1d{32 * 1024, 8, 64};
    CacheParams l1i{32 * 1024, 8, 64};
    CacheParams l2{256 * 1024, 8, 64};
    unsigned l1dMshrs = 256; ///< paper default; reduce to amplify (§3.4)
    unsigned l1iMshrs = 4;
    unsigned l1HitLatency = 2;
    unsigned l2HitLatency = 12;
    unsigned memLatency = 80;
    /** Minimum spacing between fills serviced by the shared L2/memory
     *  side (bandwidth). Couples D-side misses to I-fetch timing — the
     *  substrate of the KV1/KV2 timing channels. */
    unsigned l2ServiceInterval = 4;
    unsigned tlbEntries = 64;
    unsigned tlbWalkLatency = 20;
    /// @}

    /** @name Execution latencies */
    /// @{
    unsigned aluLatency = 1;
    unsigned mulLatency = 3;
    unsigned branchLatency = 1;
    /// @}

    /** @name Branch prediction */
    /// @{
    unsigned ghrBits = 12;
    unsigned phtBits = 12;  ///< log2(PHT entries)
    unsigned btbEntries = 512;
    unsigned mdpEntries = 512; ///< memory-dependence predictor table
    /// @}

    /** @name Defense-related structure sizes */
    /// @{
    unsigned specBufferEntries = 32; ///< InvisiSpec speculative buffer
    unsigned lfbEntries = 8;         ///< SpecLFB line-fill buffer
    unsigned cleanupLatency = 6;     ///< CleanupSpec per-line rollback cost
    /// @}

    /** Hard per-run cycle cap (safety net against livelock bugs). */
    Cycle maxCyclesPerRun = 1'000'000;

    /** Geometry the simulator can model: l1d, l1i and l2 each need a
     *  way, a power-of-two line size and a power-of-two set count that
     *  divides the size exactly (sets are indexed by mask), and each L1
     *  an MSHR. The CLI and the corpus decoder refuse anything else. */
    bool
    validGeometry() const
    {
        for (const CacheParams *c : {&l1d, &l1i, &l2}) {
            // 64-bit product: ways * lineBytes may overflow unsigned.
            const std::uint64_t way_bytes =
                std::uint64_t{c->ways} * c->lineBytes;
            if (c->ways == 0 || !isPowerOfTwo(c->lineBytes) ||
                c->sizeBytes % way_bytes != 0 ||
                !isPowerOfTwo(c->sizeBytes / way_bytes))
                return false;
        }
        return l1dMshrs >= 1 && l1iMshrs >= 1;
    }
};

} // namespace amulet::uarch

#endif // AMULET_UARCH_PARAMS_HH
