/**
 * @file
 * Guest address-space layout.
 *
 * Mirrors the paper's test setup (§3.1, §3.5): generated code lives in a
 * code region, all data accesses are forced into a memory sandbox of 1-128
 * 4 KiB pages (a power of two) based at the R14 register, and the
 * cache-priming region supplies addresses *outside* the sandbox that
 * conflict with it in the L1 (same set index, different tags) for the
 * fill-with-conflicts initialization (§3.2 C2).
 *
 * Virtual addresses map to physical addresses identically; the D-TLB still
 * tracks which pages were touched, which is what the TLB part of the μarch
 * trace observes.
 */

#ifndef AMULET_MEM_ADDRESS_MAP_HH
#define AMULET_MEM_ADDRESS_MAP_HH

#include <vector>

#include "common/types.hh"
#include "mem/memory_image.hh"

namespace amulet::mem
{

/** Layout parameters for one test configuration. */
struct AddressMap
{
    /** Base of the code region (block 0 starts here). */
    Addr codeBase = 0x400000;

    /** Base of the data sandbox (R14 at test start). */
    Addr sandboxBase = 0x800000;

    /** Sandbox size in 4 KiB pages (paper: 1 for most defenses, 128
     *  for STT to exercise TLB leakage). */
    unsigned sandboxPages = 1;

    /** Base of the priming region used to fill caches with conflicting,
     *  outside-sandbox addresses. Far from the sandbox so its pages and
     *  lines are disjoint. */
    Addr primeBase = 0x10000000;

    /** Legal sandbox geometry: a power of two in 1..kMaxSandboxPages
     *  pages. Anything else breaks sandboxMask() (0 pages underflows
     *  it; 3 pages masks to 0x2fff, which never reaches page 1). */
    static constexpr bool
    validSandboxPages(std::uint64_t pages)
    {
        return pages >= 1 && pages <= kMaxSandboxPages &&
               (pages & (pages - 1)) == 0;
    }

    /** Sandbox size in bytes. */
    Addr sandboxSize() const { return Addr{sandboxPages} * kPageSize; }

    /** Mask applied to index registers before memory accesses
     *  (the `AND reg, 0b111111111111` idiom from the paper). */
    Addr sandboxMask() const { return sandboxSize() - 1; }

    /** One past the sandbox end. */
    Addr sandboxEnd() const { return sandboxBase + sandboxSize(); }

    /** Is @p addr inside the sandbox (with @p slack guard bytes)? */
    bool
    inSandbox(Addr addr, Addr slack = 0) const
    {
        return addr >= sandboxBase && addr < sandboxEnd() + slack;
    }

    /**
     * Addresses outside the sandbox that map to every (set, way) of a
     * cache with @p num_sets sets, @p num_ways ways and @p line_bytes
     * lines — the 64 x 8 fill addresses of §3.2. Way copies are spaced by
     * the cache stride so they conflict within a set.
     */
    std::vector<Addr> conflictFillAddrs(unsigned num_sets, unsigned num_ways,
                                        unsigned line_bytes) const;
};

} // namespace amulet::mem

#endif // AMULET_MEM_ADDRESS_MAP_HH
