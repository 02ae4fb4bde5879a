/**
 * @file
 * Set-associative tag cache with LRU replacement.
 *
 * Caches track only presence/recency metadata; architectural data lives in
 * the MemoryImage (the simulator is execute-at-issue). The final tag state
 * is exactly what the default μarch trace snapshots (§3.2 C1).
 */

#ifndef AMULET_UARCH_CACHE_HH
#define AMULET_UARCH_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "uarch/params.hh"

namespace amulet::uarch
{

/** Tag-only set-associative cache. */
class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /** One tag-array entry (public so snapshots can hold them). */
    struct Line
    {
        bool valid = false;
        Addr lineAddr = 0;
        std::uint64_t lruStamp = 0;
        bool nonSpec = false;

        bool operator==(const Line &) const = default;
    };

    /**
     * Full warm-state snapshot: every tag-array entry plus the LRU
     * clock. Restoring reproduces not just which lines are present but
     * the exact replacement order and noClean marks, so simulation
     * after a restore() is cycle-identical to simulation after the
     * sequence of accesses that produced the saved state.
     */
    struct State
    {
        std::uint64_t stamp = 0;
        std::vector<Line> lines;
        /** Provenance tag, unique per save() and kept by copies (0:
         *  unknown, e.g. a hand-built or edited state). A cache restored
         *  from a state with the same nonzero id copies back only the
         *  sets it mutated since. Not part of equality. */
        std::uint64_t id = 0;

        bool
        operator==(const State &o) const
        {
            return stamp == o.stamp && lines == o.lines;
        }
    };

    /** Capture the complete tag/LRU state. */
    State save() const;

    /** Restore a snapshot taken from a same-geometry cache. Reuses the
     *  existing tag array; no allocation in steady state. Costs
     *  O(sets mutated since the last restore) when @p state is the one
     *  last restored, a full copy otherwise. */
    void restore(const State &state);

    /** Line-aligned address containing @p addr. */
    Addr lineAddrOf(Addr addr) const { return addr & ~lineMask_; }

    /** Is the line present? */
    bool present(Addr line_addr) const;

    /** Refresh LRU recency of a present line. */
    void touch(Addr line_addr);

    /**
     * Install a line; evicts the LRU victim if the set is full.
     * @param mark_non_spec  marks the line as touched non-speculatively
     *                       (CleanupSpec noClean metadata)
     * @param evicted_non_spec  out: was the evicted victim marked
     *                          non-speculative? (false if no eviction)
     * @return evicted line address, or kNoAddr if a free way was used or
     *         the line was already present.
     */
    Addr install(Addr line_addr, bool mark_non_spec = false,
                 bool *evicted_non_spec = nullptr);

    /** Is the set that @p line_addr maps to completely valid? */
    bool setFull(Addr line_addr) const;

    /** LRU victim line address of the set (kNoAddr if the set has a free
     *  way). */
    Addr victimOf(Addr line_addr) const;

    /** Evict the LRU victim of the set (no fill).
     *  @return the evicted line address, or kNoAddr if none was valid. */
    Addr evictVictim(Addr line_addr);

    /** Invalidate one line (no-op if absent). */
    void invalidate(Addr line_addr);

    /** Invalidate everything. O(sets mutated since the last
     *  invalidateAll) when nothing was restored in between. */
    void invalidateAll();

    /** Mark a present line as non-speculatively touched. */
    void markNonSpecTouched(Addr line_addr);

    /** Was the line touched non-speculatively since install? */
    bool nonSpecTouched(Addr line_addr) const;

    /** Sorted list of valid line addresses (the μarch trace snapshot). */
    std::vector<Addr> snapshot() const;

    /** Append the sorted valid line addresses to @p out: the baseline's
     *  cached sorted lines outside the dirty sets, merged with the
     *  freshly sorted lines of the dirty sets. No sort of the whole
     *  array, no scratch allocation. */
    void appendSnapshot(std::vector<Addr> &out) const;

    unsigned numSets() const { return sets_; }
    unsigned numWays() const { return ways_; }
    unsigned lineBytes() const { return lineBytes_; }

  private:
    unsigned setIndexOf(Addr line_addr) const
    {
        return static_cast<unsigned>((line_addr >> lineShift_) &
                                     (sets_ - 1));
    }

    Line *findLine(Addr line_addr);
    const Line *findLine(Addr line_addr) const;

    void
    markDirty(unsigned set)
    {
        if (!dirty_[set]) {
            dirty_[set] = 1;
            dirtySets_.push_back(set);
        }
    }
    void clearDirty();
    /** Reference for appendSnapshot (full scan + sort); Debug asserts
     *  compare against it. */
    std::vector<Addr> scanSnapshot() const;

    unsigned sets_;
    unsigned ways_;
    unsigned lineBytes_;
    unsigned lineShift_;
    Addr lineMask_;
    std::uint64_t stamp_ = 0;
    std::vector<Line> lines_; ///< sets_ * ways_, set-major

    /** @name Dirty-set tracking
     *  The tag array equals its *baseline* — the State last restored
     *  (baselineId_), or all-invalid after invalidateAll — everywhere
     *  except the sets listed in dirtySets_, which every mutator
     *  records. baselineSorted_ caches the baseline's sorted valid
     *  lines for appendSnapshot. */
    /// @{
    std::uint64_t baselineId_;
    std::vector<std::uint8_t> dirty_; ///< per set: listed in dirtySets_
    std::vector<unsigned> dirtySets_;
    std::vector<Addr> baselineSorted_;
    /// @}
};

} // namespace amulet::uarch

#endif // AMULET_UARCH_CACHE_HH
