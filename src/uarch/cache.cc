#include "uarch/cache.hh"

#include <algorithm>
#include <atomic>
#include <cassert>

namespace amulet::uarch
{

namespace
{

/** Baseline id of the all-invalid array (construction, invalidateAll);
 *  save() never hands it out. */
constexpr std::uint64_t kInvalidBaseline = 1;

std::uint64_t
nextStateId()
{
    // Process-wide, so ids never collide across caches or threads.
    static std::atomic<std::uint64_t> next{kInvalidBaseline + 1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

Cache::Cache(const CacheParams &params)
    : sets_(params.numSets()),
      ways_(params.ways),
      lineBytes_(params.lineBytes),
      lineShift_(floorLog2(params.lineBytes)),
      lineMask_(params.lineBytes - 1),
      lines_(static_cast<std::size_t>(sets_) * ways_),
      baselineId_(kInvalidBaseline),
      dirty_(sets_, 0)
{
    assert(isPowerOfTwo(sets_) && isPowerOfTwo(lineBytes_));
    dirtySets_.reserve(sets_);
}

Cache::Line *
Cache::findLine(Addr line_addr)
{
    const unsigned set = setIndexOf(line_addr);
    for (unsigned w = 0; w < ways_; ++w) {
        Line &line = lines_[static_cast<std::size_t>(set) * ways_ + w];
        if (line.valid && line.lineAddr == line_addr)
            return &line;
    }
    return nullptr;
}

const Cache::Line *
Cache::findLine(Addr line_addr) const
{
    return const_cast<Cache *>(this)->findLine(line_addr);
}

bool
Cache::present(Addr line_addr) const
{
    return findLine(line_addr) != nullptr;
}

void
Cache::touch(Addr line_addr)
{
    if (Line *line = findLine(line_addr)) {
        line->lruStamp = ++stamp_;
        markDirty(setIndexOf(line_addr));
    }
}

Addr
Cache::install(Addr line_addr, bool mark_non_spec, bool *evicted_non_spec)
{
    assert((line_addr & lineMask_) == 0);
    if (evicted_non_spec)
        *evicted_non_spec = false;
    const unsigned set = setIndexOf(line_addr);
    markDirty(set);
    if (Line *line = findLine(line_addr)) {
        line->lruStamp = ++stamp_;
        if (mark_non_spec)
            line->nonSpec = true;
        return kNoAddr;
    }
    Line *slot = nullptr;
    for (unsigned w = 0; w < ways_; ++w) {
        Line &line = lines_[static_cast<std::size_t>(set) * ways_ + w];
        if (!line.valid) {
            slot = &line;
            break;
        }
        if (!slot || line.lruStamp < slot->lruStamp)
            slot = &line;
    }
    Addr evicted = kNoAddr;
    if (slot->valid) {
        evicted = slot->lineAddr;
        if (evicted_non_spec)
            *evicted_non_spec = slot->nonSpec;
    }
    slot->valid = true;
    slot->lineAddr = line_addr;
    slot->lruStamp = ++stamp_;
    slot->nonSpec = mark_non_spec;
    return evicted;
}

bool
Cache::setFull(Addr line_addr) const
{
    const unsigned set = setIndexOf(line_addr);
    for (unsigned w = 0; w < ways_; ++w) {
        if (!lines_[static_cast<std::size_t>(set) * ways_ + w].valid)
            return false;
    }
    return true;
}

Addr
Cache::victimOf(Addr line_addr) const
{
    const unsigned set = setIndexOf(line_addr);
    const Line *victim = nullptr;
    for (unsigned w = 0; w < ways_; ++w) {
        const Line &line = lines_[static_cast<std::size_t>(set) * ways_ + w];
        if (!line.valid)
            return kNoAddr;
        if (!victim || line.lruStamp < victim->lruStamp)
            victim = &line;
    }
    return victim->lineAddr;
}

Addr
Cache::evictVictim(Addr line_addr)
{
    const Addr victim = victimOf(line_addr);
    if (victim != kNoAddr)
        invalidate(victim);
    return victim;
}

void
Cache::invalidate(Addr line_addr)
{
    if (Line *line = findLine(line_addr)) {
        *line = Line{};
        markDirty(setIndexOf(line_addr));
    }
}

void
Cache::invalidateAll()
{
    if (baselineId_ == kInvalidBaseline) {
        // Only the dirty sets can hold anything.
        for (unsigned set : dirtySets_) {
            const auto first =
                lines_.begin() + static_cast<std::ptrdiff_t>(set) * ways_;
            std::fill(first, first + ways_, Line{});
        }
    } else {
        std::fill(lines_.begin(), lines_.end(), Line{});
        baselineId_ = kInvalidBaseline;
        baselineSorted_.clear();
    }
    clearDirty();
    stamp_ = 0;
    assert(std::all_of(lines_.begin(), lines_.end(),
                       [](const Line &l) { return l == Line{}; }) &&
           "dirty-set invalidate missed a mutation");
}

void
Cache::clearDirty()
{
    for (unsigned set : dirtySets_)
        dirty_[set] = 0;
    dirtySets_.clear();
}

void
Cache::markNonSpecTouched(Addr line_addr)
{
    if (Line *line = findLine(line_addr)) {
        line->nonSpec = true;
        markDirty(setIndexOf(line_addr));
    }
}

bool
Cache::nonSpecTouched(Addr line_addr) const
{
    const Line *line = findLine(line_addr);
    return line && line->nonSpec;
}

Cache::State
Cache::save() const
{
    return {stamp_, lines_, nextStateId()};
}

void
Cache::restore(const State &state)
{
    assert(state.lines.size() == lines_.size() &&
           "cache snapshot geometry mismatch");
    stamp_ = state.stamp;
    if (state.id != 0 && state.id == baselineId_) {
        // Everything outside the dirty sets still equals the state.
        for (unsigned set : dirtySets_) {
            const auto first = static_cast<std::ptrdiff_t>(set) * ways_;
            std::copy_n(state.lines.begin() + first, ways_,
                        lines_.begin() + first);
        }
    } else {
        // Element-wise copy into the retained array: the vector
        // capacities match, so the copy allocates nothing.
        lines_ = state.lines;
        baselineId_ = state.id;
        baselineSorted_ = scanSnapshot();
    }
    clearDirty();
    assert(lines_ == state.lines && "dirty-set restore missed a mutation");
}

std::vector<Addr>
Cache::scanSnapshot() const
{
    std::vector<Addr> out;
    for (const Line &line : lines_) {
        if (line.valid)
            out.push_back(line.lineAddr);
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<Addr>
Cache::snapshot() const
{
    std::vector<Addr> out;
    appendSnapshot(out);
    return out;
}

void
Cache::appendSnapshot(std::vector<Addr> &out) const
{
    // The dirty sets' valid lines go to the end of `out` and are sorted
    // there; the baseline's clean lines are then merged in back to
    // front, so the merge needs no second buffer.
    const std::size_t mark = out.size();
    for (unsigned set : dirtySets_) {
        const Line *ways = &lines_[static_cast<std::size_t>(set) * ways_];
        for (unsigned w = 0; w < ways_; ++w) {
            if (ways[w].valid)
                out.push_back(ways[w].lineAddr);
        }
    }
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(mark), out.end());

    const auto clean = [this](Addr line) { return !dirty_[setIndexOf(line)]; };
    const std::size_t num_clean = static_cast<std::size_t>(
        std::count_if(baselineSorted_.begin(), baselineSorted_.end(), clean));
    std::size_t dirty_end = out.size();
    out.resize(out.size() + num_clean);
    std::size_t w = out.size();
    for (auto it = baselineSorted_.rbegin(); it != baselineSorted_.rend();
         ++it) {
        if (!clean(*it))
            continue;
        while (dirty_end > mark && out[dirty_end - 1] > *it)
            out[--w] = out[--dirty_end];
        out[--w] = *it;
    }
    // The dirty lines left over are smaller than every clean one and
    // already sit in place.
    assert(w == dirty_end);
    assert(std::vector<Addr>(out.begin() + static_cast<std::ptrdiff_t>(mark),
                             out.end()) == scanSnapshot() &&
           "sort-free snapshot differs from the full scan");
}

} // namespace amulet::uarch
