/**
 * @file
 * Unit tests for the μarch building blocks: caches (LRU, eviction,
 * noClean metadata), TLB, branch/memory-dependence predictors (including
 * context snapshot round-trips), side buffers, the memory system's
 * MSHR/queue behaviour, the MemSnapshot warm-state save/restore the
 * prime cache rests on, the incremental bookkeeping's reference
 * checks (safety frontier, dataflow edges, STT taint, dirty-set reset,
 * sort-free trace extraction), and pinned digests of the simulator's
 * event stream and of every tracer lifecycle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <memory>
#include <optional>
#include <unordered_map>

#include "common/event_log.hh"
#include "common/rng.hh"
#include "core/campaign.hh"
#include "core/generator.hh"
#include "core/input_gen.hh"
#include "defense/factory.hh"
#include "executor/sim_harness.hh"
#include "isa/assembler.hh"
#include "telemetry/uarch_trace.hh"
#include "uarch/cache.hh"
#include "uarch/mem_system.hh"
#include "uarch/pipeline.hh"
#include "uarch/predictors.hh"
#include "uarch/tlb.hh"

namespace
{

using namespace amulet;
using namespace amulet::uarch;

TEST(Cache, InstallHitAndLru)
{
    CacheParams p{1024, 2, 64}; // 8 sets, 2 ways
    Cache cache(p);
    EXPECT_EQ(cache.numSets(), 8u);

    EXPECT_EQ(cache.install(0x0000), kNoAddr);
    EXPECT_EQ(cache.install(0x2000), kNoAddr); // same set, way 2
    EXPECT_TRUE(cache.setFull(0x0000));
    EXPECT_EQ(cache.victimOf(0x0000), 0x0000u); // LRU = first installed

    cache.touch(0x0000); // refresh; victim becomes 0x2000
    EXPECT_EQ(cache.victimOf(0x0000), 0x2000u);
    EXPECT_EQ(cache.install(0x4000), 0x2000u); // evicts LRU
    EXPECT_TRUE(cache.present(0x0000));
    EXPECT_FALSE(cache.present(0x2000));
}

TEST(Cache, ReinstallRefreshesWithoutEviction)
{
    CacheParams p{1024, 2, 64};
    Cache cache(p);
    cache.install(0x0000);
    cache.install(0x2000);
    EXPECT_EQ(cache.install(0x0000), kNoAddr); // already present
    EXPECT_EQ(cache.victimOf(0x0000), 0x2000u);
}

TEST(Cache, NonSpecMetadata)
{
    CacheParams p{1024, 2, 64};
    Cache cache(p);
    cache.install(0x0000, false);
    EXPECT_FALSE(cache.nonSpecTouched(0x0000));
    cache.markNonSpecTouched(0x0000);
    EXPECT_TRUE(cache.nonSpecTouched(0x0000));
    // Reinstall with mark keeps it; eviction clears it.
    bool victim_non_spec = false;
    cache.install(0x2000, false);
    cache.touch(0x2000);
    cache.touch(0x2000);
    cache.install(0x0000); // refresh
    cache.install(0x4000, false, &victim_non_spec); // evicts 0x2000
    EXPECT_FALSE(victim_non_spec);
}

TEST(Cache, EvictedNonSpecReported)
{
    CacheParams p{128, 1, 64}; // direct-mapped, 2 sets
    Cache cache(p);
    cache.install(0x0000, true);
    bool victim_non_spec = false;
    const Addr evicted = cache.install(0x0080, false, &victim_non_spec);
    EXPECT_EQ(evicted, 0x0000u);
    EXPECT_TRUE(victim_non_spec);
}

TEST(Cache, SnapshotSortedAndComplete)
{
    CacheParams p{1024, 2, 64};
    Cache cache(p);
    cache.install(0x1000);
    cache.install(0x0040);
    cache.install(0x3fc0);
    const auto snap = cache.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_TRUE(std::is_sorted(snap.begin(), snap.end()));
    cache.invalidateAll();
    EXPECT_TRUE(cache.snapshot().empty());
}

TEST(Cache, SaveRestoreRoundTripKeepsLruOrder)
{
    CacheParams p{1024, 2, 64}; // 8 sets, 2 ways
    Cache cache(p);
    cache.install(0x0000, true);
    cache.install(0x2000);
    cache.touch(0x0000); // victim is now 0x2000
    const Cache::State state = cache.save();

    cache.invalidateAll();
    cache.install(0x4000);
    EXPECT_FALSE(cache.save() == state);

    cache.restore(state);
    EXPECT_EQ(cache.save(), state);
    EXPECT_TRUE(cache.nonSpecTouched(0x0000));
    EXPECT_EQ(cache.victimOf(0x0000), 0x2000u)
        << "LRU order must survive the round trip";
    EXPECT_EQ(cache.install(0x4000), 0x2000u);
}

TEST(Tlb, FillEvictLru)
{
    Tlb tlb(2);
    EXPECT_EQ(tlb.fill(1), kNoAddr);
    EXPECT_EQ(tlb.fill(2), kNoAddr);
    tlb.touch(1);
    EXPECT_EQ(tlb.fill(3), 2u); // LRU victim is VPN 2
    EXPECT_TRUE(tlb.present(1));
    EXPECT_FALSE(tlb.present(2));
    const auto snap = tlb.snapshot();
    EXPECT_EQ(snap, (std::vector<Addr>{1, 3}));
}

TEST(BranchPredictor, ColdPredictsFallThrough)
{
    CoreParams params;
    BranchPredictor bp(params);
    const auto pred = bp.predict(0x400000, true);
    EXPECT_FALSE(pred.taken); // cold BTB: not actionable
    EXPECT_FALSE(pred.btbHit);
}

TEST(BranchPredictor, TrainsTowardsTaken)
{
    CoreParams params;
    BranchPredictor bp(params);
    for (int i = 0; i < 4; ++i)
        bp.train(0x400000, true, 42, bp.ghr());
    const auto pred = bp.predict(0x400000, true);
    EXPECT_TRUE(pred.taken);
    EXPECT_TRUE(pred.btbHit);
    EXPECT_EQ(pred.targetIdx, 42u);
}

TEST(BranchPredictor, SnapshotRoundTrip)
{
    CoreParams params;
    BranchPredictor bp(params);
    for (int i = 0; i < 10; ++i) {
        bp.train(0x400000 + 4 * i, i % 2 == 0, i, bp.ghr());
        bp.updateGhrSpeculative(i % 3 == 0);
    }
    const auto state = bp.save();
    const auto words = bp.traceWords();
    bp.reset();
    EXPECT_NE(bp.traceWords(), words);
    bp.restore(state);
    EXPECT_EQ(bp.traceWords(), words);
    EXPECT_EQ(bp.save(), state);
}

TEST(BranchPredictor, GhrRestoreAfterSquash)
{
    CoreParams params;
    BranchPredictor bp(params);
    const std::uint32_t before = bp.ghr();
    bp.updateGhrSpeculative(true);
    bp.updateGhrSpeculative(false);
    EXPECT_NE(bp.ghr(), before);
    bp.restoreGhr(before);
    EXPECT_EQ(bp.ghr(), before);
}

TEST(MemDepPredictor, ColdPredictsNoDependence)
{
    CoreParams params;
    MemDepPredictor mdp(params);
    EXPECT_FALSE(mdp.predictDependence(0x400010));
    mdp.trainViolation(0x400010);
    EXPECT_TRUE(mdp.predictDependence(0x400010));
    const auto state = mdp.save();
    mdp.reset();
    EXPECT_FALSE(mdp.predictDependence(0x400010));
    mdp.restore(state);
    EXPECT_TRUE(mdp.predictDependence(0x400010));
}

TEST(SideBuffer, FifoCapacity)
{
    SideBuffer buf(2);
    EXPECT_EQ(buf.insert(0x100), kNoAddr);
    EXPECT_EQ(buf.insert(0x200), kNoAddr);
    EXPECT_EQ(buf.insert(0x300), 0x100u); // FIFO eviction
    EXPECT_FALSE(buf.contains(0x100));
    EXPECT_TRUE(buf.contains(0x200));
    buf.erase(0x200);
    EXPECT_FALSE(buf.contains(0x200));
    EXPECT_EQ(buf.insert(0x300), kNoAddr); // duplicate: no-op
}

class MemSystemTest : public ::testing::Test
{
  protected:
    MemSystemTest() : mem_(params_, log_)
    {
        mem_.setCompletionHandler(
            [this](const MemReq &req) { completed_.push_back(req); });
    }

    void
    tickUntil(Cycle cycles)
    {
        for (Cycle c = now_ + 1; c <= now_ + cycles; ++c)
            mem_.tick(c);
        now_ += cycles;
    }

    CoreParams params_;
    EventLog log_;
    MemSystem mem_;
    std::vector<MemReq> completed_;
    Cycle now_ = 0;
};

TEST_F(MemSystemTest, HitCompletesAtHitLatency)
{
    mem_.l1d().install(0x1000);
    MemReq req;
    req.lineAddr = 0x1000;
    mem_.enqueueL1D(req);
    tickUntil(1 + params_.l1HitLatency);
    ASSERT_EQ(completed_.size(), 1u);
    EXPECT_TRUE(completed_[0].wasHit);
}

TEST_F(MemSystemTest, MissFillsThroughMemoryAndInstalls)
{
    MemReq req;
    req.lineAddr = 0x1000;
    mem_.enqueueL1D(req);
    tickUntil(2);
    EXPECT_TRUE(completed_.empty());
    EXPECT_EQ(mem_.l1dMshrsInUse(), 1u);
    tickUntil(params_.memLatency + params_.l2ServiceInterval + 2);
    ASSERT_EQ(completed_.size(), 1u);
    EXPECT_FALSE(completed_[0].wasHit);
    EXPECT_TRUE(mem_.l1d().present(0x1000));
    EXPECT_TRUE(mem_.l2().present(0x1000));
    EXPECT_EQ(mem_.l1dMshrsInUse(), 0u);
}

TEST_F(MemSystemTest, CoalescingSharesOneMshr)
{
    MemReq a, b;
    a.lineAddr = b.lineAddr = 0x1000;
    a.seq = 1;
    b.seq = 2;
    mem_.enqueueL1D(a);
    mem_.enqueueL1D(b);
    tickUntil(3);
    EXPECT_EQ(mem_.l1dMshrsInUse(), 1u);
    tickUntil(params_.memLatency + 4);
    EXPECT_EQ(completed_.size(), 2u);
}

TEST_F(MemSystemTest, MshrExhaustionBlocksQueueHead)
{
    CoreParams small = params_;
    small.l1dMshrs = 1;
    EventLog log;
    MemSystem mem(small, log);
    std::vector<MemReq> done;
    mem.setCompletionHandler(
        [&done](const MemReq &req) { done.push_back(req); });

    MemReq a, b, hit;
    a.lineAddr = 0x1000;
    b.lineAddr = 0x2000;
    hit.lineAddr = 0x3000;
    mem.l1d().install(0x3000); // would hit instantly...
    mem.enqueueL1D(a);
    mem.enqueueL1D(b);
    mem.enqueueL1D(hit); // ...but is stuck behind b (head-of-line)
    for (Cycle c = 1; c <= 10; ++c)
        mem.tick(c);
    EXPECT_TRUE(done.empty());
    EXPECT_EQ(mem.l1dMshrsInUse(), 1u); // b is stalled at the head
    for (Cycle c = 11; c <= 2 * small.memLatency + 20; ++c)
        mem.tick(c);
    EXPECT_EQ(done.size(), 3u);
}

TEST_F(MemSystemTest, SideBufferHitServedWhenFlagged)
{
    SideBuffer buf(4);
    buf.insert(0x1000);
    mem_.setSideBuffer(&buf);
    MemReq req;
    req.lineAddr = 0x1000;
    req.probeSideBuffer = true;
    mem_.enqueueL1D(req);
    tickUntil(1 + params_.l1HitLatency);
    ASSERT_EQ(completed_.size(), 1u);
    EXPECT_TRUE(completed_[0].wasHit);
    EXPECT_TRUE(completed_[0].sideBufferHit);
    EXPECT_FALSE(mem_.l1d().present(0x1000)); // not installed
}

TEST_F(MemSystemTest, InvisibleHitDoesNotRefreshLru)
{
    CacheParams p{128, 2, 64}; // 1 set, 2 ways
    CoreParams small = params_;
    small.l1d = p;
    EventLog log;
    MemSystem mem(small, log);
    mem.l1d().install(0x000);
    mem.l1d().install(0x040);
    // Invisible hit on the LRU line must not promote it.
    MemReq req;
    req.lineAddr = 0x000;
    req.invisibleHit = true;
    mem.enqueueL1D(req);
    for (Cycle c = 1; c <= 5; ++c)
        mem.tick(c);
    EXPECT_EQ(mem.l1d().victimOf(0x080), 0x000u);
}

TEST_F(MemSystemTest, BugSpecEvictEvictsOnFullSet)
{
    CacheParams p{128, 1, 64}; // direct mapped, 2 sets
    CoreParams small = params_;
    small.l1d = p;
    EventLog log;
    log.setEnabled(true);
    MemSystem mem(small, log);
    mem.l1d().install(0x000);
    MemReq req;
    req.lineAddr = 0x080; // same set, different tag
    req.bugSpecEvict = true;
    req.dest = FillDest::SideBuffer;
    mem.enqueueL1D(req);
    for (Cycle c = 1; c <= 3; ++c)
        mem.tick(c);
    EXPECT_FALSE(mem.l1d().present(0x000)) << "UV1 replacement";
    EXPECT_TRUE(log.has(EventKind::SpecEviction));
}

TEST_F(MemSystemTest, DtlbAccessFillsAndReportsWalk)
{
    const unsigned lat1 = mem_.dtlbAccess(0x800123, 8, 1, 0x400000);
    EXPECT_EQ(lat1, params_.tlbWalkLatency);
    const unsigned lat2 = mem_.dtlbAccess(0x800456, 4, 2, 0x400004);
    EXPECT_EQ(lat2, 1u); // same page now cached
    // Page-crossing access fills both pages.
    const unsigned lat3 = mem_.dtlbAccess(0x801ffc, 8, 3, 0x400008);
    EXPECT_EQ(lat3, params_.tlbWalkLatency);
    EXPECT_TRUE(mem_.dtlb().present(0x802));
}

// === MemSnapshot: warm-state save/restore ==================================

// The snapshot must reproduce *everything* the caches retain between
// runs: tag presence, the exact LRU replacement order, CleanupSpec's
// noClean marks, the D-TLB, and the defense side buffer's FIFO order.
TEST_F(MemSystemTest, SnapshotRoundTripRestoresTagsLruNoCleanSideBuffer)
{
    SideBuffer buf(4);
    mem_.setSideBuffer(&buf);

    mem_.l1d().install(0x0000, true); // noClean-marked
    mem_.l1d().install(0x2000);
    mem_.l1d().touch(0x0000); // LRU order: 0x2000 is now the victim
    mem_.l1i().install(0x4000);
    mem_.l2().install(0x8000);
    mem_.dtlb().fill(0x12);
    mem_.dtlb().fill(0x34);
    mem_.dtlb().touch(0x12);
    buf.insert(0x100);
    buf.insert(0x200);

    const MemSnapshot snap = mem_.save();
    ASSERT_TRUE(snap.hasSideBuffer);

    // Clobber everything, then restore.
    mem_.invalidateAll();
    buf.clear();
    mem_.l1d().install(0x6000, true);
    buf.insert(0x999);
    EXPECT_FALSE(mem_.save() == snap);

    mem_.restore(snap);
    EXPECT_EQ(mem_.save(), snap);
    EXPECT_TRUE(mem_.l1d().present(0x0000));
    EXPECT_TRUE(mem_.l1d().nonSpecTouched(0x0000));
    EXPECT_FALSE(mem_.l1d().nonSpecTouched(0x2000));
    EXPECT_FALSE(mem_.l1d().present(0x6000));
    EXPECT_TRUE(mem_.l1i().present(0x4000));
    EXPECT_TRUE(mem_.l2().present(0x8000));
    EXPECT_TRUE(mem_.dtlb().present(0x12));
    EXPECT_TRUE(buf.contains(0x100));
    EXPECT_FALSE(buf.contains(0x999));
    // FIFO replacement order restored: the next two inserts must evict
    // 0x100 then 0x200.
    buf.insert(0x300);
    buf.insert(0x400);
    EXPECT_EQ(buf.insert(0x500), 0x100u);
    EXPECT_EQ(buf.insert(0x600), 0x200u);
}

// Per defense: after a real input run through the full harness, the
// memory system's warm state must survive a save -> clobber -> restore
// round trip exactly, side buffer included. This is the state-level
// guarantee the prime-cache memoization relies on.
TEST(MemSnapshot, RoundTripPerDefense)
{
    namespace def = amulet::defense;
    core::GeneratorConfig gcfg;
    gcfg.map = mem::AddressMap{};
    core::ProgramGenerator gen(gcfg, Rng(5));
    const isa::Program prog = gen.generate();
    const isa::FlatProgram fp(prog, gcfg.map.codeBase);
    core::InputGenConfig icfg;
    icfg.map = gcfg.map;
    core::InputGenerator igen(icfg, Rng(6));
    const arch::Input input = igen.generate(0);

    for (def::DefenseKind kind : def::allDefenseKinds()) {
        SCOPED_TRACE(def::defenseKindName(kind));
        executor::HarnessConfig cfg = core::paperHarness(kind);
        cfg.bootInsts = 500;
        executor::SimHarness harness(cfg);
        harness.loadProgram(&fp);
        harness.runInput(input);

        MemSystem &mem = harness.pipeline().memSys();
        const MemSnapshot snap = mem.save();
        const bool has_side_buffer =
            kind == def::DefenseKind::InvisiSpec ||
            kind == def::DefenseKind::SpecLfb;
        EXPECT_EQ(snap.hasSideBuffer, has_side_buffer);

        mem.invalidateAll();
        mem.l1d().install(0xdead000, true);
        EXPECT_FALSE(mem.save() == snap);
        mem.restore(snap);
        EXPECT_EQ(mem.save(), snap);
    }
}

TEST_F(MemSystemTest, FlushCleanupsAppliesQueuedRollbacks)
{
    MemReq cleanup;
    cleanup.kind = ReqKind::Cleanup;
    cleanup.cleanupInvalidate = 0x1000;
    mem_.enqueueL1D(cleanup);
    MemReq load;
    load.lineAddr = 0x2000;
    mem_.enqueueL1D(load);
    mem_.flushCleanups();
    ASSERT_EQ(completed_.size(), 1u);
    EXPECT_EQ(completed_[0].kind, ReqKind::Cleanup);
}

// === Incremental bookkeeping: reference checks ===========================

/** Sorted valid lines from a full scan of the saved tag array: what the
 *  dirty-set snapshot must reproduce. */
std::vector<Addr>
referenceSnapshot(const Cache &cache)
{
    std::vector<Addr> out;
    for (const Cache::Line &line : cache.save().lines) {
        if (line.valid)
            out.push_back(line.lineAddr);
    }
    std::sort(out.begin(), out.end());
    return out;
}

/** One random mutation, drawn once and applied to every cache. */
void
mutateCaches(Rng &rng, std::initializer_list<Cache *> caches)
{
    const Addr line = rng.nextBelow(64) * 64; // 4x the sets: conflicts
    const std::uint64_t op = rng.nextBelow(5);
    const bool mark = rng.chance(1, 2);
    for (Cache *c : caches) {
        switch (op) {
          case 0: c->install(line, mark); break;
          case 1: c->touch(line); break;
          case 2: c->evictVictim(line); break;
          case 3: c->markNonSpecTouched(line); break;
          default: c->invalidate(line); break;
        }
    }
}

// Dirty-set restore/invalidateAll must equal a full copy after any mix
// of mutations: the reference cache restores id-less states (id 0),
// which always takes the full-copy path.
TEST(Cache, DirtySetResetMatchesFullCopy)
{
    const CacheParams p{2048, 2, 64}; // 16 sets, 2 ways
    Cache cache(p);
    Cache ref(p);
    Rng rng(13);
    for (int i = 0; i < 40; ++i)
        mutateCaches(rng, {&cache, &ref});
    const Cache::State base = cache.save();
    Cache::State base_full = base;
    base_full.id = 0;
    const Cache::State cleared_full{0, std::vector<Cache::Line>(32), 0};

    unsigned restores = 0;
    unsigned invalidates = 0;
    for (int round = 0; round < 400; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        const std::uint64_t n = rng.nextBelow(10);
        for (std::uint64_t i = 0; i < n; ++i)
            mutateCaches(rng, {&cache, &ref});
        ASSERT_EQ(cache.snapshot(), referenceSnapshot(cache));
        switch (rng.nextBelow(3)) {
          case 0:
            cache.restore(base);
            ref.restore(base_full);
            ++restores;
            ASSERT_EQ(cache.save(), base);
            break;
          case 1:
            cache.invalidateAll();
            ref.restore(cleared_full);
            ++invalidates;
            break;
          default:
            break; // keep mutating on top of the current state
        }
        ASSERT_EQ(cache.save(), ref.save());
        ASSERT_EQ(cache.snapshot(), referenceSnapshot(ref));
    }
    EXPECT_GT(restores, 50u);
    EXPECT_GT(invalidates, 50u);
}

// The same at the MemSystem level, side buffer included: restoring one
// snapshot over and over (the harness's prime memo) matches a system
// that always copies everything.
TEST_F(MemSystemTest, DirtySetRestoreMatchesFullCopyWithSideBuffer)
{
    SideBuffer buf(4);
    SideBuffer ref_buf(4);
    EventLog ref_log;
    MemSystem ref(params_, ref_log);
    mem_.setSideBuffer(&buf);
    ref.setSideBuffer(&ref_buf);

    Rng rng(17);
    auto mutate = [&rng, this, &ref, &buf, &ref_buf] {
        const Addr line = rng.nextBelow(2048) * 64;
        const std::uint64_t op = rng.nextBelow(7);
        const bool mark = rng.chance(1, 2);
        for (auto [m, sb] : {std::pair{&mem_, &buf},
                             std::pair{&ref, &ref_buf}}) {
            switch (op) {
              case 0: m->l1d().install(line, mark); break;
              case 1: m->l1d().touch(line); break;
              case 2: m->l1d().evictVictim(line); break;
              case 3: m->l1d().markNonSpecTouched(line); break;
              case 4: m->l1i().install(line); break;
              case 5:
                m->l2().install(line);
                m->dtlb().fill(line >> 12);
                break;
              default: sb->insert(line); break;
            }
        }
    };
    for (int i = 0; i < 600; ++i)
        mutate();
    const MemSnapshot snap = mem_.save();
    MemSnapshot snap_full = snap;
    snap_full.l1d.id = snap_full.l1i.id = snap_full.l2.id = 0;

    for (int round = 0; round < 200; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        const std::uint64_t n = rng.nextBelow(40);
        for (std::uint64_t i = 0; i < n; ++i)
            mutate();
        if (rng.chance(1, 4)) {
            mem_.invalidateAll();
            ref.invalidateAll();
        }
        mem_.restore(snap);
        ref.restore(snap_full);
        ASSERT_EQ(mem_.save(), snap);
        ASSERT_EQ(ref.save(), snap);
        ASSERT_EQ(buf.save(), ref_buf.save());
        ASSERT_EQ(mem_.l1d().snapshot(), referenceSnapshot(ref.l1d()));
    }
}

/**
 * Forwards every hook to a real defense and, each cycle, checks the
 * pipeline's incremental bookkeeping against full reference walks:
 *
 * - Safety: an entry is safe iff no older entry is an unresolved
 *   branch, an unexecuted fence, or (Futuristic mode) a store whose
 *   address is unresolved. Defense::tick runs right after
 *   computeSafety, so the flags it sees are final. It also counts which
 *   kind of risk was the oldest, to prove coverage.
 * - Dataflow edges: each live entry's consumer list holds, as live
 *   handles, exactly the younger entries naming it as a source or (with
 *   needsFlags) as flags producer, in seq order, and its stale handles
 *   sit after the last live one.
 * - Taint: after the wrapped tick(), every tainted bit equals the full
 *   forward fixpoint (STT), or is clear (every other defense).
 *   Producers resolve by seq through Pipeline::entry, independently of
 *   the slot links the code under test uses.
 * - Program instructions only: every ROB entry's idx is inside the
 *   running program; the NOPs fetched past its end are counted, not
 *   stored.
 */
class BookkeepingAudit final : public defense::Defense
{
  public:
    BookkeepingAudit(std::unique_ptr<defense::Defense> inner, SpecMode mode,
                     bool tracks_taint)
        : inner_(std::move(inner)), mode_(mode), tracksTaint_(tracks_taint)
    {
    }

    void
    attach(Pipeline *pipeline, MemSystem *mem, EventLog *log) override
    {
        Defense::attach(pipeline, mem, log);
        inner_->attach(pipeline, mem, log);
    }
    void
    reset() override
    {
        inner_->reset();
        staleSeen_.clear(); // seqs restart every run
    }
    SpecMode specMode() const override { return mode_; }
    bool blockLoadIssue(DynInst &e) override
    {
        return inner_->blockLoadIssue(e);
    }
    defense::LoadPlan planLoad(DynInst &e) override
    {
        return inner_->planLoad(e);
    }
    bool blockStoreExec(DynInst &e) override
    {
        return inner_->blockStoreExec(e);
    }
    void onStoreAddrReady(DynInst &e) override
    {
        inner_->onStoreAddrReady(e);
    }
    bool installStoreAtCommit(const DynInst &e) override
    {
        return inner_->installStoreAtCommit(e);
    }
    void onIssue(DynInst &e) override { inner_->onIssue(e); }
    void onBecameSafe(DynInst &e) override { inner_->onBecameSafe(e); }
    void onSquash(DynInst &e) override { inner_->onSquash(e); }
    void onReqComplete(const MemReq &r) override { inner_->onReqComplete(r); }
    Cycle nextEventCycle(Cycle now) const override
    {
        return inner_->nextEventCycle(now);
    }

    void
    tick() override
    {
        bool risk = false;
        for (const DynInst &e : pipe_->rob()) {
            ++checks;
            if (e.idx >= pipe_->program()->numInsts())
                ++runaheadEntries;
            if (e.safe == risk)
                ++mismatches;
            const bool branch = e.isBranch() && !e.executed;
            const bool fence = e.si.op == isa::Op::Fence && !e.executed;
            const bool store = mode_ == SpecMode::Futuristic &&
                               e.isStore && !e.addrReady;
            if (!risk) {
                branchRisks += branch;
                fenceRisks += fence;
                storeRisks += store;
            }
            risk = risk || branch || fence || store;
        }
        inner_->tick();
        checkConsumers();
        checkTaint();
    }

    std::uint64_t checks = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t branchRisks = 0;
    std::uint64_t fenceRisks = 0;
    std::uint64_t storeRisks = 0;
    std::uint64_t consumerChecks = 0;
    std::uint64_t consumerMismatches = 0;
    std::size_t maxConsumers = 0;
    std::uint64_t trimsAfterSquash = 0;
    std::uint64_t taintChecks = 0;
    std::uint64_t taintMismatches = 0;
    std::uint64_t runaheadEntries = 0;

  private:
    void
    checkConsumers()
    {
        // Reference lists, one per ROB position, from one forward walk.
        RingDeque<DynInst> &rob = pipe_->rob();
        std::vector<std::vector<SeqNum>> expected(rob.size());
        auto index_of = [&rob](SeqNum seq) {
            const auto it = std::lower_bound(
                rob.begin(), rob.end(), seq,
                [](const DynInst &e, SeqNum s) { return e.seq < s; });
            return static_cast<std::size_t>(it - rob.begin());
        };
        for (const DynInst &c : rob) {
            auto name = [&](SeqNum producer) {
                if (!pipe_->entry(producer))
                    return;
                std::vector<SeqNum> &list = expected[index_of(producer)];
                if (list.empty() || list.back() != c.seq)
                    list.push_back(c.seq);
            };
            for (const auto &src : c.srcs)
                name(src.producer);
            if (c.needsFlags)
                name(c.flagsProducer);
        }
        for (std::size_t i = 0; i < rob.size(); ++i) {
            const DynInst &p = rob[i];
            ++consumerChecks;
            std::vector<SeqNum> live;
            bool stale_seen = false;
            SeqNum newest_stale = kNoSeq;
            for (const SlotRef &ref : pipe_->consumers(p)) {
                if (!pipe_->liveAt(ref)) {
                    stale_seen = true;
                    newest_stale = std::max(newest_stale, ref.seq);
                    continue;
                }
                if (stale_seen)
                    ++consumerMismatches; // a live handle after a stale
                live.push_back(ref.seq);
                // Linked after handles a squash left: the link trimmed
                // them (they are gone, or the line above fired).
                const auto it = staleSeen_.find(p.seq);
                if (it != staleSeen_.end() && ref.seq > it->second) {
                    ++trimsAfterSquash;
                    staleSeen_.erase(it);
                }
            }
            if (stale_seen)
                staleSeen_[p.seq] = newest_stale;
            if (live != expected[i])
                ++consumerMismatches;
            maxConsumers = std::max(maxConsumers, live.size());
        }
    }

    void
    checkTaint()
    {
        for (const DynInst &e : pipe_->rob()) {
            ++taintChecks;
            bool tainted = false;
            if (tracksTaint_) {
                tainted = e.isLoad && e.issued && e.wasUnsafeAtIssue &&
                          !e.safe;
                for (const auto &src : e.srcs) {
                    const DynInst *p = pipe_->entry(src.producer);
                    tainted = tainted || (p && p->tainted);
                }
                if (e.needsFlags) {
                    const DynInst *p = pipe_->entry(e.flagsProducer);
                    tainted = tainted || (p && p->tainted);
                }
            }
            if (tainted != e.tainted)
                ++taintMismatches;
        }
    }

    std::unique_ptr<defense::Defense> inner_;
    SpecMode mode_;
    bool tracksTaint_;
    /** Producer seq -> newest stale consumer handle seen in its list. */
    std::unordered_map<SeqNum, SeqNum> staleSeen_;
};

/** Branch squash, then a store whose address resolves late (a
 *  Futuristic risk) bypassed by an aliasing load (a memory-order
 *  squash), then a fence. */
isa::Program
safetyProgram()
{
    return isa::assemble(R"(
.bb_main.0:
    MOV RAX, qword ptr [R14 + 0]
    IMUL RAX, RAX
    IMUL RAX, RAX
    IMUL RAX, RAX
    TEST RAX, RAX
    JNE .bb_main.1
    MOV RBX, qword ptr [R14 + RCX]
    JMP .bb_main.1
.bb_main.1:
    MOV RDX, qword ptr [R14 + 16]
    IMUL RDX, RDX
    IMUL RDX, RDX
    AND RDX, 0b111000
    MOV qword ptr [R14 + RDX], RDI
    MOV RSI, qword ptr [R14 + 0]
    LFENCE
    ADD RSI, RDI
    MOV R8, qword ptr [R14 + 256]
)");
}

void
auditBookkeeping(defense::DefenseKind kind, std::optional<SpecMode> mode)
{
    executor::HarnessConfig cfg;
    cfg.defense.kind = kind;
    cfg.bootInsts = 500;
    auto inner = defense::makeDefense(cfg.defense, cfg.core);
    const SpecMode spec_mode = mode.value_or(inner->specMode());
    const bool stt = kind == defense::DefenseKind::Stt;
    BookkeepingAudit audit(std::move(inner), spec_mode, stt);
    executor::SimHarness harness(cfg);
    harness.start();
    harness.pipeline().setDefense(&audit);
    harness.setEventLogging(true);

    // The hand-built shape from cold predictors, then random programs.
    const isa::FlatProgram shaped(safetyProgram(), cfg.map.codeBase);
    harness.loadProgram(&shaped);
    // Fetch events past the test program's end: the runahead tail is
    // exercised, not just absent from the ROB.
    std::uint64_t runahead_fetches = 0;
    auto run = [&harness, &runahead_fetches](const isa::FlatProgram &fp,
                                             const arch::Input &in) {
        const std::size_t mark = harness.eventLog().events().size();
        const bool halted = harness.runInput(in).run.halted;
        const std::vector<Event> &events = harness.eventLog().events();
        for (std::size_t i = mark; i < events.size(); ++i) {
            runahead_fetches += events[i].kind == EventKind::Fetch &&
                                events[i].pc >= fp.codeEnd();
        }
        return halted;
    };
    arch::Input input;
    input.regs.fill(0);
    input.regs[isa::regIndex(isa::Reg::Rcx)] = 0x200;
    input.sandbox.assign(cfg.map.sandboxSize(), 0);
    input.sandbox.set(0, 3); // JNE taken, predicted fall-through
    EXPECT_TRUE(run(shaped, input));

    core::GeneratorConfig gcfg;
    gcfg.map = cfg.map;
    core::InputGenConfig icfg;
    icfg.map = cfg.map;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        core::ProgramGenerator gen(gcfg, Rng(seed));
        const isa::FlatProgram fp(gen.generate(), cfg.map.codeBase);
        harness.loadProgram(&fp);
        core::InputGenerator igen(icfg, Rng(seed + 100));
        for (unsigned i = 0; i < 4; ++i)
            run(fp, igen.generate(i));
    }

    EXPECT_GT(audit.checks, 1000u);
    EXPECT_EQ(audit.mismatches, 0u);
    EXPECT_GT(audit.branchRisks, 0u);
    EXPECT_GT(audit.fenceRisks, 0u);
    if (spec_mode == SpecMode::Futuristic)
        EXPECT_GT(audit.storeRisks, 0u);
    else
        EXPECT_EQ(audit.storeRisks, 0u);
    EXPECT_TRUE(harness.eventLog().has(EventKind::SquashBranch));
    EXPECT_TRUE(harness.eventLog().has(EventKind::SquashMemOrder));

    EXPECT_GT(audit.consumerChecks, 1000u);
    EXPECT_EQ(audit.consumerMismatches, 0u);
    EXPECT_GE(audit.maxConsumers, 2u);
    EXPECT_GT(audit.trimsAfterSquash, 0u);
    EXPECT_GT(audit.taintChecks, 1000u);
    EXPECT_EQ(audit.taintMismatches, 0u);
    EXPECT_EQ(harness.eventLog().has(EventKind::TaintSet), stt);
    EXPECT_EQ(harness.eventLog().has(EventKind::TaintLift), stt);

    EXPECT_EQ(audit.runaheadEntries, 0u);
    EXPECT_GT(runahead_fetches, 1000u);
}

TEST(IncrementalBookkeeping, MatchesFullWalksEveryCyclePerDefense)
{
    for (defense::DefenseKind kind : defense::allDefenseKinds()) {
        SCOPED_TRACE(defense::defenseKindName(kind));
        auditBookkeeping(kind, std::nullopt);
    }
}

TEST(IncrementalBookkeeping, MatchesFullWalksEveryCycleSpectreMode)
{
    for (defense::DefenseKind kind : defense::allDefenseKinds()) {
        SCOPED_TRACE(defense::defenseKindName(kind));
        auditBookkeeping(kind, SpecMode::Spectre);
    }
}

/** The trace words extractTrace must produce, rebuilt from full scans;
 *  the section markers are taken from @p got itself. */
std::vector<std::uint64_t>
referenceTraceWords(const MemSystem &mem, const executor::UTrace &got)
{
    std::vector<std::uint64_t> words;
    auto marker = [&words, &got] {
        words.push_back(words.size() < got.words.size()
                            ? got.words[words.size()]
                            : 0);
    };
    marker();
    for (Addr line : referenceSnapshot(mem.l1d()))
        words.push_back(line);
    marker();
    for (Addr vpn : mem.dtlb().snapshot())
        words.push_back(vpn);
    if (got.format == executor::TraceFormat::L1dTlbL1i) {
        marker();
        for (Addr line : referenceSnapshot(mem.l1i()))
            words.push_back(line);
    }
    return words;
}

// Sort-free extraction against the sorted reference on a conflict-primed
// L1D, for both cache trace formats, after the two defense paths that
// rewrite primed sets mid-run: InvisiSpec's UV1 speculative eviction and
// CleanupSpec's undo (invalidate + victim reinstall).
TEST(UarchTraceExtraction, SortFreeMatchesSortedReference)
{
    const isa::Program prog = safetyProgram();
    const std::pair<defense::DefenseKind, EventKind> cases[] = {
        {defense::DefenseKind::InvisiSpec, EventKind::SpecEviction},
        {defense::DefenseKind::CleanupSpec, EventKind::CleanupUndo},
    };
    for (const auto &[kind, evidence] : cases) {
        for (executor::TraceFormat format :
             {executor::TraceFormat::L1dTlb,
              executor::TraceFormat::L1dTlbL1i}) {
            SCOPED_TRACE(std::string(defense::defenseKindName(kind)) +
                         " " + executor::traceFormatName(format));
            executor::HarnessConfig cfg;
            cfg.defense.kind = kind;
            cfg.prime = executor::PrimeMode::ConflictFill;
            cfg.traceFormat = format;
            cfg.bootInsts = 500;
            executor::SimHarness harness(cfg);
            harness.setEventLogging(true);
            const isa::FlatProgram fp(prog, cfg.map.codeBase);
            harness.loadProgram(&fp);
            // The first input primes for real; the later ones restore
            // the memo over the previous input's dirty sets.
            for (unsigned i = 0; i < 4; ++i) {
                arch::Input input;
                input.id = i;
                input.regs.fill(0);
                input.regs[isa::regIndex(isa::Reg::Rcx)] = 0x200 + 0x140 * i;
                input.sandbox.assign(cfg.map.sandboxSize(), 0);
                input.sandbox.set(0, 3);
                const executor::UTrace trace = harness.runInput(input).trace;
                EXPECT_EQ(trace.words,
                          referenceTraceWords(harness.pipeline().memSys(),
                                              trace));
                EXPECT_EQ(trace.hash64, trace.computeHash());
            }
            EXPECT_TRUE(harness.eventLog().has(evidence));
        }
    }
}

/** FNV-1a over little-endian words: a digest that reads the same on
 *  every host and build type. */
class StreamDigest
{
  public:
    void
    add(std::uint64_t word)
    {
        for (unsigned i = 0; i < 8; ++i) {
            h_ ^= (word >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ULL;
        }
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// The simulator's whole observable output, pinned: every event field,
// RunResult and trace word of generated programs, for every defense,
// as published and patched, at 1 and 128 sandbox pages. A change meant
// to keep every cycle (an incremental data structure, a faster walk)
// must reproduce the digest recorded before it; a change that means to
// move a cycle or an event re-records it and says why.
TEST(EventStream, MatchesPinnedDigest)
{
    StreamDigest digest;
    std::uint64_t events = 0;
    std::uint64_t taint_events = 0;
    for (defense::DefenseKind kind : defense::allDefenseKinds()) {
        for (bool patched : {false, true}) {
            for (unsigned pages : {1u, 128u}) {
                executor::HarnessConfig cfg;
                cfg.defense = patched ? defense::DefenseConfig::patched(kind)
                                      : defense::DefenseConfig{kind};
                cfg.map.sandboxPages = pages;
                cfg.bootInsts = 500;
                executor::SimHarness harness(cfg);
                harness.setEventLogging(true);
                core::GeneratorConfig gcfg;
                gcfg.map = cfg.map;
                core::InputGenConfig icfg;
                icfg.map = cfg.map;
                for (std::uint64_t seed = 1; seed <= 40; ++seed) {
                    core::ProgramGenerator gen(gcfg, Rng(seed));
                    const isa::FlatProgram fp(gen.generate(),
                                              cfg.map.codeBase);
                    harness.loadProgram(&fp);
                    core::InputGenerator igen(icfg, Rng(seed + 1000));
                    for (unsigned i = 0; i < 6; ++i) {
                        const auto out = harness.runInput(igen.generate(i));
                        digest.add(out.run.halted);
                        digest.add(out.run.cycles);
                        digest.add(out.run.committedInsts);
                        digest.add(out.run.squashes);
                        digest.add(out.run.hitCycleCap);
                        digest.add(static_cast<std::uint64_t>(
                            out.trace.format));
                        digest.add(out.trace.words.size());
                        for (std::uint64_t w : out.trace.words)
                            digest.add(w);
                        for (const Event &e : harness.eventLog().events()) {
                            digest.add(e.cycle);
                            digest.add(static_cast<std::uint64_t>(e.kind));
                            digest.add(e.seq);
                            digest.add(e.pc);
                            digest.add(e.addr);
                            digest.add(e.note.size());
                            for (char c : e.note)
                                digest.add(static_cast<unsigned char>(c));
                            taint_events += e.kind == EventKind::TaintSet ||
                                            e.kind == EventKind::TaintLift;
                        }
                        events += harness.eventLog().events().size();
                        harness.eventLog().clear();
                    }
                }
            }
        }
    }
    EXPECT_GT(events, 1000000u);
    EXPECT_GT(taint_events, 10000u);
    EXPECT_EQ(digest.value(), 0x3561302168fc6157ULL) << std::hex << digest.value();
}

// Every UarchTracer lifecycle, pinned: each InstLifecycle field of every
// traced run of generated programs, for the same defense, patch and
// sandbox cells as EventStream. Most records are runahead NOPs fetched
// past the program's HALT, so their fetch, issue, complete and squash
// cycles are pinned here as well as the program's own; re-record the
// digest only for a deliberate timing change. Each run's listing is its
// own program's, though every program here is flattened into the storage
// of the one before it.
TEST(UarchTrace, MatchesPinnedDigest)
{
    StreamDigest digest;
    std::uint64_t records = 0;
    std::uint64_t runahead = 0;
    std::uint64_t runahead_issued = 0;
    std::uint64_t runahead_completed = 0;
    std::uint64_t runahead_squashed = 0;
    for (defense::DefenseKind kind : defense::allDefenseKinds()) {
        for (bool patched : {false, true}) {
            for (unsigned pages : {1u, 128u}) {
                executor::HarnessConfig cfg;
                cfg.defense = patched ? defense::DefenseConfig::patched(kind)
                                      : defense::DefenseConfig{kind};
                cfg.map.sandboxPages = pages;
                cfg.bootInsts = 500;
                executor::SimHarness harness(cfg);
                telemetry::UarchTracer tracer;
                harness.setUarchTracer(&tracer);
                core::GeneratorConfig gcfg;
                gcfg.map = cfg.map;
                core::InputGenConfig icfg;
                icfg.map = cfg.map;
                for (std::uint64_t seed = 1; seed <= 20; ++seed) {
                    core::ProgramGenerator gen(gcfg, Rng(seed));
                    const isa::FlatProgram fp(gen.generate(),
                                              cfg.map.codeBase);
                    harness.loadProgram(&fp);
                    core::InputGenerator igen(icfg, Rng(seed + 2000));
                    for (unsigned i = 0; i < 4; ++i)
                        harness.runInput(igen.generate(i));
                }
                for (const telemetry::UarchRunTrace &run :
                     tracer.takeRuns()) {
                    digest.add(run.cycles);
                    digest.add(run.disasm.size());
                    digest.add(run.insts.size());
                    for (const telemetry::InstLifecycle &r : run.insts) {
                        for (std::uint64_t word :
                             {r.seq, r.idx, r.pc, r.fetchCycle, r.issueCycle,
                              r.completeCycle, r.commitCycle, r.squashCycle,
                              r.squashTrigger, r.memAddr}) {
                            digest.add(word);
                        }
                        for (bool flag :
                             {r.issued, r.completed, r.committed, r.squashed,
                              r.isLoad, r.isStore, r.isBranch, r.predTaken,
                              r.actualTaken, r.mispredicted, r.memAddrKnown,
                              r.wasUnsafeAtIssue, r.tainted, r.exposePending,
                              r.inSpecBuffer, r.lfbHeld, r.undoLogged,
                              r.forwardedFromStore,
                              r.bypassedUnknownStore}) {
                            digest.add(flag);
                        }
                        digest.add(static_cast<std::uint64_t>(r.squashCause));
                        ++records;
                        if (r.idx < run.disasm.size())
                            continue;
                        ++runahead;
                        runahead_issued += r.issued;
                        runahead_completed += r.completed;
                        runahead_squashed += r.squashed;
                    }
                }
            }
        }
    }
    EXPECT_GT(records, 100000u);
    EXPECT_GT(runahead, records / 2);
    EXPECT_GT(runahead_issued, 0u);
    EXPECT_GT(runahead_completed, 0u);
    EXPECT_GT(runahead_squashed, 0u);
    EXPECT_EQ(digest.value(), 0x182d5f6f021f856dULL)
        << std::hex << digest.value() << std::dec << " over " << records
        << " records, " << runahead << " past the program end";
}

} // namespace
