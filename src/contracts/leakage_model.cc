#include "contracts/leakage_model.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstring>

#include "isa/reg.hh"

namespace amulet::contracts
{

std::string
formatCTrace(const CTrace &trace)
{
    std::string out;
    out.reserve(trace.size() * 24 + 16);
    unsigned depth = 0;
    char buf[32];
    auto line = [&](const char *tag, std::uint64_t value) {
        out.append(2 * depth, ' ');
        out += tag;
        std::snprintf(buf, sizeof buf, " 0x%llx\n",
                      static_cast<unsigned long long>(value));
        out += buf;
    };
    for (const Obs &o : trace) {
        switch (o.kind) {
          case Obs::Kind::Pc:
            line("pc", o.value);
            break;
          case Obs::Kind::LoadAddr:
            line("load", o.value);
            break;
          case Obs::Kind::StoreAddr:
            line("store", o.value);
            break;
          case Obs::Kind::LoadVal:
            line("val", o.value);
            break;
          case Obs::Kind::SpecStart:
            out.append(2 * depth, ' ');
            out += "spec {\n";
            ++depth;
            break;
          case Obs::Kind::SpecEnd:
            if (depth)
                --depth;
            out.append(2 * depth, ' ');
            out += "}\n";
            break;
        }
    }
    return out;
}

namespace
{

/** Registers whose input value never reaches execution: loadInput pins
 *  the sandbox base register and zeroes RSP, so differing input values
 *  in these slots cannot cause divergence. */
constexpr bool
pinnedReg(unsigned r)
{
    return r == isa::regIndex(isa::kSandboxBaseReg) ||
           r == isa::regIndex(isa::Reg::Rsp);
}

} // namespace

/**
 * Divergence bookkeeping for the instrumented base pass. Records, per
 * committed step: an emulator snapshot (taken before the step), the
 * trace/write-log watermarks, and first-read/first-write step tables
 * for registers and sandbox bytes.
 *
 * Reads are tracked at every speculation depth (a wrong path reads
 * initial state too — over-approximating reads only forks earlier,
 * which is sound). Writes are tracked at depth 0 only: speculative
 * stores are rolled back, so treating a byte as "written" because of
 * one would wrongly suppress a later initial-value read.
 */
struct LeakageModel::BatchTracker
{
    BatchState &st;
    std::uint32_t step = 0;

    void
    beginCommittedStep(const arch::Emulator &emu, const CTrace &trace)
    {
        st.snaps.push_back(emu.snapshot());
        st.traceLen.push_back(static_cast<std::uint32_t>(trace.size()));
        st.writeMark.push_back(static_cast<std::uint32_t>(st.writes.size()));
    }

    void
    note(const arch::StepEffects &fx, const arch::Emulator &emu,
         unsigned depth)
    {
        for (std::uint32_t m = fx.regsRead; m != 0; m &= m - 1) {
            const unsigned r = static_cast<unsigned>(std::countr_zero(m));
            if (st.regFirstWrite[r] == kNever && st.regFirstRead[r] == kNever)
                st.regFirstRead[r] = step;
        }
        if (fx.didLoad) {
            for (unsigned i = 0; i < fx.memSize; ++i) {
                const Addr a = fx.memAddr + i;
                if (!st.map.inSandbox(a))
                    continue;
                const std::size_t off = a - st.map.sandboxBase;
                // A byte committed-written earlier holds a computed
                // value (equal across the batch up to the fork), not
                // initial state: neither a divergence source nor an
                // architecturally-read input offset.
                if (st.byteFirstWrite.get(off) != kNever)
                    continue;
                if (st.byteFirstRead.get(off) == kNever) {
                    st.byteFirstRead.set(off, step);
                    // The value is filled in after the pass: a
                    // speculative store may have clobbered it here.
                    st.readBytes.push_back(
                        {static_cast<std::uint32_t>(off), step, 0});
                }
                if (depth == 0)
                    st.readOffsets.push_back(off);
            }
        }
        if (fx.didStore && depth == 0) {
            for (unsigned i = 0; i < fx.memSize; ++i) {
                const Addr a = fx.memAddr + i;
                st.writes.push_back({a, emu.state().mem.readByte(a)});
                if (st.map.inSandbox(a)) {
                    const std::size_t off = a - st.map.sandboxBase;
                    if (st.byteFirstWrite.get(off) == kNever)
                        st.byteFirstWrite.set(off, step);
                }
            }
        }
        if (depth == 0) {
            for (std::uint32_t m = fx.regsWritten; m != 0; m &= m - 1) {
                const unsigned r = static_cast<unsigned>(std::countr_zero(m));
                if (st.regFirstWrite[r] == kNever)
                    st.regFirstWrite[r] = step;
            }
        }
    }

    void endCommittedStep() { ++step; }
};

void
LeakageModel::observeStep(const arch::StepEffects &fx, CTrace &trace) const
{
    if (spec_.observePc)
        trace.push_back({Obs::Kind::Pc, fx.pc});
    if (fx.didLoad && spec_.observeMemAddr)
        trace.push_back({Obs::Kind::LoadAddr, fx.memAddr});
    if (fx.didLoad && spec_.observeLoadValues)
        trace.push_back({Obs::Kind::LoadVal, fx.loadValue});
    if (fx.didStore && spec_.observeMemAddr)
        trace.push_back({Obs::Kind::StoreAddr, fx.memAddr});
}

void
LeakageModel::explore(arch::Emulator &emu, CTrace &trace, unsigned depth,
                      std::size_t wrong_idx, BatchTracker *tr) const
{
    trace.push_back({Obs::Kind::SpecStart, depth});
    emu.pushCheckpoint();
    emu.redirect(wrong_idx);
    runPath(emu, trace, depth, spec_.speculationWindow, tr);
    emu.rollbackCheckpoint();
    trace.push_back({Obs::Kind::SpecEnd, depth});
}

void
LeakageModel::runPath(arch::Emulator &emu, CTrace &trace, unsigned depth,
                      std::size_t budget, BatchTracker *tr) const
{
    for (std::size_t steps = 0; steps < budget && !emu.halted(); ++steps) {
        const std::size_t idx = emu.state().nextIdx;
        const bool is_cond = emu.program().inst(idx).isCondBranch();
        const bool alive = emu.step();
        if (tr)
            tr->note(emu.lastStep(), emu, depth);
        observeStep(emu.lastStep(), trace);
        if (!alive)
            break;
        if (is_cond && depth < spec_.maxNesting) {
            const auto &fx = emu.lastStep();
            const std::size_t wrong = fx.branchTaken
                                          ? idx + 1
                                          : emu.program().targetIdx(idx);
            explore(emu, trace, depth + 1, wrong, tr);
        }
    }
}

std::size_t
LeakageModel::collectLoop(arch::Emulator &emu, CTrace &trace,
                          std::size_t guard, BatchTracker *tr) const
{
    const isa::FlatProgram &prog = emu.program();
    std::size_t committed = 0;
    while (!emu.halted() && guard-- > 0) {
        const std::size_t idx = emu.state().nextIdx;
        const bool is_cond = prog.inst(idx).isCondBranch();
        if (tr)
            tr->beginCommittedStep(emu, trace);
        const bool alive = emu.step();
        if (tr)
            tr->note(emu.lastStep(), emu, 0);
        observeStep(emu.lastStep(), trace);
        ++committed;
        if (!alive) {
            if (tr)
                tr->endCommittedStep();
            break;
        }
        if (is_cond && spec_.exploreMispredictedBranches &&
            spec_.maxNesting > 0) {
            const auto &fx = emu.lastStep();
            const std::size_t wrong =
                fx.branchTaken ? idx + 1 : prog.targetIdx(idx);
            explore(emu, trace, 1, wrong, tr);
        }
        if (tr)
            tr->endCommittedStep();
    }
    return committed;
}

void
LeakageModel::collectInto(const isa::FlatProgram &prog,
                          const arch::Input &input,
                          const mem::AddressMap &map, CTrace &out) const
{
    arch::ArchState st;
    st.loadInput(input, map);
    arch::Emulator emu(prog, std::move(st));
    out.clear();
    collectLoop(emu, out, arch::Emulator::kDefaultMaxSteps, nullptr);
}

CTrace
LeakageModel::collect(const isa::FlatProgram &prog, const arch::Input &input,
                      const mem::AddressMap &map) const
{
    CTrace trace;
    collectInto(prog, input, map, trace);
    return trace;
}

std::vector<std::size_t>
LeakageModel::archReadOffsets(const isa::FlatProgram &prog,
                              const arch::Input &input,
                              const mem::AddressMap &map) const
{
    arch::ArchState st;
    st.loadInput(input, map);
    arch::Emulator emu(prog, std::move(st));

    std::vector<std::size_t> offsets;
    std::vector<Addr> written;
    std::size_t guard = arch::Emulator::kDefaultMaxSteps;
    while (guard-- > 0) {
        const bool alive = emu.step();
        const auto &fx = emu.lastStep();
        if (fx.didLoad) {
            for (unsigned i = 0; i < fx.memSize; ++i) {
                const Addr a = fx.memAddr + i;
                // A byte overwritten before this read does not expose its
                // *initial* value; siblings may randomize it. (This is
                // what leaves Spectre-v4's stale values mutable.)
                if (map.inSandbox(a) &&
                    std::find(written.begin(), written.end(), a) ==
                        written.end())
                    offsets.push_back(a - map.sandboxBase);
            }
        }
        if (fx.didStore) {
            for (unsigned i = 0; i < fx.memSize; ++i) {
                const Addr a = fx.memAddr + i;
                if (std::find(written.begin(), written.end(), a) ==
                    written.end())
                    written.push_back(a);
            }
        }
        if (!alive)
            break;
    }
    std::sort(offsets.begin(), offsets.end());
    offsets.erase(std::unique(offsets.begin(), offsets.end()),
                  offsets.end());
    return offsets;
}

const CTrace &
LeakageModel::batchBegin(const isa::FlatProgram &prog,
                         const arch::Input &base, const mem::AddressMap &map,
                         bool memo)
{
    BatchState &st = batch_;
    st.prog = &prog;
    st.map = map;
    st.base = base;
    st.memo = memo;
    st.emu.reset();
    st.baseTrace.clear();
    st.readOffsets.clear();
    st.snaps.clear();
    st.traceLen.clear();
    st.writeMark.clear();
    st.writes.clear();
    st.readBytes.clear();

    ++batchCounter_;
#ifndef NDEBUG
    st.audit = memo && batchCounter_ % kAuditEvery == 0;
#else
    st.audit = false;
#endif

    if (!memo) {
        // Cold mode: exactly the pre-memo behavior — one collect pass
        // plus the standalone offsets pass.
        collectInto(prog, base, map, st.baseTrace);
        st.readOffsets = archReadOffsets(prog, base, map);
        stats_.fullRuns += 2;
        return st.baseTrace;
    }

    st.regFirstRead.fill(kNever);
    st.regFirstWrite.fill(kNever);
    st.byteFirstRead.reset(map.sandboxSize());
    st.byteFirstWrite.reset(map.sandboxSize());

    arch::ArchState s;
    s.loadInput(base, map);
    st.emu.emplace(prog, std::move(s));
    st.emu->enableJournal();
    BatchTracker tracker{st};
    collectLoop(*st.emu, st.baseTrace, arch::Emulator::kDefaultMaxSteps,
                &tracker);
    ++stats_.fullRuns;

    std::sort(st.readOffsets.begin(), st.readOffsets.end());
    st.readOffsets.erase(
        std::unique(st.readOffsets.begin(), st.readOffsets.end()),
        st.readOffsets.end());

    // Undoing every store leaves the base's initial image, already
    // materialized wherever it was read: the divergence scan's
    // reference bytes, read once per batch instead of once per input.
    st.emu->rewindAllWrites();
    const mem::MemoryImage &mem = st.emu->state().mem;
    for (ReadByte &rb : st.readBytes)
        rb.value = mem.readByte(map.sandboxBase + rb.off);

#ifndef NDEBUG
    if (st.audit) {
        assert(st.baseTrace == collect(prog, base, map));
        assert(st.readOffsets == archReadOffsets(prog, base, map));
    }
#endif
    return st.baseTrace;
}

std::uint32_t
LeakageModel::divergenceStep(const arch::Input &input) const
{
    const BatchState &st = batch_;
    if (input.flagsByte != st.base.flagsByte ||
        input.sandbox.size() != st.base.sandbox.size())
        return kColdRun;
    std::uint32_t div = kNever;
    for (unsigned r = 0; r < isa::kNumRegs; ++r) {
        if (pinnedReg(r))
            continue;
        if (input.regs[r] != st.base.regs[r])
            div = std::min(div, st.regFirstRead[r]);
    }
    // Only bytes the base pass first-read as initial state can diverge;
    // scan the compact read list instead of the whole sandbox, stopping
    // at the first difference (the list is in step order). Offsets
    // beyond the initialized sandbox read as zero for every input and
    // cannot differ; an image of the base's own source equals it.
    if (input.sandbox.sameSource(st.base.sandbox))
        return div;
    const std::size_t n = input.sandbox.size();
    for (const ReadByte &rb : st.readBytes) {
        if (rb.step >= div)
            break;
        if (rb.off < n && input.sandbox[rb.off] != rb.value)
            return rb.step;
    }
    return div;
}

void
LeakageModel::forkTo(std::uint32_t step, const arch::Input &input)
{
    BatchState &st = batch_;
    arch::Emulator &emu = *st.emu;

    // Memory: rewind the journal (undoing every store since the last
    // sandbox image load, including non-sandbox ones), remap the
    // sandbox to @p input's initial image, then re-apply the base
    // pass's committed stores made before the fork step — their values
    // are computed from pre-divergence state, hence shared, and
    // re-applying them after the remap supersedes the input bytes they
    // overwrote, in order. The remap deliberately bypasses the journal:
    // the sandbox image is swapped wholesale on every fork, so only
    // post-remap stores need undo entries.
    emu.rewindAllWrites();
    if (!input.sandbox.empty())
        emu.state().mem.mapSandbox(st.map.sandboxBase, input.sandbox);
    const std::uint32_t wm = st.writeMark[step];
    for (std::uint32_t i = 0; i < wm; ++i)
        emu.pokeByte(st.writes[i].addr, st.writes[i].value);

    emu.restoreCpu(st.snaps[step]);
    // Registers: the snapshot holds the base pass's values; swap in the
    // input's wherever the base hadn't committed-overwritten them yet.
    auto &regs = emu.state().regs;
    for (unsigned r = 0; r < isa::kNumRegs; ++r) {
        if (pinnedReg(r))
            continue;
        if (input.regs[r] != st.base.regs[r] && st.regFirstWrite[r] >= step)
            regs[r] = input.regs[r];
    }
}

bool
LeakageModel::memoCollect(const arch::Input &input, CTrace &out)
{
    BatchState &st = batch_;
    const std::uint32_t div = divergenceStep(input);
    if (div == kColdRun)
        return false;
    ++stats_.memoHits;
    if (div == kNever) {
        out = st.baseTrace;
        return true;
    }
    out.clear();
    out.reserve(st.baseTrace.size() + 16);
    out.assign(st.baseTrace.begin(), st.baseTrace.begin() + st.traceLen[div]);
    forkTo(div, input);
    // The cold collect's step guard counts committed steps from zero;
    // start the replay with the remaining allowance so even programs
    // that hit the cap produce byte-identical traces.
    stats_.memoReplaySteps +=
        collectLoop(*st.emu, out, arch::Emulator::kDefaultMaxSteps - div,
                    nullptr);
    return true;
}

CTrace
LeakageModel::batchCollect(const arch::Input &input)
{
    BatchState &st = batch_;
    assert(st.prog != nullptr);
    CTrace out;
    if (!st.memo || !memoCollect(input, out)) {
        ++stats_.fullRuns;
        collectInto(*st.prog, input, st.map, out);
    }
#ifndef NDEBUG
    if (st.audit)
        assert(out == collect(*st.prog, input, st.map));
#endif
    return out;
}

bool
LeakageModel::batchMatchesBase(const arch::Input &input)
{
    BatchState &st = batch_;
    assert(st.prog != nullptr);
    bool equal;
    if (st.memo && divergenceStep(input) == kNever) {
        // No divergent location is ever read: the trace is the base
        // trace by construction, no execution needed.
        ++stats_.memoHits;
        equal = true;
    } else if (st.memo && memoCollect(input, scratch_)) {
        equal = scratch_ == st.baseTrace;
    } else {
        ++stats_.fullRuns;
        collectInto(*st.prog, input, st.map, scratch_);
        equal = scratch_ == st.baseTrace;
    }
#ifndef NDEBUG
    if (st.audit)
        assert(equal ==
               (collect(*st.prog, input, st.map) == st.baseTrace));
#endif
    return equal;
}

CTraceMemoStats
LeakageModel::takeBatchStats()
{
    const CTraceMemoStats out = stats_;
    stats_ = {};
    return out;
}

std::vector<CTrace>
LeakageModel::collectAll(const isa::FlatProgram &prog,
                         const std::vector<arch::Input> &inputs,
                         const mem::AddressMap &map, bool memo)
{
    std::vector<CTrace> out;
    out.reserve(inputs.size());
    if (inputs.empty())
        return out;
    out.push_back(batchBegin(prog, inputs[0], map, memo));
    for (std::size_t i = 1; i < inputs.size(); ++i)
        out.push_back(batchCollect(inputs[i]));
    return out;
}

} // namespace amulet::contracts
