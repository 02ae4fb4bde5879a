/**
 * @file
 * Executable leakage model: collects contract traces by running test cases
 * on the reference emulator (§2.4 "Collecting contract traces").
 *
 * The observation clause is applied at each retired instruction; the
 * execution clause (CT-COND) is realized by forking a checkpointed wrong
 * path at every conditional branch, executing it for a bounded window
 * (with bounded nesting), recording its observations between SpecStart /
 * SpecEnd markers, and rolling back.
 *
 * Batch memoization (README.md in this directory): inputs generated from
 * one base input share their trace prefix up to the first read of an
 * initial-state location (register or sandbox byte) whose value differs
 * from the base. One instrumented pass over the base records, per
 * committed step, an emulator snapshot plus first-read/first-write tables;
 * each further input in the batch is then served either as a full prefix
 * hit (no divergence) or by forking the emulator at its divergence step
 * and replaying only the suffix. Results are byte-identical to cold
 * per-input collect() runs — asserted every N batches in Debug builds.
 */

#ifndef AMULET_CONTRACTS_LEAKAGE_MODEL_HH
#define AMULET_CONTRACTS_LEAKAGE_MODEL_HH

#include <array>
#include <cstdint>
#include <optional>

#include "arch/arch_state.hh"
#include "arch/emulator.hh"
#include "arch/input.hh"
#include "contracts/contract.hh"
#include "contracts/observation.hh"
#include "isa/program.hh"
#include "mem/address_map.hh"

namespace amulet::contracts
{

/** Counters one batch-memoization session accumulates; drained by
 *  CTraceStage into the `ctrace.*` telemetry counter family. */
struct CTraceMemoStats
{
    std::uint64_t fullRuns = 0;        ///< cold whole-program collects
    std::uint64_t memoHits = 0;        ///< inputs served from the memo
    std::uint64_t memoReplaySteps = 0; ///< committed steps re-executed
};

/** Collects contract traces per a ContractSpec. */
class LeakageModel
{
  public:
    explicit LeakageModel(ContractSpec spec) : spec_(std::move(spec)) {}

    const ContractSpec &spec() const { return spec_; }

    /**
     * Contract trace of @p prog on @p input under layout @p map.
     * Deterministic: equal (prog, input) pairs give equal traces.
     */
    CTrace collect(const isa::FlatProgram &prog, const arch::Input &input,
                   const mem::AddressMap &map) const;

    /**
     * The set of sandbox byte offsets read architecturally (used by the
     * input generator to build contract-equivalent siblings for value-
     * observing contracts). Standalone full pass; the hot path gets the
     * same set for free from batchBegin()/batchReadOffsets().
     */
    std::vector<std::size_t> archReadOffsets(const isa::FlatProgram &prog,
                                             const arch::Input &input,
                                             const mem::AddressMap &map)
        const;

    /** @name Batch memoization session
     *  One session per base input. batchBegin() runs the instrumented
     *  base pass (or, with @p memo off, a cold collect plus the
     *  standalone offsets pass) and returns the base trace; the
     *  returned references stay valid until the next batchBegin().
     *  batchCollect()/batchMatchesBase() serve any input — memoized
     *  when it shares a prefix with the base, cold otherwise — with
     *  results byte-identical to collect(). */
    /// @{
    const CTrace &batchBegin(const isa::FlatProgram &prog,
                             const arch::Input &base,
                             const mem::AddressMap &map, bool memo = true);

    /** Architecturally-read sandbox offsets of the current base input
     *  (== archReadOffsets(prog, base, map), derived from the base
     *  pass). */
    const std::vector<std::size_t> &batchReadOffsets() const
    {
        return batch_.readOffsets;
    }

    /** Contract trace of @p input (== collect(prog, input, map)). */
    CTrace batchCollect(const arch::Input &input);

    /** Does @p input's trace equal the base trace? Allocation-free
     *  fast path for dead-register probes and mutation confirmation:
     *  a no-divergence input answers true without running anything. */
    bool batchMatchesBase(const arch::Input &input);

    /** Drain and reset the session counters. */
    CTraceMemoStats takeBatchStats();

    /** Convenience for tests/benches: traces of inputs[0..n) with
     *  inputs[0] as the memo base. */
    std::vector<CTrace> collectAll(const isa::FlatProgram &prog,
                                   const std::vector<arch::Input> &inputs,
                                   const mem::AddressMap &map,
                                   bool memo = true);
    /// @}

  private:
    struct BatchTracker;

    /** Sentinel step values for first-read/first-write tables and
     *  divergenceStep(). */
    static constexpr std::uint32_t kNever = 0xffffffffu;
    static constexpr std::uint32_t kColdRun = 0xfffffffeu;

    /** Debug builds re-collect every Nth batch cold and assert the
     *  memoized results match (same discipline as the PR 5 prime-cache
     *  audit). */
    static constexpr std::uint64_t kAuditEvery = 32;

    /** Step-index table over sandbox offsets, reset per batch by epoch
     *  stamping so a new batch costs O(1), not O(sandbox). */
    class StepTable
    {
      public:
        void reset(std::size_t size)
        {
            if (entries_.size() < size)
                entries_.resize(size, 0);
            ++epoch_;
        }
        std::uint32_t get(std::size_t i) const
        {
            const std::uint64_t e = entries_[i];
            return (e >> 32) == epoch_
                       ? static_cast<std::uint32_t>(e)
                       : kNever;
        }
        void set(std::size_t i, std::uint32_t step)
        {
            entries_[i] = (std::uint64_t{epoch_} << 32) | step;
        }

      private:
        std::vector<std::uint64_t> entries_;
        std::uint32_t epoch_ = 0;
    };

    struct ByteWrite
    {
        Addr addr;
        std::uint8_t value;
    };

    /** Offset + step of the first initial-value read of a sandbox byte
     *  (compact mirror of the byteFirstRead table for cheap divergence
     *  scans), with the base's initial value there. */
    struct ReadByte
    {
        std::uint32_t off;
        std::uint32_t step;
        std::uint8_t value;
    };

    struct BatchState
    {
        const isa::FlatProgram *prog = nullptr;
        mem::AddressMap map;
        arch::Input base;
        bool memo = false;
        bool audit = false;
        std::optional<arch::Emulator> emu;
        CTrace baseTrace;
        std::vector<std::size_t> readOffsets;

        /** Per committed step of the base pass (index == step). */
        std::vector<arch::ArchSnapshot> snaps;
        std::vector<std::uint32_t> traceLen;  ///< trace size before step
        std::vector<std::uint32_t> writeMark; ///< #writes before step

        /** Committed byte stores of the base pass, in order, holding the
         *  post-store value (re-applied on fork after a full rewind). */
        std::vector<ByteWrite> writes;

        std::array<std::uint32_t, isa::kNumRegs> regFirstRead{};
        std::array<std::uint32_t, isa::kNumRegs> regFirstWrite{};
        StepTable byteFirstRead;
        StepTable byteFirstWrite;
        /** In base-pass order, so steps never decrease. */
        std::vector<ReadByte> readBytes;
    };

    void observeStep(const arch::StepEffects &fx, CTrace &trace) const;
    void explore(arch::Emulator &emu, CTrace &trace, unsigned depth,
                 std::size_t wrong_idx, BatchTracker *tr) const;
    void runPath(arch::Emulator &emu, CTrace &trace, unsigned depth,
                 std::size_t budget, BatchTracker *tr) const;

    /** The shared committed-path collect loop. Appends to @p trace and
     *  returns the number of committed steps executed. */
    std::size_t collectLoop(arch::Emulator &emu, CTrace &trace,
                            std::size_t guard, BatchTracker *tr) const;

    /** collect() into a caller-owned (reused) trace buffer. */
    void collectInto(const isa::FlatProgram &prog, const arch::Input &input,
                     const mem::AddressMap &map, CTrace &out) const;

    /** First committed step whose execution can differ from the base
     *  for @p input: kNever (full prefix hit), kColdRun (memoization
     *  inapplicable — flags or sandbox shape differ), or a step index
     *  to fork at. */
    std::uint32_t divergenceStep(const arch::Input &input) const;

    /** Rewind the session emulator to just before committed step
     *  @p step of the base pass and patch in @p input's still-visible
     *  differing initial state. */
    void forkTo(std::uint32_t step, const arch::Input &input);

    /** Memoized trace of @p input into @p out; false if the input needs
     *  a cold run instead. */
    bool memoCollect(const arch::Input &input, CTrace &out);

    ContractSpec spec_;
    BatchState batch_;
    CTraceMemoStats stats_;
    std::uint64_t batchCounter_ = 0;
    CTrace scratch_; ///< reused by equality-only collects
};

} // namespace amulet::contracts

#endif // AMULET_CONTRACTS_LEAKAGE_MODEL_HH
