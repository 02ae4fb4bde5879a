/**
 * @file
 * The paper's hand-built violations: one catalog of the test cases that
 * show each finding of the abstract (known KV1-KV3, new UV1-UV6) and the
 * Spectre-v1/v4 baselines, and the ground-truth matrix that runs them.
 *
 * A gadget is a listing in the paper's syntax plus two inputs that
 * differ only in a secret the architectural path never reads. A row runs
 * one gadget on core::paperHarness(defense, patched) plus the row's
 * tweak (amplification or the L1I observer), and names the signature
 * core::classifyViolation gives when the two μarch traces differ, or
 * none when the countermeasure holds. tests/test_leaks*.cc check every
 * row; the bench/ figure and table demos and examples/spectre_playground
 * print them.
 */

#ifndef AMULET_CORE_PAPER_LEAKS_HH
#define AMULET_CORE_PAPER_LEAKS_HH

#include <string>
#include <vector>

#include "arch/input.hh"
#include "executor/sim_harness.hh"
#include "isa/program.hh"

namespace amulet::core
{

/** One hand-built violating test case. */
struct LeakGadget
{
    /** Identifier: letters, digits and '_' (it names test cases). */
    std::string name;
    isa::Program program;
    /** program at mem::AddressMap's code base. */
    isa::FlatProgram flat;
    /** 128 when the secret selects a page, so the D-TLB can show it. */
    unsigned sandboxPages = 1;
    arch::Input inputA;
    arch::Input inputB;
};

/** One cell of the ground-truth matrix: a gadget on one harness. */
struct LeakRow
{
    const LeakGadget *gadget = nullptr;
    defense::DefenseKind defense = defense::DefenseKind::Baseline;
    /** core::paperHarness's @p patched: every published bug fixed. */
    bool patched = false;
    /** Amplification (Table 6): L1D MSHRs and ROB entries; 0 keeps the
     *  core's default. */
    unsigned l1dMshrs = 0;
    unsigned robSize = 0;
    /** The μarch state the traces record. */
    executor::TraceFormat observer = executor::TraceFormat::L1dTlb;
    /** The leak's signature; null when the two traces must match. */
    const char *signature = nullptr;

    /** paperHarness(defense, patched) with the row's tweak, the gadget's
     *  sandbox and a 2,000-instruction boot. */
    executor::HarnessConfig harness() const;

    /** Gadget, defense and tweaks, e.g.
     *  "uv2_mshr_InvisiSpec_patched_mshrs2". */
    std::string name() const;
};

/**
 * Every gadget once, and the rows of the ground-truth matrix. The rows
 * point at the gadgets, so the catalog is built in place and never
 * copied. src/core/paper_leaks.cc gives each listing and its inputs.
 */
struct PaperLeaks
{
    const LeakGadget v1Mem; ///< Spectre-v1, memory secret
    const LeakGadget v1Reg; ///< Spectre-v1, register secret (Figure 8(b))
    const LeakGadget uv1;   ///< speculative eviction (Figure 4)
    const LeakGadget v4;    ///< Spectre-v4 store bypass
    const LeakGadget uv2;   ///< MSHR interference (Figure 6)
    const LeakGadget uv3;   ///< speculative store
    const LeakGadget uv4;   ///< line-crossing load
    const LeakGadget uv5;   ///< overcleaning (Table 9)
    const LeakGadget kv3;   ///< tainted store's TLB access (Figure 9)
    const LeakGadget kv12;  ///< inst-fetch timing (Table 10)
    const std::vector<LeakRow> rows;

    PaperLeaks();
    PaperLeaks(const PaperLeaks &) = delete;
    PaperLeaks &operator=(const PaperLeaks &) = delete;

    /** The rows that run @p gadget on @p kind, in catalog order. */
    std::vector<const LeakRow *> rowsOf(const LeakGadget &gadget,
                                        defense::DefenseKind kind) const;
};

/** The catalog, built on first use. */
const PaperLeaks &paperLeaks();

/** A row's two runs, both from one fresh harness's boot context, with
 *  their event logs. */
using LeakRun = executor::SimHarness::PairOutput;

/** Run @p row's gadget inputs on a fresh harness of row.harness()
 *  (SimHarness::replayPair with the event log on). Input B starts from
 *  the boot context input A started from, so the verdict depends on the
 *  inputs alone: the predictor state input A leaves can change a rerun's
 *  trace by itself (v4's memory-dependence predictor learns the
 *  bypass). */
LeakRun runPair(const LeakRow &row);

} // namespace amulet::core

#endif // AMULET_CORE_PAPER_LEAKS_HH
