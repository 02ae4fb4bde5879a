/**
 * @file
 * Violation minimizer: shrink a violating test program while the
 * contract-equivalence of the input pair and the μarch trace difference
 * both persist (Revizor-style test-case postprocessing; the paper's
 * root cause analysis starts from exactly such reduced listings).
 */

#ifndef AMULET_CORE_MINIMIZER_HH
#define AMULET_CORE_MINIMIZER_HH

#include "contracts/leakage_model.hh"
#include "core/violation.hh"
#include "executor/sim_harness.hh"
#include "isa/program.hh"

namespace amulet::core
{

/** Outcome of a minimization pass. */
struct MinimizeResult
{
    isa::Program program;     ///< reduced program (violation preserved)
    unsigned removedInsts = 0;
    unsigned checks = 0;      ///< candidate reductions evaluated
};

/**
 * Greedily remove instructions from @p program while (a) the two inputs
 * of @p violation still have equal contract traces under @p model and
 * (b) their μarch traces still differ under the violation's recorded
 * μarch contexts. Branch instructions are kept (removing them would
 * change the block graph). Runs to a fixpoint.
 */
MinimizeResult minimizeViolation(executor::SimHarness &harness,
                                 const contracts::LeakageModel &model,
                                 const mem::AddressMap &map,
                                 const isa::Program &program,
                                 const ViolationRecord &violation);

} // namespace amulet::core

#endif // AMULET_CORE_MINIMIZER_HH
