#include "pipeline/stages.hh"

namespace amulet::pipeline
{

namespace
{

/**
 * Per-format tallies for the all-formats mode (Table 5). A same-class
 * difference only counts if it persists when the pair is re-run under a
 * common μarch context. Without this, context-sensitive formats (BP
 * state above all) flag nearly every input pair, which is exactly the
 * extra-validation cost Table 5 reports.
 */
void
tallyFormats(StageContext &ctx, ProgramPlan &plan)
{
    const auto all_formats = executor::allTraceFormats();
    core::ProgramOutcome &out = plan.outcome;
    const std::size_t baseline_idx = 0; // L1dTlb is first
    for (const auto &cls : plan.classes.classes) {
        if (cls.size() < 2)
            continue;
        const std::size_t rep = cls.front();
        for (std::size_t i = 1; i < cls.size(); ++i) {
            const std::size_t idx = cls[i];
            bool any_diff = false;
            for (std::size_t f = 0; f < all_formats.size(); ++f) {
                if (!executor::tracesEqual(plan.extraTraces[idx][f],
                                           plan.extraTraces[rep][f])) {
                    any_diff = true;
                    break;
                }
            }
            if (!any_diff)
                continue;
            // One validation pair for all formats at once.
            ctx.backend.restoreContext(plan.contexts[idx]);
            const auto rep_under_idx =
                ctx.backend.runOne(plan.inputs[rep], &all_formats).extras;
            ctx.backend.restoreContext(plan.contexts[rep]);
            const auto idx_under_rep =
                ctx.backend.runOne(plan.inputs[idx], &all_formats).extras;
            out.validationRuns += 2;

            auto confirmed = [&](std::size_t f) {
                if (executor::tracesEqual(plan.extraTraces[idx][f],
                                          plan.extraTraces[rep][f]))
                    return false;
                return !executor::tracesEqual(rep_under_idx[f],
                                              plan.extraTraces[idx][f]) ||
                       !executor::tracesEqual(idx_under_rep[f],
                                              plan.extraTraces[rep][f]);
            };
            const bool base_confirmed = confirmed(baseline_idx);
            for (std::size_t f = 0; f < all_formats.size(); ++f) {
                if (!confirmed(f))
                    continue;
                core::FormatTally &tally =
                    out.formatTallies[all_formats[f]];
                ++tally.violatingTestCases;
                if (base_confirmed)
                    ++tally.coveredByBaseline;
            }
        }
    }
}

} // namespace

void
ValidateStage::run(StageContext &ctx, ProgramPlan &plan)
{
    core::ProgramOutcome &out = plan.outcome;
    if (ctx.cfg.collectAllFormats)
        tallyFormats(ctx, plan);

    // Re-run each candidate's inputs under the other's starting μarch
    // context (§3.2). The violation is confirmed when the inputs remain
    // distinguishable under at least one *common* context: a pure
    // initial-context artifact makes both same-context pairs equal,
    // whereas a genuine leak that depends on predictor state (e.g.
    // Spectre-v4 under a trained memory-dependence predictor) still
    // differs under one of them.
    for (const core::CandidatePair &cand : plan.analysis.candidates) {
        ++out.candidateViolations;
        ctx.backend.restoreContext(plan.contexts[cand.b]);
        const executor::SimBackend::SingleOutput a_under_b =
            ctx.backend.runOne(plan.inputs[cand.a], nullptr);
        ctx.backend.restoreContext(plan.contexts[cand.a]);
        const executor::SimBackend::SingleOutput b_under_a =
            ctx.backend.runOne(plan.inputs[cand.b], nullptr);
        out.validationRuns += 2;
        const bool persists =
            !executor::tracesEqual(a_under_b.trace, plan.traces[cand.b]) ||
            !executor::tracesEqual(b_under_a.trace, plan.traces[cand.a]);
        if (!persists)
            continue;

        ++out.confirmedViolations;
        const double t_detect = secondsSince(ctx.t0);
        if (out.firstDetectSeconds < 0)
            out.firstDetectSeconds = t_detect;
        plan.confirmed.push_back({cand.a, cand.b, t_detect});
        if (ctx.cfg.stopAtFirstViolation)
            break;
    }
}

} // namespace amulet::pipeline
