#include "pipeline/stages.hh"

namespace amulet::pipeline
{

namespace
{

/** Composability fallback: in a pipeline without a FilterStage the
 *  classes were never planned — execute every class rather than
 *  silently running nothing. */
void
planAllClasses(ProgramPlan &plan)
{
    plan.classes = core::groupByCTrace(plan.ctraces);
    plan.outcome.effectiveClasses = plan.classes.effectiveClasses();
    plan.executeClasses.clear();
    for (std::size_t c = 0; c < plan.classes.classes.size(); ++c)
        plan.executeClasses.push_back(c);
}

} // namespace

void
ExecuteStage::run(StageContext &ctx, ProgramPlan &plan)
{
    core::ProgramOutcome &out = plan.outcome;
    const bool extras = ctx.cfg.collectAllFormats;
    const auto all_formats = executor::allTraceFormats();

    plan.traces.assign(plan.inputs.size(), {});
    plan.contexts.assign(plan.inputs.size(), {});
    if (extras)
        plan.extraTraces.assign(plan.inputs.size(), {});

    if (plan.classes.classes.empty() && !plan.inputs.empty())
        planAllClasses(plan);
    ctx.backend.loadProgram(plan.program, *plan.flat);
    // Canonical start: predictor state does not leak across programs, so
    // it never depends on which program the worker ran before this one.
    // Within the program, predictor state flows across the executed
    // batches exactly as AMuLeT-Opt flows it across inputs.
    ctx.backend.restoreContext(ctx.canonicalCtx);

    // Dispatch class by class so a cycle-cap hit aborts the program
    // before the remaining classes cost any simulator time.
    bool aborted = false;
    for (std::size_t c : plan.executeClasses) {
        const std::vector<std::size_t> &cls = plan.classes.classes[c];
        std::vector<const arch::Input *> batch;
        batch.reserve(cls.size());
        for (std::size_t idx : cls)
            batch.push_back(&plan.inputs[idx]);
        executor::SimBackend::BatchOutput res =
            ctx.backend.dispatchBatch(batch, extras ? &all_formats : nullptr);
        if (res.hitCycleCap) {
            aborted = true;
            break;
        }
        for (std::size_t i = 0; i < cls.size(); ++i) {
            plan.traces[cls[i]] = std::move(res.runs[i].trace);
            plan.contexts[cls[i]] = std::move(res.startContexts[i]);
            if (extras)
                plan.extraTraces[cls[i]] = std::move(res.extras[i]);
        }
    }

    if (aborted) {
        // Pathological program; abort it. ran stays false (its partial
        // results must not merge into campaign stats) and the skip is
        // counted, unlike in the pre-pipeline runtime.
        out.skippedProgram = true;
        plan.halt = true;
        return;
    }
    out.ran = true;
    out.testCases = plan.inputs.size();
}

} // namespace amulet::pipeline
