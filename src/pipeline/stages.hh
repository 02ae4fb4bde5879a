/**
 * @file
 * The seven standard stages of the per-program pipeline (Figure 1,
 * §3.2). See src/pipeline/README.md for the stage-by-stage contract.
 */

#ifndef AMULET_PIPELINE_STAGES_HH
#define AMULET_PIPELINE_STAGES_HH

#include "pipeline/stage.hh"

namespace amulet::pipeline
{

/** Generate the test program and flatten it to its code base. */
class TestGenStage : public Stage
{
  public:
    const char *name() const override { return "testgen"; }
    void run(StageContext &ctx, ProgramPlan &plan) override;
};

/**
 * Generate base inputs and contract-preserving siblings (including
 * model-verified register mutations) and collect one contract trace per
 * input on the leakage model. No simulator involvement.
 */
class CTraceStage : public Stage
{
  public:
    const char *name() const override { return "ctrace"; }
    void run(StageContext &ctx, ProgramPlan &plan) override;
};

/**
 * Ineffective-test-case filtering (§3.2): group inputs into contract
 * equivalence classes — computable before any simulator run — and drop
 * inputs in singleton classes, which can never form a candidate pair.
 * With zero effective classes the simulator is skipped entirely
 * (plan.halt). With `CampaignConfig::filterIneffective` off, singleton
 * classes still execute, but after every effective class, so the
 * μarch state evolution of the inputs that matter is identical in both
 * modes — the basis of the filter equivalence contract (README).
 */
class FilterStage : public Stage
{
  public:
    const char *name() const override { return "filter"; }
    void run(StageContext &ctx, ProgramPlan &plan) override;
};

/**
 * Run the planned classes on the executor backend, one batch dispatch
 * per equivalence class, scattering traces and pre-run contexts into
 * the plan's per-input slots. Aborts the program (skippedProgram) when
 * an input hits the cycle cap, before the remaining classes run.
 */
class ExecuteStage : public Stage
{
  public:
    const char *name() const override { return "execute"; }
    void run(StageContext &ctx, ProgramPlan &plan) override;
};

/** Relational analysis: candidate pairs within equivalence classes. */
class AnalyzeStage : public Stage
{
  public:
    const char *name() const override { return "analyze"; }
    void run(StageContext &ctx, ProgramPlan &plan) override;
};

/**
 * Validate candidates by context-swapped re-runs (§3.2) and, in
 * all-formats mode, validate per-format trace differences (Table 5).
 */
class ValidateStage : public Stage
{
  public:
    const char *name() const override { return "validate"; }
    void run(StageContext &ctx, ProgramPlan &plan) override;
};

/** Classify confirmed violations by signature and build records. */
class RecordStage : public Stage
{
  public:
    const char *name() const override { return "record"; }
    void run(StageContext &ctx, ProgramPlan &plan) override;
};

} // namespace amulet::pipeline

#endif // AMULET_PIPELINE_STAGES_HH
