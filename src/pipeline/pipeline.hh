/**
 * @file
 * ProgramPipeline: an ordered, instrumentable list of stages.
 *
 * The standard() pipeline reproduces the AMuLeT fuzzing loop; callers
 * may also compose their own stage order (reorder, skip, inject) — the
 * architecture tests do exactly that. An observer hook reports each
 * stage's wall time per program, which is how per-stage breakdowns and
 * future tracing backends attach without touching stage code.
 */

#ifndef AMULET_PIPELINE_PIPELINE_HH
#define AMULET_PIPELINE_PIPELINE_HH

#include <functional>
#include <memory>
#include <vector>

#include "pipeline/stage.hh"

namespace amulet::pipeline
{

/** An ordered stage list, reusable across programs. */
class ProgramPipeline
{
  public:
    /** Called after each stage with its wall time for this program. */
    using Observer = std::function<void(const Stage &stage,
                                        const ProgramPlan &plan,
                                        double seconds)>;

    /** Empty pipeline; append stages in execution order. */
    ProgramPipeline() = default;

    /** The paper's loop: TestGen → CTrace → Filter → Execute →
     *  Analyze → Validate → Record. */
    static ProgramPipeline standard();

    /** Append a stage at the end of the pipeline. */
    void append(std::unique_ptr<Stage> stage);

    /** Instrument every subsequent run() (pass nullptr to detach). */
    void setObserver(Observer observer) { observer_ = std::move(observer); }

    std::size_t size() const { return stages_.size(); }
    const Stage &stage(std::size_t i) const { return *stages_[i]; }

    /**
     * Run @p plan through the stages in order, stopping early when a
     * stage sets plan.halt. The plan's outcome is final on return.
     */
    void run(StageContext &ctx, ProgramPlan &plan) const;

  private:
    std::vector<std::unique_ptr<Stage>> stages_;
    Observer observer_;
};

} // namespace amulet::pipeline

#endif // AMULET_PIPELINE_PIPELINE_HH
