#include "pipeline/stages.hh"

#include <utility>

#include "core/input_gen.hh"
#include "isa/reg.hh"
#include "telemetry/telemetry.hh"

namespace amulet::pipeline
{

void
CTraceStage::run(StageContext &ctx, ProgramPlan &plan)
{
    const auto t0 = Clock::now();
    const core::CampaignConfig &cfg = ctx.cfg;
    const isa::FlatProgram &fp = *plan.flat;
    // The shard's buffer pool feeds the generator warm one-page
    // sandbox storage from completed plans; generated bytes are
    // pool-invariant. Sandboxes take the harness's map (inputs.map is
    // ignored), the one address map of the campaign.
    core::InputGenConfig inputs = cfg.inputs;
    inputs.map = cfg.harness.map;
    core::InputGenerator input_gen(std::move(inputs), plan.inputRng,
                                   ctx.inputPool);

    // Reserving the full plan up front keeps references into
    // plan.inputs stable across the batch loop, so base inputs can be
    // moved (not copied — a one-page base owns its 4 KiB) into the plan.
    const std::size_t total_inputs =
        std::size_t{cfg.baseInputsPerProgram} * (1 + cfg.siblingsPerBase);
    plan.inputs.reserve(total_inputs);
    plan.ctraces.reserve(total_inputs);

    std::uint64_t next_id = std::uint64_t{plan.programIndex} * 10000;
    for (unsigned b = 0; b < cfg.baseInputsPerProgram; ++b) {
        const auto batch_t0 = Clock::now();
        arch::Input base_input = input_gen.generate(next_id++);
        // One memo session per base input: the instrumented base pass
        // yields the contract trace and the architecturally-read
        // offsets together, and every probe/sibling/confirmation below
        // is served from the memoized prefix (src/contracts/README.md).
        // With the knob off the session degrades to cold per-input
        // collects; results are byte-identical either way.
        const contracts::CTrace base_ct =
            ctx.model.batchBegin(fp, base_input, cfg.harness.map,
                                 cfg.ctraceMemo);
        const auto &read_offsets = ctx.model.batchReadOffsets();

        // Contract-dead registers: registers whose value does not
        // influence the contract trace. Siblings may mutate them
        // (that is how register-secret leaks such as SpecLFB UV6
        // become reachable) — unless the contract exposes initial
        // register values (ARCH-SEQ), in which case inputs of one
        // class keep identical registers, as in the paper.
        std::vector<unsigned> dead_regs;
        if (!cfg.contract.exposeInitialRegs && cfg.regMutationPct > 0) {
            for (unsigned r = 0; r < isa::kNumRegs; ++r) {
                if (r == isa::regIndex(isa::kSandboxBaseReg) ||
                    r == isa::regIndex(isa::Reg::Rsp)) {
                    continue;
                }
                arch::Input probe = base_input;
                probe.regs[r] ^= 0x5a5a5a5a5a5aULL;
                if (ctx.model.batchMatchesBase(probe))
                    dead_regs.push_back(r);
            }
        }

        plan.inputs.push_back(std::move(base_input));
        plan.ctraces.push_back(base_ct);
        const arch::Input &base = plan.inputs.back(); // stable: reserved
        const auto patches =
            core::InputGenerator::siblingPatches(base, read_offsets);
        for (unsigned s = 0; s < cfg.siblingsPerBase; ++s) {
            arch::Input sib = input_gen.sibling(base, patches, next_id++);
            // A confirmed mutation's trace IS the base trace, so
            // nothing needs re-collecting for it.
            bool confirmed = false;
            if (!dead_regs.empty() &&
                plan.mutateRng.chance(cfg.regMutationPct, 100)) {
                arch::Input mutated = sib;
                for (unsigned r : dead_regs) {
                    if (plan.mutateRng.chance(1, 2))
                        mutated.regs[r] = plan.mutateRng.next();
                }
                // Joint mutation can still interact (e.g. two dead
                // registers combining into a live value); keep the
                // mutation only if the model confirms equivalence.
                if (ctx.model.batchMatchesBase(mutated)) {
                    sib = std::move(mutated);
                    confirmed = true;
                }
            }
            contracts::CTrace sib_ct =
                confirmed ? base_ct : ctx.model.batchCollect(sib);
            plan.inputs.push_back(std::move(sib));
            plan.ctraces.push_back(std::move(sib_ct));
        }

        const contracts::CTraceMemoStats mstats =
            ctx.model.takeBatchStats();
        if (ctx.telemetry) {
            auto &m = ctx.telemetry->metrics();
            m.counter("ctrace.fullRuns").add(mstats.fullRuns);
            m.counter("ctrace.memoHits").add(mstats.memoHits);
            m.counter("ctrace.memoReplaySteps").add(mstats.memoReplaySteps);
            m.histogram("ctrace.collectLatencySec")
                .observe(secondsSince(batch_t0));
        }
    }
    plan.outcome.ctraceSec += secondsSince(t0);
}

} // namespace amulet::pipeline
