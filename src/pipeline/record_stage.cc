#include "pipeline/stages.hh"

#include "isa/disasm.hh"

namespace amulet::pipeline
{

void
RecordStage::run(StageContext &ctx, ProgramPlan &plan)
{
    core::ProgramOutcome &out = plan.outcome;
    for (const ConfirmedPair &pair : plan.confirmed) {
        std::string signature = "unclassified";
        if (ctx.cfg.collectSignatures) {
            // Event-logged re-runs happen wherever the simulator lives;
            // the backend returns only the signature string.
            signature = ctx.backend.classify(
                plan.inputs[pair.a], plan.inputs[pair.b],
                plan.contexts[pair.a], plan.contexts[pair.b]);
        }
        ++out.signatureCounts[signature];

        if (out.records.size() >= ctx.cfg.maxViolationsRecorded)
            continue;
        core::ViolationRecord rec;
        rec.defenseName =
            defense::defenseKindName(ctx.cfg.harness.defense.kind);
        rec.contractName = ctx.cfg.contract.name;
        rec.programText = isa::formatProgram(plan.program);
        rec.programIndex = plan.programIndex;
        rec.inputA = plan.inputs[pair.a];
        rec.inputB = plan.inputs[pair.b];
        rec.traceA = plan.traces[pair.a];
        rec.traceB = plan.traces[pair.b];
        rec.ctxA = plan.contexts[pair.a];
        rec.ctxB = plan.contexts[pair.b];
        rec.ctraceHash = contracts::hashCTrace(plan.ctraces[pair.a]);
        rec.signature = signature;
        rec.detectSeconds = pair.detectSeconds;
        rec.rngState = plan.streamState;
        out.records.push_back(std::move(rec));
    }
}

} // namespace amulet::pipeline
