#include "corpus/replayer.hh"

#include <sstream>
#include <stdexcept>

#include "corpus/serde.hh"
#include "isa/assembler.hh"

namespace amulet::corpus
{

isa::Program
reparseProgram(const core::ViolationRecord &record)
{
    try {
        return isa::assemble(record.programText);
    } catch (const isa::AsmError &e) {
        throw CorpusError(std::string("record program does not "
                                      "assemble: ") +
                          e.what());
    }
}

namespace
{

/** A recorded context that does not fit the configured core is a
 *  corpus error, like a program that does not assemble. */
void
restoreRecordContext(executor::SimHarness &harness,
                     const executor::UarchContext &ctx)
{
    try {
        harness.restoreContext(ctx);
    } catch (const std::invalid_argument &e) {
        throw CorpusError(std::string("record context: ") + e.what());
    }
}

} // namespace

ReplayOutcome
replayViolation(executor::SimHarness &harness,
                const core::ViolationRecord &record)
{
    const isa::Program prog = reparseProgram(record);
    const isa::FlatProgram fp(prog, harness.config().map.codeBase);
    harness.loadProgram(&fp);

    // Same shape as the campaign's original same-context runs: restore
    // the recorded predictor context, run, extract. The harness resets
    // caches/TLB between inputs exactly as it did during detection.
    restoreRecordContext(harness, record.ctxA);
    const executor::UTrace trace_a = harness.runInput(record.inputA).trace;
    restoreRecordContext(harness, record.ctxB);
    const executor::UTrace trace_b = harness.runInput(record.inputB).trace;

    ReplayOutcome outcome;
    outcome.reproducedA = trace_a == record.traceA;
    outcome.reproducedB = trace_b == record.traceB;
    outcome.diverges = !(trace_a == trace_b);
    if (!outcome.confirmed()) {
        std::ostringstream os;
        if (!outcome.reproducedA)
            os << "trace A drifted from the recording; ";
        if (!outcome.reproducedB)
            os << "trace B drifted from the recording; ";
        if (!outcome.diverges)
            os << "replayed traces are equal (violation gone); ";
        os << "replayed A=" << trace_a.describe(8)
           << " B=" << trace_b.describe(8);
        outcome.detail = os.str();
    }
    return outcome;
}

ReplayOutcome
replayViolation(const core::CampaignConfig &config,
                const core::ViolationRecord &record)
{
    executor::SimHarness harness(config.harness);
    return replayViolation(harness, record);
}

} // namespace amulet::corpus
