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

ReplayOutcome
replayViolation(executor::SimHarness &harness,
                const core::ViolationRecord &record, bool logEvents)
{
    const isa::Program prog = reparseProgram(record);
    const isa::FlatProgram fp(prog, harness.config().map.codeBase);

    // Same shape as the campaign's original same-context runs: each
    // input from its recorded predictor context, on caches reset
    // between inputs exactly as during detection.
    ReplayOutcome outcome;
    try {
        outcome.runs = harness.replayPair(fp, record.inputA, record.ctxA,
                                          record.inputB, record.ctxB,
                                          logEvents);
    } catch (const std::invalid_argument &e) {
        // A recorded context that does not fit the configured core is a
        // corpus error, like a program that does not assemble.
        throw CorpusError(std::string("record context: ") + e.what());
    }
    const executor::UTrace &trace_a = outcome.runs.a.trace;
    const executor::UTrace &trace_b = outcome.runs.b.trace;
    outcome.reproducedA = trace_a == record.traceA;
    outcome.reproducedB = trace_b == record.traceB;
    outcome.diverges = outcome.runs.differs();
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

} // namespace amulet::corpus
