#include "executor/backend.hh"

#include <stdexcept>

#include "core/signature.hh"
#include "executor/backend_subprocess.hh"
#include "telemetry/telemetry.hh"

namespace amulet::executor
{

// === InProcessBackend ======================================================

InProcessBackend::InProcessBackend(const HarnessConfig &config)
    : harness_(config)
{
}

void
InProcessBackend::loadProgram(const isa::Program &, const isa::FlatProgram &flat)
{
    flat_ = &flat;
    harness_.loadProgram(&flat);
}

UarchContext
InProcessBackend::saveContext()
{
    return harness_.saveContext();
}

void
InProcessBackend::restoreContext(const UarchContext &ctx)
{
    telemetry::SpanScope span(telemetry_, "op.restoreContext");
    harness_.restoreContext(ctx);
}

SimBackend::BatchOutput
InProcessBackend::dispatchBatch(const std::vector<const arch::Input *> &batch,
                                const std::vector<TraceFormat> *extraFormats)
{
    telemetry::SpanScope span(telemetry_, "op.dispatchBatch");
    return harness_.runBatch(batch, extraFormats);
}

SimBackend::SingleOutput
InProcessBackend::runOne(const arch::Input &input,
                         const std::vector<TraceFormat> *extraFormats)
{
    telemetry::SpanScope span(telemetry_, "op.runOne");
    SingleOutput out;
    SimHarness::RunOutput run = harness_.runInput(input);
    out.trace = std::move(run.trace);
    out.hitCycleCap = run.run.hitCycleCap;
    if (extraFormats) {
        out.extras.reserve(extraFormats->size());
        for (TraceFormat fmt : *extraFormats)
            out.extras.push_back(harness_.extractExtra(fmt));
    }
    return out;
}

std::string
InProcessBackend::classify(const arch::Input &inputA,
                           const arch::Input &inputB,
                           const UarchContext &ctxA, const UarchContext &ctxB)
{
    if (!flat_)
        throw std::logic_error("InProcessBackend: classify with no "
                               "loaded program");
    telemetry::SpanScope span(telemetry_, "op.classify");
    return core::classifyViolation(
        *flat_, harness_.replayPair(*flat_, inputA, ctxA, inputB, ctxB,
                                    /*logEvents=*/true));
}

void
InProcessBackend::setTelemetry(telemetry::TelemetrySink *sink)
{
    telemetry_ = sink;
    // The harness shares this backend's thread, so it can share the
    // sink (sim.inputLatencySec histogram).
    harness_.setTelemetry(sink);
}

// === Factory ===============================================================

std::unique_ptr<SimBackend>
makeBackend(BackendKind kind, const HarnessConfig &config,
            const BackendOptions &options)
{
    switch (kind) {
      case BackendKind::InProcess:
        return std::make_unique<InProcessBackend>(config);
      case BackendKind::Subprocess:
        return makeSubprocessBackend(config, options);
    }
    throw std::logic_error("makeBackend: unknown backend kind");
}

} // namespace amulet::executor
