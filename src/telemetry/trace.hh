/**
 * @file
 * Span tracing: scoped wall-clock spans exported as Chrome trace-event
 * JSON (chrome://tracing, Perfetto).
 *
 * Tracing answers the question the per-stage TimeBreakdown cannot:
 * *where inside a stage* the time goes. Each TelemetrySink (one per
 * shard worker thread, shard backend, or scheduler — see telemetry.hh)
 * owns a private span buffer, so recording is lock-free; the campaign
 * end merges the buffers into one trace file with one track (tid) per
 * sink. A CT-COND campaign traced this way shows the STT ctrace
 * hotspot as a dense band of `stage.ctrace` spans, and the subprocess
 * backend's wire round-trips as `wire.*` spans nested under
 * `op.dispatchBatch`.
 *
 * Overhead contract: tracing is off by default, and a disabled sink's
 * span path is a single branch — no clock read, no allocation. Spans
 * never feed back into campaign results, so exports are byte-identical
 * with tracing on or off (tests/test_equivalence.cc).
 */

#ifndef AMULET_TELEMETRY_TRACE_HH
#define AMULET_TELEMETRY_TRACE_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace amulet::telemetry
{

/** Telemetry wall clock (matches the campaign clock). */
using Clock = std::chrono::steady_clock;

/** One completed span ("X" phase event in the Chrome trace format). */
struct SpanEvent
{
    std::string name;
    double tsUs = 0;  ///< start, microseconds since the campaign epoch
    double durUs = 0;
    /** Program index the span worked on (<0: not program-scoped). */
    std::int64_t program = -1;
};

/** One sink's private, append-only span buffer. */
class SpanBuffer
{
  public:
    void
    complete(std::string name, double ts_us, double dur_us,
             std::int64_t program)
    {
        events_.push_back(
            {std::move(name), ts_us, dur_us, program});
    }

    const std::vector<SpanEvent> &events() const { return events_; }
    std::size_t size() const { return events_.size(); }

  private:
    std::vector<SpanEvent> events_;
};

/** One named track of a finished trace (tid = position in the list). */
struct TraceTrack
{
    std::string label;           ///< "shard0", "shard0/sim", "sched"
    const SpanBuffer *buffer = nullptr;
};

/**
 * Serialize tracks as Chrome trace-event JSON: thread-name metadata per
 * track plus one complete ("X") event per span, all in pid 0.
 * Loadable by Perfetto and chrome://tracing.
 */
std::string exportChromeTrace(const std::vector<TraceTrack> &tracks);

/** Append one JSON-escaped string literal (with quotes) to @p out. */
void appendJsonString(std::string &out, const std::string &text);

/** Append a JSON number (%.17g — round-trips doubles) to @p out. */
void appendJsonNumber(std::string &out, double value);

} // namespace amulet::telemetry

#endif // AMULET_TELEMETRY_TRACE_HH
