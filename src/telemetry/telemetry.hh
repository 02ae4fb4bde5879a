/**
 * @file
 * Campaign telemetry front door: per-thread TelemetrySink (metrics +
 * spans + live-progress hooks), RAII SpanScope, and the
 * CampaignTelemetry aggregate the scheduler owns.
 *
 * Wiring overview:
 *
 *   scheduler ── owns ──> CampaignTelemetry
 *                          ├─ TelemetrySink per shard worker thread
 *                          ├─ TelemetrySink per shard backend
 *                          ├─ TelemetrySink for the scheduler itself
 *                          ├─ CampaignProgress (heartbeat atomics)
 *                          └─ HeartbeatEmitter (--heartbeat)
 *
 * Each sink is thread-confined (see metrics.hh); the campaign end
 * merges registries into one MetricsSnapshot and concatenates span
 * buffers into one Chrome trace (--trace-out). Every sink also keeps a
 * small always-on list of its slowest spans so `campaign_cli stats`
 * can show hotspots without a trace file.
 *
 * Telemetry is observability only: no instrument feeds back into
 * scheduling, filtering, or analysis decisions, and TelemetryConfig is
 * excluded from the corpus fingerprint — so exports stay byte-identical
 * with every knob on or off.
 */

#ifndef AMULET_TELEMETRY_TELEMETRY_HH
#define AMULET_TELEMETRY_TELEMETRY_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/heartbeat.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace.hh"

namespace amulet::telemetry
{

/** Campaign telemetry knobs. Runtime-only: a Runtime entry of the
 *  CampaignConfig field table (corpus/fields.hh), never serialized and
 *  excluded from the corpus fingerprint, so flipping any knob cannot
 *  invalidate a corpus or change results. */
struct TelemetryConfig
{
    /** Chrome trace-event JSON output path (empty: tracing off). */
    std::string traceOutPath;
    /** Heartbeat JSONL path ("-" = stdout; empty: heartbeats off). */
    std::string heartbeatPath;
    double heartbeatIntervalSec = 1.0;
};

/** One span the always-on hotspot tracker retained. */
struct SlowSpan
{
    std::string name;
    double seconds = 0;
    std::int64_t program = -1;
    std::string track; ///< owning sink's label
};

/**
 * Per-thread telemetry endpoint: a metrics registry, an optional span
 * buffer (tracing on), and a bounded slowest-spans list. Create through
 * CampaignTelemetry; record only from the owning thread.
 */
class TelemetrySink
{
  public:
    /** Spans retained per sink for the hotspot list. */
    static constexpr std::size_t kTopSpans = 32;

    TelemetrySink(std::string label, Clock::time_point epoch,
                  bool tracing, CampaignProgress *progress)
        : label_(std::move(label)), epoch_(epoch), tracing_(tracing),
          progress_(progress)
    {
    }

    const std::string &label() const { return label_; }
    MetricsRegistry &metrics() { return metrics_; }
    const MetricsRegistry &metrics() const { return metrics_; }
    bool tracing() const { return tracing_; }
    Clock::time_point epoch() const { return epoch_; }
    const SpanBuffer &spans() const { return spans_; }
    const std::vector<SlowSpan> &topSpans() const { return topSpans_; }

    /**
     * Record one completed timed section: adds @p seconds to the timer
     * named @p name, considers it for the slowest-spans list, and (when
     * tracing) appends a span event starting at @p start.
     */
    void
    recordTimed(const char *name, Clock::time_point start,
                double seconds, std::int64_t program = -1)
    {
        metrics_.timer(name).add(seconds);
        noteSlow(name, seconds, program);
        if (tracing_) {
            spans_.complete(
                name,
                std::chrono::duration<double, std::micro>(start - epoch_)
                    .count(),
                seconds * 1e6, program);
        }
    }

    /** Count a discarded executor, one per failed program attempt
     *  (metrics + live heartbeat). */
    void
    noteBackendRestart()
    {
        metrics_.counter("backend.restarts").add();
        if (progress_)
            progress_->backendRestarts.fetch_add(
                1, std::memory_order_relaxed);
    }

  private:
    void noteSlow(const char *name, double seconds,
                  std::int64_t program);

    std::string label_;
    Clock::time_point epoch_;
    bool tracing_;
    CampaignProgress *progress_;
    MetricsRegistry metrics_;
    SpanBuffer spans_;
    std::vector<SlowSpan> topSpans_; ///< kept sorted, slowest first
};

/**
 * RAII timed section. With a null sink this is a complete no-op (no
 * clock read); otherwise the destructor records one timed section on
 * the sink — timer always, span event only when tracing.
 */
class SpanScope
{
  public:
    SpanScope(TelemetrySink *sink, const char *name,
              std::int64_t program = -1)
        : sink_(sink), name_(name), program_(program)
    {
        if (sink_)
            start_ = Clock::now();
    }

    ~SpanScope()
    {
        if (!sink_)
            return;
        const double seconds =
            std::chrono::duration<double>(Clock::now() - start_)
                .count();
        sink_->recordTimed(name_, start_, seconds, program_);
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    TelemetrySink *sink_;
    const char *name_;
    std::int64_t program_;
    Clock::time_point start_;
};

/**
 * Campaign-lifetime telemetry owner. The scheduler creates one per
 * campaign run; shard sinks exist up front, extra sinks (shard backends)
 * are created on demand (creation is mutex-protected; recording is
 * not — each sink stays thread-confined). Aggregation members
 * (mergedMetrics, topSpans, traceJson) must only run after every
 * recording thread has quiesced.
 */
class CampaignTelemetry
{
  public:
    CampaignTelemetry(TelemetryConfig cfg, unsigned shards,
                      std::uint64_t totalPrograms,
                      Clock::time_point epoch);
    ~CampaignTelemetry();

    CampaignTelemetry(const CampaignTelemetry &) = delete;
    CampaignTelemetry &operator=(const CampaignTelemetry &) = delete;

    const TelemetryConfig &config() const { return cfg_; }
    bool tracingEnabled() const { return !cfg_.traceOutPath.empty(); }
    Clock::time_point epoch() const { return epoch_; }

    CampaignProgress &progress() { return progress_; }
    TelemetrySink &schedulerSink() { return *scheduler_; }
    TelemetrySink &shardSink(unsigned shard)
    {
        return *shards_[shard];
    }

    /** Create a sink with @p label (e.g. "shard0/sim0"). Thread-safe;
     *  the returned sink is for one thread's exclusive use. */
    TelemetrySink &newSink(const std::string &label);

    /** Start/stop the heartbeat channel per config (no-ops when the
     *  path is empty). stop is idempotent and runs at destruction. */
    void startHeartbeat();
    void stopHeartbeat();

    /** Merge every sink's registry (recording threads quiesced). */
    MetricsSnapshot mergedMetrics() const;

    /** Campaign-wide slowest spans, slowest first, at most @p n. */
    std::vector<SlowSpan> topSpans(std::size_t n = 20) const;

    /** Serialize all span buffers as one Chrome trace. */
    std::string traceJson() const;

    /** Write traceJson() to cfg.traceOutPath (no-op when tracing is
     *  off). Throws std::runtime_error when the file cannot be
     *  written. */
    void writeTraceFile() const;

  private:
    TelemetryConfig cfg_;
    Clock::time_point epoch_;
    CampaignProgress progress_;
    mutable std::mutex sinkMu_; ///< guards sink creation only
    std::deque<TelemetrySink> sinks_;
    std::vector<TelemetrySink *> shards_;
    TelemetrySink *scheduler_ = nullptr;
    HeartbeatEmitter heartbeat_;
};

/**
 * Serialize a merged snapshot plus hotspot list as metrics.json
 * (persisted next to the corpus by the scheduler; rendered by
 * `campaign_cli stats`). Histograms store derived percentiles, not raw
 * samples, to keep the artifact small.
 */
std::string metricsJson(const MetricsSnapshot &snapshot,
                        const std::vector<SlowSpan> &topSpans);

} // namespace amulet::telemetry

#endif // AMULET_TELEMETRY_TELEMETRY_HH
