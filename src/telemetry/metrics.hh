/**
 * @file
 * Campaign metrics registry: typed counters/gauges/timers/histograms
 * registered by name.
 *
 * The paper's headline artifacts (table2 time breakdowns, table3
 * throughput/yield ablations) are observability data; before this layer
 * every new measurement meant hand-threading another field through
 * CampaignStats and TimeBreakdown. The registry replaces that with one
 * API: a component asks its (thread-confined) registry for an
 * instrument by name and records into it with plain loads/stores — no
 * locks, no atomics on the hot path. The campaign scheduler merges the
 * per-shard registries once, at campaign end, into a single
 * MetricsSnapshot that feeds CampaignStats::times, metrics.json
 * persistence, and `campaign_cli stats`.
 *
 * Threading model: one MetricsRegistry is owned by exactly one thread
 * (a shard's worker thread, the scheduler). Cross-thread aggregation happens only through merge(),
 * after the owning thread has quiesced — the same discipline the
 * ViolationSink already imposes on outcomes. Live cross-thread
 * visibility (heartbeats) goes through telemetry::CampaignProgress
 * atomics instead, never through a registry.
 */

#ifndef AMULET_TELEMETRY_METRICS_HH
#define AMULET_TELEMETRY_METRICS_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace amulet::telemetry
{

/** Instrument flavors a registry can hand out. One name maps to one
 *  kind for the lifetime of the registry (re-requesting with another
 *  kind throws — silent aliasing would corrupt merges). */
enum class MetricKind : std::uint8_t
{
    Counter,   ///< monotonic event count
    Gauge,     ///< last-written value
    Timer,     ///< accumulated seconds + observation count
    Histogram, ///< sample distribution (percentiles)
};

const char *metricKindName(MetricKind kind);

/** Monotonic counter. */
class Counter
{
  public:
    void add(std::uint64_t n = 1) { value_ += n; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/** Last-written value. */
class Gauge
{
  public:
    void
    set(double v)
    {
        value_ = v;
        written_ = true;
    }

    double value() const { return value_; }
    bool written() const { return written_; }

  private:
    double value_ = 0;
    bool written_ = false;
};

/** Accumulated wall time. */
class Timer
{
  public:
    void
    add(double seconds)
    {
        totalSec_ += seconds;
        ++count_;
    }

    /** Fold a pre-aggregated (total, observations) pair in — merges and
     *  bulk imports (e.g. a worker process's breakdown). */
    void
    accumulate(double totalSec, std::uint64_t count)
    {
        totalSec_ += totalSec;
        count_ += count;
    }

    double totalSec() const { return totalSec_; }
    std::uint64_t count() const { return count_; }

  private:
    double totalSec_ = 0;
    std::uint64_t count_ = 0;
};

/**
 * Sample distribution with a bounded, deterministically decimated
 * reservoir. Sum/count/min/max are exact over every observation; the
 * retained samples (the percentile source) are thinned once the
 * reservoir fills: retention halves (keep every 2nd, then every 4th,
 * ...) so memory stays bounded for million-input campaigns while the
 * thinning pattern is a pure function of the observation sequence —
 * no RNG, so equal runs yield equal snapshots.
 */
class Histogram
{
  public:
    /** Default reservoir bound (samples retained for percentiles). */
    static constexpr std::size_t kDefaultReservoir = 1 << 16;

    explicit Histogram(std::size_t reservoir = kDefaultReservoir)
        : reservoir_(reservoir ? reservoir : 1)
    {
    }

    void observe(double v);

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

    /** Nearest-rank percentile over the retained samples; p clamped
     *  into [0,1]. */
    double percentile(double p) const;

    /** Retained (possibly decimated) samples, in observation order. */
    const std::vector<double> &samples() const { return samples_; }

    /** Current decimation stride (1 = every observation retained). */
    std::uint64_t stride() const { return stride_; }

    /** Fold @p other into this histogram (exact moments; reservoirs
     *  concatenate then re-thin to the bound). */
    void merge(const Histogram &other);

  private:
    void thin();

    std::size_t reservoir_;
    std::uint64_t count_ = 0;
    double sum_ = 0;
    double min_ = 0;
    double max_ = 0;
    std::uint64_t stride_ = 1;   ///< retain every stride-th observation
    std::uint64_t sinceKept_ = 0;
    std::vector<double> samples_;
};

/** One merged instrument in a snapshot. */
struct MetricValue
{
    MetricKind kind = MetricKind::Counter;
    /** Counter value, gauge value, or timer total seconds. */
    double value = 0;
    /** Timer/histogram observation count. */
    std::uint64_t count = 0;
    /** Histogram moments and percentile source. */
    double sum = 0;
    double min = 0;
    double max = 0;
    std::vector<double> samples;

    double percentile(double p) const;
};

/** Merged registry contents, keyed by instrument name. std::map so the
 *  iteration (and any serialization built on it) is canonical. */
using MetricsSnapshot = std::map<std::string, MetricValue>;

/**
 * Instrument registry. Lookup is by name (O(log n), amortized away by
 * holding the returned reference); recording through a held reference
 * is a plain field update.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** @name Instrument lookup (registers on first use).
     *  Throws std::logic_error when @p name is already registered with
     *  a different kind. */
    /// @{
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Timer &timer(const std::string &name);
    Histogram &histogram(const std::string &name);
    /// @}

    bool empty() const { return instruments_.empty(); }

    /** Fold @p other into this registry (campaign-end aggregation; the
     *  other registry's owning thread must have quiesced). Gauges take
     *  the other side's value when it was ever written. */
    void merge(const MetricsRegistry &other);

    /** Immutable merged view for reporting/serialization. */
    MetricsSnapshot snapshot() const;

  private:
    struct Instrument
    {
        MetricKind kind;
        Counter counter;
        Gauge gauge;
        Timer timer;
        std::unique_ptr<Histogram> histogram;
    };

    Instrument &get(const std::string &name, MetricKind kind);

    std::map<std::string, Instrument> instruments_;
};

/** Sum of `time.*` timer totals in @p snapshot — the named sections of
 *  the campaign time breakdown. The scheduler derives otherSec as
 *  (wall x jobs) minus this, and asserts the sections never exceed the
 *  available worker time (within epsilon) on the in-process backend. */
double timedSectionTotalSec(const MetricsSnapshot &snapshot);

} // namespace amulet::telemetry

#endif // AMULET_TELEMETRY_METRICS_HH
