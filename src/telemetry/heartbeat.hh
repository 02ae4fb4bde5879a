/**
 * @file
 * Live campaign heartbeats: periodic JSONL snapshots of campaign
 * progress, streamed to a file (or stdout) while the campaign runs.
 *
 * The heartbeat doubles as the liveness protocol the distributed
 * campaign fabric (ROADMAP) will reuse: each line carries elapsed time,
 * aggregate throughput, and a per-shard progress index that is strictly
 * monotonic per shard — exactly what a coordinator needs to detect a
 * stalled lease. Until then it is the operator's `tail -f` view of a
 * long campaign.
 *
 * Data model: CampaignProgress is a block of relaxed atomics updated by
 * the scheduler's report path (one bump per finished program — far off
 * the simulator hot loop). The emitter thread samples them; it never
 * touches a MetricsRegistry (those are thread-confined, see
 * metrics.hh). Heartbeats never feed back into campaign results, so
 * exports are byte-identical with the channel on or off.
 */

#ifndef AMULET_TELEMETRY_HEARTBEAT_HH
#define AMULET_TELEMETRY_HEARTBEAT_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/trace.hh" // Clock, JSON append helpers

namespace amulet::telemetry
{

/** One shard's live counters (relaxed atomics; heartbeat-sampled). */
struct ShardLive
{
    /** Strictly increases with every program this shard reports — the
     *  per-shard liveness/lease index. */
    std::atomic<std::uint64_t> progressIndex{0};
    /** Program index the shard reported most recently (-1: none). */
    std::atomic<std::int64_t> currentProgram{-1};
    std::atomic<std::uint64_t> programsDone{0};
};

/** Campaign-wide live counters. */
class CampaignProgress
{
  public:
    CampaignProgress(unsigned shards, std::uint64_t totalPrograms)
        : totalPrograms_(totalPrograms), shards_(shards)
    {
    }

    std::uint64_t totalPrograms() const { return totalPrograms_; }
    unsigned shardCount() const
    {
        return static_cast<unsigned>(shards_.size());
    }
    ShardLive &shard(unsigned i) { return shards_[i]; }
    const ShardLive &shard(unsigned i) const { return shards_[i]; }

    std::atomic<std::uint64_t> programsDone{0};
    std::atomic<std::uint64_t> resumedPrograms{0};
    std::atomic<std::uint64_t> testCases{0};
    std::atomic<std::uint64_t> violations{0};
    std::atomic<std::uint64_t> backendRestarts{0};
    /** Stage-second accumulators (microseconds; doubles can't be
     *  fetch_add'd portably pre-C++20-on-all-targets). */
    std::atomic<std::uint64_t> testGenUs{0};
    std::atomic<std::uint64_t> ctraceUs{0};
    std::atomic<std::uint64_t> filterUs{0};

  private:
    std::uint64_t totalPrograms_;
    std::vector<ShardLive> shards_;
};

/** Serialize one heartbeat snapshot (a single JSONL line, no trailing
 *  newline). @p elapsedSec is time since the campaign epoch. */
std::string heartbeatLine(const CampaignProgress &progress,
                          double elapsedSec);

/**
 * Periodic heartbeat writer. start() opens the sink ("-" = stdout) and
 * emits one line immediately, then one per interval; stop() emits a
 * final line and joins. Lines are flushed per write so `tail -f` and
 * pipe readers see them live.
 */
class HeartbeatEmitter
{
  public:
    HeartbeatEmitter(const CampaignProgress &progress,
                     Clock::time_point epoch);
    ~HeartbeatEmitter();

    HeartbeatEmitter(const HeartbeatEmitter &) = delete;
    HeartbeatEmitter &operator=(const HeartbeatEmitter &) = delete;

    /** Begin emitting, one line every @p intervalSec seconds (clamped to
     *  1 ms..1 day; 1 s when not positive). Throws std::runtime_error when
     *  @p path cannot be opened. No-op when already running. */
    void start(const std::string &path, double intervalSec);

    /** Emit the final snapshot and stop the thread. Idempotent. */
    void stop();

  private:
    void emitLine();

    const CampaignProgress &progress_;
    Clock::time_point epoch_;
    std::FILE *out_ = nullptr;
    bool ownsFile_ = false;
    double intervalSec_ = 1.0;
    std::thread thread_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool stopping_ = false;
    bool running_ = false;
};

} // namespace amulet::telemetry

#endif // AMULET_TELEMETRY_HEARTBEAT_HH
