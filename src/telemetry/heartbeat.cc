#include "telemetry/heartbeat.hh"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace amulet::telemetry
{

std::string
heartbeatLine(const CampaignProgress &progress, double elapsedSec)
{
    const auto load = [](const std::atomic<std::uint64_t> &a) {
        return static_cast<double>(a.load(std::memory_order_relaxed));
    };

    std::string out;
    out.reserve(256);
    out += "{\"elapsedSec\":";
    appendJsonNumber(out, elapsedSec);
    out += ",\"programsTotal\":";
    appendJsonNumber(out, static_cast<double>(progress.totalPrograms()));
    out += ",\"programsDone\":";
    appendJsonNumber(out, load(progress.programsDone));
    out += ",\"resumedPrograms\":";
    appendJsonNumber(out, load(progress.resumedPrograms));
    out += ",\"testCases\":";
    appendJsonNumber(out, load(progress.testCases));
    out += ",\"testsPerSec\":";
    appendJsonNumber(out, elapsedSec > 0
                              ? load(progress.testCases) / elapsedSec
                              : 0.0);
    out += ",\"violations\":";
    appendJsonNumber(out, load(progress.violations));
    out += ",\"backendRestarts\":";
    appendJsonNumber(out, load(progress.backendRestarts));
    out += ",\"stage\":{\"testGenSec\":";
    appendJsonNumber(out, load(progress.testGenUs) * 1e-6);
    out += ",\"ctraceSec\":";
    appendJsonNumber(out, load(progress.ctraceUs) * 1e-6);
    out += ",\"filterSec\":";
    appendJsonNumber(out, load(progress.filterUs) * 1e-6);
    out += "},\"shards\":[";
    for (unsigned s = 0; s < progress.shardCount(); ++s) {
        const ShardLive &live = progress.shard(s);
        if (s)
            out += ',';
        out += "{\"shard\":";
        appendJsonNumber(out, static_cast<double>(s));
        out += ",\"progress\":";
        appendJsonNumber(out, load(live.progressIndex));
        out += ",\"currentProgram\":";
        appendJsonNumber(
            out, static_cast<double>(
                     live.currentProgram.load(std::memory_order_relaxed)));
        out += ",\"programsDone\":";
        appendJsonNumber(out, load(live.programsDone));
        out += '}';
    }
    out += "]}";
    return out;
}

HeartbeatEmitter::HeartbeatEmitter(const CampaignProgress &progress,
                                   Clock::time_point epoch)
    : progress_(progress), epoch_(epoch)
{
}

HeartbeatEmitter::~HeartbeatEmitter() { stop(); }

void
HeartbeatEmitter::start(const std::string &path, double intervalSec)
{
    if (running_)
        return;
    if (path == "-") {
        out_ = stdout;
        ownsFile_ = false;
    } else {
        out_ = std::fopen(path.c_str(), "w");
        if (!out_)
            throw std::runtime_error(
                "heartbeat: cannot open '" + path + "'");
        ownsFile_ = true;
    }
    // wait_for converts the interval to clock ticks, which overflow for
    // 1e300 or inf and make every wait return at once: a day fits. A
    // wait shorter than a tick returns at once too, so 1e-300 would spin
    // writing lines: a millisecond is the floor.
    constexpr double kMinIntervalSec = 1e-3;
    constexpr double kMaxIntervalSec = 86400;
    intervalSec_ = intervalSec > 0 ? std::clamp(intervalSec, kMinIntervalSec,
                                                kMaxIntervalSec)
                                   : 1.0;
    stopping_ = false;
    running_ = true;
    emitLine();
    thread_ = std::thread([this] {
        std::unique_lock<std::mutex> lock(mu_);
        const auto interval = std::chrono::duration<double>(intervalSec_);
        while (!cv_.wait_for(lock, interval,
                             [this] { return stopping_; })) {
            lock.unlock();
            emitLine();
            lock.lock();
        }
    });
}

void
HeartbeatEmitter::stop()
{
    if (!running_)
        return;
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable())
        thread_.join();
    emitLine(); // final snapshot — the line readers key "done" off
    if (ownsFile_)
        std::fclose(out_);
    out_ = nullptr;
    running_ = false;
}

void
HeartbeatEmitter::emitLine()
{
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - epoch_).count();
    std::string line = heartbeatLine(progress_, elapsed);
    line.push_back('\n');
    // One write + flush per line: readers following a pipe or
    // `tail -f` ("--heartbeat -") see whole JSONL lines immediately,
    // never a partial line between the payload and its newline.
    std::fwrite(line.data(), 1, line.size(), out_);
    std::fflush(out_);
}

} // namespace amulet::telemetry
