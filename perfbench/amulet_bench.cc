/**
 * @file
 * Benchmark driver: one repetition of one workload per process, one
 * JSON object on stdout. perfbench/run.py runs it; see README.md.
 *
 *   amulet_bench --workload W --setup N
 *       N samples of executor::makeBackend() plus the first
 *       saveContext() (which boots the simulator, and for the
 *       subprocess backend also spawns the worker).
 *   amulet_bench --workload W --seed S --dir D [--fraction F]
 *       One core::Campaign with tracing off, timed around run().
 *   amulet_bench --workload W --seed S --dir D --traced [--fraction F]
 *       The traced pass: the campaign's shard loop rebuilt from public
 *       APIs, with a span around every call into a layer. Spans stay in
 *       memory and are written at exit as D/trace_<workload>.json
 *       (Chrome trace format).
 *
 * D is a fresh scratch directory: the corpus workload journals into
 * D/corpus and writes its canonical export to D/export.jsonl.
 *
 * Both campaign modes print the same "outcome" object; run.py requires
 * the traced pass to reproduce the untraced outcome exactly, so the
 * tracing here must never change what the program computes.
 */

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "contracts/leakage_model.hh"
#include "core/campaign.hh"
#include "core/input_gen.hh"
#include "corpus/checkpoint.hh"
#include "corpus/corpus_store.hh"
#include "corpus/serde.hh"
#include "executor/backend.hh"
#include "executor/sim_protocol.hh"
#include "pipeline/pipeline.hh"
#include "runtime/violation_sink.hh"
#include "telemetry/telemetry.hh"

namespace
{

using namespace amulet;
using corpus::Json;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- Workloads ---------------------------------------------------------

/** One benchmark workload: a fixed campaign cell. Why each was chosen is
 *  recorded in BENCHMARK.json and README.md. */
struct Workload
{
    const char *name;
    /** Programs per repetition at --fraction 1 (30 tests each). */
    unsigned programs;
    /** Signature prefix of the leak this cell targets ("" = any);
     *  drives target_found and runtime.target_detect_s. */
    const char *target;
    /** Journal and checkpoint into a corpus directory. */
    bool corpus;
    core::CampaignConfig (*make)();
};

/** The standard campaign shape: 6 base inputs x (1 + 4 siblings), one
 *  shard, in-process. */
core::CampaignConfig
cell(defense::DefenseKind kind, contracts::ContractSpec contract,
     executor::PrimeMode prime, unsigned sandboxPages)
{
    core::CampaignConfig cfg;
    cfg.harness.defense.kind = kind;
    cfg.harness.prime = prime;
    cfg.harness.map.sandboxPages = sandboxPages;
    cfg.contract = std::move(contract);
    cfg.gen.map = cfg.harness.map;
    cfg.inputs.map = cfg.harness.map;
    cfg.baseInputsPerProgram = 6;
    cfg.siblingsPerBase = 4;
    cfg.jobs = 1;
    return cfg;
}

// Every cell runs one shard: at jobs > 1 campaign outcomes currently
// change from run to run (README.md, "Known defect"), so a multi-shard
// cell could not be checked exactly.
const Workload kWorkloads[] = {
    {"sim-invisispec", 560, "UV1", false,
     [] {
         return cell(defense::DefenseKind::InvisiSpec, contracts::ctSeq(),
                     executor::PrimeMode::ConflictFill, 1);
     }},
    {"ctrace-stt", 220, "KV3", false,
     [] {
         return cell(defense::DefenseKind::Stt, contracts::archSeq(),
                     executor::PrimeMode::ConflictFill, 128);
     }},
    {"wire-cleanupspec", 120, "UV3", true,
     [] {
         core::CampaignConfig cfg =
             cell(defense::DefenseKind::CleanupSpec, contracts::ctSeq(),
                  executor::PrimeMode::Invalidate, 1);
         cfg.backend = executor::BackendKind::Subprocess;
         cfg.checkpointEvery = 8;
         return cfg;
     }},
    {"filter-ctcond", 800, "", false,
     [] {
         return cell(defense::DefenseKind::Baseline, contracts::ctCond(),
                     executor::PrimeMode::ConflictFill, 1);
     }},
};

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

// --- Shared output -------------------------------------------------------

Json
num(double v)
{
    return Json::number(v);
}

Json
cnt(std::uint64_t v)
{
    return Json::number(v);
}

/** Record identity without its wall-clock detection time. */
std::string
recordLine(const core::ViolationRecord &rec)
{
    char hash[24];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(rec.ctraceHash));
    return "p" + std::to_string(rec.programIndex) + " " + rec.signature +
           " " + std::to_string(rec.inputA.id) + "/" +
           std::to_string(rec.inputB.id) + " " + hash;
}

bool
isTarget(const Workload &w, const std::string &signature)
{
    return signature.rfind(w.target, 0) == 0;
}

/** Everything the campaign computed; identical for every run of one
 *  (workload, seed, fraction) however it is timed. */
Json
outcomeJson(const Workload &w, const core::CampaignStats &s)
{
    bool targetFound = false;
    for (const auto &[name, n] : s.signatureCounts)
        targetFound |= isTarget(w, name);
    Json o = Json::object();
    o.set("target_found", Json::boolean(targetFound));
    o.set("programs", cnt(s.programs));
    o.set("tests", cnt(s.testCases));
    o.set("sim_input_runs", cnt(s.simInputRuns()));
    o.set("filtered", cnt(s.filteredTestCases));
    o.set("skipped", cnt(s.skippedPrograms));
    o.set("effective_classes", cnt(s.effectiveClasses));
    o.set("candidates", cnt(s.candidateViolations));
    o.set("validation_runs", cnt(s.validationRuns));
    o.set("violating", cnt(s.violatingTestCases));
    o.set("confirmed", cnt(s.confirmedViolations));
    o.set("quarantined", cnt(s.quarantinedPrograms));
    Json sigs = Json::object();
    for (const auto &[name, n] : s.signatureCounts)
        sigs.set(name, cnt(n));
    o.set("signatures", std::move(sigs));
    Json recs = Json::array();
    for (const core::ViolationRecord &rec : s.records)
        recs.push(Json::str(recordLine(rec)));
    o.set("records", std::move(recs));
    return o;
}

/** Peak resident set of this process plus its largest child (the
 *  subprocess backend's sim worker), in MiB. */
double
peakRssMb()
{
    struct rusage self = {};
    struct rusage children = {};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

/** Canonical corpus export (run.py hashes it). */
void
writeExport(const std::string &dir)
{
    writeFile(dir + "/export.jsonl",
              corpus::CorpusStore::exportCanonical(dir + "/corpus"));
}

// --- Host-speed probe ------------------------------------------------------

/**
 * Seconds one fixed probe kernel takes on this host right now: xorshift
 * hashing, data-dependent branches, and random reads and writes over a
 * 1 MiB table (more than the L2) — the mix of the simulator's inner
 * loops. It calls no program code, so no change to the program can move
 * it; run.py divides the host's momentary speed out of the timings
 * with it.
 */
volatile std::uint32_t probeSink;

double
probeHostSeconds()
{
    static std::vector<std::uint32_t> table(1u << 18);
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    std::uint32_t acc = 0;
    const auto t0 = Clock::now();
    for (std::uint32_t i = 0; i < (1u << 22); ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::uint32_t &slot = table[x & (table.size() - 1)];
        if ((slot ^ x) & 1)
            acc += slot >> 3;
        else
            acc ^= static_cast<std::uint32_t>(x >> 32);
        slot = acc + i;
    }
    probeSink = acc;
    return secondsSince(t0);
}

constexpr int kProbesPerSide = 3;

// --- Set-up and untraced modes ----------------------------------------

Json
runSetup(const Workload &w, unsigned samples)
{
    const core::CampaignConfig cfg = w.make();
    Json setup = Json::array();
    Json probe = Json::array();
    for (unsigned i = 0; i < samples; ++i) {
        probe.push(num(probeHostSeconds()));
        const auto t0 = Clock::now();
        auto backend = executor::makeBackend(cfg.backend, cfg.harness);
        backend->saveContext();
        setup.push(num(secondsSince(t0)));
    }
    Json r = Json::object();
    r.set("setup_s", std::move(setup));
    r.set("probe_s", std::move(probe));
    return r;
}

Json
runUntraced(const Workload &w, core::CampaignConfig cfg,
            const std::string &dir)
{
    if (w.corpus)
        cfg.corpusDir = dir + "/corpus";
    // The probes bracket the campaign so they see the host state it ran
    // in.
    Json probe = Json::array();
    for (int i = 0; i < kProbesPerSide; ++i)
        probe.push(num(probeHostSeconds()));
    const auto t0 = Clock::now();
    const core::CampaignStats stats = core::Campaign(cfg).run();
    const double wall = secondsSince(t0);
    for (int i = 0; i < kProbesPerSide; ++i)
        probe.push(num(probeHostSeconds()));
    if (w.corpus)
        writeExport(dir);

    Json r = Json::object();
    r.set("probe_s", std::move(probe));
    r.set("wall_s", num(wall));
    r.set("tests_per_s", num(static_cast<double>(stats.testCases) / wall));
    r.set("peak_rss_mb", num(peakRssMb()));
    r.set("other_s", num(stats.times.otherSec));
    r.set("outcome", outcomeJson(w, stats));
    return r;
}

// --- Traced pass ----------------------------------------------------------

/** One span. Times are seconds since the pass began. */
struct Span
{
    const char *name;
    double start;
    double end;
    int parent; ///< index into the log; -1 for the root
    std::int64_t program;
};

/** Every span of the pass, in the order they were opened. */
class SpanLog
{
  public:
    explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

    void
    open(const char *name)
    {
        const double t = now();
        spans_.push_back({name, t, t, stack_.empty() ? -1 : stack_.back(),
                          program});
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
    }

    void
    close()
    {
        spans_[stack_.back()].end = now();
        stack_.pop_back();
    }

    /** Start collecting the children of the next adopt()ed span. */
    void mark() { mark_ = spans_.size(); }

    /**
     * Record a span under the open one that ended now after @p seconds
     * (the pipeline observer reports a stage only once it finished),
     * and re-parent to it every span opened under the same parent
     * since mark() or the previous adopt().
     */
    void
    adopt(const char *name, double seconds)
    {
        const double end = now();
        const int parent = stack_.back();
        const int idx = static_cast<int>(spans_.size());
        spans_.push_back({name, end - seconds, end, parent, program});
        for (std::size_t i = mark_; i < spans_.size() - 1; ++i)
            if (spans_[i].parent == parent)
                spans_[i].parent = idx;
        mark_ = spans_.size();
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Program the spans opened from now on belong to (-1: none). */
    std::int64_t program = -1;

  private:
    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - epoch_).count();
    }

    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
    std::size_t mark_ = 0;
};

class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const char *name) : log_(log)
    {
        log_.open(name);
    }
    ~ScopedSpan() { log_.close(); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog &log_;
};

/** Simulated work the backend's results report. */
struct WorkTally
{
    std::uint64_t batches = 0;
    std::uint64_t simRuns = 0; ///< batch runs + validation re-runs
    std::uint64_t cycles = 0;  ///< batch runs only (re-runs report none)
    std::uint64_t committedInsts = 0;
    std::uint64_t squashes = 0;
    std::uint64_t cycleCapHits = 0;
    std::uint64_t replyBytes = 0;
};

/**
 * SimBackend decorator: times every operation into the span log and
 * tallies the simulated work in its results. times() is forwarded
 * untimed; the pass calls it once, at the end, as ShardExecutor does,
 * so no extra round trip reaches an out-of-process worker.
 */
class TracedBackend final : public executor::SimBackend
{
  public:
    TracedBackend(std::unique_ptr<executor::SimBackend> inner, SpanLog &log,
                  WorkTally &work)
        : inner_(std::move(inner)), log_(log), work_(work),
          outOfProcess_(inner_->caps().outOfProcess)
    {
    }

    const char *name() const override { return inner_->name(); }
    executor::BackendCaps caps() const override { return inner_->caps(); }

    void
    loadProgram(const isa::Program &source,
                const isa::FlatProgram &flat) override
    {
        ScopedSpan s(log_, "executor.load");
        inner_->loadProgram(source, flat);
    }

    executor::UarchContext
    saveContext() override
    {
        ScopedSpan s(log_, "executor.save");
        return inner_->saveContext();
    }

    void
    restoreContext(const executor::UarchContext &ctx) override
    {
        ScopedSpan s(log_, "executor.restore");
        inner_->restoreContext(ctx);
    }

    BatchOutput
    dispatchBatch(const std::vector<const arch::Input *> &batch,
                  const std::vector<executor::TraceFormat> *extras) override
    {
        BatchOutput out;
        {
            ScopedSpan s(log_, "executor.dispatch");
            out = inner_->dispatchBatch(batch, extras);
        }
        ++work_.batches;
        for (const RunOutput &run : out.runs) {
            ++work_.simRuns;
            work_.cycles += run.run.cycles;
            work_.committedInsts += run.run.committedInsts;
            work_.squashes += run.run.squashes;
        }
        if (out.hitCycleCap)
            ++work_.cycleCapHits;
        if (outOfProcess_) {
            // What the reply weighed on the wire, recomputed outside the
            // op span; its own span keeps the cost out of the layer self
            // times. In-process backends ship nothing.
            ScopedSpan s(log_, "trace.serde_probe");
            work_.replyBytes +=
                executor::protocol::batchOutputToJson(out).dump().size();
        }
        return out;
    }

    SingleOutput
    runOne(const arch::Input &input,
           const std::vector<executor::TraceFormat> *extras) override
    {
        SingleOutput out;
        {
            ScopedSpan s(log_, "executor.runone");
            out = inner_->runOne(input, extras);
        }
        ++work_.simRuns;
        if (out.hitCycleCap)
            ++work_.cycleCapHits;
        return out;
    }

    std::string
    classify(const arch::Input &inputA, const arch::Input &inputB,
             const executor::UarchContext &ctxA,
             const executor::UarchContext &ctxB) override
    {
        ScopedSpan s(log_, "executor.classify");
        return inner_->classify(inputA, inputB, ctxA, ctxB);
    }

    const executor::TimeBreakdown &times() override
    {
        return inner_->times();
    }

  private:
    std::unique_ptr<executor::SimBackend> inner_;
    SpanLog &log_;
    WorkTally &work_;
    bool outOfProcess_;
};

/** Per-name span totals. */
struct SpanTotals
{
    std::map<std::string, double> total; ///< span durations
    std::map<std::string, double> self;  ///< minus child spans
    std::map<std::string, std::uint64_t> count;
    std::vector<double> dispatchSec;

    explicit SpanTotals(const SpanLog &log)
    {
        const std::vector<Span> &spans = log.spans();
        std::vector<double> childSec(spans.size(), 0.0);
        for (const Span &s : spans)
            if (s.parent >= 0)
                childSec[s.parent] += s.end - s.start;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            const double dur = s.end - s.start;
            total[s.name] += dur;
            self[s.name] += dur - childSec[i];
            ++count[s.name];
            if (std::string_view(s.name) == "executor.dispatch")
                dispatchSec.push_back(dur);
        }
    }

    template <typename V>
    static V
    get(const std::map<std::string, V> &m, const char *name)
    {
        const auto it = m.find(name);
        return it == m.end() ? V{} : it->second;
    }
    double totalOf(const char *name) const { return get(total, name); }
    double selfOf(const char *name) const { return get(self, name); }
    std::uint64_t countOf(const char *name) const
    {
        return get(count, name);
    }
};

/** Nearest-rank percentile of @p v (sorted in place); 0 when empty. */
double
percentile(std::vector<double> &v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t rank = static_cast<std::size_t>(
        std::max(1.0, std::ceil(p * static_cast<double>(v.size()))));
    return v[std::min(rank, v.size()) - 1];
}

/** Chrome trace-event JSON of the log. */
std::string
chromeTrace(const SpanLog &log)
{
    std::string out = "{\"traceEvents\":[";
    char buf[256];
    const std::vector<Span> &spans = log.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::snprintf(buf, sizeof(buf),
                      "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                      "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                      "\"parent\":%d,\"program\":%lld}}",
                      i ? "," : "", s.name, s.start * 1e6,
                      (s.end - s.start) * 1e6, i, s.parent,
                      static_cast<long long>(s.program));
        out += buf;
    }
    out += "]}\n";
    return out;
}

Json
runTraced(const Workload &w, const core::CampaignConfig &cfg,
          const std::string &dir)
{
    if (cfg.jobs != 1)
        throw std::runtime_error("the traced pass runs one shard");
    const unsigned n = cfg.numPrograms;
    const std::string corpusDir = dir + "/corpus";

    // The scheduler's determinism inputs: one stream per program, split
    // from the campaign seed in program order, and the same merge.
    std::vector<Rng> streams;
    streams.reserve(n);
    Rng master(cfg.seed);
    for (unsigned p = 0; p < n; ++p)
        streams.push_back(master.split());
    runtime::ViolationSink sink(n, cfg.maxViolationsRecorded);

    const auto t0 = Clock::now();
    SpanLog log(t0);
    // Handed to the stage context and the backend, as the scheduler
    // does, so the program's own ctrace.* and sim.* counters fill.
    telemetry::TelemetrySink tel("bench", t0, false, nullptr);
    WorkTally work;
    log.open("campaign");

    std::unique_ptr<corpus::CorpusStore> store;
    if (w.corpus) {
        ScopedSpan s(log, "corpus.open");
        store = std::make_unique<corpus::CorpusStore>(corpusDir, cfg);
    }
    // Records stream to the corpus, and to the target-detection clock,
    // from inside ViolationSink::report.
    double targetDetect = -1;
    sink.setRecordCallback([&](unsigned, const core::ViolationRecord &rec) {
        if (isTarget(w, rec.signature) &&
            (targetDetect < 0 || rec.detectSeconds < targetDetect))
            targetDetect = rec.detectSeconds;
        if (store) {
            ScopedSpan s(log, "corpus.append");
            store->append(rec);
        }
    });
    auto checkpoint = [&] {
        ScopedSpan s(log, "corpus.checkpoint");
        corpus::writeCheckpoint(corpusDir, cfg, sink.snapshotReported());
    };

    std::unique_ptr<executor::SimBackend> backend;
    executor::UarchContext canonical;
    {
        ScopedSpan boot(log, "executor.boot");
        std::unique_ptr<executor::SimBackend> inner;
        {
            ScopedSpan s(log, "executor.make_backend");
            inner = executor::makeBackend(cfg.backend, cfg.harness);
        }
        inner->setTelemetry(&tel);
        backend = std::make_unique<TracedBackend>(std::move(inner), log,
                                                  work);
        canonical = backend->saveContext();
    }
    contracts::LeakageModel model(cfg.contract);
    core::InputBufferPool pool;
    pipeline::ProgramPipeline pipe = pipeline::ProgramPipeline::standard();
    pipe.setObserver([&log](const pipeline::Stage &stage,
                            const pipeline::ProgramPlan &, double seconds) {
        log.adopt(stage.name(), seconds);
    });
    pipeline::StageContext ctx{cfg, *backend, model, canonical,
                               t0,  &tel,     &pool};
    std::uint64_t inputs = 0; // generated, filtered or not

    for (unsigned p = 0; p < n; ++p) {
        log.program = p;
        core::ProgramOutcome out;
        {
            ScopedSpan prog(log, "program");
            log.mark();
            try {
                pipeline::ProgramPlan plan =
                    pipeline::ProgramPlan::forProgram(p, streams[p]);
                pipe.run(ctx, plan);
                inputs += plan.inputs.size();
                pool.recycleAll(plan.inputs);
                out = std::move(plan.outcome);
            } catch (const executor::WorkerQuarantineError &e) {
                out = core::ProgramOutcome::makeQuarantined(e.what());
            }
        }
        ScopedSpan report(log, "runtime.report");
        if (out.quarantined && store)
            store->appendQuarantine(p, out.quarantineReason);
        sink.report(p, std::move(out));
        if (store && cfg.checkpointEvery > 0 &&
            (p + 1) % cfg.checkpointEvery == 0)
            checkpoint();
    }
    log.program = -1;
    executor::TimeBreakdown times;
    {
        ScopedSpan s(log, "executor.times");
        times = backend->times();
    }
    {
        ScopedSpan s(log, "executor.shutdown");
        backend.reset();
    }
    if (store)
        checkpoint();
    core::CampaignStats stats;
    {
        ScopedSpan s(log, "runtime.finalize");
        stats = sink.finalize();
    }
    log.close();
    const double wall = secondsSince(t0);
    writeFile(dir + "/trace_" + w.name + ".json", chromeTrace(log));

    // --- Per-layer metrics ---------------------------------------------
    SpanTotals t(log);
    std::map<std::string, std::uint64_t> counters;
    for (const auto &[name, v] : tel.metrics().snapshot())
        if (v.kind == telemetry::MetricKind::Counter)
            counters[name] = static_cast<std::uint64_t>(v.value);
    const double harnessSec = times.startupSec + times.primeSec +
                              times.simulateSec + times.traceExtractSec;
    double opSec = 0;
    for (const char *op :
         {"executor.load", "executor.save", "executor.restore",
          "executor.dispatch", "executor.runone", "executor.classify"})
        opSec += t.totalOf(op);
    const double wireSec = opSec - harnessSec;
    std::uint64_t journalBytes = 0;
    if (store) {
        journalBytes = std::filesystem::file_size(corpusDir + "/journal.jsonl");
        writeExport(dir);
    }
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

    Json m = Json::object();
    m.set("core.testgen_s", num(t.totalOf("testgen")));
    m.set("contracts.ctrace_s", num(t.totalOf("ctrace")));
    m.set("contracts.ctrace_us_per_input",
          num(1e6 * ratio(t.totalOf("ctrace"), inputs)));
    m.set("contracts.memo_hits", cnt(counters["ctrace.memoHits"]));
    m.set("contracts.full_runs", cnt(counters["ctrace.fullRuns"]));
    m.set("contracts.replay_steps",
          cnt(counters["ctrace.memoReplaySteps"]));
    m.set("pipeline.filter_s", num(t.totalOf("filter")));
    m.set("pipeline.analyze_s", num(t.totalOf("analyze")));
    m.set("pipeline.execute_self_s", num(t.selfOf("execute")));
    m.set("pipeline.validate_self_s", num(t.selfOf("validate")));
    m.set("pipeline.record_self_s", num(t.selfOf("record")));
    m.set("pipeline.filtered_inputs", cnt(stats.filteredTestCases));
    m.set("pipeline.validation_runs", cnt(stats.validationRuns));
    m.set("pipeline.confirm_ratio",
          num(ratio(stats.confirmedViolations, stats.candidateViolations)));
    m.set("executor.boot_s", num(t.totalOf("executor.boot")));
    m.set("executor.load_s", num(t.totalOf("executor.load")));
    m.set("executor.restore_s", num(t.totalOf("executor.restore")));
    m.set("executor.dispatch_s", num(t.totalOf("executor.dispatch")));
    // The batch latency percentiles are over executor.batches samples.
    m.set("executor.batches", cnt(work.batches));
    m.set("executor.batch_p50_us", num(1e6 * percentile(t.dispatchSec, 0.5)));
    m.set("executor.batch_p99_us",
          num(1e6 * percentile(t.dispatchSec, 0.99)));
    m.set("executor.runone_s", num(t.totalOf("executor.runone")));
    m.set("executor.classify_s", num(t.totalOf("executor.classify")));
    m.set("executor.startup_s", num(times.startupSec));
    m.set("executor.prime_s", num(times.primeSec));
    m.set("executor.simulate_s", num(times.simulateSec));
    m.set("executor.extract_s", num(times.traceExtractSec));
    m.set("executor.wire_s", num(wireSec));
    m.set("executor.wire_share", num(ratio(wireSec, wall)));
    m.set("executor.reply_bytes", cnt(work.replyBytes));
    m.set("uarch.sim_runs", cnt(work.simRuns));
    m.set("uarch.cycles", cnt(work.cycles));
    m.set("uarch.committed_insts", cnt(work.committedInsts));
    m.set("uarch.squashes", cnt(work.squashes));
    m.set("uarch.cycle_cap_hits", cnt(work.cycleCapHits));
    m.set("uarch.skipped_cycles", cnt(counters["sim.skippedCycles"]));
    m.set("uarch.ns_per_cycle",
          num(1e9 * ratio(times.simulateSec, work.cycles)));
    m.set("uarch.minst_per_s",
          num(1e-6 * ratio(work.committedInsts, times.simulateSec)));
    // A share rather than seconds: only the corpus workload writes, and
    // a time that reads 0 on every run of the others says nothing.
    m.set("corpus.write_share",
          num(ratio(t.totalOf("corpus.open") + t.totalOf("corpus.append") +
                        t.totalOf("corpus.checkpoint"),
                    wall)));
    m.set("corpus.appends", cnt(t.countOf("corpus.append")));
    m.set("corpus.checkpoints", cnt(t.countOf("corpus.checkpoint")));
    m.set("corpus.journal_bytes", cnt(journalBytes));
    m.set("runtime.report_s", num(t.totalOf("runtime.report")));
    m.set("runtime.target_detect_s",
          num(targetDetect >= 0 ? targetDetect : wall));
    m.set("trace.wall_s", num(wall));
    // Time outside every named layer span: the loop itself, splitting
    // plans and recycling their buffers.
    m.set("trace.unattributed_pct",
          num(100.0 * ratio(t.selfOf("campaign") + t.selfOf("program"),
                            wall)));

    Json r = Json::object();
    r.set("wall_s", num(wall));
    r.set("metrics", std::move(m));
    r.set("outcome", outcomeJson(w, stats));
    return r;
}

// --- Entry point ---------------------------------------------------------

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload W (--setup N | --seed S --dir D "
                 "[--traced] [--fraction F])\n",
                 argv0);
    return 2;
}

/** Parse a whole argument as an unsigned integer; false on garbage. */
template <typename T>
bool
parseUnsigned(const std::string &text, T &out)
{
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out);
    return ec == std::errc() && ptr == end;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workloadName;
    std::string dir;
    std::uint64_t seed = 0;
    unsigned setupSamples = 0;
    double fraction = 1.0;
    bool traced = false;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        if (arg == "--traced") {
            traced = true;
        } else if (arg == "--workload" && hasValue) {
            workloadName = argv[++i];
        } else if (arg == "--dir" && hasValue) {
            dir = argv[++i];
        } else if (arg == "--seed" && hasValue) {
            if (!parseUnsigned(argv[++i], seed))
                return usage(argv[0]);
            haveSeed = true;
        } else if (arg == "--setup" && hasValue) {
            if (!parseUnsigned(argv[++i], setupSamples) || setupSamples == 0)
                return usage(argv[0]);
        } else if (arg == "--fraction" && hasValue) {
            const std::string text = argv[++i];
            char *end = nullptr;
            fraction = std::strtod(text.c_str(), &end);
            if (text.empty() || *end != '\0' || !(fraction > 0) ||
                fraction > 1)
                return usage(argv[0]);
        } else {
            return usage(argv[0]);
        }
    }
    const Workload *w = findWorkload(workloadName);
    if (!w) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     workloadName.c_str());
        return usage(argv[0]);
    }
    try {
        Json result;
        if (setupSamples > 0) {
            result = runSetup(*w, setupSamples);
        } else {
            if (!haveSeed || dir.empty())
                return usage(argv[0]);
            core::CampaignConfig cfg = w->make();
            cfg.seed = seed;
            cfg.numPrograms = std::max(
                1u, static_cast<unsigned>(w->programs * fraction));
            result = traced ? runTraced(*w, cfg, dir)
                            : runUntraced(*w, cfg, dir);
        }
        std::printf("%s\n", result.dump().c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "amulet_bench: %s\n", e.what());
        return 1;
    }
}
