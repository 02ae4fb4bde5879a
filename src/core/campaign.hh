/**
 * @file
 * Campaign orchestrator: the AMuLeT fuzzing loop (Figure 1).
 *
 * Per round: generate a random program and a set of inputs (bases plus
 * contract-preserving siblings, including model-verified register
 * mutations), collect contract traces on the leakage model and μarch
 * traces on the executor, group inputs into contract equivalence classes,
 * flag within-class trace differences, validate candidates by re-running
 * with swapped μarch contexts, and bucket confirmed violations by
 * signature.
 */

#ifndef AMULET_CORE_CAMPAIGN_HH
#define AMULET_CORE_CAMPAIGN_HH

#include <map>
#include <string>
#include <vector>

#include "contracts/contract.hh"
#include "core/generator.hh"
#include "core/input_gen.hh"
#include "core/violation.hh"
#include "executor/backend.hh"
#include "executor/sim_harness.hh"
#include "telemetry/telemetry.hh"

namespace amulet::core
{

/** Campaign configuration. */
struct CampaignConfig
{
    /** harness.map is the campaign's one address map: TestGenStage and
     *  CTraceStage generate programs and sandboxes with it, so gen.map
     *  and inputs.map are ignored here. */
    executor::HarnessConfig harness;
    contracts::ContractSpec contract = contracts::ctSeq();
    GeneratorConfig gen;
    InputGenConfig inputs;

    unsigned numPrograms = 50;
    unsigned baseInputsPerProgram = 8;
    unsigned siblingsPerBase = 4; ///< inputs/program = bases * (1+siblings)
    /** Percentage of siblings that additionally try a model-verified
     *  register mutation (needed to catch register-secret leaks such as
     *  SpecLFB UV6). */
    unsigned regMutationPct = 70;

    /** Ineffective-test-case filtering (§3.2): drop inputs whose
     *  contract equivalence class is a singleton *before* any simulator
     *  run — they can never form a candidate pair — and skip the
     *  simulator entirely for programs with zero effective classes.
     *  Confirmed violations, signatures, and records are identical with
     *  filtering on or off (see src/pipeline/README.md), but the set of
     *  inputs the simulator executes changes, so this is part of the
     *  campaign definition and of the corpus config fingerprint. */
    bool filterIneffective = true;

    /** Worker threads sharing the campaign's programs (0 = all hardware
     *  threads). At jobs 1 confirmed violations, signatures, and
     *  counters are deterministic; at jobs>1 they are not yet, because
     *  simulator guard-page bytes carry across the programs of a shard
     *  (see src/runtime/README.md). Under stopAtFirstViolation with
     *  jobs>1 the set of programs that run before the stop flag lands
     *  is timing-dependent as well. */
    unsigned jobs = 1;

    /** Executor backend every shard constructs (src/executor/): in the
     *  worker thread (default) or in a forked amulet_sim_worker process
     *  (subprocess). A runtime knob like jobs — excluded from the
     *  corpus config fingerprint; confirmed violations, signatures,
     *  counters, and records are byte-identical across backends
     *  (tests/test_equivalence.cc). */
    executor::BackendKind backend = executor::BackendKind::InProcess;

    /** Contract-trace batch memoization (src/contracts/README.md):
     *  CTraceStage runs one instrumented emulator pass per base input
     *  and serves probes/siblings by snapshot-fork instead of cold
     *  re-execution. A runtime knob like backend/primeCache — excluded
     *  from the corpus config fingerprint; traces, verdicts, and
     *  records are byte-identical with it on or off
     *  (tests/test_equivalence.cc), and Debug builds re-collect every
     *  32nd batch cold and assert equality. */
    bool ctraceMemo = true;

    bool stopAtFirstViolation = false;
    bool collectSignatures = true;
    /** Also extract every other trace format per run (Table 5 overlap
     *  analysis). */
    bool collectAllFormats = false;
    unsigned maxViolationsRecorded = 32;
    std::uint64_t seed = 1;

    /** @name Corpus persistence (src/corpus/)
     *  Runtime knobs, like jobs: none of these participate in the
     *  campaign definition, so they are excluded from the corpus config
     *  fingerprint and may differ between the runs of one corpus. */
    /// @{
    /** Campaign directory for the journal/checkpoint; empty: disabled. */
    std::string corpusDir;
    /** Load the checkpoint in corpusDir and continue the campaign from
     *  the programs it has not completed yet. */
    bool resume = false;
    /** Completed programs between checkpoint rewrites. */
    unsigned checkpointEvery = 8;
    /** Stop claiming new programs after this many ran in this process
     *  (0 = unlimited). With a corpus dir the final checkpoint makes the
     *  partial campaign resumable — a clean kill switch for
     *  time-budgeted runs and for kill/resume testing. */
    unsigned maxProgramsThisRun = 0;
    /// @}

    /** Observability knobs (src/telemetry/): span tracing (--trace-out)
     *  and live heartbeats (--heartbeat). Runtime-only like jobs: never
     *  part of the campaign definition or the corpus fingerprint, and
     *  results are byte-identical with every knob on or off
     *  (tests/test_equivalence.cc). */
    telemetry::TelemetryConfig telemetry;

    /** Deterministic fault-injection plan (src/runtime/fault.hh;
     *  --fault-plan; empty: chaos off, the default). Runtime-only and
     *  excluded from the corpus fingerprint:
     *  a plan may quarantine programs, but every program it does not
     *  poison produces byte-identical results to a clean run
     *  (tests/test_fault.cc). */
    std::string faultPlan;
};

/**
 * The harness of @p kind's paper setup (§3.5/§4.4), as published or
 * @p patched: CleanupSpec and SpecLFB reset caches through the
 * invalidation hook, every other defense by conflict fill. Every other
 * field keeps its default.
 */
executor::HarnessConfig paperHarness(defense::DefenseKind kind,
                                     bool patched = false);

/**
 * The paper cell of @p kind (Table 4): paperHarness, STT on ARCH-SEQ
 * with a 128-page sandbox, and 6 base inputs with 4 siblings each. The
 * caller sets the campaign's size and seed.
 */
CampaignConfig paperCell(defense::DefenseKind kind, bool patched = false);

/** Per-trace-format tallies for the all-formats mode. */
struct FormatTally
{
    std::uint64_t violatingTestCases = 0;
    std::uint64_t coveredByBaseline = 0; ///< also flagged by L1D+TLB
};

/**
 * Everything one program run contributes to campaign stats — the
 * product of running one program through the src/pipeline/ stages, and
 * the unit the runtime's ViolationSink merges and the corpus checkpoint
 * serializes.
 */
struct ProgramOutcome
{
    /** False when the program was aborted (cycle cap): its partial
     *  results must not merge into campaign stats. */
    bool ran = false;
    /** The simulator was skipped or aborted for this program — either
     *  an input hit the cycle cap (ran stays false), or filtering found
     *  zero effective classes (ran is true, all inputs filtered). */
    bool skippedProgram = false;

    std::uint64_t testCases = 0;
    /** Inputs dropped by ineffective-test-case filtering (singleton
     *  equivalence classes); testCases - filteredTestCases inputs
     *  actually ran on the simulator. */
    std::uint64_t filteredTestCases = 0;
    std::uint64_t effectiveClasses = 0;
    std::uint64_t candidateViolations = 0;
    std::uint64_t validationRuns = 0;
    std::uint64_t violatingTestCases = 0;
    std::uint64_t confirmedViolations = 0;
    double firstDetectSeconds = -1; ///< campaign-relative; <0: none
    double testGenSec = 0;
    double ctraceSec = 0;
    double filterSec = 0;
    std::vector<ViolationRecord> records;
    std::map<std::string, std::uint64_t> signatureCounts;
    std::map<executor::TraceFormat, FormatTally> formatTallies;

    /** The program was quarantined: its run or report failed on 3
     *  attempts, each on a fresh executor (quarantineReason is the last
     *  error). No partial results merge (ran stays false);
     *  the program is journaled as quarantined, counted in
     *  CampaignStats, and skipped on --resume. */
    bool quarantined = false;
    std::string quarantineReason;

    static ProgramOutcome
    makeQuarantined(std::string reason)
    {
        ProgramOutcome out;
        out.quarantined = true;
        out.quarantineReason = std::move(reason);
        return out;
    }
};

/** Campaign outcome. */
struct CampaignStats
{
    unsigned programs = 0;
    /** Programs whose simulator phase was skipped or aborted (cycle
     *  cap, or zero effective classes under filtering). */
    unsigned skippedPrograms = 0;
    std::uint64_t testCases = 0;
    std::uint64_t filteredTestCases = 0; ///< never ran on the simulator
    std::uint64_t effectiveClasses = 0;
    std::uint64_t candidateViolations = 0;
    std::uint64_t validationRuns = 0;
    std::uint64_t violatingTestCases = 0;
    std::uint64_t confirmedViolations = 0;
    std::vector<ViolationRecord> records;
    std::map<std::string, std::uint64_t> signatureCounts;
    double wallSeconds = 0;
    double firstDetectSeconds = -1; ///< <0: nothing detected
    unsigned jobs = 1;              ///< worker shards the campaign ran on
    std::string backend = "inproc"; ///< executor backend the shards used
    /** Programs restored from a corpus checkpoint rather than run. */
    unsigned resumedPrograms = 0;
    /** Programs quarantined after 3 failed attempts; excluded from
     *  every other tally and from the corpus export. */
    unsigned quarantinedPrograms = 0;
    executor::TimeBreakdown times;
    std::map<executor::TraceFormat, FormatTally> formatTallies;
    /** Merged campaign metrics (src/telemetry/): the `time.*` timers
     *  are the source the `times` fields above are derived from; also
     *  carries op/wire timers, the sim.inputLatencySec histogram, and
     *  campaign.* roll-ups. */
    telemetry::MetricsSnapshot metrics;

    bool detected() const { return confirmedViolations > 0; }
    std::size_t uniqueViolations() const { return signatureCounts.size(); }

    /** Inputs that actually ran on the simulator (excludes filtered). */
    std::uint64_t
    simInputRuns() const
    {
        return testCases - filteredTestCases;
    }
    double
    throughput() const
    {
        return wallSeconds > 0 ? static_cast<double>(testCases) /
                                     wallSeconds
                               : 0;
    }

    /** Tests/second contributed by each worker shard on average. */
    double
    perShardThroughput() const
    {
        return jobs > 0 ? throughput() / jobs : throughput();
    }

    /** Multi-line human-readable report. */
    std::string report() const;
};

/** The fuzzing campaign. */
class Campaign
{
  public:
    explicit Campaign(CampaignConfig config);

    /** Run the whole campaign. */
    CampaignStats run();

  private:
    CampaignConfig cfg_;
};

} // namespace amulet::core

#endif // AMULET_CORE_CAMPAIGN_HH
