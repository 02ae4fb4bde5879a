/**
 * @file
 * Campaign scheduler: shards one campaign's programs across a worker
 * pool.
 *
 * The scheduler pre-splits one RNG stream per test program (in program
 * order, from the campaign seed), then lets each worker claim program
 * indices from a shared counter and run them on its private
 * ShardExecutor. Results flow into a ViolationSink whose merge is
 * order-insensitive, so:
 *
 *   determinism contract — for a fixed (config, seed), confirmed
 *   violations, signature counts, and all analysis counters are meant
 *   to be identical for every jobs value (jobs=1 runs the same code
 *   path inline, without spawning threads). Today that holds at
 *   jobs=1 only: guard-page bytes carry across a shard's programs
 *   (src/runtime/README.md, "Open gap").
 *
 * Only wall-clock-derived fields (wallSeconds, throughput,
 * firstDetectSeconds and per-record detectSeconds timestamps) vary
 * between runs. One exception: under stopAtFirstViolation with jobs>1,
 * workers stop claiming programs as soon as any detection lands, so
 * *which* programs ran — and therefore the aggregate counters — is
 * timing-dependent; per-program results still obey the contract.
 */

#ifndef AMULET_RUNTIME_SCHEDULER_HH
#define AMULET_RUNTIME_SCHEDULER_HH

#include "core/campaign.hh"

namespace amulet::runtime
{

/** Runs one campaign, possibly across many workers. */
class CampaignScheduler
{
  public:
    explicit CampaignScheduler(core::CampaignConfig config);

    /** Run all programs and merge the results. */
    core::CampaignStats run();

  private:
    core::CampaignConfig cfg_;
};

} // namespace amulet::runtime

#endif // AMULET_RUNTIME_SCHEDULER_HH
