/**
 * @file
 * Shared helpers for the table/figure reproduction binaries.
 *
 * The paper's campaigns run 100 parallel instances on a 128-core server
 * for hours; these binaries run seeded, scaled-down campaigns (seconds to
 * a minute on a laptop) and print the same rows. Set AMULET_BENCH_SCALE
 * (default 1) to scale campaign sizes up or down.
 */

#ifndef AMULET_BENCH_BENCH_UTIL_HH
#define AMULET_BENCH_BENCH_UTIL_HH

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/campaign.hh"
#include "runtime/matrix.hh"

namespace bench_util
{

using namespace amulet;

/** Campaign scale multiplier from the environment. A malformed,
 *  non-finite or non-positive value exits 2 instead of silently
 *  shrinking every campaign to one program. */
inline double
scale()
{
    const char *s = std::getenv("AMULET_BENCH_SCALE");
    if (!s)
        return 1.0;
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(s, &end);
    if (end == s || *end != '\0' || errno == ERANGE || !std::isfinite(v) ||
        v <= 0) {
        std::fprintf(stderr,
                     "AMULET_BENCH_SCALE must be a positive number, got "
                     "'%s'\n",
                     s);
        std::exit(2);
    }
    return v;
}

/**
 * Campaigns to run concurrently (AMULET_BENCH_JOBS; 0 = all cores).
 * Campaign *results* are jobs-invariant (see src/runtime/), so the
 * printed counts are identical at any setting; the default stays serial
 * because the tables also report wall-clock columns, which concurrent
 * campaigns sharing cores would distort.
 */
inline unsigned
matrixJobs()
{
    const char *s = std::getenv("AMULET_BENCH_JOBS");
    return s ? static_cast<unsigned>(std::atoi(s)) : 1;
}

inline unsigned
scaled(unsigned n)
{
    const double v = n * scale();
    return v < 1 ? 1 : static_cast<unsigned>(v);
}

/** Standard campaign configuration for one defense target: its paper
 *  cell (core::paperCell) at seed 33, on @p contract when given. */
inline core::CampaignConfig
campaignFor(defense::DefenseKind kind, bool patched = false,
            const char *contract = nullptr)
{
    core::CampaignConfig cfg = core::paperCell(kind, patched);
    if (contract)
        cfg.contract = *contracts::findContract(contract);
    cfg.seed = 33;
    return cfg;
}

inline void
header(const char *what, const char *paper_ref)
{
    std::printf("============================================================"
                "====\n");
    std::printf("%s\n(reproduces %s; scaled-down seeded campaign — compare "
                "shapes,\nnot absolute numbers; see README.md, \"Paper tables "
                "and figures\")\n",
                what, paper_ref);
    std::printf("============================================================"
                "====\n\n");
}

} // namespace bench_util

#endif // AMULET_BENCH_BENCH_UTIL_HH
