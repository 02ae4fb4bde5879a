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

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>

#include "core/campaign.hh"
#include "runtime/matrix.hh"

namespace bench_util
{

using namespace amulet;

/**
 * The environment variable @p name as a T, or @p fallback when it is
 * unset. The whole value must parse: an integer that fits T, or a
 * finite positive number when T is floating-point. Anything else exits
 * 2 with a message naming the variable, instead of silently running a
 * different matrix.
 */
template <class T>
T
envNumber(const char *name, T fallback)
{
    const char *s = std::getenv(name);
    if (!s)
        return fallback;
    T value{};
    const char *end = s + std::strlen(s);
    const auto [stop, ec] = std::from_chars(s, end, value);
    if (ec == std::errc{} && stop == end) {
        if constexpr (std::is_integral_v<T>)
            return value;
        else if (std::isfinite(value) && value > 0)
            return value;
    }
    std::string expected = "a positive number";
    if constexpr (std::is_integral_v<T>)
        expected = "an integer in 0.." +
                   std::to_string(std::numeric_limits<T>::max());
    std::fprintf(stderr, "%s must be %s, got '%s'\n", name,
                 expected.c_str(), s);
    std::exit(2);
}

/** Campaign scale multiplier (AMULET_BENCH_SCALE, default 1). */
inline double
scale()
{
    return envNumber("AMULET_BENCH_SCALE", 1.0);
}

/**
 * Campaigns to run concurrently (AMULET_BENCH_JOBS; 0 = all cores).
 * Printed counts do not depend on it: each matrix campaign is its own
 * scheduler run at its own cfg.jobs, which is 1 in every paper cell.
 * The default stays serial because the tables also report wall-clock
 * columns, which concurrent campaigns sharing cores would distort.
 */
inline unsigned
matrixJobs()
{
    return envNumber("AMULET_BENCH_JOBS", 1u);
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
