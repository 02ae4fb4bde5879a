/**
 * @file
 * Shared parameterization for the leak test suites: a test over the rows
 * of core::paperLeaks(), by index, with each case named after its row.
 */

#ifndef AMULET_TESTS_SUPPORT_LEAK_ROWS_HH
#define AMULET_TESTS_SUPPORT_LEAK_ROWS_HH

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "core/paper_leaks.hh"

namespace amulet::fixture
{

/** A test over catalog rows. Suites alias it (`using Suite =
 *  LeakRowTest;`) and instantiate it over leakRows(). */
class LeakRowTest : public ::testing::TestWithParam<std::size_t>
{
  protected:
    static const core::LeakRow &row()
    {
        return core::paperLeaks().rows[GetParam()];
    }
};

/** The indices of every row, or of the leaking rows only. */
inline std::vector<std::size_t>
leakRows(bool leakingOnly = false)
{
    const auto &rows = core::paperLeaks().rows;
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (!leakingOnly || rows[i].signature)
            out.push_back(i);
    }
    return out;
}

/** Names a LeakRowTest case after its row. */
inline std::string
leakRowName(const ::testing::TestParamInfo<std::size_t> &info)
{
    return core::paperLeaks().rows[info.param].name();
}

} // namespace amulet::fixture

#endif // AMULET_TESTS_SUPPORT_LEAK_ROWS_HH
