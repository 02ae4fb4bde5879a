/**
 * @file
 * Shared input helpers for the emulator, contract and pipeline test
 * suites: a sandbox layout of a given size and a generated input.
 */

#ifndef AMULET_TESTS_SUPPORT_INPUTS_HH
#define AMULET_TESTS_SUPPORT_INPUTS_HH

#include <cstdint>

#include "common/rng.hh"
#include "core/input_gen.hh"
#include "mem/address_map.hh"

namespace amulet::fixture
{

/** The default address map with a @p pages-page sandbox. */
inline mem::AddressMap
testMap(unsigned pages = 1)
{
    mem::AddressMap map;
    map.sandboxPages = pages;
    return map;
}

/** Input 0 of a generator seeded with @p seed, for @p map. */
inline arch::Input
makeInput(const mem::AddressMap &map, std::uint64_t seed)
{
    core::InputGenConfig cfg;
    cfg.map = map;
    Rng rng(seed);
    core::InputGenerator gen(cfg, rng);
    return gen.generate(0);
}

} // namespace amulet::fixture

#endif // AMULET_TESTS_SUPPORT_INPUTS_HH
