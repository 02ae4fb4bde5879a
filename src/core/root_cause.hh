/**
 * @file
 * Root-cause analysis support (§3.3 (a)).
 *
 * Mirrors the paper's script that parses gem5 debug logs into a
 * side-by-side comparison of the memory accesses, squashes and defense
 * events under the two violating inputs. The logs come from one
 * event-logged replay of the pair (SimHarness::replayPair).
 */

#ifndef AMULET_CORE_ROOT_CAUSE_HH
#define AMULET_CORE_ROOT_CAUSE_HH

#include <string>
#include <vector>

#include "common/event_log.hh"
#include "core/violation.hh"
#include "executor/sim_harness.hh"

namespace amulet::core
{

/**
 * Two runs' event logs side by side, the Table 7/9/10 view of the
 * paper: memory operations, squashes and defense events, one row per
 * event, input A on the left.
 */
std::string renderEventTable(const std::vector<Event> &eventsA,
                             const std::vector<Event> &eventsB);

/**
 * The side-by-side report of a replayed violation: its summary line,
 * the event table of @p replay's logs, and the addresses in which the
 * recorded traces differ.
 */
std::string renderSideBySide(const ViolationRecord &violation,
                             const executor::SimHarness::PairOutput &replay);

} // namespace amulet::core

#endif // AMULET_CORE_ROOT_CAUSE_HH
