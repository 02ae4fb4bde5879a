/**
 * @file
 * Contract-violation records (§3.3).
 *
 * On detecting a violation AMuLeT outputs the program and the pair of
 * inputs causing it together with their μarch traces; signature analysis
 * then buckets violations into unique root causes.
 */

#ifndef AMULET_CORE_VIOLATION_HH
#define AMULET_CORE_VIOLATION_HH

#include <cstdint>
#include <string>

#include "arch/input.hh"
#include "common/rng.hh"
#include "executor/sim_harness.hh"
#include "executor/uarch_trace.hh"

namespace amulet::core
{

/** One confirmed contract violation. */
struct ViolationRecord
{
    std::string defenseName;
    std::string contractName;
    std::string programText;     ///< disassembly of the violating program
    unsigned programIndex = 0;   ///< which generated program
    arch::Input inputA;
    arch::Input inputB;
    executor::UTrace traceA;
    executor::UTrace traceB;
    /** Starting μarch contexts of the two runs (replay support). */
    executor::UarchContext ctxA;
    executor::UarchContext ctxB;
    std::uint64_t ctraceHash = 0;
    std::string signature;       ///< root cause bucket (see signature.hh)
    double detectSeconds = 0;    ///< wall time since campaign start
    /** Pre-split RNG stream of the generating program, captured before
     *  any draw: the whole test-generation pipeline for this program can
     *  be re-derived offline from (config, programIndex, rngState). */
    Rng::State rngState{};

    /** Short one-line summary. */
    std::string summary() const;
};

} // namespace amulet::core

#endif // AMULET_CORE_VIOLATION_HH
