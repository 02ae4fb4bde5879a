#include "core/minimizer.hh"

namespace amulet::core
{

namespace
{

/** Does the pair still (a) agree on contract traces and (b) disagree on
 *  μarch traces for this candidate program? */
bool
stillViolates(executor::SimHarness &harness,
              const contracts::LeakageModel &model,
              const mem::AddressMap &map, const isa::Program &candidate,
              const ViolationRecord &violation, unsigned &checks)
{
    ++checks;
    if (candidate.validate())
        return false;
    const isa::FlatProgram fp(candidate, map.codeBase);
    if (!(model.collect(fp, violation.inputA, map) ==
          model.collect(fp, violation.inputB, map))) {
        return false; // no longer contract-equivalent
    }
    return harness
        .replayPair(fp, violation.inputA, violation.ctxA, violation.inputB,
                    violation.ctxB)
        .differs();
}

} // namespace

MinimizeResult
minimizeViolation(executor::SimHarness &harness,
                  const contracts::LeakageModel &model,
                  const mem::AddressMap &map, const isa::Program &program,
                  const ViolationRecord &violation)
{
    MinimizeResult result;
    result.program = program;

    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t b = 0; b < result.program.blocks.size(); ++b) {
            // Accepting a candidate replaces result.program, so re-read
            // the block on every iteration (no cached references).
            for (std::size_t i = 0;
                 i < result.program.blocks[b].body.size(); ++i) {
                if (result.program.blocks[b].body[i].isBranch())
                    continue; // keep the control-flow skeleton
                isa::Program candidate = result.program;
                auto &cbody = candidate.blocks[b].body;
                cbody.erase(cbody.begin() + static_cast<long>(i));
                if (stillViolates(harness, model, map, candidate,
                                  violation, result.checks)) {
                    result.program = std::move(candidate);
                    ++result.removedInsts;
                    changed = true;
                    // Re-test the same index (next instruction shifted
                    // into this slot).
                    --i;
                }
            }
        }
    }
    return result;
}

} // namespace amulet::core
