#include "core/signature.hh"

#include <algorithm>
#include <unordered_set>

#include "mem/memory_image.hh"

namespace amulet::core
{

std::string
classifyViolation(const isa::FlatProgram &prog,
                  const executor::SimHarness::PairOutput &replay)
{
    // Addresses (cache lines / VPNs) present in exactly one trace.
    std::unordered_set<std::uint64_t> diff;
    for (Addr w : executor::traceDiffAddrs(replay.a.trace, replay.b.trace))
        diff.insert(w);

    const unsigned line_bytes = 64;
    auto touches_diff = [&](const Event &e) {
        if (diff.empty())
            return true; // non-snapshot formats: match by presence
        const Addr line = e.addr & ~static_cast<Addr>(line_bytes - 1);
        const Addr vpn = e.addr >> mem::kPageShift;
        return diff.count(e.addr) || diff.count(line) || diff.count(vpn);
    };
    // An event of @p kind in either run whose note holds @p note_substr
    // and that touches a differing address, or any address with
    // @p anywhere.
    auto match = [&](EventKind kind, const char *note_substr = nullptr,
                     bool anywhere = false) {
        for (const auto *events : {&replay.eventsA, &replay.eventsB}) {
            for (const Event &e : *events) {
                if (e.kind != kind)
                    continue;
                if (note_substr &&
                    e.note.find(note_substr) == std::string::npos) {
                    continue;
                }
                if (anywhere || touches_diff(e))
                    return true;
            }
        }
        return false;
    };

    // Defense-specific patterns first (most specific root cause).
    if (match(EventKind::SpecEviction))
        return sig::kUv1SpecEviction;
    if (match(EventKind::TaintedStoreTlb))
        return sig::kKv3TaintedStoreTlb;
    if (match(EventKind::CleanupOverclean))
        return sig::kUv5Overclean;
    if (match(EventKind::CleanupSkipped, "UV4"))
        return sig::kUv4SplitNotCleaned;
    if (match(EventKind::CleanupSkipped, "UV3"))
        return sig::kUv3StoreNotCleaned;
    if (match(EventKind::LfbUnsafeBypass))
        return sig::kUv6FirstLoadBypass;
    // A rollback that erased a line present in only one trace removed an
    // architectural footprint: overcleaning (fundamental UV5 — persists,
    // reduced but not eliminated, under the noClean mitigation).
    if (!diff.empty() && match(EventKind::CleanupUndo))
        return sig::kUv5Overclean;
    if (match(EventKind::ExposeStall, nullptr, /*anywhere=*/true))
        return sig::kUv2MshrInterference;

    // Differences confined to the instruction-cache region indicate the
    // unprotected-L1I class (KV1, and KV2 when cleanup timing differs).
    if (!diff.empty()) {
        const bool all_code = std::all_of(
            diff.begin(), diff.end(), [&prog](std::uint64_t w) {
                return w >= prog.codeBase() - 0x1000 &&
                       w < prog.codeEnd() + 0x100000;
            });
        if (all_code)
            return sig::kKv12InstFetch;
    }

    if (match(EventKind::SquashMemOrder, nullptr, /*anywhere=*/true))
        return sig::kSpectreV4;
    // A load that speculatively bypassed an unresolved-address store and
    // touched a differing line leaked a stale value, even if the branch
    // squash arrived before any memory-order violation could fire.
    if (match(EventKind::LoadBypassedStore))
        return sig::kSpectreV4;
    if (match(EventKind::SquashBranch, nullptr, /*anywhere=*/true))
        return sig::kSpectreV1;
    return sig::kTiming;
}

} // namespace amulet::core
