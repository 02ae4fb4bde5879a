#include "defense/factory.hh"

#include "defense/cleanupspec.hh"
#include "defense/invisispec.hh"
#include "defense/speclfb.hh"
#include "defense/stt.hh"

namespace amulet::defense
{

const char *
defenseKindName(DefenseKind kind)
{
    switch (kind) {
      case DefenseKind::Baseline:    return "Baseline";
      case DefenseKind::InvisiSpec:  return "InvisiSpec";
      case DefenseKind::CleanupSpec: return "CleanupSpec";
      case DefenseKind::Stt:         return "STT";
      case DefenseKind::SpecLfb:     return "SpecLFB";
    }
    return "?";
}

std::vector<DefenseKind>
allDefenseKinds()
{
    return {DefenseKind::Baseline, DefenseKind::InvisiSpec,
            DefenseKind::CleanupSpec, DefenseKind::SpecLfb,
            DefenseKind::Stt};
}

std::unique_ptr<Defense>
makeDefense(const DefenseConfig &config, const uarch::CoreParams &params)
{
    switch (config.kind) {
      case DefenseKind::Baseline:
        return std::make_unique<Baseline>();
      case DefenseKind::InvisiSpec:
        return std::make_unique<InvisiSpec>(
            params, config.invisispecBugSpecEviction);
      case DefenseKind::CleanupSpec: {
        CleanupSpec::Options opt;
        opt.bugStoreNotCleaned = config.cleanupBugStoreNotCleaned;
        opt.bugSplitNotCleaned = config.cleanupBugSplitNotCleaned;
        opt.noCleanPatch = config.cleanupNoCleanPatch;
        return std::make_unique<CleanupSpec>(opt);
      }
      case DefenseKind::Stt:
        return std::make_unique<Stt>(config.sttBugTaintedStoreTlb);
      case DefenseKind::SpecLfb:
        return std::make_unique<SpecLfb>(params,
                                         config.speclfbBugFirstLoad);
    }
    return std::make_unique<Defense>();
}

} // namespace amulet::defense
