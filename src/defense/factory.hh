/**
 * @file
 * Defense configuration and factory.
 *
 * A DefenseConfig names a countermeasure and its bug/patch switches; bugs
 * default to *on*, matching the public artifacts the paper tested. This is
 * the single entry point campaigns, examples, and benches use to select a
 * target.
 */

#ifndef AMULET_DEFENSE_FACTORY_HH
#define AMULET_DEFENSE_FACTORY_HH

#include <memory>
#include <vector>

#include "defense/defense.hh"

namespace amulet::defense
{

/** Countermeasures available as executor targets. */
enum class DefenseKind
{
    Baseline,
    InvisiSpec,
    CleanupSpec,
    Stt,
    SpecLfb,
};

/** Display name ("InvisiSpec"). */
const char *defenseKindName(DefenseKind kind);

/** All testable targets, baseline first (Table 4's row order). */
std::vector<DefenseKind> allDefenseKinds();

/** Defense selection plus bug/patch switches. */
struct DefenseConfig
{
    DefenseKind kind = DefenseKind::Baseline;

    /** @name Published-artifact bugs (default: present) */
    /// @{
    bool invisispecBugSpecEviction = true;   ///< UV1
    bool cleanupBugStoreNotCleaned = true;   ///< UV3
    bool cleanupBugSplitNotCleaned = true;   ///< UV4
    bool cleanupNoCleanPatch = false;        ///< UV5 mitigation
    bool sttBugTaintedStoreTlb = true;       ///< KV3
    bool speclfbBugFirstLoad = true;         ///< UV6
    /// @}

    /** Convenience: all bugs fixed / patches applied. */
    static DefenseConfig
    patched(DefenseKind kind)
    {
        DefenseConfig c;
        c.kind = kind;
        c.invisispecBugSpecEviction = false;
        c.cleanupBugStoreNotCleaned = false;
        c.cleanupBugSplitNotCleaned = false;
        c.cleanupNoCleanPatch = true;
        c.sttBugTaintedStoreTlb = false;
        c.speclfbBugFirstLoad = false;
        return c;
    }
};

/** Instantiate a defense for a core configuration. */
std::unique_ptr<Defense> makeDefense(const DefenseConfig &config,
                                     const uarch::CoreParams &params);

} // namespace amulet::defense

#endif // AMULET_DEFENSE_FACTORY_HH
