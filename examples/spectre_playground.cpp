/**
 * @file
 * Spectre playground: run hand-written Spectre-v1 (memory- and
 * register-secret) and Spectre-v4 attack programs against every
 * countermeasure, in its as-published (buggy) and patched variant, and
 * print the resulting leak matrix. The programs and their input pairs
 * come from the catalog of the paper's hand-built violations
 * (src/core/paper_leaks.hh), in the listing syntax of the paper's
 * figures.
 *
 * Build & run:   ./build/examples/spectre_playground
 */

#include <cstdio>
#include <string>

#include "core/paper_leaks.hh"

namespace
{

using namespace amulet;

/** Whether @p gadget's two inputs leave different L1D+TLB states on
 *  @p kind's paper harness. */
bool
leaks(const core::LeakGadget &gadget, defense::DefenseKind kind,
      bool patched)
{
    return core::runPair({.gadget = &gadget, .defense = kind,
                          .patched = patched})
        .differs();
}

} // namespace

int
main()
{
    using defense::DefenseKind;

    const auto &catalog = core::paperLeaks();

    std::printf("Hand-written Spectre attacks vs. every countermeasure\n");
    std::printf("(LEAK = final L1D+TLB state differs for two "
                "contract-equivalent inputs)\n\n");
    std::printf("%-22s %-14s %-14s %-14s\n", "target",
                "v1 (mem secret)", "v1 (reg secret)", "v4 (store bypass)");

    for (DefenseKind kind : defense::allDefenseKinds()) {
        for (bool patched : {false, true}) {
            if (kind == DefenseKind::Baseline && patched)
                continue;
            std::string name = defense::defenseKindName(kind);
            if (kind != DefenseKind::Baseline)
                name += patched ? " (patched)" : " (as published)";
            std::printf("%-22s %-14s %-14s %-14s\n", name.c_str(),
                        leaks(catalog.v1Mem, kind, patched) ? "LEAK" : "ok",
                        leaks(catalog.v1Reg, kind, patched) ? "LEAK" : "ok",
                        leaks(catalog.v4, kind, patched) ? "LEAK" : "ok");
        }
    }
    std::printf(
        "\nExpected:\n"
        " - the baseline leaks all three patterns;\n"
        " - as-published InvisiSpec leaks via UV1 speculative evictions "
        "(fixed by the patch);\n"
        " - as-published SpecLFB leaks register secrets via UV6 (fixed "
        "by the patch);\n"
        " - CleanupSpec rolls these plain-load patterns back (its bugs "
        "need stores/splits/aliasing);\n"
        " - STT leaks *register* secrets by design in both variants: "
        "pre-existing register state is\n   untainted, which is why the "
        "paper tests STT against ARCH-SEQ (registers exposed in the\n"
        "   contract) rather than CT-SEQ.\n");
    return 0;
}
