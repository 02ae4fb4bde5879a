/**
 * @file
 * Table 10: CleanupSpec KV2 (unXpec) — cleanup latency is on the critical
 * path; inputs whose speculative loads hit (no rollback) finish earlier
 * than inputs whose loads miss (rollback), and the extra time lets
 * runahead instruction fetch install additional L1I lines. Detected when
 * the μarch trace includes the L1I.
 */

#include "bench_util.hh"
#include "demo_util.hh"

int
main()
{
    using namespace demo_util;
    bench_util::header("CleanupSpec KV2 (unXpec): cleanup timing via L1I",
                       "Table 10");

    // Patched CleanupSpec (noClean included, so no UV5): input A's
    // speculative loads hit, input B's miss and are rolled back.
    const auto &catalog = core::paperLeaks();
    for (const core::LeakRow *row :
         catalog.rowsOf(catalog.kv12, defense::DefenseKind::CleanupSpec)) {
        std::printf("--- trace format: %s ---\n",
                    executor::traceFormatName(row->observer));
        const core::LeakRun r = core::runPair(*row);
        std::printf("execution time: A=%llu cycles (spec hits), B=%llu "
                    "cycles (spec misses + rollback)\n",
                    static_cast<unsigned long long>(r.a.run.cycles),
                    static_cast<unsigned long long>(r.b.run.cycles));
        printDiff(r);
        std::printf("\n");
    }
    std::printf("Expected: the default D-side trace is clean (rollback is "
                "state-correct here), but the\nexecution times differ and "
                "the L1I-extended trace shows different runahead fetch "
                "depth —\nthe unXpec timing channel.\n");
    return 0;
}
