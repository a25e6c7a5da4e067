/**
 * @file
 * Figure 4 — Snooping vs. TokenB: runtime (4a) and traffic (4b).
 *
 * Runtime bars per workload: TokenB on the ordered tree, Snooping on
 * the tree, TokenB on the unordered torus (snooping on the torus is
 * not applicable — it needs the total order), each with 3.2 GB/s links
 * and with unlimited bandwidth. Normalized to TokenB-tree (limited).
 *
 * Paper shape:
 *  - on the same tree, Snooping is slightly (1-5%) faster than TokenB
 *    (reissues cost a little);
 *  - TokenB on the torus beats Snooping on the tree by 15-28%
 *    (unlimited bandwidth) / 26-65% (limited), because the torus has
 *    lower latency and no root bottleneck;
 *  - traffic per miss is approximately equal for both on the tree.
 *
 * The sweep runs on TOKENSIM_THREADS threads (default: all cores);
 * the figure is bit-identical at any count.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace tokensim;

int
main()
{
    const char *workloads[] = {"apache", "oltp", "specjbb"};
    const int seeds = bench::benchSeeds();

    struct Point
    {
        const char *label;
        ProtocolKind proto;
        const char *topo;
        bool unlimited;
    };
    const Point points[] = {
        {"TokenB - tree", ProtocolKind::tokenB, "tree", false},
        {"TokenB - tree (inf bw)", ProtocolKind::tokenB, "tree",
         true},
        {"Snooping - tree", ProtocolKind::snooping, "tree", false},
        {"Snooping - tree (inf bw)", ProtocolKind::snooping,
         "tree", true},
        {"TokenB - torus", ProtocolKind::tokenB, "torus", false},
        {"TokenB - torus (inf bw)", ProtocolKind::tokenB, "torus",
         true},
    };
    constexpr std::size_t numPoints = sizeof(points) / sizeof(points[0]);

    // Build the whole figure — 4a's runtime bars and 4b's traffic
    // table — as one spec list and sweep it in a single parallel
    // invocation.
    std::vector<ExperimentSpec> specs;
    for (const char *w : workloads) {
        for (const Point &p : points) {
            SystemConfig cfg = bench::paperConfig(p.proto, p.topo, w);
            cfg.net.unlimitedBandwidth = p.unlimited;
            specs.push_back(ExperimentSpec{cfg, seeds, p.label});
        }
    }
    const std::size_t trafficBase = specs.size();
    for (const char *w : workloads) {
        for (ProtocolKind proto : {ProtocolKind::tokenB,
                                   ProtocolKind::snooping}) {
            SystemConfig cfg = bench::paperConfig(proto, "tree", w);
            specs.push_back(ExperimentSpec{cfg, seeds, w});
        }
    }
    const std::vector<ExperimentResult> results = bench::runAll(specs);

    bench::header("Figure 4a: runtime, snooping v. token coherence "
                  "(normalized cycles/transaction; lower is better)");

    std::size_t at = 0;
    for (const char *w : workloads) {
        std::printf("\n%s:\n", w);
        double norm = 0;
        for (std::size_t i = 0; i < numPoints; ++i) {
            const Point &p = points[i];
            const ExperimentResult &r = results[at++];
            if (norm == 0)
                norm = r.cyclesPerTransaction;
            bench::bar(p.label, r.cyclesPerTransaction, norm,
                       strformat("(%.1f cyc/txn +/- %.1f, "
                                 "%.1f evt/op)",
                                 r.cyclesPerTransaction,
                                 r.cyclesPerTransactionStddev,
                                 r.eventsPerOp));
        }
        std::printf("  %-28s %6s |  (torus provides no total order)\n",
                    "Snooping - torus", "n/a");
    }

    bench::header("Figure 4b: traffic, snooping v. token coherence "
                  "(bytes per miss on the tree, by category)");
    std::printf("  %-10s %-10s %9s %9s %9s %9s %9s\n", "workload",
                "protocol", "req", "reissue+p", "nonData", "data",
                "total");
    at = trafficBase;
    for (const char *w : workloads) {
        for (ProtocolKind proto : {ProtocolKind::tokenB,
                                   ProtocolKind::snooping}) {
            const ExperimentResult &r = results[at++];
            const double reissue_persistent =
                r.bytesPerMissByClass[static_cast<int>(
                    MsgClass::reissue)] +
                r.bytesPerMissByClass[static_cast<int>(
                    MsgClass::persistent)];
            std::printf(
                "  %-10s %-10s %9.1f %9.1f %9.1f %9.1f %9.1f\n", w,
                protocolName(proto),
                r.bytesPerMissByClass[static_cast<int>(
                    MsgClass::request)],
                reissue_persistent,
                r.bytesPerMissByClass[static_cast<int>(
                    MsgClass::nonData)],
                r.bytesPerMissByClass[static_cast<int>(
                    MsgClass::data)],
                r.bytesPerMiss);
        }
    }
    std::printf("\n  (paper: both protocols use approximately the "
                "same bandwidth on the tree)\n");
    return 0;
}
