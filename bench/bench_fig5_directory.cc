/**
 * @file
 * Figure 5 — Directory and Hammer vs. TokenB on the torus: runtime
 * (5a) and traffic (5b).
 *
 * Runtime bars per workload: TokenB, Hammer, Directory (DRAM
 * directory), Directory with a perfect (zero-latency) directory, and
 * each with unlimited bandwidth. Normalized to TokenB (limited).
 *
 * Paper shape:
 *  - TokenB is 17-54% faster than Directory and 8-29% faster than
 *    Hammer (no home-node indirection on cache-to-cache misses);
 *  - even with a zero-cycle directory, TokenB stays 6-18% ahead;
 *  - Hammer is 7-17% faster than Directory (no directory lookup) but
 *    a zero-latency directory beats Hammer by 2-9%;
 *  - traffic: Hammer uses 79-90% more than TokenB; Directory uses
 *    21-25% less than TokenB.
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
        bool perfect_dir;
        bool unlimited;
    };
    const Point points[] = {
        {"TokenB", ProtocolKind::tokenB, false, false},
        {"TokenB (inf bw)", ProtocolKind::tokenB, false, true},
        {"Hammer", ProtocolKind::hammer, false, false},
        {"Hammer (inf bw)", ProtocolKind::hammer, false, true},
        {"Directory (DRAM dir)", ProtocolKind::directory, false,
         false},
        {"Directory (perfect dir)", ProtocolKind::directory, true,
         false},
        {"Directory (perfect+inf)", ProtocolKind::directory, true,
         true},
    };
    constexpr std::size_t numPoints = sizeof(points) / sizeof(points[0]);

    // One spec list covers 5a and 5b; a single parallel sweep runs it.
    std::vector<ExperimentSpec> specs;
    for (const char *w : workloads) {
        for (const Point &p : points) {
            SystemConfig cfg =
                bench::paperConfig(p.proto, "torus", w);
            cfg.proto.perfectDirectory = p.perfect_dir;
            cfg.net.unlimitedBandwidth = p.unlimited;
            specs.push_back(ExperimentSpec{cfg, seeds, p.label});
        }
    }
    const std::size_t trafficBase = specs.size();
    for (const char *w : workloads) {
        for (ProtocolKind proto : {ProtocolKind::tokenB,
                                   ProtocolKind::hammer,
                                   ProtocolKind::directory}) {
            SystemConfig cfg = bench::paperConfig(proto, "torus", w);
            specs.push_back(ExperimentSpec{cfg, seeds, w});
        }
    }
    const std::vector<ExperimentResult> results = bench::runAll(specs);

    bench::header("Figure 5a: runtime, directory/hammer v. token "
                  "coherence on torus (normalized cycles/transaction)");

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
                       strformat("(%.1f cyc/txn, miss %.0f ns, "
                                 "%.1f evt/op)",
                                 r.cyclesPerTransaction,
                                 r.avgMissLatencyNs,
                                 r.eventsPerOp));
        }
    }

    bench::header("Figure 5b: traffic on torus "
                  "(bytes per miss, by category)");
    std::printf("  %-10s %-10s %9s %9s %9s %9s %9s %7s\n", "workload",
                "protocol", "req+fwd", "reissue+p", "nonData", "data",
                "total", "vs TokB");
    at = trafficBase;
    for (const char *w : workloads) {
        double token_total = 0;
        for (ProtocolKind proto : {ProtocolKind::tokenB,
                                   ProtocolKind::hammer,
                                   ProtocolKind::directory}) {
            const ExperimentResult &r = results[at++];
            if (proto == ProtocolKind::tokenB)
                token_total = r.bytesPerMiss;
            const double reissue_persistent =
                r.bytesPerMissByClass[static_cast<int>(
                    MsgClass::reissue)] +
                r.bytesPerMissByClass[static_cast<int>(
                    MsgClass::persistent)];
            std::printf("  %-10s %-10s %9.1f %9.1f %9.1f %9.1f %9.1f "
                        "%6.2fx\n",
                        w, protocolName(proto),
                        r.bytesPerMissByClass[static_cast<int>(
                            MsgClass::request)],
                        reissue_persistent,
                        r.bytesPerMissByClass[static_cast<int>(
                            MsgClass::nonData)],
                        r.bytesPerMissByClass[static_cast<int>(
                            MsgClass::data)],
                        r.bytesPerMiss, r.bytesPerMiss / token_total);
        }
    }
    std::printf("\n  (paper: Hammer 1.79-1.90x TokenB; Directory "
                "0.75-0.79x TokenB; data messages\n   dominate "
                "Directory traffic)\n");
    return 0;
}
