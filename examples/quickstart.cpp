/**
 * @file
 * Quickstart: build the paper's 16-processor target system running
 * TokenB on the unordered torus, execute an OLTP-like workload, and
 * read out the headline statistics.
 *
 *   $ ./examples/quickstart [workload] [protocol]
 *
 * workload: oltp | apache | specjbb | producer-consumer | lock-ping |
 *           uniform | private (default oltp)
 * protocol: tokenb | tokend | tokenm | tokena | snooping | directory | hammer
 */

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "harness/system.hh"

using namespace tokensim;

namespace {

ProtocolKind
parseProtocol(const std::string &s)
{
    if (s == "tokenb")
        return ProtocolKind::tokenB;
    if (s == "tokend")
        return ProtocolKind::tokenD;
    if (s == "tokenm")
        return ProtocolKind::tokenM;
    if (s == "tokena")
        return ProtocolKind::tokenA;
    if (s == "snooping")
        return ProtocolKind::snooping;
    if (s == "directory")
        return ProtocolKind::directory;
    if (s == "hammer")
        return ProtocolKind::hammer;
    throw std::invalid_argument("unknown protocol: " + s);
}

int
quickstart(int argc, char **argv)
{
    const std::string workload = argc > 1 ? argv[1] : "oltp";
    const ProtocolKind proto =
        parseProtocol(argc > 2 ? argv[2] : "tokenb");

    // 1. Describe the system. Defaults reproduce the paper's Table 1:
    //    16 nodes, 4 MB L2, 80 ns DRAM, 3.2 GB/s 15 ns links.
    SystemConfig cfg;
    cfg.numNodes = 16;
    cfg.protocol = proto;
    // Snooping needs the totally-ordered tree; everything else runs
    // on the lower-latency unordered torus.
    cfg.topology = proto == ProtocolKind::snooping ? "tree" : "torus";
    cfg.workload = workload;
    cfg.opsPerProcessor = 6000;
    cfg.warmupOpsPerProcessor = 6000;
    cfg.attachAuditor = isTokenProtocol(proto);   // run-time safety net

    // 2. Build and run. run() drains all protocol activity before
    //    returning, so the results are quiescent-state numbers.
    System sys(cfg);
    sys.run();

    // 3. Read the aggregate results.
    const System::Results r = sys.results();
    std::printf("system:        %d nodes, %s, %s on %s\n",
                cfg.numNodes, protocolName(proto), workload.c_str(),
                cfg.topology.c_str());
    std::printf("simulated:     %.1f us (%llu ops, %llu transactions)\n",
                ticksToNsF(r.runtimeTicks()) / 1000.0,
                static_cast<unsigned long long>(r.ops()),
                static_cast<unsigned long long>(r.transactions()));
    std::printf("runtime:       %.1f cycles/transaction\n",
                r.cyclesPerTransaction());
    std::printf("L1 hits:       %.1f%% of ops\n",
                100.0 * static_cast<double>(r.l1Hits()) /
                    static_cast<double>(r.ops()));
    std::printf("L2 misses:     %llu (%.1f%% of L2 accesses, "
                "%.1f%% cache-to-cache)\n",
                static_cast<unsigned long long>(r.misses()),
                100.0 * static_cast<double>(r.misses()) /
                    static_cast<double>(r.l2Accesses()),
                100.0 * static_cast<double>(r.cacheToCache()) /
                    static_cast<double>(r.misses()));
    std::printf("miss latency:  %.1f ns average\n",
                ticksToNsF(r.avgMissLatencyTicks()));
    std::printf("traffic:       %.1f bytes/miss on the interconnect\n",
                r.bytesPerMiss());
    std::printf("sim kernel:    %.1f events/op dispatched "
                "(%llu scheduled, %llu timer cancels)\n",
                r.eventsPerOp(),
                static_cast<unsigned long long>(r.eventsScheduled()),
                static_cast<unsigned long long>(r.timersCancelled()));
    if (isTokenProtocol(proto)) {
        std::printf("reissues:      %.2f%% of misses reissued, "
                    "%.2f%% used persistent requests\n",
                    100.0 *
                        static_cast<double>(r.missesReissuedOnce() +
                                            r.missesReissuedMore()) /
                        static_cast<double>(r.misses()),
                    100.0 * static_cast<double>(r.missesPersistent()) /
                        static_cast<double>(r.misses()));
        std::string err;
        if (sys.auditor() && sys.auditor()->auditAll(&err)) {
            std::printf("token audit:   all %zu touched blocks "
                        "conserve exactly T tokens\n",
                        sys.auditor()->touchedBlocks().size());
        } else if (sys.auditor()) {
            std::printf("token audit:   FAILED: %s\n", err.c_str());
            return 1;
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return quickstart(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "quickstart: %s\n", e.what());
        return 1;
    }
}
