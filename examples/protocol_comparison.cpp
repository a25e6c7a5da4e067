/**
 * @file
 * Side-by-side comparison of all protocols on one workload — a
 * miniature of the paper's whole evaluation in one table.
 *
 *   $ ./examples/protocol_comparison [workload] [ops]
 *
 * workload is any WorkloadSpec preset (oltp, apache, specjbb,
 * producer-consumer, lock-ping, uniform, hot, private); recorded
 * traces are driven via examples/trace_tool instead.
 */

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/argparse.hh"
#include "harness/parallel_runner.hh"

using namespace tokensim;

namespace {

int
compare(int argc, char **argv)
{
    const std::string workload = argc > 1 ? argv[1] : "oltp";
    const std::uint64_t ops =
        argc > 2 ? parseU64("ops", argv[2], 1) : 4000;

    struct Row
    {
        ProtocolKind proto;
        const char *topo;
    };
    const Row rows[] = {
        {ProtocolKind::snooping, "tree"},
        {ProtocolKind::tokenB, "tree"},
        {ProtocolKind::tokenB, "torus"},
        {ProtocolKind::tokenM, "torus"},
        {ProtocolKind::tokenA, "torus"},
        {ProtocolKind::tokenD, "torus"},
        {ProtocolKind::hammer, "torus"},
        {ProtocolKind::directory, "torus"},
    };

    // All protocols sweep in one ParallelRunner invocation: every
    // (protocol, seed) shard is an independent System.
    std::vector<ExperimentSpec> specs;
    for (const Row &row : rows) {
        SystemConfig cfg;
        cfg.numNodes = 16;
        cfg.topology = row.topo;
        cfg.protocol = row.proto;
        cfg.workload = workload;
        cfg.opsPerProcessor = ops;
        cfg.warmupOpsPerProcessor = ops;
        specs.push_back(
            ExperimentSpec{cfg, 2, protocolName(row.proto)});
    }
    const std::vector<ExperimentResult> results =
        ParallelRunner().run(specs);

    std::printf("%-10s %-6s %12s %12s %10s %9s\n", "protocol",
                "topo", "cycles/txn", "missLat(ns)", "bytes/miss",
                "c2c%");
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const Row &row = rows[i];
        const ExperimentResult &r = results[i];
        std::printf("%-10s %-6s %12.1f %12.0f %10.1f %8.1f%%\n",
                    protocolName(row.proto), row.topo,
                    r.cyclesPerTransaction, r.avgMissLatencyNs,
                    r.bytesPerMiss, 100.0 * r.cacheToCacheFrac);
    }
    std::printf("\n(the paper's Figure 4/5 story: TokenB-torus wins "
                "runtime; Directory wins traffic;\n Hammer pays "
                "per-node acks; snooping is stuck on the ordered "
                "tree)\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return compare(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "protocol_comparison: %s\n", e.what());
        return 1;
    }
}
