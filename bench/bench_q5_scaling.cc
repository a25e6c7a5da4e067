/**
 * @file
 * Question 5 — can TokenB scale to an unlimited number of processors?
 *
 * The paper's answer is no: TokenB's broadcasts grow as Theta(n) link
 * crossings per miss while Directory's point-to-point messages grow as
 * Theta(sqrt n) on a torus; a microbenchmark showed TokenB using about
 * twice Directory's interconnect bandwidth at 64 processors. TokenB
 * remains more scalable than Hammer (which adds per-node
 * acknowledgments on top of its broadcast).
 *
 * This bench sweeps 4..64 processors on the torus with the uniform
 * sharing microbenchmark and reports bytes per miss for TokenB,
 * Directory, and Hammer, plus the TokenB/Directory ratio.
 *
 * The sweep runs on TOKENSIM_THREADS threads (default: all cores);
 * the figure is bit-identical at any count.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace tokensim;

namespace {

ExperimentSpec
spec(ProtocolKind proto, int nodes, std::uint64_t ops)
{
    SystemConfig cfg;
    cfg.numNodes = nodes;
    cfg.topology = "torus";
    cfg.protocol = proto;
    cfg.workload = "uniform";
    cfg.workload.uniformBlocks = 64 * static_cast<std::uint64_t>(nodes);
    cfg.workload.storeFraction = 0.3;
    cfg.opsPerProcessor = ops;
    cfg.seed = 11;
    return ExperimentSpec{cfg, 1, protocolName(proto)};
}

} // namespace

int
main()
{
    bench::header("Question 5: interconnect traffic scaling "
                  "(uniform-sharing microbenchmark, torus)");
    std::printf("  %5s %12s %12s %12s %14s\n", "procs",
                "TokenB B/miss", "Dir B/miss", "Hammer B/miss",
                "TokenB/Dir");

    const std::uint64_t ops = bench::benchOps() / 2;
    const int nodeCounts[] = {4, 8, 16, 32, 64};

    // The whole (protocol x processor-count) matrix goes through the
    // runner at once; the 64-node shards dominate, so sharding lets
    // the small configs fill the other cores.
    std::vector<ExperimentSpec> specs;
    for (int nodes : nodeCounts) {
        specs.push_back(spec(ProtocolKind::tokenB, nodes, ops));
        specs.push_back(spec(ProtocolKind::directory, nodes, ops));
        specs.push_back(spec(ProtocolKind::hammer, nodes, ops));
    }
    const std::vector<ExperimentResult> results = bench::runAll(specs);

    std::size_t at = 0;
    for (int nodes : nodeCounts) {
        const ExperimentResult &tb = results[at++];
        const ExperimentResult &dir = results[at++];
        const ExperimentResult &ham = results[at++];
        std::printf("  %5d %12.1f %12.1f %12.1f %13.2fx\n", nodes,
                    tb.bytesPerMiss, dir.bytesPerMiss,
                    ham.bytesPerMiss,
                    tb.bytesPerMiss / dir.bytesPerMiss);
    }

    std::printf("\n  (paper: at 64 processors TokenB uses ~2x the "
                "interconnect bandwidth of Directory;\n   broadcast "
                "cost grows Theta(n) vs Theta(sqrt n) for unicast — "
                "TokenB is a poor choice\n   for larger or "
                "bandwidth-limited systems, motivating Section 7's "
                "TokenD/TokenM)\n");
    return 0;
}
