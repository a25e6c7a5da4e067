/**
 * @file
 * Trace tooling: record a live generator run to a trace artifact,
 * replay a trace through any protocol, and inspect trace contents.
 *
 *   $ ./trace_tool record out.trace [options]
 *   $ ./trace_tool replay in.trace [options]
 *   $ ./trace_tool dump in.trace [node [limit]]
 *   $ ./trace_tool stats in.trace
 *
 * Options (record and replay):
 *   --workload P   preset for record (default oltp)
 *   --protocol P   tokenb|tokend|tokenm|tokena|tokennull|snooping|
 *                  directory|hammer (default tokenb)
 *   --topology T   torus|tree (default torus; tree for snooping)
 *   --nodes N      processors (default 8; replay takes it from the
 *                  trace header)
 *   --ops N        measured ops/processor (default 1000; replay
 *                  defaults to the trace's recorded budget)
 *   --warmup N     warmup ops/processor (default 0)
 *   --seed S       base seed (default 1; replay defaults to the
 *                  trace's recorded seed)
 *
 * A record → replay round trip with matching knobs reproduces the
 * live run's results bit-identically; both subcommands print the
 * resultDigest() line so the round trip is checkable by eye or diff.
 */

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "harness/argparse.hh"
#include "harness/experiment.hh"
#include "harness/system.hh"
#include "workload/trace.hh"

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
    if (s == "tokennull")
        return ProtocolKind::tokenNull;
    if (s == "snooping")
        return ProtocolKind::snooping;
    if (s == "directory")
        return ProtocolKind::directory;
    if (s == "hammer")
        return ProtocolKind::hammer;
    throw std::invalid_argument("unknown protocol: " + s);
}

struct Options
{
    std::string workload = "oltp";
    std::string protocol = "tokenb";
    std::string topology;
    int nodes = 8;
    std::uint64_t ops = 1000;
    std::uint64_t warmup = 0;
    std::uint64_t seed = 1;
    bool opsSet = false;
    bool seedSet = false;
    bool warmupSet = false;
    bool nodesSet = false;
};

Options
parseOptions(int argc, char **argv, int first)
{
    Options o;
    for (int i = first; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto value = [&]() -> std::string {
            if (++i >= argc)
                throw std::invalid_argument(flag + " needs a value");
            return argv[i];
        };
        if (flag == "--workload") {
            o.workload = value();
        } else if (flag == "--protocol") {
            o.protocol = value();
        } else if (flag == "--topology") {
            o.topology = value();
        } else if (flag == "--nodes") {
            o.nodes = parseInt(flag, value(), 1);
            o.nodesSet = true;
        } else if (flag == "--ops") {
            o.ops = parseU64(flag, value(), 1);
            o.opsSet = true;
        } else if (flag == "--warmup") {
            o.warmup = parseU64(flag, value());
            o.warmupSet = true;
        } else if (flag == "--seed") {
            o.seed = parseU64(flag, value());
            o.seedSet = true;
        } else {
            throw std::invalid_argument("unknown option: " + flag);
        }
    }
    return o;
}

SystemConfig
configFor(const Options &o)
{
    SystemConfig cfg;
    cfg.numNodes = o.nodes;
    cfg.protocol = parseProtocol(o.protocol);
    cfg.topology = !o.topology.empty() ? o.topology
        : cfg.protocol == ProtocolKind::snooping ? "tree" : "torus";
    cfg.opsPerProcessor = o.ops;
    cfg.warmupOpsPerProcessor = o.warmup;
    cfg.seed = o.seed;
    return cfg;
}

void
printResults(const SystemConfig &cfg, const ExperimentResult &r)
{
    std::printf("system:   %d nodes, %s on %s, workload %s\n",
                cfg.numNodes, protocolName(cfg.protocol),
                cfg.topology.c_str(), cfg.workload.name().c_str());
    std::printf("runtime:  %.1f cycles/transaction\n",
                r.cyclesPerTransaction);
    std::printf("misses:   %llu (%.1f%% of L2 accesses, %.1f%% "
                "cache-to-cache)\n",
                static_cast<unsigned long long>(r.misses),
                100.0 * r.missRate, 100.0 * r.cacheToCacheFrac);
    std::printf("traffic:  %.1f bytes/miss\n", r.bytesPerMiss);
    std::printf("digest:   %s\n", resultDigest(r).c_str());
}

int
cmdRecord(const std::string &path, const Options &o)
{
    SystemConfig cfg = configFor(o);
    cfg.workload = o.workload;
    cfg.recordTrace = path;

    System sys(cfg);
    sys.run();
    const ExperimentResult r =
        aggregateResults({sys.results()}, o.workload);
    printResults(cfg, r);

    const auto trace = TraceData::load(path);
    std::printf("recorded: %s (%llu ops over %u nodes)\n",
                path.c_str(),
                static_cast<unsigned long long>(trace->totalOps()),
                trace->numNodes());
    return 0;
}

int
cmdReplay(const std::string &path, const Options &o)
{
    const auto trace = TraceData::loadCached(path);
    const TraceHeader &hdr = trace->header();
    if (o.nodesSet &&
        o.nodes != static_cast<int>(trace->numNodes())) {
        std::fprintf(stderr,
                     "--nodes %d ignored: trace fixes %u nodes\n",
                     o.nodes, trace->numNodes());
    }

    SystemConfig cfg = configFor(o);
    cfg.numNodes = static_cast<int>(trace->numNodes());
    cfg.workload = WorkloadSpec::trace(path);
    cfg.seed = o.seedSet ? o.seed : hdr.seed;
    cfg.warmupOpsPerProcessor =
        o.warmupSet ? o.warmup : hdr.warmupOpsPerProcessor;
    if (!o.opsSet &&
        cfg.warmupOpsPerProcessor >= trace->minOpsPerNode()) {
        throw std::invalid_argument(
            "--warmup " + std::to_string(cfg.warmupOpsPerProcessor) +
            " consumes the whole trace (" +
            std::to_string(trace->minOpsPerNode()) +
            " ops/node); pass --ops to wrap the replay");
    }
    cfg.opsPerProcessor = o.opsSet
        ? o.ops
        : trace->minOpsPerNode() - cfg.warmupOpsPerProcessor;

    const ExperimentResult r = aggregateResults(
        {runOnce(cfg, cfg.seed)}, "replay:" + hdr.provenance);
    printResults(cfg, r);
    return 0;
}

int
cmdDump(const std::string &path, int argc, char **argv, int first)
{
    const auto trace = TraceData::load(path);
    const TraceHeader &hdr = trace->header();
    const int node = argc > first
        ? parseInt("node", argv[first], 0,
                   static_cast<int>(hdr.numNodes) - 1)
        : 0;
    const std::uint64_t limit = argc > first + 1
        ? parseU64("limit", argv[first + 1]) : 32;

    TraceData::Reader r(*trace, static_cast<NodeId>(node));
    std::printf("# node %d: %llu ops\n", node,
                static_cast<unsigned long long>(
                    trace->opsForNode(static_cast<NodeId>(node))));
    for (std::uint64_t i = 0; i < limit && !r.done(); ++i) {
        const WorkloadOp op = r.next();
        std::printf("%6llu  %-5s 0x%012llx%s\n",
                    static_cast<unsigned long long>(i),
                    op.op == MemOp::store ? "store" : "load",
                    static_cast<unsigned long long>(op.addr),
                    op.endsTransaction ? "  [txn]" : "");
    }
    return 0;
}

int
cmdStats(const std::string &path)
{
    const auto trace = TraceData::load(path);
    const TraceHeader &hdr = trace->header();
    std::printf("trace:      %s\n", path.c_str());
    std::printf("provenance: %s (seed %llu, warmup %llu "
                "ops/processor)\n",
                hdr.provenance.c_str(),
                static_cast<unsigned long long>(hdr.seed),
                static_cast<unsigned long long>(
                    hdr.warmupOpsPerProcessor));
    std::printf("geometry:   %u nodes, %u-byte blocks\n",
                hdr.numNodes, hdr.blockBytes);

    std::uint64_t stores = 0, txns = 0;
    for (std::uint32_t n = 0; n < hdr.numNodes; ++n) {
        TraceData::Reader r(*trace, static_cast<NodeId>(n));
        std::uint64_t node_stores = 0;
        while (!r.done()) {
            const WorkloadOp op = r.next();
            node_stores += op.op == MemOp::store;
            txns += op.endsTransaction;
        }
        stores += node_stores;
        std::printf("  node %2u: %8llu ops (%4.1f%% stores)\n", n,
                    static_cast<unsigned long long>(
                        trace->opsForNode(static_cast<NodeId>(n))),
                    trace->opsForNode(static_cast<NodeId>(n))
                        ? 100.0 * static_cast<double>(node_stores) /
                            static_cast<double>(trace->opsForNode(
                                static_cast<NodeId>(n)))
                        : 0.0);
    }
    std::printf("total:      %llu ops, %llu transactions, "
                "%.1f%% stores\n",
                static_cast<unsigned long long>(trace->totalOps()),
                static_cast<unsigned long long>(txns),
                trace->totalOps()
                    ? 100.0 * static_cast<double>(stores) /
                        static_cast<double>(trace->totalOps())
                    : 0.0);
    return 0;
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: trace_tool record <out.trace> [options]\n"
                 "       trace_tool replay <in.trace> [options]\n"
                 "       trace_tool dump <in.trace> [node [limit]]\n"
                 "       trace_tool stats <in.trace>\n"
                 "see the file comment for options\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3) {
        usage();
        return 2;
    }
    const std::string cmd = argv[1];
    const std::string path = argv[2];
    try {
        if (cmd == "record")
            return cmdRecord(path, parseOptions(argc, argv, 3));
        if (cmd == "replay")
            return cmdReplay(path, parseOptions(argc, argv, 3));
        if (cmd == "dump")
            return cmdDump(path, argc, argv, 3);
        if (cmd == "stats")
            return cmdStats(path);
        usage();
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "trace_tool: %s\n", e.what());
        return 1;
    }
}
