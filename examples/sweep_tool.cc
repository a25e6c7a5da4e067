/**
 * @file
 * Sweep CLI: run a protocol x workload experiment matrix through the
 * ParallelRunner — on threads, or on forked worker processes — or
 * through the serial oracle loop, for comparison.
 *
 *   $ ./sweep_tool run [options]
 *
 * `run` prints exactly one machine-parseable line per design point on
 * stdout — `<label> <resultDigest()>` in spec order — so piping or
 * diffing sweep outputs works unconditionally; all progress, partial
 * aggregates, and the --stats summary go to stderr. Because every
 * executor is bit-identical, `diff <(sweep_tool run --serial ...)
 * <(sweep_tool run --workers 8 ...)` must always be empty — CI's
 * multi-process smoke step enforces exactly that.
 *
 * Options (run):
 *   --protocols a,b,c  comma list (default tokenb,snooping)
 *   --workloads a,b    comma list of presets or trace:PATH entries
 *                      (default oltp)
 *   --tenants p:N,p:N  multi-tenant mode: co-schedule these preset
 *                      workloads on contiguous disjoint node groups
 *                      (counts must sum to --nodes); replaces the
 *                      --workloads axis and adds per-tenant
 *                      diagnostic metrics to --metrics output
 *   --topology T       torus|tree (default: tree for snooping, else
 *                      torus)
 *   --nodes N          processors per system (default 8)
 *   --ops N            measured ops/processor (default 1000)
 *   --warmup N         warmup ops/processor (default 0)
 *   --l2-kb N          L2 size per node in KB (default: Table 1's
 *                      4096; small values make 256-1024-node sweeps
 *                      fit in memory)
 *   --l1-kb N          L1 size per node in KB (default 64)
 *   --sample FF:WIN:N  SMARTS-style sampling on every design point:
 *                      alternate FF fast-forwarded ops with WIN
 *                      detailed ops, N windows; --ops is ignored and
 *                      sampled means carry across-window stderr
 *   --snapshot PATH    warm-state snapshot reuse: if PATH exists,
 *                      load it into every design point (warmup
 *                      skipped); else fast-forward --warmup ops once,
 *                      save to PATH, and use it. Requires --seeds 1
 *                      and design points differing only in timing
 *                      knobs; any shape/workload/seed mismatch is a
 *                      typed error before the sweep starts
 *   --seeds N          seeds per design point (default 2)
 *   --seed S           base seed (default 1)
 *   --workers N        forked worker processes (default 0 = run on
 *                      threads)
 *   --threads N        worker threads when workers = 0 (default:
 *                      TOKENSIM_THREADS, else all cores)
 *   --serial           serial runExperiment loop (the oracle)
 *   --checkpoint PATH  crash-safe checkpoint: append each completed
 *                      shard to PATH; rerunning the same sweep with
 *                      the same PATH resumes instead of recomputing
 *                      (threads or workers, not --serial)
 *   --retries N        max reassignments of one shard after worker
 *                      deaths (default 2)
 *   --shard-timeout MS per-shard hang deadline in ms; 0 = auto (10x
 *                      the slowest completed shard of the same
 *                      design point, >= 10 s), -1 = off (default 0)
 *   --progress         stream shard/partial-aggregate lines (stderr;
 *                      checkpoint and worker-lifecycle lines print
 *                      regardless)
 *   --stats            print a summary table after the run (stderr)
 *   --metrics          dump every named metric of every design
 *                      point's merged registry (stderr)
 *   --help             print option summary with defaults
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/argparse.hh"
#include "harness/experiment.hh"
#include "harness/parallel_runner.hh"
#include "harness/snapshot.hh"
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

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t at = 0;
    while (at <= s.size()) {
        const std::size_t comma = s.find(',', at);
        if (comma == std::string::npos) {
            out.push_back(s.substr(at));
            break;
        }
        out.push_back(s.substr(at, comma - at));
        at = comma + 1;
    }
    return out;
}

struct Options
{
    std::vector<std::string> protocols{"tokenb", "snooping"};
    std::vector<std::string> workloads{"oltp"};
    std::vector<TenantSpec> tenants;  // --tenants (empty: single)
    std::string tenantsLabel;         // the --tenants text, for labels
    std::string topology;   // empty: per-protocol default
    int nodes = 8;
    std::uint64_t ops = 1000;
    std::uint64_t warmup = 0;
    std::uint64_t l2Kb = 0;  // --l2-kb (0: Table 1 default)
    std::uint64_t l1Kb = 0;  // --l1-kb (0: default)
    SamplingSpec sample;    // --sample FF:WIN:N (disabled: all zero)
    std::string snapshot;   // --snapshot PATH (empty: no snapshot)
    int seeds = 2;
    std::uint64_t seed = 1;
    int workers = 0;        // 0: run on threads
    int threads = 0;
    bool serial = false;
    std::string checkpoint;
    int retries = 2;
    long shardTimeoutMs = 0;
    bool progress = false;
    bool stats = false;
    bool metrics = false;
    bool help = false;
};

/** Option summary (--help / bad usage), with the live defaults. */
void
printHelp(const char *argv0)
{
    const Options d;
    std::fprintf(
        stderr,
        "usage: %s run [options]\n"
        "\n"
        "run options:\n"
        "  --protocols a,b,c   comma list (default tokenb,snooping)\n"
        "  --workloads a,b     presets or trace:PATH (default oltp)\n"
        "  --tenants p:N,p:N   co-schedule preset workloads on "
        "contiguous disjoint\n"
        "                      node groups (counts sum to --nodes); "
        "replaces the\n"
        "                      --workloads axis\n"
        "  --topology T        torus|tree (default: tree for "
        "snooping, else torus)\n"
        "  --nodes N           processors per system (default %d)\n"
        "  --ops N             measured ops/processor (default "
        "%llu)\n"
        "  --warmup N          warmup ops/processor (default %llu)\n"
        "  --l2-kb N           L2 KB per node (default: Table 1's "
        "4096)\n"
        "  --l1-kb N           L1 KB per node (default 64)\n"
        "  --sample FF:WIN:N   SMARTS sampling: N windows of FF "
        "fast-forwarded +\n"
        "                      WIN detailed ops per processor "
        "(--ops ignored;\n"
        "                      sampled means carry across-window "
        "stderr)\n"
        "  --snapshot PATH     load PATH as the warm-state snapshot "
        "for every design\n"
        "                      point, or create it first (one "
        "fast-forward of --warmup\n"
        "                      ops) if missing; needs --seeds 1, and "
        "points may differ\n"
        "                      only in timing knobs (shape/workload/"
        "seed mismatches are\n"
        "                      typed errors up front)\n"
        "  --seeds N           seeds per design point (default %d)\n"
        "  --seed S            base seed (default %llu)\n"
        "  --workers N         forked worker processes (default 0 = "
        "threads)\n"
        "  --threads N         worker threads when workers = 0 "
        "(default: TOKENSIM_THREADS,\n"
        "                      else hardware)\n"
        "  --serial            serial oracle loop\n"
        "  --checkpoint PATH   append completed shards to PATH; "
        "rerun with the same\n"
        "                      PATH to resume after a crash (not "
        "with --serial)\n"
        "  --retries N         max reassignments of one shard after "
        "worker deaths (default %d)\n"
        "  --shard-timeout MS  per-shard hang deadline; 0 = auto "
        "(10x slowest shard of\n"
        "                      that design point, >= 10 s), -1 = off "
        "(default %ld)\n"
        "  --progress          stream per-shard progress to stderr\n"
        "  --stats             summary table after the run (stderr)\n"
        "  --metrics           dump merged metric registries "
        "(stderr)\n",
        argv0, d.nodes,
        static_cast<unsigned long long>(d.ops),
        static_cast<unsigned long long>(d.warmup), d.seeds,
        static_cast<unsigned long long>(d.seed), d.retries,
        d.shardTimeoutMs);
}

/** --sample FF:WIN:N -> SamplingSpec{FF, WIN, N}. */
SamplingSpec
parseSample(const std::string &s)
{
    const std::size_t c1 = s.find(':');
    const std::size_t c2 =
        c1 == std::string::npos ? c1 : s.find(':', c1 + 1);
    if (c2 == std::string::npos) {
        throw std::invalid_argument(
            "--sample wants FF:WIN:N (fast-forward ops : detailed "
            "ops : windows), got \"" + s + "\"");
    }
    SamplingSpec spec;
    spec.ffOps = parseU64("--sample FF", s.substr(0, c1));
    spec.measureOps =
        parseU64("--sample WIN", s.substr(c1 + 1, c2 - c1 - 1), 1);
    spec.windows = parseU64("--sample N", s.substr(c2 + 1), 1);
    return spec;
}

/**
 * --tenants preset:N,preset:N -> contiguous tenant groups. Node
 * counts must sum to --nodes (checked in buildMatrix, once both are
 * parsed).
 */
std::vector<TenantSpec>
parseTenants(const std::string &s)
{
    std::vector<TenantSpec> tenants;
    for (const std::string &e : splitCommas(s)) {
        const std::size_t colon = e.rfind(':');
        if (colon == std::string::npos || colon == 0) {
            throw std::invalid_argument(
                "--tenants wants preset:N[,preset:N...], got \"" + s +
                "\"");
        }
        TenantSpec t;
        t.workload = WorkloadSpec(e.substr(0, colon));
        t.nodes = static_cast<int>(parseU64(
            "--tenants node count", e.substr(colon + 1), 1,
            std::numeric_limits<int>::max()));
        tenants.push_back(std::move(t));
    }
    return tenants;
}

/**
 * Apply a --l2-kb/--l1-kb size override, keeping the set count a
 * power of two (CacheArray's indexing requirement) — a clear error
 * here instead of an assert inside the first shard.
 */
void
applyCacheKb(const char *what, CacheParams &c, std::uint64_t kb)
{
    const std::uint64_t bytes = kb * 1024;
    const std::uint64_t line = std::uint64_t{c.assoc} * c.blockBytes;
    const std::uint64_t sets = bytes / line;
    if (sets == 0 || bytes % line != 0 || (sets & (sets - 1)) != 0) {
        throw std::invalid_argument(
            std::string(what) + " " + std::to_string(kb) +
            ": size must give a power-of-two number of " +
            std::to_string(line) + "-byte sets (assoc " +
            std::to_string(c.assoc) + " x " +
            std::to_string(c.blockBytes) + "-byte blocks)");
    }
    c.sizeBytes = bytes;
}

Options
parseOptions(int argc, char **argv, int first)
{
    Options o;
    for (int i = first; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(a + " needs a value");
            return argv[++i];
        };
        if (a == "--protocols")
            o.protocols = splitCommas(value());
        else if (a == "--workloads")
            o.workloads = splitCommas(value());
        else if (a == "--tenants") {
            o.tenantsLabel = value();
            o.tenants = parseTenants(o.tenantsLabel);
        } else if (a == "--topology")
            o.topology = value();
        else if (a == "--nodes")
            o.nodes = parseInt(a, value(), 1);
        else if (a == "--ops")
            o.ops = parseU64(a, value(), 1);
        else if (a == "--warmup")
            o.warmup = parseU64(a, value());
        else if (a == "--l2-kb")
            o.l2Kb = parseU64(a, value(), 1);
        else if (a == "--l1-kb")
            o.l1Kb = parseU64(a, value(), 1);
        else if (a == "--sample")
            o.sample = parseSample(value());
        else if (a == "--snapshot")
            o.snapshot = value();
        else if (a == "--seeds")
            o.seeds = parseInt(a, value(), 1);
        else if (a == "--seed")
            o.seed = parseU64(a, value());
        else if (a == "--workers")
            o.workers = parseInt(a, value(), 0);
        else if (a == "--threads")
            o.threads = parseInt(a, value(), 0);
        else if (a == "--serial")
            o.serial = true;
        else if (a == "--checkpoint")
            o.checkpoint = value();
        else if (a == "--retries")
            o.retries = parseInt(a, value(), 0);
        else if (a == "--shard-timeout")
            o.shardTimeoutMs = parseI64(a, value(), -1);
        else if (a == "--help")
            o.help = true;
        else if (a == "--progress")
            o.progress = true;
        else if (a == "--stats")
            o.stats = true;
        else if (a == "--metrics")
            o.metrics = true;
        else
            throw std::invalid_argument("unknown option: " + a);
    }
    return o;
}

WorkloadSpec
parseWorkload(const std::string &s)
{
    const std::string trace_prefix = "trace:";
    if (s.compare(0, trace_prefix.size(), trace_prefix) == 0)
        return WorkloadSpec::trace(s.substr(trace_prefix.size()));
    return WorkloadSpec(s);
}

std::vector<ExperimentSpec>
buildMatrix(const Options &o)
{
    if (!o.tenants.empty()) {
        int total = 0;
        for (const TenantSpec &t : o.tenants)
            total += t.nodes;
        if (total != o.nodes) {
            throw std::invalid_argument(
                "--tenants node counts sum to " +
                std::to_string(total) + " but --nodes is " +
                std::to_string(o.nodes));
        }
    }
    std::vector<ExperimentSpec> specs;
    for (const std::string &proto_name : o.protocols) {
        const ProtocolKind proto = parseProtocol(proto_name);
        // Multi-tenant mode replaces the workload axis: one design
        // point per protocol, labeled with the tenant list.
        const std::vector<std::string> wl_axis = o.tenants.empty()
            ? o.workloads
            : std::vector<std::string>{o.tenantsLabel};
        for (const std::string &w : wl_axis) {
            SystemConfig cfg;
            cfg.numNodes = o.nodes;
            cfg.protocol = proto;
            cfg.topology = !o.topology.empty() ? o.topology
                : proto == ProtocolKind::snooping ? "tree"
                                                  : "torus";
            if (o.tenants.empty())
                cfg.workload = parseWorkload(w);
            else
                cfg.tenants = o.tenants;
            if (o.l2Kb)
                applyCacheKb("--l2-kb", cfg.l2, o.l2Kb);
            if (o.l1Kb)
                applyCacheKb("--l1-kb", cfg.seq.l1, o.l1Kb);
            cfg.opsPerProcessor = o.ops;
            cfg.warmupOpsPerProcessor = o.warmup;
            cfg.sampling = o.sample;
            cfg.seed = o.seed;
            specs.push_back(ExperimentSpec{
                cfg, o.seeds, proto_name + "/" + w});
        }
    }
    return specs;
}

/**
 * Human-readable dump of one design point's merged metric registry:
 * every named metric — counters, stats, log-histograms — with its
 * pinned/diagnostic flag. Walks the registry generically, so metrics
 * added in System::results() appear here with no tool change.
 */
void
dumpMetrics(const ExperimentResult &r)
{
    std::fprintf(stderr, "\nmetrics for %s:\n", r.label.c_str());
    for (const Metric &m : r.metrics.all()) {
        const char flag = m.pinned ? 'P' : 'd';
        switch (m.kind) {
          case MetricKind::counter:
            std::fprintf(stderr, "  [%c] %-28s %llu\n", flag,
                         m.name.c_str(),
                         static_cast<unsigned long long>(m.value));
            break;
          case MetricKind::stat:
            std::fprintf(stderr,
                         "  [%c] %-28s n=%llu mean=%.4f sd=%.4f "
                         "min=%.1f max=%.1f\n",
                         flag, m.name.c_str(),
                         static_cast<unsigned long long>(
                             m.stat.count()),
                         m.stat.mean(), m.stat.stddev(),
                         m.stat.min(), m.stat.max());
            break;
          case MetricKind::histogram:
            std::fprintf(stderr, "  [%c] %-28s", flag,
                         m.name.c_str());
            for (const auto &[bucket, count] : m.hist.buckets()) {
                std::fprintf(stderr, " 2^%d:%llu", bucket - 1,
                             static_cast<unsigned long long>(count));
            }
            std::fprintf(stderr, "\n");
            break;
        }
    }
}

/**
 * Resolve --snapshot: load PATH if it exists, else warm the first
 * design point once (fast-forward of --warmup ops) and write it.
 * Every spec then runs from the snapshot with its own warmup skipped.
 * Mismatches are typed errors before any simulation starts: each
 * spec's shape fingerprint is checked against the snapshot's header,
 * so "this sweep varies something a snapshot binds" fails with the
 * offending label, not 20 minutes in on a worker.
 */
void
attachSnapshot(const Options &o, std::vector<ExperimentSpec> &specs)
{
    if (o.seeds != 1) {
        throw std::invalid_argument(
            "--snapshot requires --seeds 1: a snapshot binds the "
            "per-node op streams, which the seed determines");
    }
    std::string bytes;
    std::ifstream in(o.snapshot, std::ios::binary);
    if (in.is_open()) {
        std::ostringstream ss;
        ss << in.rdbuf();
        bytes = ss.str();
        std::fprintf(stderr, "sweep: loaded warm snapshot %s "
                             "(%zu bytes, %llu warm ops/node)\n",
                     o.snapshot.c_str(), bytes.size(),
                     static_cast<unsigned long long>(
                         peekSnapshotHeader(bytes).warmOps));
    } else {
        if (o.warmup == 0) {
            throw std::invalid_argument(
                "--snapshot " + o.snapshot +
                " does not exist and --warmup is 0; pass --warmup N "
                "to say how far to fast-forward the fresh snapshot");
        }
        System sys(specs.front().cfg);
        sys.fastForward(o.warmup);
        bytes = saveWarmSnapshot(sys);
        std::ofstream out(o.snapshot,
                          std::ios::binary | std::ios::trunc);
        if (!out || !(out << bytes)) {
            throw std::runtime_error("cannot write snapshot " +
                                     o.snapshot);
        }
        std::fprintf(stderr, "sweep: warmed %llu ops/node and saved "
                             "snapshot %s (%zu bytes)\n",
                     static_cast<unsigned long long>(o.warmup),
                     o.snapshot.c_str(), bytes.size());
    }

    const std::uint64_t fp = peekSnapshotHeader(bytes).fingerprint;
    const auto shared =
        std::make_shared<const std::string>(std::move(bytes));
    for (ExperimentSpec &s : specs) {
        if (snapshotShapeFingerprint(s.cfg) != fp) {
            throw SnapshotError(
                "design point \"" + s.label + "\" does not match " +
                o.snapshot + ": a snapshot binds structure, "
                "workload, and seed — only timing knobs may vary "
                "across a snapshot-warmed sweep");
        }
        s.cfg.warmSnapshot = shared;
        s.cfg.warmupOpsPerProcessor = 0;
    }
}

int
runSweep(const Options &o)
{
    std::vector<ExperimentSpec> specs = buildMatrix(o);
    if (!o.snapshot.empty())
        attachSnapshot(o, specs);

    if (!o.checkpoint.empty() && o.serial) {
        throw std::invalid_argument(
            "--checkpoint does not apply to --serial (the oracle loop "
            "keeps no shard grid); use --threads or --workers");
    }

    std::vector<ExperimentResult> results;
    if (o.serial) {
        std::fprintf(stderr, "sweep: %zu design points x %d seeds, "
                             "serial\n",
                     specs.size(), o.seeds);
        for (const ExperimentSpec &s : specs)
            results.push_back(
                runExperiment(s.cfg, s.seeds, s.label));
    } else {
        ParallelRunnerOptions p;
        p.processes = o.workers >= 1;
        p.threads = p.processes ? o.workers : o.threads;
        p.maxShardRetries = o.retries;
        p.shardTimeoutMs = o.shardTimeoutMs;
        p.checkpointPath = o.checkpoint;
        // Checkpoint and worker-lifecycle events (restore counts,
        // hang kills, respawns, degradation) are operationally
        // significant, so they print even without --progress; the
        // chatty per-shard lines stay opt-in.
        const bool verbose = o.progress;
        p.progress = [verbose](const std::string &line) {
            if (verbose || line.rfind("checkpoint", 0) == 0 ||
                line.rfind("worker", 0) == 0)
                std::fprintf(stderr, "sweep: %s\n", line.c_str());
        };
        const ParallelRunner runner(std::move(p));
        std::fprintf(stderr,
                     "sweep: %zu design points x %d seeds across %d "
                     "%s\n",
                     specs.size(), o.seeds, runner.threads(),
                     o.workers >= 1 ? "worker processes" : "threads");
        results = runner.run(specs);
    }

    // The machine-parseable contract: stdout carries exactly one
    // "<label> <digest>" line per design point, in spec order.
    for (const ExperimentResult &r : results)
        std::printf("%s %s\n", r.label.c_str(),
                    resultDigest(r).c_str());

    if (o.stats) {
        std::fprintf(stderr, "\n%-24s %12s %12s %10s %8s\n", "label",
                     "cyc/txn", "bytes/miss", "missRate", "evt/op");
        for (const ExperimentResult &r : results) {
            std::fprintf(stderr, "%-24s %12.2f %12.2f %10.4f %8.2f\n",
                         r.label.c_str(), r.cyclesPerTransaction,
                         r.bytesPerMiss, r.missRate, r.eventsPerOp);
        }
    }

    if (o.metrics) {
        for (const ExperimentResult &r : results)
            dumpMetrics(r);
    }
    return 0;
}

int
usage(const char *argv0)
{
    printHelp(argv0);
    return 64;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(argv[0]);
    const std::string mode = argv[1];
    try {
        if (mode == "--help" || mode == "-h" || mode == "help") {
            printHelp(argv[0]);
            return 0;
        }
        if (mode == "run") {
            const Options o = parseOptions(argc, argv, 2);
            if (o.help) {
                printHelp(argv[0]);
                return 0;
            }
            return runSweep(o);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sweep_tool: %s\n", e.what());
        return 1;
    }
    return usage(argv[0]);
}
