/**
 * @file
 * End-to-end benchmark of the tokensim library (README.md has the
 * workloads, the metrics and how the per-layer metrics map onto the
 * end-to-end ones).
 *
 *   e2e --workload NAME [--seed N] [--seconds N] [--trace 0|1]
 *       [--mode bench|smoke] [--out DIR]
 *
 * The benchmark uses only the library's public API. Untraced runs give
 * the end-to-end metrics; a traced run (--trace 1) gives the per-layer
 * ones. Correctness checks (digest identity across runs, runners and
 * tracing, token-conservation audits, the steady-state guard) run
 * outside every timed interval. Human-readable lines go to stdout
 * first; the last stdout line is one JSON object with the keys
 * correct, attempted, failed and metrics.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/argparse.hh"
#include "harness/experiment.hh"
#include "harness/parallel_runner.hh"
#include "harness/system.hh"
#include "layer_trace.hh"
#include "workload/factory.hh"

namespace {

using namespace tokensim;
using perfbench::Clock;
using perfbench::Layer;
using perfbench::nsBetween;
using perfbench::ScopedSpan;
using perfbench::TraceTotals;
using perfbench::Tracer;

// ---------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------

const char *const kWorkloads[] = {"tokenb-oltp-64", "directory-tpcc-64",
                                  "sweep-tenants-256"};

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    std::uint64_t seconds = 10;
    bool trace = false;
    bool smoke = false;      ///< --mode smoke: tiny sizes
    std::string outDir;      ///< where traced runs write span files
};

const char *const kUsage =
    "usage: e2e --workload NAME [--seed N] [--seconds N] [--trace 0|1]\n"
    "           [--mode bench|smoke] [--out DIR]\n"
    "workloads: tokenb-oltp-64, directory-tpcc-64, sweep-tenants-256\n"
    "  --mode bench   correctness checks, then timed runs (default)\n"
    "  --mode smoke   the same at tiny sizes, in seconds\n"
    "  --out DIR      where a traced run writes its span files\n";

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw ArgError(a + " needs a value");
            return argv[++i];
        };
        if (a == "--workload") {
            o.workload = value();
        } else if (a == "--seed") {
            o.seed = parseU64(a, value(), 0, std::uint64_t{1} << 40);
        } else if (a == "--seconds") {
            o.seconds = parseU64(a, value(), 1, 3600);
        } else if (a == "--trace") {
            o.trace = parseInt(a, value(), 0, 1) == 1;
        } else if (a == "--mode") {
            const std::string m = value();
            if (m != "bench" && m != "smoke") {
                throw ArgError("--mode expects bench or smoke, got '" + m +
                               "'");
            }
            o.smoke = m == "smoke";
        } else if (a == "--out") {
            o.outDir = value();
        } else {
            throw ArgError("unknown option '" + a + "'");
        }
    }
    const bool known =
        std::find(std::begin(kWorkloads), std::end(kWorkloads),
                  o.workload) != std::end(kWorkloads);
    if (!known) {
        throw ArgError(o.workload.empty()
                           ? std::string("--workload is required")
                           : "unknown workload '" + o.workload + "'");
    }
    return o;
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

/** Attempt/failure accounting plus the metrics of one run. */
class Report
{
  public:
    /**
     * Run one design point (or one check) as an attempt; any exception
     * counts it as failed. @return true on success.
     */
    template <typename F>
    bool
    attempt(const std::string &what, F &&fn)
    {
        ++attempted_;
        try {
            fn();
            return true;
        } catch (const std::exception &e) {
            fail(what + ": " + e.what());
            return false;
        }
    }

    /** Count a failure found after an attempt completed. */
    void
    fail(const std::string &why)
    {
        ++failed_;
        std::fprintf(stderr, "e2e: FAILED: %s\n", why.c_str());
    }

    void
    metric(const std::string &name, double value, const char *unit)
    {
        metrics_.push_back(Entry{name, value, unit});
    }

    /** The metric table, then the JSON result as the last line. */
    void
    print() const
    {
        std::printf("failed_frac %.6g (%d of %d attempted)\n",
                    attempted_ ? double(failed_) / attempted_ : 0.0,
                    failed_, attempted_);
        for (const Entry &e : metrics_) {
            std::printf("metric %-36s %16.6g %s\n", e.name.c_str(),
                        e.value, e.unit);
        }
        std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
                    "\"metrics\": {",
                    failed_ == 0 ? "true" : "false", attempted_, failed_);
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            const Entry &e = metrics_[i];
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i ? ", " : "", e.name.c_str(),
                        std::isfinite(e.value) ? e.value : 0.0, e.unit);
        }
        std::printf("}}\n");
        std::fflush(stdout);
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        const char *unit;
    };

    int attempted_ = 0;
    int failed_ = 0;
    std::vector<Entry> metrics_;
};

/** Linear-interpolated quantile (0 <= q <= 1) of @p v. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double> &v) { return quantile(v, 0.5); }

double
mean(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double
minOf(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double
secondsSince(Clock::time_point t)
{
    return nsBetween(t, Clock::now()) * 1e-9;
}

/**
 * Pins the calling thread (and the threads it creates next) to the
 * quietest of the CPUs the process may use. On a shared virtual
 * machine the vCPUs share physical cores and caches with other tenants:
 * on a 4-vCPU Xeon VM some ran a cache-sized working set ~40% slower
 * than others at the same moment, for seconds at a time, and a thread
 * left alone tends to stay on one vCPU for a whole run. Before each rep, pin() times a short random walk over an 8 MB
 * buffer (the simulator's hot data is tens of MB) on every allowed CPU,
 * outside any timed interval, and pins to the fastest @p width.
 */
class QuietCpus
{
  public:
    QuietCpus() : probe_(std::size_t{1} << 20, 1)
    {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof(set), &set) == 0) {
            for (int c = 0; c < CPU_SETSIZE; ++c) {
                if (CPU_ISSET(c, &set))
                    cpus_.push_back(c);
            }
        }
    }

    /** A failure to pin leaves the thread where it was. */
    void
    pin(std::size_t width = 1)
    {
        std::vector<std::pair<double, int>> speed;
        for (int c : cpus_) {
            if (!pinTo({c}))
                return;
            speed.emplace_back(probe(), c);
        }
        std::sort(speed.begin(), speed.end());
        std::vector<int> best;
        for (std::size_t i = 0; i < std::min(width, speed.size()); ++i)
            best.push_back(speed[i].second);
        pinTo(best);
    }

  private:
    static bool
    pinTo(const std::vector<int> &cpus)
    {
        cpu_set_t set;
        CPU_ZERO(&set);
        for (int c : cpus)
            CPU_SET(c, &set);
        return sched_setaffinity(0, sizeof(set), &set) == 0;
    }

    /** Nanoseconds for 100k dependent random reads of the buffer. */
    double
    probe()
    {
        const Clock::time_point t0 = Clock::now();
        std::uint64_t x = seed_, sum = 0;
        for (int i = 0; i < 100000; ++i) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            sum += probe_[((x >> 33) + sum) & (probe_.size() - 1)]++;
        }
        seed_ = x + sum;
        return nsBetween(t0, Clock::now());
    }

    std::vector<int> cpus_;
    std::vector<std::uint64_t> probe_;
    std::uint64_t seed_ = 1;
};

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string
digestOf(const std::vector<System::Results> &runs)
{
    return resultDigest(aggregateResults(runs, ""));
}

std::string
digestOf(const System::Results &r)
{
    return digestOf(std::vector<System::Results>{r});
}

/** The message classes, in MsgClass order. */
std::vector<std::string>
classNames()
{
    std::vector<std::string> out;
    for (std::size_t c = 0; c < numMsgClasses; ++c)
        out.push_back(msgClassName(static_cast<MsgClass>(c)));
    return out;
}

// ---------------------------------------------------------------------
// Per-layer metrics (shared by every workload's traced run)
// ---------------------------------------------------------------------

/** Everything the per-layer metrics are computed from. */
struct LayerInputs
{
    MetricRegistry reg;          ///< measured windows' registry
    TraceTotals window;          ///< traced spans in those windows
    double floorNs = 0;          ///< per-span clock floor to subtract
    double kernelSelfNs = 0;     ///< residual host time in the windows
    double workloadNs = 0;       ///< time inside the generators
    double workloadCalls = 0;    ///< next()/skip() calls
    double workloadOps = 0;      ///< simulated ops those calls served
    double constructS = 0, resetS = 0, ffS = 0, ffNsPerOp = 0;
    double runS = 0, resultsS = 0, mergeS = 0;
    std::vector<double> shardS;
    double overheadFrac = 0;
};

void
emitLayerMetrics(Report &rep, const LayerInputs &in)
{
    const MetricRegistry &m = in.reg;
    const ExperimentResult agg =
        aggregateResults({System::Results{m}}, "");
    const double ops = static_cast<double>(m.counterValue("ops"));
    const auto per = [ops](double x) { return ops > 0 ? x / ops : 0.0; };
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const auto counter = [&m](const std::string &name) {
        return static_cast<double>(m.counterValue(name));
    };
    const std::vector<std::string> classes = classNames();

    rep.metric("sim.events_dispatched_per_op",
               per(counter("events_dispatched")), "events/op");
    rep.metric("sim.events_scheduled_per_op",
               per(counter("events_scheduled")), "events/op");
    rep.metric("sim.timers_cancelled_per_op",
               per(counter("timers_cancelled")), "timers/op");

    double msgs = 0;
    for (const std::string &c : classes)
        msgs += counter("msgs_" + c);
    rep.metric("net.msgs_per_op", per(msgs), "msgs/op");
    for (const std::string &c : classes)
        rep.metric("net.msgs_per_op." + c, per(counter("msgs_" + c)),
                   "msgs/op");
    rep.metric("net.link_bytes_per_miss", agg.bytesPerMiss, "B/miss");
    rep.metric("net.msg_latency_ns",
               ticksToNsF(m.statValue("net_latency_ticks").mean()), "ns");

    rep.metric("kernel_net_cpu.self_ns_per_op", per(in.kernelSelfNs),
               "ns/op");

    const auto net = [&in](const perfbench::SpanTotals &t) {
        return perfbench::netNs(t, in.floorNs);
    };
    const perfbench::SpanTotals &d = in.window.of(Layer::deliver);
    rep.metric("proto.deliveries_per_op", per(double(d.count)),
               "msgs/op");
    rep.metric("proto.deliver_ns_per_op", per(net(d)), "ns/op");
    rep.metric("proto.deliver_ns_per_msg", ratio(net(d), double(d.count)),
               "ns/msg");
    for (std::size_t c = 0; c < numMsgClasses; ++c) {
        const perfbench::SpanTotals &dc = in.window.deliverByClass[c];
        rep.metric("proto.deliver_ns_per_msg." + classes[c],
                   ratio(net(dc), double(dc.count)), "ns/msg");
    }
    const double misses = counter("misses");
    rep.metric("proto.miss_rate", agg.missRate, "frac");
    rep.metric("proto.c2c_frac", agg.cacheToCacheFrac, "frac");
    rep.metric("proto.persistent_frac",
               ratio(counter("miss_persistent"), misses), "frac");
    rep.metric("proto.reissue_frac",
               ratio(counter("miss_reissue_once") +
                         counter("miss_reissue_more") +
                         counter("miss_persistent"),
                     misses),
               "frac");

    rep.metric("cpu.l1_hit_rate", per(counter("l1_hits")), "frac");
    rep.metric("mem.l2_hit_rate",
               ratio(counter("l2_hits"), counter("l2_accesses")), "frac");

    rep.metric("workload.next_ns_per_op",
               ratio(in.workloadNs, in.workloadOps), "ns/op");
    rep.metric("workload.next_calls_per_op",
               ratio(in.workloadCalls, in.workloadOps), "calls/op");

    rep.metric("harness.construct_s", in.constructS, "s");
    rep.metric("harness.fast_forward_s", in.ffS, "s");
    rep.metric("harness.ff_ns_per_op", in.ffNsPerOp, "ns/op");
    rep.metric("harness.run_s", in.runS, "s");
    rep.metric("harness.results_s", in.resultsS, "s");
    rep.metric("harness.reset_s", in.resetS, "s");
    rep.metric("harness.merge_s", in.mergeS, "s");
    rep.metric("harness.shard_s.p50", median(in.shardS), "s");
    rep.metric("harness.shard_s.max",
               in.shardS.empty() ? 0.0
                                 : *std::max_element(in.shardS.begin(),
                                                     in.shardS.end()),
               "s");

    rep.metric("model.cpt_ns", agg.cyclesPerTransaction, "ns");
    rep.metric("model.miss_latency_ns", agg.avgMissLatencyNs, "ns");
    rep.metric("trace.overhead_frac", in.overheadFrac, "frac");
}

/** Write the traced run's span files into --out (if given). */
void
writeTrace(const Options &o, const Tracer &tr)
{
    if (o.outDir.empty())
        return;
    std::filesystem::create_directories(o.outDir);
    const std::string base = o.outDir + "/" + o.workload;
    if (!tr.writeChromeTrace(base + ".trace.json"))
        throw std::runtime_error("cannot write " + base + ".trace.json");

    std::FILE *f = std::fopen((base + ".layers.json").c_str(), "w");
    if (!f)
        throw std::runtime_error("cannot write " + base + ".layers.json");
    const TraceTotals &t = tr.totals();
    const auto row = [f](const char *name, const perfbench::SpanTotals &s,
                         bool last) {
        std::fprintf(f,
                     "  \"%s\": {\"count\": %llu, \"total_ns\": %.0f, "
                     "\"self_ns\": %.0f}%s\n",
                     name, static_cast<unsigned long long>(s.count),
                     s.totalNs, s.selfNs(), last ? "" : ",");
    };
    std::fprintf(f, "{\n");
    for (std::size_t l = 0; l < perfbench::numLayers; ++l)
        row(perfbench::layerName(static_cast<Layer>(l)), t.layer[l], false);
    const std::vector<std::string> classes = classNames();
    for (std::size_t c = 0; c < numMsgClasses; ++c) {
        row(("proto.deliver." + classes[c]).c_str(), t.deliverByClass[c],
            c + 1 == numMsgClasses);
    }
    std::fprintf(f, "}\n");
    if (std::fclose(f) != 0)
        throw std::runtime_error("cannot write " + base + ".layers.json");
    std::printf("trace files: %s.trace.json %s.layers.json\n",
                base.c_str(), base.c_str());
}

// ---------------------------------------------------------------------
// 64-node workloads: one design point, steady-state window
// ---------------------------------------------------------------------

/** A 64-node design point and how it is brought to steady state. */
struct NodePoint
{
    std::string label;
    SystemConfig cfg;    ///< warmup = detailed warm-up, ops = window
    std::uint64_t ffOps; ///< functional fast-forward per node
};

/**
 * The commercial presets open with a 4096-op warm-scan preamble per
 * node (every op a GetM miss); fast-forwarding 5120 ops puts the
 * detailed warm-up and the window past it.
 */
constexpr std::uint64_t kFastForwardOps = 5120;

/** Chunks the measured window is split into for ns_per_op. */
constexpr std::uint64_t kTargetChunks = 128;

NodePoint
makeNodePoint(const Options &o)
{
    const bool tokenb = o.workload == "tokenb-oltp-64";
    const bool smoke = o.smoke;
    NodePoint p;
    p.cfg.numNodes = 64;
    p.cfg.topology = "torus";
    p.cfg.protocol = tokenb ? ProtocolKind::tokenB : ProtocolKind::directory;
    p.cfg.workload = WorkloadSpec(tokenb ? "oltp" : "tpcc");
    p.cfg.warmupOpsPerProcessor = smoke ? 100 : 500;
    p.cfg.opsPerProcessor = smoke ? 200 : tokenb ? 2000 : 4000;
    p.cfg.seed = o.seed;
    p.ffOps = kFastForwardOps;
    p.label = std::string(protocolName(p.cfg.protocol)) + "/" +
        p.cfg.workload.name();
    return p;
}

/** One run of a NodePoint: phase times, window chunks, results. */
struct PointRun
{
    System::Results results;
    std::uint64_t windowOps = 0;
    double buildS = 0;    ///< construct or reset
    double ffS = 0, warmS = 0, windowS = 0, resultsS = 0, wallS = 0;
    /// The window's chunks in order: host ns and ops completed in each
    /// (the same simulated work in every run of one design point), then
    /// the drain after the last chunk edge.
    std::vector<double> chunkNs;
    std::vector<std::uint64_t> chunkOps;
    double tailNs = 0;
    TraceTotals windowTrace;

    double setupS() const { return buildS + ffS + warmS; }
};

/** Clears the sequencers' milestones on every exit path: they point at
 *  counters on the run loop's frame. */
struct MilestoneGuard
{
    System &sys;
    ~MilestoneGuard()
    {
        for (int i = 0; i < sys.numNodes(); ++i)
            sys.sequencer(static_cast<NodeId>(i)).setMilestone(0, nullptr);
    }
};

std::uint64_t
completedInWindow(System &sys)
{
    std::uint64_t ops = 0;
    for (int i = 0; i < sys.numNodes(); ++i)
        ops += sys.sequencer(static_cast<NodeId>(i)).stats().opsCompleted;
    return ops;
}

/**
 * The detailed part of System::run() — warm-up to the edge where the
 * slowest node finishes warming, statistics reset, measured window,
 * drain — driven through the public API so the window can be timed on
 * its own and split into chunks of equal simulated time. Stopping the
 * event loop at a chunk edge and resuming it changes nothing that is
 * simulated; the verify checks compare this run's digest against a
 * plain System::run().
 */
void
runDetailed(System &sys, Tracer *tr, PointRun &out)
{
    const SystemConfig &cfg = sys.config();
    if (cfg.warmupOpsPerProcessor == 0)
        throw std::invalid_argument("a design point needs a warm-up");
    EventQueue &eq = sys.eq();
    const auto n = static_cast<std::uint64_t>(sys.numNodes());
    const std::uint64_t base = sys.sequencer(0).completedOps();
    const std::uint64_t warm_edge = base + cfg.warmupOpsPerProcessor;
    const Tick start_tick = eq.curTick();

    for (std::uint64_t i = 0; i < n; ++i)
        sys.sequencer(static_cast<NodeId>(i)).start();
    MilestoneGuard guard{sys};

    const Clock::time_point t0 = Clock::now();
    {
        ScopedSpan span(tr, Layer::warmup);
        std::uint64_t warmed = 0;
        for (std::uint64_t i = 0; i < n; ++i) {
            sys.sequencer(static_cast<NodeId>(i))
                .setMilestone(warm_edge, &warmed);
        }
        if (!eq.runUntil([&] { return warmed >= n; }, cfg.maxTicks))
            throw std::runtime_error("no progress during warm-up");
        sys.resetStats();
    }
    const Clock::time_point t1 = Clock::now();
    out.warmS = nsBetween(t0, t1) * 1e-9;

    // Chunks of equal simulated time, sized from the warm-up's pace so
    // the window splits into about kTargetChunks of them.
    const double ticks_per_node_op =
        static_cast<double>(eq.curTick() - start_tick) /
        static_cast<double>(cfg.warmupOpsPerProcessor);
    const Tick chunk = std::max<Tick>(
        1, static_cast<Tick>(ticks_per_node_op *
                             static_cast<double>(cfg.opsPerProcessor) /
                             kTargetChunks));

    const TraceTotals before = tr ? tr->totals() : TraceTotals{};
    if (tr)
        tr->keepLeaves();
    {
        ScopedSpan span(tr, Layer::window);
        std::uint64_t done = 0;
        for (std::uint64_t i = 0; i < n; ++i) {
            sys.sequencer(static_cast<NodeId>(i))
                .setMilestone(warm_edge + cfg.opsPerProcessor, &done);
        }
        Tick edge = eq.curTick() + chunk;
        std::uint64_t prev_ops = 0;
        Clock::time_point prev = t1;
        for (;;) {
            const bool hit = eq.runUntil(
                [&] { return done >= n || eq.curTick() >= edge; },
                cfg.maxTicks);
            if (!hit)
                throw std::runtime_error("no progress in the window");
            if (done >= n)
                break;
            const Clock::time_point now = Clock::now();
            const std::uint64_t ops = completedInWindow(sys);
            out.chunkNs.push_back(nsBetween(prev, now));
            out.chunkOps.push_back(ops - prev_ops);
            prev_ops = ops;
            prev = now;
            while (edge <= eq.curTick())
                edge += chunk;
        }
        for (std::uint64_t i = 0; i < n; ++i)
            sys.sequencer(static_cast<NodeId>(i)).setMilestone(0, nullptr);
        if (!eq.run(cfg.maxTicks))
            throw std::runtime_error("the window failed to drain");
        out.tailNs = nsBetween(prev, Clock::now());
    }
    out.windowS = secondsSince(t1);
    if (tr)
        out.windowTrace = tr->totals() - before;
}

/**
 * Run @p p once. With @p reuse the existing System is reset in place,
 * else a fresh one is built (the caller destroys the previous one
 * outside any timed interval). A traced run wraps every generator and
 * every node endpoint; its System is destroyed before returning,
 * since the endpoints die with this frame.
 */
PointRun
runPoint(const NodePoint &p, std::unique_ptr<System> &sys, bool reuse,
         Tracer *tr)
{
    SystemConfig cfg = p.cfg;
    if (tr) {
        AddressMap map;
        map.blockBytes = cfg.blockBytes;
        const auto factory = std::make_shared<WorkloadFactory>(
            cfg.workload, cfg.numNodes, map);
        cfg.workloadFactory = [factory, tr](NodeId node, int,
                                            std::uint64_t seed) {
            return std::make_unique<perfbench::TimedWorkload>(
                factory->make(node, seed), node, *tr);
        };
    }

    PointRun r;
    const Clock::time_point t0 = Clock::now();
    if (reuse) {
        ScopedSpan span(tr, Layer::reset);
        if (!sys || !sys->reset(cfg))
            throw std::logic_error("System::reset refused the config");
    } else {
        ScopedSpan span(tr, Layer::construct);
        sys = std::make_unique<System>(cfg);
    }
    std::vector<std::unique_ptr<perfbench::TimedEndpoint>> endpoints;
    if (tr)
        endpoints = perfbench::attachTimedEndpoints(*sys, *tr);
    const Clock::time_point t1 = Clock::now();
    {
        ScopedSpan span(tr, Layer::fastForward);
        sys->fastForward(p.ffOps);
    }
    const Clock::time_point t2 = Clock::now();
    runDetailed(*sys, tr, r);
    const Clock::time_point t3 = Clock::now();
    {
        ScopedSpan span(tr, Layer::results);
        r.results = sys->results();
    }
    const Clock::time_point t4 = Clock::now();
    r.buildS = nsBetween(t0, t1) * 1e-9;
    r.ffS = nsBetween(t1, t2) * 1e-9;
    r.resultsS = nsBetween(t3, t4) * 1e-9;
    r.wallS = nsBetween(t0, t4) * 1e-9;
    r.windowOps = r.results.ops();
    if (tr)
        sys.reset();
    return r;
}

/**
 * Steady-state guard: a window inside the warm-scan preamble has no
 * L1 hits and no cache-to-cache transfers (every op is a cold GetM).
 */
void
checkSteadyState(const System::Results &r)
{
    if (r.l1Hits() == 0 || r.cacheToCache() == 0) {
        throw std::runtime_error(
            "measured window overlaps the warm-scan preamble (l1_hits=" +
            std::to_string(r.l1Hits()) + ", cache_to_cache=" +
            std::to_string(r.cacheToCache()) + ")");
    }
}

/**
 * Digest checks against @p expected: a plain System::run() of the same
 * point, and for token protocols a rerun with the conservation auditor
 * attached.
 */
void
verifyNodePoint(const NodePoint &p, const std::string &expected,
                Report &rep)
{
    rep.attempt(p.label + " plain System::run()", [&] {
        System sys(p.cfg);
        sys.fastForward(p.ffOps);
        sys.run();
        if (digestOf(sys.results()) != expected)
            throw std::runtime_error("digest differs from the timed run");
    });
    if (!isTokenProtocol(p.cfg.protocol))
        return;
    rep.attempt(p.label + " audited rerun", [&] {
        SystemConfig cfg = p.cfg;
        cfg.attachAuditor = true;
        System sys(cfg);
        sys.fastForward(p.ffOps);
        sys.run();
        std::string err;
        if (!sys.auditor() || !sys.auditor()->auditAll(&err))
            throw std::runtime_error("token audit failed: " + err);
        if (digestOf(sys.results()) != expected)
            throw std::runtime_error("digest differs from the timed run");
    });
}

void
printPoint(const NodePoint &p)
{
    std::printf("workload: %d nodes, %s on a %s; %llu fast-forward + "
                "%llu warm-up + %llu measured ops/node; seed %llu\n",
                p.cfg.numNodes, p.label.c_str(), p.cfg.topology.c_str(),
                static_cast<unsigned long long>(p.ffOps),
                static_cast<unsigned long long>(p.cfg.warmupOpsPerProcessor),
                static_cast<unsigned long long>(p.cfg.opsPerProcessor),
                static_cast<unsigned long long>(p.cfg.seed));
}

/** The measured window assembled from each chunk's fastest run. */
struct BestWindow
{
    double ns = 0;                 ///< whole window, drain included
    std::vector<double> nsPerOp;   ///< per chunk that completed ops
};

/**
 * Every run of a design point does the same simulated work in its k-th
 * chunk of the window, so the fastest run's time for each chunk is the
 * estimate least disturbed by other tenants of the host: a slow spell
 * shorter than a run costs only the chunks it covers in that run.
 */
BestWindow
bestWindow(const std::vector<PointRun> &runs)
{
    const PointRun &first = runs.front();
    BestWindow b;
    double tail = first.tailNs;
    for (const PointRun &r : runs) {
        if (r.chunkOps != first.chunkOps)
            throw std::runtime_error("runs split the window differently");
        tail = std::min(tail, r.tailNs);
    }
    for (std::size_t k = 0; k < first.chunkNs.size(); ++k) {
        double ns = first.chunkNs[k];
        for (const PointRun &r : runs)
            ns = std::min(ns, r.chunkNs[k]);
        b.ns += ns;
        if (first.chunkOps[k] > 0)
            b.nsPerOp.push_back(ns / static_cast<double>(first.chunkOps[k]));
    }
    b.ns += tail;
    return b;
}

void
benchNodePoint(const Options &o, Report &rep)
{
    const NodePoint p = makeNodePoint(o);
    printPoint(p);

    // Timed: repeat the whole design point (same seed, so the same
    // digest) until --seconds have passed. Set-up reports the median;
    // the rest report each phase's, and each window chunk's, best rep:
    // on a shared host, other tenants of the memory system slow spells
    // of a run by up to a third, and the best rep varies least.
    const std::size_t min_reps = o.smoke ? 1 : 3;
    std::vector<PointRun> runs;
    std::string digest;
    std::unique_ptr<System> sys;
    QuietCpus cpus;
    const Clock::time_point start = Clock::now();
    while (runs.size() < min_reps ||
           secondsSince(start) < static_cast<double>(o.seconds)) {
        sys.reset();
        cpus.pin();
        PointRun r;
        const bool ok = rep.attempt(p.label + " timed run", [&] {
            r = runPoint(p, sys, false, nullptr);
            checkSteadyState(r.results);
        });
        if (!ok)
            return;
        const std::string d = digestOf(r.results);
        if (digest.empty())
            digest = d;
        else if (d != digest)
            rep.fail(p.label + ": timed runs disagree on the digest");
        runs.push_back(std::move(r));
    }
    const double rss = peakRssMb();
    sys.reset();

    std::vector<double> setup, build, ff, warm, res;
    for (const PointRun &r : runs) {
        setup.push_back(r.setupS());
        build.push_back(r.buildS);
        ff.push_back(r.ffS);
        warm.push_back(r.warmS);
        res.push_back(r.resultsS);
    }
    const BestWindow best = bestWindow(runs);
    std::printf("digest %s %s\n", p.label.c_str(), digest.c_str());
    std::printf("timed runs %zu; window %llu ops (registry ops counter) "
                "in %zu chunks, each chunk's best run reported\n",
                runs.size(),
                static_cast<unsigned long long>(runs.front().windowOps),
                best.nsPerOp.size());
    std::printf("window host ms per run:");
    for (const PointRun &r : runs)
        std::printf(" %.0f", r.windowS * 1e3);
    std::printf("\n");

    verifyNodePoint(p, digest, rep);

    rep.metric("setup_s", median(setup), "s");
    rep.metric("detailed_ops_per_s",
               static_cast<double>(runs.front().windowOps) / (best.ns * 1e-9),
               "1/s");
    rep.metric("ns_per_op.p50", quantile(best.nsPerOp, 0.5), "ns");
    std::printf("ns_per_op.p90 %.6g ns (not gated: it does not repeat "
                "within a tenth from run to run)\n",
                quantile(best.nsPerOp, 0.9));
    rep.metric("sweep_s",
               minOf(build) + minOf(ff) + minOf(warm) + best.ns * 1e-9 +
                   minOf(res),
               "s");
    rep.metric("peak_rss_mb", rss, "MB");
}

void
traceNodePoint(const Options &o, Report &rep)
{
    const NodePoint p = makeNodePoint(o);
    printPoint(p);

    // Untraced: a fresh build, then a reset of the same System; then
    // the traced run on a fresh build.
    std::unique_ptr<System> sys;
    PointRun fresh, reused, traced;
    Tracer tr(50000);
    bool ok = rep.attempt(p.label + " untraced run", [&] {
        fresh = runPoint(p, sys, false, nullptr);
        checkSteadyState(fresh.results);
    });
    ok = ok && rep.attempt(p.label + " untraced run after reset", [&] {
        reused = runPoint(p, sys, true, nullptr);
    });
    sys.reset();
    ok = ok && rep.attempt(p.label + " traced run", [&] {
        traced = runPoint(p, sys, false, &tr);
    });
    if (!ok)
        return;

    const std::string digest = digestOf(fresh.results);
    std::printf("digest %s %s\n", p.label.c_str(), digest.c_str());
    if (digestOf(reused.results) != digest)
        rep.fail(p.label + ": reset run digest differs");
    if (digestOf(traced.results) != digest)
        rep.fail(p.label + ": traced run digest differs");

    const Clock::time_point m0 = Clock::now();
    (void)aggregateResults({fresh.results, reused.results, traced.results},
                           p.label);
    const double merge_s = secondsSince(m0);

    verifyNodePoint(p, digest, rep);
    writeTrace(o, tr);

    LayerInputs in;
    in.reg = traced.results.metrics;
    in.window = traced.windowTrace;
    // Residual: the untraced window minus the traced window's time
    // inside deliveries and generators (its direct children), net of
    // the clock floor, so tracing costs are not charged to the kernel.
    in.floorNs = tr.floorNs();
    in.kernelSelfNs = fresh.windowS * 1e9 -
        perfbench::netNs(traced.windowTrace.of(Layer::deliver), in.floorNs) -
        perfbench::netNs(traced.windowTrace.of(Layer::workload), in.floorNs);
    const perfbench::SpanTotals &wl = tr.totals().of(Layer::workload);
    in.workloadNs = perfbench::netNs(wl, in.floorNs);
    in.workloadCalls = static_cast<double>(wl.count);
    in.workloadOps = static_cast<double>(
        (p.ffOps + p.cfg.warmupOpsPerProcessor + p.cfg.opsPerProcessor) *
        static_cast<std::uint64_t>(p.cfg.numNodes));
    in.constructS = fresh.buildS;
    in.resetS = reused.buildS;
    in.ffS = fresh.ffS;
    in.ffNsPerOp = fresh.ffS * 1e9 /
        static_cast<double>(p.ffOps * static_cast<std::uint64_t>(
                                          p.cfg.numNodes));
    in.runS = fresh.warmS + fresh.windowS;
    in.resultsS = fresh.resultsS;
    in.mergeS = merge_s;
    in.shardS = {fresh.wallS, reused.wallS};
    // Compare the event loops only: the first System in a process pays
    // page faults the later ones do not.
    in.overheadFrac = (traced.warmS + traced.windowS) /
            (fresh.warmS + fresh.windowS) -
        1.0;
    emitLayerMetrics(rep, in);
}

// ---------------------------------------------------------------------
// sweep-tenants-256: a sampled sweep through the ParallelRunner
// ---------------------------------------------------------------------

constexpr int kSweepWidth = 2;
constexpr int kSweepNodes = 256;

std::vector<ExperimentSpec>
sweepSpecs(const Options &o)
{
    const bool smoke = o.smoke;
    SamplingSpec sp;
    sp.ffOps = smoke ? 100 : 500;
    sp.measureOps = smoke ? 2 : 4;
    sp.windows = smoke ? 1 : 2;

    std::vector<ExperimentSpec> specs;
    for (ProtocolKind proto : {ProtocolKind::tokenB, ProtocolKind::tokenM,
                               ProtocolKind::directory}) {
        SystemConfig cfg;
        cfg.numNodes = kSweepNodes;
        cfg.topology = "torus";
        cfg.protocol = proto;
        cfg.tenants = {TenantSpec{WorkloadSpec("ycsb"), kSweepNodes / 2},
                       TenantSpec{WorkloadSpec("tpcc"), kSweepNodes / 2}};
        cfg.l2.sizeBytes = 1 << 20;   // 1 MB L2 so 256 nodes fit
        cfg.sampling = sp;
        cfg.seed = o.seed;
        specs.push_back(ExperimentSpec{
            cfg, 2, std::string(protocolName(proto)) + "/ycsb:128,tpcc:128"});
    }
    return specs;
}

/** Simulated ops (functional + detailed) one shard of @p cfg runs. */
double
shardOps(const SystemConfig &cfg)
{
    const SamplingSpec &sp = cfg.sampling;
    return static_cast<double>(sp.windows * (sp.ffOps + sp.measureOps)) *
        cfg.numNodes;
}

struct ShardRun
{
    std::size_t spec = 0;
    bool reused = false;
    double buildS = 0, runS = 0, resultsS = 0, wallS = 0;
    double ffNsPerOp = 0;   ///< from the ff-only pass (measure_ff)
    System::Results results;
};

struct Replay
{
    std::vector<ShardRun> shards;
    std::vector<std::string> digests;   ///< per spec
    std::vector<double> mergeS;         ///< per spec
    double runS = 0;                    ///< sum of shard run() times
    bool ok = true;                     ///< every shard ran
};

/**
 * Replay the sweep's shards one after another through the public
 * System calls, reusing one System per shape as a runner worker does.
 * With @p tr every node endpoint is wrapped; with @p measure_ff each
 * shard is followed, outside its timing, by a reset and a plain
 * fastForward over all of the shard's functional ops, which times the
 * functional engine alone (System::run interleaves it with the
 * detailed windows, so it cannot be timed in place).
 */
Replay
replaySweep(const std::vector<ExperimentSpec> &specs, Tracer *tr,
            bool measure_ff, Report &rep)
{
    Replay out;
    std::unique_ptr<System> sys;
    std::vector<std::unique_ptr<perfbench::TimedEndpoint>> endpoints;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        std::vector<System::Results> raw;
        for (int s = 0; s < specs[i].seeds; ++s) {
            SystemConfig cfg = specs[i].cfg;
            cfg.seed += static_cast<std::uint64_t>(s);
            ShardRun sh;
            sh.spec = i;
            const bool ok = rep.attempt(
                specs[i].label + " seed " + std::to_string(cfg.seed) +
                    " replay",
                [&] {
                    Clock::time_point t0 = Clock::now();
                    if (sys) {
                        ScopedSpan span(tr, Layer::reset);
                        sh.reused = sys->reset(cfg);
                    }
                    if (!sh.reused) {
                        sys.reset();
                        endpoints.clear();
                        t0 = Clock::now();
                        ScopedSpan span(tr, Layer::construct);
                        sys = std::make_unique<System>(cfg);
                    }
                    if (tr && !sh.reused)
                        endpoints = perfbench::attachTimedEndpoints(*sys, *tr);
                    const Clock::time_point t1 = Clock::now();
                    {
                        ScopedSpan span(tr, Layer::run);
                        sys->run();
                    }
                    const Clock::time_point t2 = Clock::now();
                    {
                        ScopedSpan span(tr, Layer::results);
                        sh.results = sys->results();
                    }
                    const Clock::time_point t3 = Clock::now();
                    sh.buildS = nsBetween(t0, t1) * 1e-9;
                    sh.runS = nsBetween(t1, t2) * 1e-9;
                    sh.resultsS = nsBetween(t2, t3) * 1e-9;
                    sh.wallS = nsBetween(t0, t3) * 1e-9;
                    if (measure_ff) {
                        // The shard's functional spans alone, from
                        // the same cold start as the shard.
                        const std::uint64_t ff =
                            cfg.sampling.windows * cfg.sampling.ffOps;
                        if (!sys->reset(cfg))
                            throw std::logic_error("reset refused");
                        const Clock::time_point f0 = Clock::now();
                        sys->fastForward(ff);
                        sh.ffNsPerOp = nsBetween(f0, Clock::now()) /
                            static_cast<double>(ff * cfg.numNodes);
                    }
                });
            if (!ok) {
                sys.reset();
                out.ok = false;
                return out;
            }
            out.runS += sh.runS;
            raw.push_back(sh.results);
            out.shards.push_back(std::move(sh));
        }
        const Clock::time_point m0 = Clock::now();
        ExperimentResult agg;
        {
            ScopedSpan span(tr, Layer::merge);
            agg = aggregateResults(raw, specs[i].label);
        }
        out.mergeS.push_back(secondsSince(m0));
        out.digests.push_back(resultDigest(agg));
    }
    // The System's network points at this frame's endpoints.
    sys.reset();
    return out;
}

/** Width-2 runner digests must match the width-1 replay's. */
void
compareDigests(const std::vector<std::string> &runner,
               const Replay &replay, const std::vector<ExperimentSpec> &specs,
               const char *what, Report &rep)
{
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (runner[i] != replay.digests[i])
            rep.fail(specs[i].label + ": " + what + " digest differs");
    }
}

std::vector<std::string>
runnerDigests(const std::vector<ExperimentResult> &results)
{
    std::vector<std::string> out;
    for (const ExperimentResult &r : results)
        out.push_back(resultDigest(r));
    return out;
}

/** Rerun seed 0 of every token-protocol design point audited. */
void
auditSweep(const std::vector<ExperimentSpec> &specs, const Replay &replay,
           Report &rep)
{
    std::size_t first = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::size_t shard = first;
        first += static_cast<std::size_t>(specs[i].seeds);
        if (!isTokenProtocol(specs[i].cfg.protocol))
            continue;
        rep.attempt(specs[i].label + " audited rerun", [&] {
            SystemConfig cfg = specs[i].cfg;
            cfg.attachAuditor = true;
            System sys(cfg);
            sys.run();
            std::string err;
            if (!sys.auditor() || !sys.auditor()->auditAll(&err))
                throw std::runtime_error("token audit failed: " + err);
            if (digestOf(sys.results()) !=
                digestOf(replay.shards[shard].results))
                throw std::runtime_error("digest differs from the replay");
        });
    }
}

void
printSweep(const std::vector<ExperimentSpec> &specs)
{
    const SamplingSpec &sp = specs.front().cfg.sampling;
    std::printf("workload: sampled sweep of %zu design points x %d seeds, "
                "%d nodes, tenants ycsb:128,tpcc:128, 1 MB L2, sample "
                "%llu:%llu:%llu, ParallelRunner width %d\n",
                specs.size(), specs.front().seeds, kSweepNodes,
                static_cast<unsigned long long>(sp.ffOps),
                static_cast<unsigned long long>(sp.measureOps),
                static_cast<unsigned long long>(sp.windows), kSweepWidth);
}

void
printDigests(const std::vector<ExperimentSpec> &specs,
             const std::vector<std::string> &digests)
{
    for (std::size_t i = 0; i < specs.size(); ++i)
        std::printf("digest %s %s\n", specs[i].label.c_str(),
                    digests[i].c_str());
}

void
benchSweep(const Options &o, Report &rep)
{
    std::vector<ExperimentSpec> specs = sweepSpecs(o);
    printSweep(specs);
    const bool smoke = o.smoke;

    // Set-up: everything before the runner's first shard — building
    // the sweep and a System of its shape, which every runner worker
    // pays before it can reset per shard.
    QuietCpus cpus;
    std::vector<double> setup;
    for (std::size_t k = 0; k < (smoke ? 1 : 7); ++k) {
        cpus.pin();
        std::unique_ptr<System> sys;
        const Clock::time_point t0 = Clock::now();
        specs = sweepSpecs(o);
        sys = std::make_unique<System>(specs.front().cfg);
        setup.push_back(secondsSince(t0));
    }

    // Timed: width-2 sweeps alternate with width-1 replays (the digest
    // oracle, which also times each shard) until --seconds have
    // passed; the best of each is reported, as for the 64-node points.
    std::vector<double> wall;
    std::vector<double> shard_ns;   // best per shard
    std::vector<std::string> digests;
    std::uint64_t detailed_ops = 0;
    const std::size_t min_reps = smoke ? 1 : 2;
    const Clock::time_point start = Clock::now();
    std::size_t replays = 0;
    while (wall.size() < min_reps ||
           secondsSince(start) < static_cast<double>(o.seconds)) {
        std::vector<ExperimentResult> results;
        double s = 0;
        cpus.pin(kSweepWidth);   // the runner's workers inherit it
        const bool ok = rep.attempt("width-2 sweep", [&] {
            const Clock::time_point t0 = Clock::now();
            results = ParallelRunner(ParallelRunnerOptions{kSweepWidth})
                          .run(specs);
            s = secondsSince(t0);
        });
        if (!ok)
            return;
        wall.push_back(s);
        detailed_ops = 0;
        for (const ExperimentResult &r : results)
            detailed_ops += r.ops;   // the registry's ops: windows only
        const std::vector<std::string> d = runnerDigests(results);
        if (digests.empty())
            digests = d;
        else if (d != digests)
            rep.fail("width-2 sweeps disagree on the digests");

        // A replay costs about two width-2 sweeps: run one after every
        // other sweep, so both get several samples.
        if (wall.size() % 2 == 0 && replays > 0)
            continue;
        cpus.pin();
        const Replay replay = replaySweep(specs, nullptr, false, rep);
        if (!replay.ok)
            return;
        ++replays;
        compareDigests(digests, replay, specs, "width-2 vs width-1", rep);
        shard_ns.resize(replay.shards.size(), INFINITY);
        for (std::size_t k = 0; k < replay.shards.size(); ++k) {
            const ShardRun &sh = replay.shards[k];
            shard_ns[k] = std::min(shard_ns[k],
                                   sh.runS * 1e9 /
                                       shardOps(specs[sh.spec].cfg));
        }
        if (replays == 1)
            auditSweep(specs, replay, rep);
    }
    const double rss = peakRssMb();

    printDigests(specs, digests);
    std::printf("timed sweeps %zu and width-1 replays %zu, best of each "
                "reported; ns_per_op over %zu shards (%.0f simulated ops "
                "each)\n",
                wall.size(), replays, shard_ns.size(),
                shardOps(specs.front().cfg));
    std::printf("width-2 sweep host ms:");
    for (double s : wall)
        std::printf(" %.0f", s * 1e3);
    std::printf("\n");

    rep.metric("setup_s", median(setup), "s");
    rep.metric("detailed_ops_per_s",
               static_cast<double>(detailed_ops) / minOf(wall), "1/s");
    rep.metric("ns_per_op.p50", quantile(shard_ns, 0.5), "ns");
    std::printf("ns_per_op.p90 %.6g ns (not gated: it does not repeat "
                "within a tenth from run to run)\n",
                quantile(shard_ns, 0.9));
    rep.metric("sweep_s", minOf(wall), "s");
    rep.metric("peak_rss_mb", rss, "MB");
}

/**
 * The sweep's generators timed standalone: tenant mode rejects custom
 * workload factories, so the generators cannot be wrapped in place.
 * Each tenant's per-node generators run the op count one shard pulls.
 */
void
timeSweepWorkloads(const SystemConfig &cfg, LayerInputs &in)
{
    AddressMap map;
    map.blockBytes = cfg.blockBytes;
    const std::uint64_t per_node = static_cast<std::uint64_t>(
        shardOps(cfg) / cfg.numNodes);
    Addr sink = 0;
    for (const TenantSpec &t : cfg.tenants) {
        const WorkloadFactory factory(t.workload, t.nodes, map);
        for (int node = 0; node < t.nodes; ++node) {
            auto wl = factory.make(static_cast<NodeId>(node),
                                   cfg.seed + static_cast<std::uint64_t>(node));
            const Clock::time_point t0 = Clock::now();
            for (std::uint64_t k = 0; k < per_node; ++k)
                sink ^= wl->next().addr;
            in.workloadNs += nsBetween(t0, Clock::now());
            in.workloadCalls += static_cast<double>(per_node);
        }
    }
    in.workloadOps = in.workloadCalls;
    std::printf("standalone generator checksum %llx\n",
                static_cast<unsigned long long>(sink));
}

void
traceSweep(const Options &o, Report &rep)
{
    const std::vector<ExperimentSpec> specs = sweepSpecs(o);
    printSweep(specs);

    const Replay plain = replaySweep(specs, nullptr, true, rep);
    Tracer tr(50000);
    tr.keepLeaves();
    const Replay traced = replaySweep(specs, &tr, false, rep);
    if (!plain.ok || !traced.ok)
        return;
    std::vector<ExperimentResult> results;
    rep.attempt("width-2 sweep", [&] {
        results =
            ParallelRunner(ParallelRunnerOptions{kSweepWidth}).run(specs);
    });
    printDigests(specs, plain.digests);
    if (!results.empty())
        compareDigests(runnerDigests(results), plain, specs,
                       "width-2 vs width-1", rep);
    compareDigests(traced.digests, plain, specs, "traced replay", rep);
    auditSweep(specs, plain, rep);
    writeTrace(o, tr);

    LayerInputs in;
    std::vector<double> construct, reset, run, res;
    double ff_ns = 0, ff_ops = 0;
    for (const ShardRun &sh : plain.shards) {
        in.reg.merge(sh.results.metrics);
        (sh.reused ? reset : construct).push_back(sh.buildS);
        run.push_back(sh.runS);
        res.push_back(sh.resultsS);
        in.shardS.push_back(sh.wallS);
        const SamplingSpec &sp = specs[sh.spec].cfg.sampling;
        const double ops = static_cast<double>(sp.windows * sp.ffOps) *
            kSweepNodes;
        ff_ns += sh.ffNsPerOp * ops;
        ff_ops += ops;
    }
    // Deliveries happen only in the detailed windows. The residual is
    // the untraced run time minus the traced time inside deliveries
    // minus the fast-forward estimate; the generators stay in it.
    in.window = tr.totals();
    in.floorNs = tr.floorNs();
    in.kernelSelfNs = plain.runS * 1e9 -
        perfbench::netNs(tr.totals().of(Layer::deliver), in.floorNs) - ff_ns;
    timeSweepWorkloads(specs.front().cfg, in);
    in.constructS = mean(construct);
    in.resetS = mean(reset);
    in.ffS = ff_ns * 1e-9 / static_cast<double>(plain.shards.size());
    in.ffNsPerOp = ff_ops > 0 ? ff_ns / ff_ops : 0.0;
    in.runS = mean(run);
    in.resultsS = mean(res);
    in.mergeS = mean(plain.mergeS);
    in.overheadFrac = traced.runS / plain.runS - 1.0;
    emitLayerMetrics(rep, in);
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    try {
        o = parseOptions(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "e2e: %s\n%s", e.what(), kUsage);
        return 2;
    }
    try {
        Report rep;
        const bool sweep = o.workload == "sweep-tenants-256";
        if (o.trace)
            (sweep ? traceSweep : traceNodePoint)(o, rep);
        else
            (sweep ? benchSweep : benchNodePoint)(o, rep);
        rep.print();
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "e2e: error: %s\n", e.what());
        return 1;
    }
}
