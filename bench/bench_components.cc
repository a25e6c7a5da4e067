/**
 * @file
 * google-benchmark microbenchmarks of the simulator substrate: event
 * queue throughput, cache array operations, topology routing and
 * construction, network message delivery, Zipf
 * sampling, and an end-to-end simulated-ops-per-second figure for the
 * whole stack. These guard the simulator's own performance (the
 * paper-scale benches simulate hundreds of thousands of misses).
 */

#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/ext/tokenm.hh"
#include "core/tokenb.hh"
#include "harness/experiment.hh"
#include "harness/parallel_runner.hh"
#include "harness/snapshot.hh"
#include "harness/system.hh"
#include "mem/block_map.hh"
#include "mem/cache.hh"
#include "net/network.hh"
#include "sim/event_queue.hh"
#include "workload/commercial.hh"
#include "workload/trace.hh"
#include "workload/tpcc.hh"
#include "workload/ycsb.hh"

namespace tokensim {
namespace {

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        std::uint64_t sink = 0;
        for (int i = 0; i < 1000; ++i) {
            eq.schedule(static_cast<Tick>((i * 37) % 500),
                        [&sink]() { ++sink; });
        }
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

/** The Table 1 L2's line: 16 B of token state beside the tag. */
using BenchLine = TokenLine;

void
BM_CacheArrayTouch(benchmark::State &state)
{
    CacheArray<BenchLine> cache(CacheParams{4 * 1024 * 1024, 4, 64,
                                            nsToTicks(6)});
    CacheArray<BenchLine>::Victim v;
    for (Addr a = 0; a < 4096 * 64; a += 64)
        cache.allocate(a, &v);
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.touch(a));
        a = (a + 64) % (4096 * 64);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheArrayTouch);

void
BM_TorusRouteLookup(benchmark::State &state)
{
    std::unique_ptr<Topology> topo(makeTopology("torus", 64));
    NodeId s = 0, d = 1;
    for (auto _ : state) {
        const Span<LinkId> r = topo->route(s, d);
        benchmark::DoNotOptimize(r);
        s = (s + 7) % 64;
        d = (d + 13) % 64;
        if (s == d)
            d = (d + 1) % 64;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TorusRouteLookup);

void
BM_TorusBuild(benchmark::State &state)
{
    // Routes plus every source's broadcast tree: the per-System
    // topology cost of a wide (TokenB/TokenM) configuration.
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        std::unique_ptr<Topology> topo(makeTopology("torus", n));
        benchmark::DoNotOptimize(topo.get());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TorusBuild)->Arg(256)->Arg(1024)->Unit(
    benchmark::kMillisecond);

class NullSink : public NetworkEndpoint
{
  public:
    void deliver(const Message &) override {}
};

void
BM_NetworkMulticastSteadyState(benchmark::State &state)
{
    // TokenM-style destination-set multicast on a 64-node torus:
    // pruned walk of the source's cached tree out of recycled slots.
    EventQueue eq;
    Network net(eq,
                std::unique_ptr<Topology>(makeTopology("torus", 64)),
                NetworkParams{});
    std::vector<std::unique_ptr<NullSink>> sinks;
    for (int i = 0; i < 64; ++i) {
        sinks.push_back(std::make_unique<NullSink>());
        net.attach(static_cast<NodeId>(i), sinks.back().get());
    }
    const std::vector<NodeId> dests{3, 17, 30, 44, 58};
    NodeId src = 0;
    for (auto _ : state) {
        Message m;
        m.type = MsgType::getS;
        m.cls = MsgClass::request;
        m.src = src;
        m.addr = 0x40;
        net.multicast(m, dests);
        eq.run();
        src = (src + 1) % 64;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkMulticastSteadyState);

void
BM_NetworkBroadcast(benchmark::State &state)
{
    EventQueue eq;
    Network net(eq,
                std::unique_ptr<Topology>(makeTopology("torus", 16)),
                NetworkParams{});
    std::vector<std::unique_ptr<NullSink>> sinks;
    for (int i = 0; i < 16; ++i) {
        sinks.push_back(std::make_unique<NullSink>());
        net.attach(static_cast<NodeId>(i), sinks.back().get());
    }
    NodeId src = 0;
    for (auto _ : state) {
        Message m;
        m.type = MsgType::getS;
        m.cls = MsgClass::request;
        m.src = src;
        m.addr = 0x40;
        net.broadcast(m);
        eq.run();
        src = (src + 1) % 16;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkBroadcast);

void
BM_ZipfSample(benchmark::State &state)
{
    ZipfSampler z(1 << 16, 0.65);
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(z.sample(rng));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample);

void
BM_YcsbGenerate(benchmark::State &state)
{
    // Per-op cost of the YCSB generator (scrambled-Zipf key pick +
    // read/update/scan mix). Sequencers pull one op per completed
    // access, so generator speed bounds functional fast-forward.
    AddressMap map;
    YcsbWorkload gen(0, 8, map, YcsbParams{}, 11);
    for (auto _ : state)
        benchmark::DoNotOptimize(gen.next().addr);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_YcsbGenerate);

void
BM_TpccGenerate(benchmark::State &state)
{
    // Per-op cost of the TPC-C-like generator (warehouse pick +
    // transaction build amortized over its ops).
    AddressMap map;
    TpccWorkload gen(0, 8, map, TpccParams{}, 11);
    for (auto _ : state)
        benchmark::DoNotOptimize(gen.next().addr);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TpccGenerate);

void
BM_EventQueueSteadyState(benchmark::State &state)
{
    // One long-lived queue: after warmup, scheduling and dispatch run
    // entirely out of recycled bucket storage (the allocation-free
    // steady state the Event record + bucket arena are built for).
    EventQueue eq;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        for (int i = 0; i < 1000; ++i) {
            eq.scheduleIn(static_cast<Tick>((i * 37) % 500),
                          [&sink]() { ++sink; });
        }
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueSteadyState);

void
BM_CacheArrayAllocate(benchmark::State &state)
{
    // Single-pass allocate with steady-state eviction: fill every
    // way, then cycle a 2x-capacity footprint so each allocate must
    // evict the set's LRU way (which is also how the cycled address
    // is guaranteed absent again by the time it comes back around).
    CacheArray<BenchLine> cache(CacheParams{4 * 1024 * 1024, 4, 64,
                                            nsToTicks(6)});
    CacheArray<BenchLine>::Victim v;
    const Addr capacity = 4 * 16384 * 64;
    const Addr span = 2 * capacity;
    for (Addr w = 0; w < capacity; w += 64)
        cache.allocate(w, &v);
    Addr a = capacity;
    std::uint64_t evictions = 0;
    for (auto _ : state) {
        v.valid = false;
        benchmark::DoNotOptimize(cache.allocate(a, &v));
        evictions += v.valid;
        a = (a + 64) % span;
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["bytes_per_way"] =
        static_cast<double>(CacheArray<BenchLine>::bytesPerWay);
    state.counters["evict_frac"] =
        state.iterations()
            ? static_cast<double>(evictions) /
                  static_cast<double>(state.iterations())
            : 0.0;
}
BENCHMARK(BM_CacheArrayAllocate);

void
BM_BlockMapUpsertFindErase(benchmark::State &state)
{
    // The per-block state table pattern every protocol runs per miss:
    // insert a transaction, look it up a few times, erase it.
    BlockMap<std::uint64_t> map;
    Addr a = 0;
    for (auto _ : state) {
        map[a] = a;
        benchmark::DoNotOptimize(map.find(a) != map.end());
        benchmark::DoNotOptimize(map.count(a));
        map.erase(a);
        a = (a + 64) % (1 << 22);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockMapUpsertFindErase);

void
BM_NetworkUnicastSteadyState(benchmark::State &state)
{
    // Pooled-transit unicast path: route, hop, batch, deliver — all
    // out of recycled slots after warmup.
    EventQueue eq;
    Network net(eq,
                std::unique_ptr<Topology>(makeTopology("torus", 16)),
                NetworkParams{});
    std::vector<std::unique_ptr<NullSink>> sinks;
    for (int i = 0; i < 16; ++i) {
        sinks.push_back(std::make_unique<NullSink>());
        net.attach(static_cast<NodeId>(i), sinks.back().get());
    }
    NodeId src = 0;
    for (auto _ : state) {
        Message m;
        m.type = MsgType::data;
        m.cls = MsgClass::data;
        m.hasData = true;
        m.src = src;
        m.dest = static_cast<NodeId>((src + 5) % 16);
        m.addr = 0x40;
        net.unicast(m);
        eq.run();
        src = (src + 1) % 16;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkUnicastSteadyState);

void
BM_SystemFreshConstruct(benchmark::State &state)
{
    // Per-shard cost of building a full 16-node System from scratch —
    // the cost the reusable-System path amortizes away.
    SystemConfig cfg;
    cfg.numNodes = 16;
    cfg.protocol = ProtocolKind::tokenB;
    cfg.workload = "uniform";
    cfg.opsPerProcessor = 50;
    std::uint64_t seed = 1;
    for (auto _ : state) {
        std::unique_ptr<System> sys;
        benchmark::DoNotOptimize(
            runOnceReusing(sys, cfg, seed));
        ++seed;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SystemFreshConstruct);

/** A 256-node @p protocol System as the sweep-tenants-256 end-to-end
 *  workload configures it (two tenants, 1 MB L2). */
SystemConfig
tenants256Config(ProtocolKind protocol)
{
    SystemConfig cfg;
    cfg.numNodes = 256;
    cfg.topology = "torus";
    cfg.protocol = protocol;
    cfg.tenants = {TenantSpec{WorkloadSpec("ycsb"), 128},
                   TenantSpec{WorkloadSpec("tpcc"), 128}};
    cfg.l2.sizeBytes = 1 << 20;
    return cfg;
}

void
BM_SystemFreshConstruct256(benchmark::State &state)
{
    // Building one 256-node TokenB System: the set-up every runner
    // worker pays per protocol.
    const SystemConfig cfg = tenants256Config(ProtocolKind::tokenB);
    for (auto _ : state) {
        System sys(cfg);
        benchmark::DoNotOptimize(&sys);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SystemFreshConstruct256)->Unit(benchmark::kMillisecond);

void
BM_SystemFreshConstruct256TokenM(benchmark::State &state)
{
    // The same with TokenM, whose caches each add a destination-set
    // predictor to what TokenB builds.
    const SystemConfig cfg = tenants256Config(ProtocolKind::tokenM);
    for (auto _ : state) {
        System sys(cfg);
        benchmark::DoNotOptimize(&sys);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SystemFreshConstruct256TokenM)
    ->Unit(benchmark::kMillisecond);

void
BM_DestSetPredictorTrainPredict(benchmark::State &state)
{
    // One TokenM cache's predictor as a sampled 256-node run uses it:
    // 8192 entries of which about 500 are trained. An item is one
    // training (every eighth an exclusive one) and one prediction.
    constexpr int nodes = 256;
    DestSetPredictor p(8192, 64, nodes);
    std::vector<Addr> addrs(512);
    for (std::size_t i = 0; i < addrs.size(); ++i)
        addrs[i] = 64 * ((i * 2654435761u) % (1u << 20));
    std::size_t i = 0;
    std::size_t sum = 0;
    for (auto _ : state) {
        const Addr a = addrs[i % addrs.size()];
        const auto node = static_cast<NodeId>(i * 7 % nodes);
        if (i % 8 == 0)
            p.trainExclusive(a, node);
        else
            p.train(a, node);
        sum += p.predict(addrs[(i * 5) % addrs.size()]).size();
        ++i;
    }
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(state.iterations());
    state.counters["live_entries"] =
        static_cast<double>(p.liveEntries());
}
BENCHMARK(BM_DestSetPredictorTrainPredict);

void
BM_SystemResetReuse(benchmark::State &state)
{
    // Same work with one reused System: System::reset wipes state in
    // place instead of reallocating caches/queues/network.
    SystemConfig cfg;
    cfg.numNodes = 16;
    cfg.protocol = ProtocolKind::tokenB;
    cfg.workload = "uniform";
    cfg.opsPerProcessor = 50;
    std::unique_ptr<System> sys;
    std::uint64_t seed = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            runOnceReusing(sys, cfg, seed, true));
        ++seed;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SystemResetReuse);

void
BM_TimerScheduleCancel(benchmark::State &state)
{
    // The reissue-timeout shape: arm a pooled timer per in-flight
    // miss, cancel most of them (misses usually complete first), let
    // the rest fire. Steady state runs entirely out of the recycled
    // slot pool; the superseded proxies drain as generation checks.
    EventQueue eq;
    std::vector<EventQueue::Timer> timers(64);
    std::uint64_t fired = 0;
    for (auto _ : state) {
        for (std::size_t i = 0; i < timers.size(); ++i) {
            timers[i].scheduleIn(eq,
                                 static_cast<Tick>(50 + (i % 7)),
                                 [&fired]() { ++fired; });
        }
        for (std::size_t i = 0; i < timers.size(); ++i) {
            if (i % 8 != 0)
                timers[i].cancel();
        }
        eq.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(timers.size()));
}
BENCHMARK(BM_TimerScheduleCancel);

void
BM_MultiHopUnicast(benchmark::State &state)
{
    // Cut-through routing: a far (3-4 hop) unicast on the 4x4 torus
    // costs one path walk and one delivery event, regardless of hop
    // count (this was one event per hop before).
    EventQueue eq;
    Network net(eq,
                std::unique_ptr<Topology>(makeTopology("torus", 16)),
                NetworkParams{});
    std::vector<std::unique_ptr<NullSink>> sinks;
    for (int i = 0; i < 16; ++i) {
        sinks.push_back(std::make_unique<NullSink>());
        net.attach(static_cast<NodeId>(i), sinks.back().get());
    }
    NodeId src = 0;
    for (auto _ : state) {
        Message m;
        m.type = MsgType::data;
        m.cls = MsgClass::data;
        m.hasData = true;
        m.src = src;
        m.dest = static_cast<NodeId>((src + 10) % 16);   // 4 hops
        m.addr = 0x40;
        net.unicast(m);
        eq.run();
        src = (src + 1) % 16;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MultiHopUnicast);

void
BM_EventQueueFarHorizon(benchmark::State &state)
{
    // Far-future scheduling exercises the overflow heap and the
    // migrate-on-advance path of the bucketed queue (reissue timers
    // land thousands of ticks out).
    for (auto _ : state) {
        EventQueue eq;
        std::uint64_t sink = 0;
        for (int i = 0; i < 1000; ++i) {
            eq.schedule(static_cast<Tick>((i * 9173) % 100000),
                        [&sink]() { ++sink; });
        }
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueFarHorizon);

/**
 * In-memory record → parse round trip shared by the trace benches:
 * one OLTP generator per node, a fixed op count each.
 */
std::shared_ptr<const TraceData>
benchTrace(int nodes, int ops_per_node)
{
    TraceHeader hdr;
    hdr.numNodes = static_cast<std::uint32_t>(nodes);
    hdr.seed = 3;
    hdr.provenance = "bench";
    TraceWriter w(std::move(hdr));
    AddressMap map;
    for (NodeId n = 0; n < static_cast<NodeId>(nodes); ++n) {
        CommercialWorkload gen(n, nodes, map,
                               CommercialParams::oltp(), 100 + n);
        for (int i = 0; i < ops_per_node; ++i)
            w.append(n, gen.next());
    }
    const std::string buf = w.serialize();
    return std::make_shared<const TraceData>(
        TraceData::parse(buf.data(), buf.size()));
}

void
BM_TraceReplay(benchmark::State &state)
{
    // Replay decode throughput: ops/s pulled from a TraceWorkload —
    // the per-op cost trace-driven experiments pay instead of running
    // a generator. Decode (flags byte + zigzag varint) must stay well
    // above generator speed so replay never becomes the bottleneck.
    const int nodes = 8, ops = 4000;
    const auto trace = benchTrace(nodes, ops);
    std::vector<TraceWorkload> streams;
    for (NodeId n = 0; n < nodes; ++n)
        streams.emplace_back(trace, n);
    for (auto _ : state) {
        std::uint64_t sink = 0;
        for (auto &s : streams) {
            for (int i = 0; i < ops; ++i)
                sink += s.next().addr;
        }
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * nodes * ops);
}
BENCHMARK(BM_TraceReplay);

void
BM_TraceRecord(benchmark::State &state)
{
    // Recording overhead: generator pull + varint append per op.
    const int nodes = 8, ops = 4000;
    AddressMap map;
    for (auto _ : state) {
        TraceHeader hdr;
        hdr.numNodes = nodes;
        hdr.provenance = "bench";
        TraceWriter w(std::move(hdr));
        for (NodeId n = 0; n < nodes; ++n) {
            CommercialWorkload gen(n, nodes, map,
                                   CommercialParams::oltp(),
                                   100 + n);
            for (int i = 0; i < ops; ++i)
                w.append(n, gen.next());
        }
        benchmark::DoNotOptimize(w.opsForNode(0));
    }
    state.SetItemsProcessed(state.iterations() * nodes * ops);
}
BENCHMARK(BM_TraceRecord);

/**
 * The full experiment config matrix — protocol x topology x processor
 * count x token count — that the runner benchmarks below shard. Small
 * per-shard op counts keep one pass in benchmark territory; the paper
 * figures run at full size through `sweep_tool figures --ops N`.
 */
std::vector<ExperimentSpec>
runnerMatrix()
{
    std::vector<ExperimentSpec> specs;
    const ProtocolKind protos[] = {
        ProtocolKind::tokenB,  ProtocolKind::tokenD,
        ProtocolKind::tokenM,  ProtocolKind::snooping,
        ProtocolKind::directory, ProtocolKind::hammer,
    };
    for (ProtocolKind proto : protos) {
        for (const char *topo : {"torus", "tree"}) {
            // Traditional snooping needs the tree's total order.
            if (proto == ProtocolKind::snooping &&
                std::strcmp(topo, "torus") == 0)
                continue;
            for (int nodes : {4, 16}) {
                const int tokenCounts[] = {0, 2 * nodes};
                const int numTokenCounts =
                    isTokenProtocol(proto) ? 2 : 1;
                for (int ti = 0; ti < numTokenCounts; ++ti) {
                    SystemConfig cfg;
                    cfg.numNodes = nodes;
                    cfg.topology = topo;
                    cfg.protocol = proto;
                    cfg.workload = "uniform";
                    cfg.workload.uniformBlocks =
                        64 * static_cast<std::uint64_t>(nodes);
                    cfg.proto.tokensPerBlock = tokenCounts[ti];
                    cfg.opsPerProcessor = 400;
                    cfg.seed = 13;
                    specs.push_back(ExperimentSpec{
                        cfg, 1,
                        std::string(protocolName(proto)) + "/" + topo});
                }
            }
        }
    }
    return specs;
}

/** Serial reference: the same matrix through runExperiment(). */
const std::vector<ExperimentResult> &
serialReference()
{
    static const std::vector<ExperimentResult> ref = []() {
        std::vector<ExperimentResult> out;
        for (const ExperimentSpec &s : runnerMatrix())
            out.push_back(runExperiment(s.cfg, s.seeds, s.label));
        return out;
    }();
    return ref;
}

void
BM_RunnerMatrixSerial(benchmark::State &state)
{
    const std::vector<ExperimentSpec> specs = runnerMatrix();
    for (auto _ : state) {
        ParallelRunner runner(ParallelRunnerOptions{1});
        benchmark::DoNotOptimize(runner.run(specs));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(specs.size()));
}
BENCHMARK(BM_RunnerMatrixSerial)->Unit(benchmark::kMillisecond);

void
BM_RunnerMatrixParallel(benchmark::State &state)
{
    const std::vector<ExperimentSpec> specs = runnerMatrix();
    ParallelRunner runner;   // TOKENSIM_THREADS or all cores

    // Correctness gate, checked once: parallel sharding must produce
    // stats bit-identical to the serial runExperiment() loop.
    static bool verified = false;
    if (!verified) {
        const std::vector<ExperimentResult> par = runner.run(specs);
        const std::vector<ExperimentResult> &ser = serialReference();
        for (std::size_t i = 0; i < par.size(); ++i) {
            if (!identicalResults(par[i], ser[i])) {
                state.SkipWithError(
                    ("parallel/serial stats diverge at spec " +
                     std::to_string(i) + " (" + par[i].label + ")")
                        .c_str());
                return;
            }
        }
        verified = true;
    }

    for (auto _ : state)
        benchmark::DoNotOptimize(runner.run(specs));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(specs.size()));
    state.counters["threads"] =
        static_cast<double>(runner.threads());
}
BENCHMARK(BM_RunnerMatrixParallel)->Unit(benchmark::kMillisecond);

void
BM_FastForwardOpRate(benchmark::State &state)
{
    // Functional fast-forward throughput on the same 16-node TokenB +
    // OLTP stack as BM_EndToEndSimulatedOps: the ratio of the two
    // items/s figures is the sampled-simulation speedup on the
    // fast-forwarded fraction (the SMARTS acceptance bar is > 50x).
    // One long-lived System: the generators are infinite, so repeated
    // fast-forwards run in the cache-warm steady state a sampled
    // sweep's spans actually see.
    SystemConfig cfg;
    cfg.numNodes = 16;
    cfg.topology = "torus";
    cfg.protocol = ProtocolKind::tokenB;
    cfg.workload = "oltp";
    System sys(cfg);
    for (auto _ : state) {
        sys.fastForward(500);
        benchmark::DoNotOptimize(sys.sequencer(0).completedOps());
    }
    state.SetItemsProcessed(state.iterations() * 16 * 500);
}
BENCHMARK(BM_FastForwardOpRate);

void
BM_DirectoryHomeChurn(benchmark::State &state)
{
    // Directory home-controller state: a 64-node Directory System on
    // tpcc is reset and fast-forwarded 1000 ops per node each
    // iteration, so every home fills its entry table again over the
    // whole footprint — owners move and sharer sets fill and clear on
    // every miss. Per-entry layout and pooled sharer storage are what
    // this measures; the detailed engine does not run.
    SystemConfig cfg;
    cfg.numNodes = 64;
    cfg.topology = "torus";
    cfg.protocol = ProtocolKind::directory;
    cfg.workload = "tpcc";
    System sys(cfg);
    for (auto _ : state) {
        sys.reset(cfg);
        sys.fastForward(1000);
        benchmark::DoNotOptimize(sys.sequencer(0).completedOps());
    }
    state.SetItemsProcessed(state.iterations() * 64 * 1000);
}
BENCHMARK(BM_DirectoryHomeChurn)->Unit(benchmark::kMillisecond);

void
BM_SnapshotSave(benchmark::State &state)
{
    // Warm-state snapshot encode throughput. The producer stays
    // fast-forward-only (saving never mutates it), so one setup warm
    // of 20k ops/node serves every iteration; bytes/s is the figure
    // that matters — a sweep pays one save per warmed workload.
    SystemConfig cfg;
    cfg.numNodes = 16;
    cfg.topology = "torus";
    cfg.protocol = ProtocolKind::tokenB;
    cfg.workload = "oltp";
    System sys(cfg);
    sys.fastForward(20000);
    std::size_t bytes = 0;
    for (auto _ : state) {
        const std::string snap = saveWarmSnapshot(sys);
        bytes = snap.size();
        benchmark::DoNotOptimize(snap.data());
    }
    state.SetItemsProcessed(state.iterations());
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(bytes));
    state.counters["snapshot_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_SnapshotSave);

void
BM_SnapshotRestore(benchmark::State &state)
{
    // Decode + validate + state-restore throughput into a reused
    // System — the per-design-point cost a snapshot-warmed sweep pays
    // instead of re-running the functional warmup.
    SystemConfig cfg;
    cfg.numNodes = 16;
    cfg.topology = "torus";
    cfg.protocol = ProtocolKind::tokenB;
    cfg.workload = "oltp";
    System producer(cfg);
    producer.fastForward(20000);
    const std::string snap = saveWarmSnapshot(producer);
    System sys(cfg);
    for (auto _ : state) {
        sys.reset(cfg);
        benchmark::DoNotOptimize(loadWarmSnapshot(sys, snap));
    }
    state.SetItemsProcessed(state.iterations());
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(snap.size()));
}
BENCHMARK(BM_SnapshotRestore);

void
BM_EndToEndSimulatedOps(benchmark::State &state)
{
    // Whole-stack throughput: simulated memory operations per second
    // of wall-clock time, TokenB on the 16-node torus with OLTP.
    for (auto _ : state) {
        SystemConfig cfg;
        cfg.numNodes = 16;
        cfg.topology = "torus";
        cfg.protocol = ProtocolKind::tokenB;
        cfg.workload = "oltp";
        cfg.opsPerProcessor = 500;
        System sys(cfg);
        sys.run();
        benchmark::DoNotOptimize(sys.results().runtimeTicks());
    }
    state.SetItemsProcessed(state.iterations() * 16 * 500);
}
BENCHMARK(BM_EndToEndSimulatedOps)->Unit(benchmark::kMillisecond);

} // namespace
} // namespace tokensim
