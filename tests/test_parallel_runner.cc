/**
 * @file
 * Determinism regression tests for the sharded experiment runner and
 * the simulation kernel underneath it: the same seed must produce
 * bit-identical statistics whether shards run serially, across worker
 * threads, or in a repeated invocation. This is the harness-level
 * analogue of the paper's decoupling claim — scheduling policy (which
 * thread runs a shard, in what order) must never leak into results.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "harness/parallel_runner.hh"

namespace tokensim {
namespace {

/** A small but diverse spec matrix: protocol x topology x tokens. */
std::vector<ExperimentSpec>
smallMatrix()
{
    std::vector<ExperimentSpec> specs;
    struct Pt
    {
        ProtocolKind proto;
        const char *topo;
        int tokens;
    };
    const Pt pts[] = {
        {ProtocolKind::tokenB, "torus", 0},
        {ProtocolKind::tokenB, "tree", 0},
        {ProtocolKind::tokenB, "torus", 19},
        {ProtocolKind::tokenD, "torus", 0},
        {ProtocolKind::snooping, "tree", 0},
        {ProtocolKind::directory, "torus", 0},
        {ProtocolKind::hammer, "torus", 0},
    };
    for (const Pt &p : pts) {
        SystemConfig cfg;
        cfg.numNodes = 8;
        cfg.topology = p.topo;
        cfg.protocol = p.proto;
        cfg.workload = "uniform";
        cfg.workload.uniformBlocks = 128;
        cfg.proto.tokensPerBlock = p.tokens;
        cfg.opsPerProcessor = 300;
        cfg.seed = 23;
        specs.push_back(ExperimentSpec{cfg, 2, protocolName(p.proto)});
    }
    return specs;
}

void
expectIdentical(const ExperimentResult &a, const ExperimentResult &b)
{
    // Exact comparisons on purpose: determinism means bit-identical
    // doubles, not "close".
    EXPECT_EQ(a.ops, b.ops);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.cyclesPerTransaction, b.cyclesPerTransaction);
    EXPECT_EQ(a.cyclesPerTransactionStddev,
              b.cyclesPerTransactionStddev);
    EXPECT_EQ(a.bytesPerMiss, b.bytesPerMiss);
    for (std::size_t c = 0; c < numMsgClasses; ++c)
        EXPECT_EQ(a.bytesPerMissByClass[c], b.bytesPerMissByClass[c]);
    EXPECT_EQ(a.missRate, b.missRate);
    EXPECT_EQ(a.cacheToCacheFrac, b.cacheToCacheFrac);
    EXPECT_EQ(a.avgMissLatencyNs, b.avgMissLatencyNs);
    EXPECT_EQ(a.pctNotReissued, b.pctNotReissued);
    EXPECT_EQ(a.pctReissuedOnce, b.pctReissuedOnce);
    EXPECT_EQ(a.pctReissuedMore, b.pctReissuedMore);
    EXPECT_EQ(a.pctPersistent, b.pctPersistent);
    // The shared helper is the authoritative gate: it covers any
    // field a future PR adds without touching the list above.
    EXPECT_TRUE(identicalResults(a, b));
}

void
expectRawIdentical(const System::Results &a, const System::Results &b)
{
    // Whole-registry equality is the authoritative raw gate (every
    // metric, bit-exact); the spot checks keep failures readable.
    EXPECT_EQ(a.runtimeTicks(), b.runtimeTicks());
    EXPECT_EQ(a.ops(), b.ops());
    EXPECT_EQ(a.misses(), b.misses());
    EXPECT_EQ(a.avgMissLatencyTicks(), b.avgMissLatencyTicks());
    EXPECT_EQ(a.totalLinkBytes(), b.totalLinkBytes());
    EXPECT_TRUE(a.metrics == b.metrics);
}

TEST(KernelDeterminism, SameSeedBitIdenticalRawStats)
{
    // Two Systems from the same config must agree on every counter —
    // this pins down the bucketed event queue and the batched network
    // delivery path (any nondeterministic ordering would skew stats).
    SystemConfig cfg;
    cfg.numNodes = 8;
    cfg.protocol = ProtocolKind::tokenB;
    cfg.workload = "oltp";
    cfg.opsPerProcessor = 500;
    cfg.seed = 77;
    expectRawIdentical(runOnce(cfg, 77), runOnce(cfg, 77));
}

TEST(KernelDeterminism, DifferentSeedsDiffer)
{
    SystemConfig cfg;
    cfg.numNodes = 8;
    cfg.protocol = ProtocolKind::tokenB;
    cfg.workload = "oltp";
    cfg.opsPerProcessor = 500;
    const System::Results a = runOnce(cfg, 77);
    const System::Results b = runOnce(cfg, 78);
    EXPECT_NE(a.runtimeTicks(), b.runtimeTicks());
}

TEST(SystemReuse, ResetRunIsBitIdenticalToFreshConstructRun)
{
    // The reusable-System path (System::reset + run) must produce raw
    // statistics bit-identical to destroying and rebuilding the
    // System — across multiple seeds AND across configs that share a
    // structural shape but differ in runtime knobs — on every
    // protocol, since each controller's resetState must also empty
    // its pooled per-block state.
    const ProtocolKind protos[] = {
        ProtocolKind::snooping, ProtocolKind::directory,
        ProtocolKind::hammer,   ProtocolKind::tokenB,
        ProtocolKind::tokenD,   ProtocolKind::tokenM,
        ProtocolKind::tokenA,   ProtocolKind::tokenNull,
    };
    for (ProtocolKind proto : protos) {
        SCOPED_TRACE(protocolName(proto));
        SystemConfig a;
        a.numNodes = 8;
        a.topology = proto == ProtocolKind::snooping ? "tree" : "torus";
        a.protocol = proto;
        a.workload = "uniform";
        a.workload.uniformBlocks = 128;
        a.opsPerProcessor = 300;
        a.seed = 5;

        SystemConfig b = a;   // same shape, different runtime knobs
        b.workload = "oltp";
        b.opsPerProcessor = 200;
        b.net.unlimitedBandwidth = true;
        b.proto.maxReissues = 2;
        b.seed = 40;

        std::unique_ptr<System> reused;
        const System *first = nullptr;
        for (const SystemConfig &cfg : {a, b}) {
            for (std::uint64_t seed : {cfg.seed, cfg.seed + 1}) {
                SCOPED_TRACE(cfg.workload.name() + "/" +
                             std::to_string(seed));
                expectRawIdentical(runOnceReusing(reused, cfg, seed),
                                   runOnce(cfg, seed));
                if (!first)
                    first = reused.get();
            }
        }
        // The single System was reused throughout (b shares a's
        // shape).
        EXPECT_EQ(reused.get(), first);
    }
}

TEST(SystemReuse, ShapeMismatchRejectsReset)
{
    SystemConfig cfg;
    cfg.numNodes = 4;
    cfg.protocol = ProtocolKind::tokenB;
    cfg.workload = "uniform";
    cfg.opsPerProcessor = 10;
    System sys(cfg);

    SystemConfig other = cfg;
    other.numNodes = 8;
    EXPECT_FALSE(sys.reset(other));

    other = cfg;
    other.protocol = ProtocolKind::directory;
    EXPECT_FALSE(sys.reset(other));

    other = cfg;
    other.topology = "tree";
    EXPECT_FALSE(sys.reset(other));

    other = cfg;
    other.l2.sizeBytes /= 2;
    EXPECT_FALSE(sys.reset(other));

    // Runtime-only differences are accepted.
    other = cfg;
    other.seed = 99;
    other.net.unlimitedBandwidth = true;
    other.workload = "hot";
    EXPECT_TRUE(sys.reset(other));
    sys.run();
}

TEST(ParallelRunner, MatchesSerialBitIdentical)
{
    const std::vector<ExperimentSpec> specs = smallMatrix();

    std::vector<ExperimentResult> serial;
    for (const ExperimentSpec &s : specs)
        serial.push_back(runExperiment(s.cfg, s.seeds, s.label));

    ParallelRunner runner(ParallelRunnerOptions{4});
    EXPECT_EQ(runner.threads(), 4);
    const std::vector<ExperimentResult> parallel = runner.run(specs);

    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(specs[i].label);
        expectIdentical(parallel[i], serial[i]);
    }
}

TEST(ParallelRunner, RepeatedRunsIdentical)
{
    const std::vector<ExperimentSpec> specs = smallMatrix();
    ParallelRunner runner(ParallelRunnerOptions{3});
    const std::vector<ExperimentResult> a = runner.run(specs);
    const std::vector<ExperimentResult> b = runner.run(specs);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(specs[i].label);
        expectIdentical(a[i], b[i]);
    }
}

TEST(ParallelRunner, SingleSpecSeedsShardAcrossThreads)
{
    // One design point, many seeds: the per-seed shards spread over
    // workers and must still merge exactly like the serial loop.
    SystemConfig cfg;
    cfg.numNodes = 8;
    cfg.protocol = ProtocolKind::tokenM;
    cfg.workload = "uniform";
    cfg.workload.uniformBlocks = 64;
    cfg.opsPerProcessor = 250;
    cfg.seed = 5;
    const ExperimentSpec spec{cfg, 5, "tokenM"};

    const ExperimentResult serial = runExperiment(cfg, 5, "tokenM");
    const ExperimentResult parallel =
        ParallelRunner(ParallelRunnerOptions{4}).run(spec);
    expectIdentical(parallel, serial);
    EXPECT_GT(parallel.ops, 0u);
}

TEST(ParallelRunner, ThreadCountResolvesToAtLeastOne)
{
    EXPECT_GE(ParallelRunner().threads(), 1);
    EXPECT_EQ(ParallelRunner(ParallelRunnerOptions{7}).threads(), 7);
}

TEST(ParallelRunner, ZeroSeedsMatchesSerialZeroSeeds)
{
    // seeds <= 0 must mean "run nothing" in both runners, so the
    // bit-identical contract holds even for this degenerate input.
    SystemConfig cfg;
    cfg.numNodes = 4;
    cfg.opsPerProcessor = 50;
    const ExperimentSpec spec{cfg, 0, "empty"};
    const ExperimentResult serial = runExperiment(cfg, 0, "empty");
    const ExperimentResult parallel =
        ParallelRunner(ParallelRunnerOptions{2}).run(spec);
    EXPECT_EQ(parallel.ops, 0u);
    expectIdentical(parallel, serial);
}

TEST(ParallelRunner, EmptySpecListIsFine)
{
    EXPECT_TRUE(
        ParallelRunner().run(std::vector<ExperimentSpec>{}).empty());
}

TEST(TraceRoundTrip, ReplayMatchesLiveRunSeriallyAndInParallel)
{
    // Record a live generator run, then replay the trace through the
    // serial loop and through the ParallelRunner at several thread
    // counts: every result must be bit-identical to the live run.
    // This welds the trace subsystem onto the determinism contract —
    // a replayed artifact is exactly as reproducible as the
    // generator, no matter how the shards are scheduled.
    std::filesystem::create_directories("test_traces");
    const std::string path = "test_traces/runner_round_trip.trace";

    SystemConfig live;
    live.numNodes = 8;
    live.protocol = ProtocolKind::tokenB;
    live.workload = "oltp";
    live.opsPerProcessor = 400;
    live.seed = 31;
    live.recordTrace = path;
    const ExperimentResult live_result = aggregateResults(
        {runOnce(live, live.seed)}, "live");

    SystemConfig replay = live;
    replay.recordTrace.clear();
    replay.workload = WorkloadSpec::trace(path);
    const ExperimentSpec spec{replay, 1, "replay"};

    const ExperimentResult serial =
        runExperiment(replay, 1, "replay");
    expectIdentical(serial, live_result);

    for (int threads : {1, 2, 4}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        const ExperimentResult parallel =
            ParallelRunner(ParallelRunnerOptions{threads}).run(spec);
        expectIdentical(parallel, live_result);
        expectIdentical(parallel, serial);
    }
}

TEST(TraceRoundTrip, MixedPresetAndTraceSweepIsDeterministic)
{
    // A sweep whose specs alternate generator presets and trace
    // replay exercises the worker-arena reset path across
    // preset↔trace switches; parallel must still match serial.
    std::filesystem::create_directories("test_traces");
    const std::string path = "test_traces/runner_mixed.trace";

    SystemConfig rec;
    rec.numNodes = 8;
    rec.protocol = ProtocolKind::tokenB;
    rec.workload = "producer-consumer";
    rec.opsPerProcessor = 300;
    rec.seed = 11;
    rec.recordTrace = path;
    runOnce(rec, rec.seed);

    std::vector<ExperimentSpec> specs;
    for (const char *preset : {"uniform", "lock-ping"}) {
        SystemConfig cfg = rec;
        cfg.recordTrace.clear();
        cfg.workload = preset;
        specs.push_back(ExperimentSpec{cfg, 2, preset});
    }
    SystemConfig cfg = rec;
    cfg.recordTrace.clear();
    cfg.workload = WorkloadSpec::trace(path);
    specs.push_back(ExperimentSpec{cfg, 2, "replay"});

    std::vector<ExperimentResult> serial;
    for (const ExperimentSpec &s : specs)
        serial.push_back(runExperiment(s.cfg, s.seeds, s.label));
    const std::vector<ExperimentResult> parallel =
        ParallelRunner(ParallelRunnerOptions{3}).run(specs);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(specs[i].label);
        expectIdentical(parallel[i], serial[i]);
    }
}

/** Workloads alive across a sweep, and the threads that built them. */
struct LiveWorkloads
{
    std::mutex lock;
    int live = 0;
    /** The most already alive when a factory call came in. */
    int most = 0;
    std::set<std::thread::id> threads;
};

/** A SplitMix64 op stream that counts itself in a LiveWorkloads. */
class CountedWorkload : public Workload
{
  public:
    CountedWorkload(std::shared_ptr<LiveWorkloads> live,
                    std::uint64_t state)
        : live_(std::move(live)), state_(state)
    {}

    ~CountedWorkload() override
    {
        std::lock_guard<std::mutex> g(live_->lock);
        --live_->live;
    }

    WorkloadOp
    next() override
    {
        state_ += 0x9e3779b97f4a7c15ull;
        std::uint64_t z = state_;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        z ^= z >> 31;
        WorkloadOp op;
        op.op = (z & 3) == 0 ? MemOp::store : MemOp::load;
        op.addr = 0x40000 + 64 * ((z >> 8) % 96);
        return op;
    }

    std::string name() const override { return "counted"; }

  private:
    std::shared_ptr<LiveWorkloads> live_;
    std::uint64_t state_;
};

TEST(ParallelRunner, LiveSystemsNeverExceedWidth)
{
    // A System's workloads die with it, so live workloads count live
    // Systems. Each spec changes the protocol, so every worker
    // rebuilds its System between specs and resets it between seeds;
    // either way it must drop the old System first. A reset builds
    // each node's new workload before dropping the old one, so a
    // worker mid-reset holds one workload more than a System's worth.
    constexpr int kNodes = 8;
    auto counter = std::make_shared<LiveWorkloads>();
    std::vector<ExperimentSpec> specs;
    for (ProtocolKind p : {ProtocolKind::tokenB, ProtocolKind::directory,
                           ProtocolKind::tokenM, ProtocolKind::hammer}) {
        SystemConfig cfg;
        cfg.numNodes = kNodes;
        cfg.protocol = p;
        cfg.opsPerProcessor = 300;
        cfg.seed = 41;
        cfg.workloadFactory = [counter](NodeId node, int,
                                        std::uint64_t seed)
            -> std::unique_ptr<Workload> {
            std::lock_guard<std::mutex> g(counter->lock);
            counter->most = std::max(counter->most, counter->live);
            counter->threads.insert(std::this_thread::get_id());
            ++counter->live;
            return std::make_unique<CountedWorkload>(counter,
                                                     seed * 1000 + node);
        };
        specs.push_back(ExperimentSpec{cfg, 3, protocolName(p)});
    }

    std::vector<ExperimentResult> serial;
    for (const ExperimentSpec &s : specs)
        serial.push_back(runExperiment(s.cfg, s.seeds, s.label));

    for (const int width : {1, 2, 4}) {
        SCOPED_TRACE("width " + std::to_string(width));
        counter->most = 0;
        counter->threads.clear();
        const std::vector<ExperimentResult> results =
            ParallelRunner(ParallelRunnerOptions{width}).run(specs);

        EXPECT_EQ(counter->live, 0);
        EXPECT_LE(counter->most, width * kNodes + (width - 1));
        // The caller is worker 0 and at most width threads ran shards.
        EXPECT_EQ(counter->threads.count(std::this_thread::get_id()), 1u);
        EXPECT_LE(counter->threads.size(),
                  static_cast<std::size_t>(width));
        ASSERT_EQ(results.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            SCOPED_TRACE(specs[i].label);
            expectIdentical(results[i], serial[i]);
        }
    }
}

TEST(ParallelRunner, ShardExceptionPropagates)
{
    // An impossible topology makes System construction throw inside a
    // worker; the runner must surface it on the calling thread.
    SystemConfig cfg;
    cfg.topology = "moebius";
    cfg.opsPerProcessor = 10;
    std::vector<ExperimentSpec> specs{ExperimentSpec{cfg, 2, "bad"}};
    EXPECT_THROW(ParallelRunner(ParallelRunnerOptions{2}).run(specs),
                 std::exception);
}

TEST(ParallelRunner, CollectedFailuresLeaveTheOtherSpecsIntact)
{
    // With a failures vector, a throwing spec is reported per spec and
    // every other spec still aggregates exactly as the serial loop.
    std::vector<ExperimentSpec> specs = smallMatrix();
    specs.resize(3);
    specs[1].cfg.topology = "moebius";
    specs[1].label = "bad";
    std::vector<std::string> failures;
    const std::vector<ExperimentResult> results =
        ParallelRunner(ParallelRunnerOptions{2}).run(specs, &failures);
    ASSERT_EQ(results.size(), 3u);
    ASSERT_EQ(failures.size(), 3u);
    EXPECT_TRUE(failures[0].empty());
    EXPECT_NE(failures[1].find("spec \"bad\", seed 0"), std::string::npos)
        << failures[1];
    EXPECT_TRUE(failures[2].empty());
    for (std::size_t i : {0u, 2u}) {
        expectIdentical(results[i], runExperiment(specs[i].cfg,
                                                  specs[i].seeds,
                                                  specs[i].label));
    }
}

} // namespace
} // namespace tokensim
