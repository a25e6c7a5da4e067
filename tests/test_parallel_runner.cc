/**
 * @file
 * Determinism regression tests for the sharded experiment runner and
 * the simulation kernel underneath it: the same seed must produce
 * bit-identical statistics whether shards run serially, across worker
 * threads, in a repeated invocation, or restored from a checkpoint
 * after the sweep was killed. This is the harness-level analogue of
 * the paper's decoupling claim — scheduling policy (which thread runs
 * a shard, in what order, through how many kills) must never leak
 * into results.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "harness/parallel_runner.hh"
#include "harness/wire.hh"

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

std::vector<ExperimentResult>
serialRun(const std::vector<ExperimentSpec> &specs)
{
    std::vector<ExperimentResult> out;
    for (const ExperimentSpec &s : specs)
        out.push_back(runExperiment(s.cfg, s.seeds, s.label));
    return out;
}

/** The serial oracle for smallMatrix(), computed once per binary. */
const std::vector<ExperimentResult> &
smallOracle()
{
    static const std::vector<ExperimentResult> oracle =
        serialRun(smallMatrix());
    return oracle;
}

void
expectSameDigests(const std::vector<ExperimentResult> &a,
                  const std::vector<ExperimentResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(a[i].label);
        EXPECT_EQ(resultDigest(a[i]), resultDigest(b[i]));
        EXPECT_TRUE(identicalResults(a[i], b[i]));
    }
}

/** Run smallMatrix() on @p o and compare against the oracle. */
void
expectOracle(ParallelRunnerOptions o)
{
    expectSameDigests(ParallelRunner(std::move(o)).run(smallMatrix()),
                      smallOracle());
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

TEST(ParallelRunner, StreamingLinesArriveAndFinalOrderIsSpecOrder)
{
    // Streaming partial aggregates must not perturb the final merge:
    // one start line per shard before its resolve line, one resolve
    // line per shard, one completion line per good spec, and the
    // completion lines carry exactly the digests the run returns (the
    // partial aggregate IS the final aggregate). The failing spec
    // resolves its shards as "errored" and prints no completion line.
    std::vector<ExperimentSpec> specs = smallMatrix();
    SystemConfig bad;
    bad.topology = "moebius";
    bad.opsPerProcessor = 10;
    specs.push_back(ExperimentSpec{bad, 2, "bad"});
    std::size_t total_shards = 0;
    for (const ExperimentSpec &s : specs)
        total_shards += static_cast<std::size_t>(s.seeds);

    std::vector<std::string> lines;
    ParallelRunnerOptions o{3};
    o.progress = [&](const std::string &line) { lines.push_back(line); };
    std::vector<std::string> failures;
    const std::vector<ExperimentResult> results =
        ParallelRunner(std::move(o)).run(specs, &failures);

    // Per shard, keyed by its `spec i "label" seed s`: start lines
    // seen, and resolve lines seen after a start.
    std::map<std::string, int> started, resolved;
    std::size_t errored_lines = 0;
    std::size_t spec_lines = 0;
    for (const std::string &l : lines) {
        if (l.rfind("shard ", 0) == 0) {
            const std::size_t open = l.find('(');
            const std::size_t close = l.find(')', open);
            ASSERT_NE(close, std::string::npos) << l;
            const std::string key = l.substr(open + 1, close - open - 1);
            if (l.compare(close, std::string::npos, ") started") == 0) {
                ++started[key];
                continue;
            }
            EXPECT_EQ(started[key], 1) << "resolved before its start: " << l;
            ++resolved[key];
            errored_lines += l.find(" errored ") != std::string::npos;
        }
        if (l.rfind("spec ", 0) == 0) {
            ++spec_lines;
            // "spec <i> "<label>" complete: <digest>"
            const std::size_t colon = l.find(": ");
            ASSERT_NE(colon, std::string::npos);
            const std::string digest = l.substr(colon + 2);
            bool matched = false;
            for (const ExperimentResult &r : results)
                matched = matched || resultDigest(r) == digest;
            EXPECT_TRUE(matched)
                << "streamed partial aggregate differs from the "
                   "final merge: "
                << l;
        }
    }
    EXPECT_EQ(started.size(), total_shards);
    EXPECT_EQ(resolved.size(), total_shards);
    for (const auto &[key, n] : started) {
        EXPECT_EQ(n, 1) << key;
        EXPECT_EQ(resolved[key], 1) << key;
    }
    EXPECT_EQ(errored_lines, 2u);
    EXPECT_EQ(spec_lines, specs.size() - 1);
    ASSERT_EQ(results.size(), specs.size());
    for (std::size_t i = 0; i + 1 < specs.size(); ++i)
        EXPECT_EQ(results[i].label, specs[i].label);
    EXPECT_FALSE(failures.back().empty());
}

TEST(ParallelRunner, LowestFailedShardIsReportedAtEveryWidth)
{
    // Two design points fail. "bad-first" runs for a while before
    // exceeding maxTicks; "bad-second" throws at construction, so at
    // any width > 1 it fails first in wall-clock time. The report
    // must still name the lowest (spec, seed) shard, every time.
    SystemConfig slow;
    slow.numNodes = 8;
    slow.protocol = ProtocolKind::tokenB;
    slow.workload = "oltp";
    slow.opsPerProcessor = 4000;
    slow.maxTicks = nsToTicks(150'000);
    slow.seed = 5;
    SystemConfig instant;
    instant.topology = "moebius";
    instant.opsPerProcessor = 10;
    const std::vector<ExperimentSpec> specs{
        ExperimentSpec{slow, 2, "bad-first"},
        ExperimentSpec{instant, 2, "bad-second"},
    };

    for (int width : {1, 4}) {
        SCOPED_TRACE("width " + std::to_string(width));
        try {
            ParallelRunner(ParallelRunnerOptions{width}).run(specs);
            ADD_FAILURE() << "failing sweep ran successfully";
        } catch (const std::runtime_error &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("\"bad-first\", seed 0"), std::string::npos)
                << what;
            EXPECT_NE(what.find("maxTicks"), std::string::npos) << what;
        }
    }
}

TEST(ParallelRunner, RecordTraceNeedsOneSeedAndItsOwnPath)
{
    // Every shard of a recording spec writes its trace file: with two
    // seeds, or two specs on one path, one stream would silently
    // overwrite the other. Both are rejected before anything runs.
    std::filesystem::create_directories("test_traces");
    const std::string path = "test_traces/runner_record_once.trace";
    std::filesystem::remove(path);
    SystemConfig cfg;
    cfg.numNodes = 8;
    cfg.protocol = ProtocolKind::tokenB;
    cfg.workload = "oltp";
    cfg.opsPerProcessor = 400;
    cfg.seed = 31;
    cfg.recordTrace = path;

    const ParallelRunner runner(ParallelRunnerOptions{2});
    EXPECT_THROW(runner.run({ExperimentSpec{cfg, 2, "two-seeds"}}),
                 std::invalid_argument);
    EXPECT_THROW(runner.run({ExperimentSpec{cfg, 0, "no-seeds"}}),
                 std::invalid_argument);
    SystemConfig other = cfg;
    other.protocol = ProtocolKind::directory;
    EXPECT_THROW(runner.run({ExperimentSpec{cfg, 1, "a"},
                             ExperimentSpec{other, 1, "b"}}),
                 std::invalid_argument);
    EXPECT_FALSE(std::filesystem::exists(path));

    // One seed on its own path records, and replays to the same run.
    const ExperimentResult recorded =
        runner.run(ExperimentSpec{cfg, 1, "one-seed"});
    SystemConfig replay = cfg;
    replay.recordTrace.clear();
    replay.workload = WorkloadSpec::trace(path);
    expectIdentical(runner.run(ExperimentSpec{replay, 1, "one-seed"}),
                    recorded);
}

// ---------------------------------------------------------------------
// Checkpoint / resume
// ---------------------------------------------------------------------

std::string
ckptPath(const std::string &name)
{
    std::filesystem::create_directories("test_ckpt");
    const std::string path = "test_ckpt/" + name + ".ckpt";
    std::filesystem::remove(path);
    return path;
}

ParallelRunnerOptions
ckptOpts(const std::string &path, int width)
{
    ParallelRunnerOptions o{width};
    o.checkpointPath = path;
    return o;
}

/** Run with @p o and return the "checkpoint: restored" line. */
std::string
runCapturingRestore(ParallelRunnerOptions o)
{
    std::string line;
    o.progress = [&](const std::string &l) {
        if (l.rfind("checkpoint: restored", 0) == 0)
            line = l;
    };
    expectOracle(std::move(o));
    return line;
}

TEST(Checkpoint, ResumeFromCompleteAndTruncatedFilesIsIdentical)
{
    // The passes alternate widths: a record does not care which
    // worker wrote it or how many restore it.
    const std::string path = ckptPath("resume");

    // Pass 1: fresh file, all 14 shards computed and recorded.
    expectOracle(ckptOpts(path, 3));
    const std::uintmax_t full_size = std::filesystem::file_size(path);

    // Pass 2: full restore — zero recomputation, identical digests,
    // and the restore line says so.
    const std::string restore_line = runCapturingRestore(ckptOpts(path, 2));
    EXPECT_NE(restore_line.find("restored 14/14"), std::string::npos)
        << restore_line;

    // Pass 3: chop the file mid-record (a crash mid-append). The torn
    // tail must drop, the missing shards recompute, digests hold.
    std::filesystem::resize_file(path, full_size * 2 / 3);
    const std::string torn_line = runCapturingRestore(ckptOpts(path, 3));
    EXPECT_NE(torn_line.find("torn tail"), std::string::npos) << torn_line;

    // Pass 4: pass 3's re-appended records must land where the next
    // resume can see them — a full restore again.
    const std::string again = runCapturingRestore(ckptOpts(path, 2));
    EXPECT_NE(again.find("restored 14/14"), std::string::npos) << again;
}

TEST(Checkpoint, CorruptTrailingByteReadsAsTornTail)
{
    const std::string path = ckptPath("corrupt");
    expectOracle(ckptOpts(path, 3));

    // Flip a byte inside the last record: its CRC fails, it drops as
    // a torn tail, and the shard recomputes to the same digest.
    const std::uintmax_t size = std::filesystem::file_size(path);
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(size - 10));
    char c = 0;
    f.get(c);
    f.seekp(static_cast<std::streamoff>(size - 10));
    f.put(static_cast<char>(c ^ 0x55));
    f.close();

    expectOracle(ckptOpts(path, 2));
}

TEST(Checkpoint, DifferentSweepFingerprintIsRejected)
{
    const std::vector<ExperimentSpec> specs = smallMatrix();
    const std::string path = ckptPath("mismatch");
    ParallelRunner(ckptOpts(path, 2)).run(specs);

    // One more seed per point is a different sweep: resuming against
    // the old file must throw the typed mismatch, not merge garbage.
    std::vector<ExperimentSpec> other = specs;
    for (ExperimentSpec &s : other)
        s.seeds += 1;
    EXPECT_THROW(ParallelRunner(ckptOpts(path, 2)).run(other),
                 CheckpointMismatch);

    // A non-checkpoint file is a typed CheckpointError.
    const std::string junk = ckptPath("junk");
    std::ofstream(junk, std::ios::binary) << "not a checkpoint file";
    EXPECT_THROW(ParallelRunner(ckptOpts(junk, 2)).run(specs),
                 CheckpointError);
}

TEST(Checkpoint, ReadErrorIsACheckpointErrorNotATornTail)
{
    // /proc/self/mem opens read-write, but reading offset 0 (never
    // mapped) fails with EIO: a real read error from a real path. It
    // must surface as a CheckpointError naming the failed read —
    // never as an empty file whose "torn tail" gets truncated away.
    const char *mem = "/proc/self/mem";
    const int fd = ::open(mem, O_RDWR | O_CLOEXEC);
    char byte;
    const bool readFails = fd >= 0 && ::read(fd, &byte, 1) < 0;
    if (fd >= 0)
        ::close(fd);
    if (!readFails)
        GTEST_SKIP() << mem << " is not readable-with-EIO here";

    try {
        ParallelRunner(ckptOpts(mem, 2)).run(smallMatrix());
        ADD_FAILURE() << "an unreadable checkpoint was accepted";
    } catch (const CheckpointError &e) {
        EXPECT_NE(std::string(e.what()).find("cannot read"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Checkpoint, CustomWorkloadFactoryCannotBeCheckpointed)
{
    SystemConfig cfg;
    cfg.workloadFactory = [](NodeId, int,
                             std::uint64_t) -> std::unique_ptr<Workload> {
        return std::make_unique<CountedWorkload>(
            std::make_shared<LiveWorkloads>(), 1);
    };
    const std::vector<ExperimentSpec> specs{ExperimentSpec{cfg, 1, "f"}};
    const std::string path = ckptPath("factory");
    EXPECT_THROW(ParallelRunner(ckptOpts(path, 2)).run(specs),
                 std::invalid_argument);
    EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(Checkpoint, SigkilledSweepResumesBitIdentically)
{
    // The end-to-end crash gate: a whole runner is SIGKILLed mid-sweep
    // at width 2, then the sweep reruns at width 3 against the
    // surviving checkpoint. The resume must restore whatever was
    // recorded (any torn trailing record dropped), recompute the
    // rest, and match the serial oracle exactly.
    const std::string path = ckptPath("sigkill");

    int progress_pipe[2];
    ASSERT_EQ(::pipe(progress_pipe), 0);
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        // Victim process: run the checkpointed sweep, ticking a byte
        // into the pipe per completed shard so the parent can kill us
        // provably mid-sweep. Only _exit from here — this is a copy
        // of the test binary.
        ::close(progress_pipe[0]);
        ParallelRunnerOptions o = ckptOpts(path, 2);
        const int wfd = progress_pipe[1];
        o.progress = [wfd](const std::string &l) {
            if (l.rfind("shard ", 0) == 0 &&
                l.find(" done ") != std::string::npos)
                (void)!::write(wfd, "x", 1);
        };
        try {
            ParallelRunner(std::move(o)).run(smallMatrix());
        } catch (...) {
            _exit(1);
        }
        _exit(0);
    }
    ::close(progress_pipe[1]);

    // Let a few shards land, then kill without warning. (If the child
    // somehow finishes first, read returns 0 and the resume below
    // simply restores everything — the assertion still holds.)
    std::size_t ticks = 0;
    char c;
    while (ticks < 3 && ::read(progress_pipe[0], &c, 1) == 1)
        ++ticks;
    ::kill(child, SIGKILL);
    int status = 0;
    ::waitpid(child, &status, 0);
    ::close(progress_pipe[0]);

    ASSERT_TRUE(std::filesystem::exists(path))
        << "checkpoint never materialized";
    const std::string restored = runCapturingRestore(ckptOpts(path, 3));
    EXPECT_NE(restored.find("restored"), std::string::npos) << restored;
}

// ---------------------------------------------------------------------
// Golden-trace replay through the runner
// ---------------------------------------------------------------------

std::string
goldenDir()
{
    return std::string(TOKENSIM_TESTS_DIR) + "/golden";
}

/** Mirrors test_golden_traces.cc's reference config. */
SystemConfig
goldenConfig(ProtocolKind proto, const std::string &workload)
{
    SystemConfig cfg;
    cfg.numNodes = 8;
    cfg.protocol = proto;
    cfg.topology = proto == ProtocolKind::snooping ? "tree" : "torus";
    cfg.opsPerProcessor = 400;
    cfg.warmupOpsPerProcessor = 4400;
    cfg.seed = 20260701;
    cfg.attachAuditor = isTokenProtocol(proto);
    cfg.workload = WorkloadSpec::trace(goldenDir() + "/golden_" +
                                       workload + ".trace");
    return cfg;
}

std::map<std::string, std::string>
loadGoldenDigests()
{
    std::map<std::string, std::string> out;
    std::ifstream in(goldenDir() + "/golden_digests.txt");
    EXPECT_TRUE(in) << "missing golden digests";
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const std::size_t space = line.find(' ');
        if (space == std::string::npos)
            continue;
        out[line.substr(0, space)] = line.substr(space + 1);
    }
    return out;
}

TEST(RunnerGolden, ReplayAtEveryWidthReproducesCommittedDigests)
{
    // The committed golden digests were produced by serial replays,
    // so matching them through the runner at several widths proves
    // that worker-side System reuse, streaming merge and shard order
    // add exactly zero drift.
    const ProtocolKind protos[] = {
        ProtocolKind::snooping, ProtocolKind::directory,
        ProtocolKind::hammer,   ProtocolKind::tokenB,
        ProtocolKind::tokenD,   ProtocolKind::tokenM,
        ProtocolKind::tokenA,   ProtocolKind::tokenNull,
    };
    const char *const workloads[] = {"oltp", "producer-consumer",
                                     "ycsb", "tpcc"};

    std::vector<ExperimentSpec> specs;
    for (ProtocolKind proto : protos) {
        for (const char *w : workloads) {
            specs.push_back(ExperimentSpec{
                goldenConfig(proto, w), 1,
                std::string(protocolName(proto)) + "/" + w});
            // The sampled variants ride along (mirrors
            // test_golden_traces.cc): fast-forward spans and window
            // pooling must survive worker reuse bit for bit too.
            SystemConfig sampled = goldenConfig(proto, w);
            sampled.warmupOpsPerProcessor = 0;
            sampled.opsPerProcessor = 0;
            sampled.sampling = SamplingSpec{1000, 200, 4};
            specs.push_back(ExperimentSpec{
                sampled, 1,
                "sampled-" + std::string(protocolName(proto)) + "/" +
                    w});
        }
    }

    const std::map<std::string, std::string> expected =
        loadGoldenDigests();
    ASSERT_EQ(expected.size(), specs.size());

    for (int width : {1, 2, 4}) {
        SCOPED_TRACE("width " + std::to_string(width));
        const std::vector<ExperimentResult> results =
            ParallelRunner(ParallelRunnerOptions{width}).run(specs);
        ASSERT_EQ(results.size(), specs.size());
        for (const ExperimentResult &r : results) {
            SCOPED_TRACE(r.label);
            const auto it = expected.find(r.label);
            ASSERT_NE(it, expected.end());
            EXPECT_EQ(resultDigest(r), it->second)
                << "runner replay drifted from the committed golden "
                   "digest";
        }
    }
}

} // namespace
} // namespace tokensim
