/**
 * @file
 * Gates for SMARTS-style sampled simulation and warm-state snapshots.
 *
 * The contracts pinned here:
 *  - fast-forward conserves tokens (the auditor checks every touched
 *    block) and leaves a state the detailed engine runs cleanly from,
 *    for every protocol family;
 *  - a sampled run is deterministic and bit-identical across the
 *    serial loop and the ParallelRunner at several widths
 *    (fast-forward must not introduce any scheduling sensitivity);
 *  - saving a warm snapshot and restoring it into a fresh System is
 *    bit-equivalent to performing the same fast-forward in place;
 *  - one snapshot serves every timing config sharing the shape
 *    fingerprint, and every bound-field mismatch is a typed error;
 *  - sampled means land within a computed confidence band of the
 *    full-run oracle on the commercial workloads.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "harness/parallel_runner.hh"
#include "harness/snapshot.hh"
#include "harness/system.hh"
#include "proto/directory/directory.hh"

namespace tokensim {
namespace {

SystemConfig
baseCfg(ProtocolKind proto, const char *wl = "oltp")
{
    SystemConfig cfg;
    cfg.numNodes = 8;
    cfg.topology =
        proto == ProtocolKind::snooping ? "tree" : "torus";
    cfg.protocol = proto;
    cfg.workload = wl;
    cfg.opsPerProcessor = 300;
    cfg.seed = 41;
    return cfg;
}

constexpr ProtocolKind snapshotFamilies[] = {
    ProtocolKind::snooping, ProtocolKind::directory,
    ProtocolKind::hammer, ProtocolKind::tokenB,
    ProtocolKind::tokenD, ProtocolKind::tokenM,
    ProtocolKind::tokenA, ProtocolKind::tokenNull,
};

std::shared_ptr<const std::string>
share(std::string s)
{
    return std::make_shared<const std::string>(std::move(s));
}

// ---------------------------------------------------------------------
// Fast-forward.
// ---------------------------------------------------------------------

TEST(FastForward, ConservesTokensAndRunsDetailedAfter)
{
    const ProtocolKind tokenProtos[] = {
        ProtocolKind::tokenB, ProtocolKind::tokenD,
        ProtocolKind::tokenM, ProtocolKind::tokenA,
        ProtocolKind::tokenNull,
    };
    for (ProtocolKind proto : tokenProtos) {
        SystemConfig cfg = baseCfg(proto);
        cfg.attachAuditor = true;
        cfg.opsPerProcessor = 200;
        System sys(cfg);
        sys.fastForward(2000);
        std::string err;
        EXPECT_TRUE(sys.auditor()->auditAll(&err))
            << protocolName(proto) << " after fast-forward: " << err;
        sys.run();
        EXPECT_TRUE(sys.auditor()->auditAll(&err))
            << protocolName(proto) << " after detailed run: " << err;
        EXPECT_EQ(sys.results().ops(),
                  static_cast<std::uint64_t>(cfg.numNodes) *
                      cfg.opsPerProcessor);
    }
}

TEST(FastForward, DetailedContinuationIsDeterministic)
{
    // FF K ops then run detailed, twice: bit-identical registries.
    for (ProtocolKind proto : snapshotFamilies) {
        SystemConfig cfg = baseCfg(proto);
        auto once = [&cfg]() {
            System sys(cfg);
            sys.fastForward(1500);
            sys.run();
            return sys.results();
        };
        const System::Results a = once();
        const System::Results b = once();
        EXPECT_TRUE(a.metrics == b.metrics) << protocolName(proto);
    }
}

TEST(FastForward, AdvancesWarmStateNotTime)
{
    SystemConfig cfg = baseCfg(ProtocolKind::tokenB);
    System sys(cfg);
    sys.fastForward(3000);
    EXPECT_EQ(sys.eq().curTick(), Tick{0});
    EXPECT_EQ(sys.sequencer(0).completedOps(), std::uint64_t{3000});
    // Warm state exists: the L2 is populated.
    std::uint64_t warmed = 0;
    for (int i = 0; i < cfg.numNodes; ++i) {
        for (Addr a = 0; a < 64 * 1024; a += cfg.blockBytes)
            warmed += sys.cache(static_cast<NodeId>(i))
                          .hasPermission(a, MemOp::load);
    }
    EXPECT_GT(warmed, 0u);
}

// ---------------------------------------------------------------------
// Sampled runs.
// ---------------------------------------------------------------------

TEST(Sampling, PoolsOneSamplePerWindow)
{
    SystemConfig cfg = baseCfg(ProtocolKind::tokenB);
    cfg.sampling = SamplingSpec{400, 100, 4};
    System sys(cfg);
    sys.run();
    const System::Results r = sys.results();
    // Detailed ops only: windows * measureOps per node.
    EXPECT_EQ(r.ops(), std::uint64_t{4 * 100 * 8});
    // One cpt sample per window, so the pooled stat carries an
    // across-window standard error.
    EXPECT_GT(r.missLatency().count(), 0u);
    EXPECT_EQ(r.metrics.statValue("cpt_ns").count(), std::uint64_t{4});
}

std::vector<ExperimentSpec>
sampledMatrix()
{
    std::vector<ExperimentSpec> specs;
    const ProtocolKind protos[] = {
        ProtocolKind::tokenB, ProtocolKind::snooping,
        ProtocolKind::directory, ProtocolKind::hammer,
    };
    for (ProtocolKind p : protos) {
        SystemConfig cfg = baseCfg(p);
        cfg.sampling = SamplingSpec{300, 100, 3};
        specs.push_back(
            ExperimentSpec{cfg, 2, protocolName(p)});
    }
    return specs;
}

void
expectSameDigests(const std::vector<ExperimentResult> &a,
                  const std::vector<ExperimentResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_TRUE(identicalResults(a[i], b[i])) << a[i].label;
        EXPECT_EQ(resultDigest(a[i]), resultDigest(b[i]));
    }
}

TEST(Sampling, BitIdenticalAcrossParallelWidths)
{
    const std::vector<ExperimentSpec> specs = sampledMatrix();
    const std::vector<ExperimentResult> serial =
        ParallelRunner(ParallelRunnerOptions{1}).run(specs);
    for (int threads : {2, 4}) {
        expectSameDigests(
            ParallelRunner(ParallelRunnerOptions{threads}).run(specs),
            serial);
    }
}

TEST(Sampling, RecordTraceIsRejected)
{
    SystemConfig cfg = baseCfg(ProtocolKind::tokenB);
    cfg.sampling = SamplingSpec{100, 50, 2};
    cfg.recordTrace = "/tmp/tokensim_sampling_reject.trace";
    System sys(cfg);
    EXPECT_THROW(sys.run(), std::runtime_error);
}

// ---------------------------------------------------------------------
// Warm-state snapshots.
// ---------------------------------------------------------------------

TEST(Snapshot, SaveLoadEquivalentToWarmingInPlace)
{
    for (ProtocolKind proto : snapshotFamilies) {
        SystemConfig cfg = baseCfg(proto);

        System inPlace(cfg);
        inPlace.fastForward(1500);

        System producer(cfg);
        producer.fastForward(1500);
        SystemConfig warmed = cfg;
        warmed.warmSnapshot = share(saveWarmSnapshot(producer));
        System restored(warmed);

        inPlace.run();
        restored.run();
        EXPECT_TRUE(inPlace.results().metrics ==
                    restored.results().metrics)
            << protocolName(proto);
    }
}

TEST(Snapshot, RoundTripsThroughTheCodec)
{
    // decode(encode(x)) re-encodes to the identical bytes — the
    // canonical-encoding contract the fuzz suite leans on.
    for (ProtocolKind proto : snapshotFamilies) {
        SystemConfig cfg = baseCfg(proto);
        System a(cfg);
        a.fastForward(1200);
        const std::string snap = saveWarmSnapshot(a);

        SystemConfig warmed = cfg;
        warmed.warmSnapshot = share(snap);
        System b(cfg);
        ASSERT_TRUE(b.reset(warmed));
        loadWarmSnapshot(b, snap);
        EXPECT_EQ(saveWarmSnapshot(b), snap) << protocolName(proto);
    }
}

TEST(Snapshot, WideDirectoryMasksRoundTrip)
{
    // 130 nodes: the directory's sharer masks span three words. The
    // snapshot lists sharers ascending; reloading must rebuild the
    // same masks, re-encode to the same bytes, and run identically.
    SystemConfig cfg = baseCfg(ProtocolKind::directory, "uniform");
    cfg.numNodes = 130;
    cfg.workload.uniformBlocks = 64;
    cfg.workload.storeFraction = 0.02;
    cfg.opsPerProcessor = 40;
    System a(cfg);
    a.fastForward(60);

    // Some block is shared on both sides of a mask-word boundary.
    bool straddles = false;
    for (Addr blk = 0; blk < 64; ++blk) {
        const Addr addr = blk * 64;
        const auto v = dynamic_cast<DirMemory &>(
            a.memory(a.ctx().home(addr))).view(addr);
        if (!v.sharers.empty() && v.sharers.front() < 64 &&
            v.sharers.back() >= 128)
            straddles = true;
    }
    EXPECT_TRUE(straddles);

    const std::string snap = saveWarmSnapshot(a);
    SystemConfig warmed = cfg;
    warmed.warmSnapshot = share(snap);
    System b(cfg);
    ASSERT_TRUE(b.reset(warmed));
    loadWarmSnapshot(b, snap);
    EXPECT_EQ(saveWarmSnapshot(b), snap);

    System restored(warmed);
    a.run();
    restored.run();
    EXPECT_TRUE(a.results().metrics == restored.results().metrics);
}

TEST(Snapshot, ReusableAcrossTimingConfigs)
{
    // The reuse rule: one snapshot serves every config that differs
    // only in timing knobs. The warmed runs must load cleanly and
    // produce timing-dependent (different) results.
    SystemConfig cfg = baseCfg(ProtocolKind::tokenB);
    System producer(cfg);
    producer.fastForward(2000);
    const auto snap = share(saveWarmSnapshot(producer));

    SystemConfig fast = cfg;
    fast.warmSnapshot = snap;
    SystemConfig slow = fast;
    slow.net.linkLatency = nsToTicks(45);
    slow.ctrlLatency = nsToTicks(12);

    System a(fast);
    a.run();
    System b(slow);
    b.run();
    EXPECT_EQ(a.results().ops(), b.results().ops());
    EXPECT_NE(a.results().runtimeTicks(), b.results().runtimeTicks());
}

TEST(Snapshot, FeedsSampledRuns)
{
    SystemConfig cfg = baseCfg(ProtocolKind::directory);
    System producer(cfg);
    producer.fastForward(1000);
    SystemConfig warmed = cfg;
    warmed.warmSnapshot = share(saveWarmSnapshot(producer));
    warmed.sampling = SamplingSpec{200, 100, 3};
    System sys(warmed);
    sys.run();
    EXPECT_EQ(sys.results().ops(), std::uint64_t{3 * 100 * 8});
}

TEST(Snapshot, EveryBoundFieldMismatchIsTyped)
{
    SystemConfig cfg = baseCfg(ProtocolKind::tokenB);
    System producer(cfg);
    producer.fastForward(500);
    const auto snap = share(saveWarmSnapshot(producer));

    const auto expectRejected = [&](SystemConfig bad) {
        bad.warmSnapshot = snap;
        System sys(bad);
        EXPECT_THROW(sys.run(), SnapshotError);
    };

    SystemConfig c1 = cfg;
    c1.seed = cfg.seed + 1;
    expectRejected(c1);

    SystemConfig c2 = cfg;
    c2.workload = "uniform";
    expectRejected(c2);

    SystemConfig c3 = cfg;
    c3.workload.storeFraction = 0.5;   // a preset knob is binding too
    expectRejected(c3);

    SystemConfig c4 = cfg;
    c4.l2.sizeBytes = cfg.l2.sizeBytes / 2;
    expectRejected(c4);

    SystemConfig c5 = cfg;
    c5.protocol = ProtocolKind::tokenD;
    expectRejected(c5);

    SystemConfig c6 = cfg;
    c6.seq.l1Enabled = false;
    expectRejected(c6);
}

TEST(Snapshot, LifecycleMisuseIsTyped)
{
    SystemConfig cfg = baseCfg(ProtocolKind::tokenB);
    // Saving after detailed simulation ran.
    System ran(cfg);
    ran.run();
    EXPECT_THROW(saveWarmSnapshot(ran), SnapshotError);
    // Saving from a trace-recording System.
    SystemConfig rec = cfg;
    rec.recordTrace = "/tmp/tokensim_snapshot_reject.trace";
    System recording(rec);
    EXPECT_THROW(saveWarmSnapshot(recording), SnapshotError);
    // Restoring into a trace-recording System.
    System producer(cfg);
    producer.fastForward(200);
    rec.warmSnapshot = share(saveWarmSnapshot(producer));
    System sys(rec);
    EXPECT_THROW(sys.run(), std::runtime_error);
}

// ---------------------------------------------------------------------
// Sampled accuracy against the full-run oracle.
// ---------------------------------------------------------------------

TEST(Sampling, MeansWithinConfidenceBandOfFullRun)
{
    // Equal total workload: the full run executes every op detailed;
    // the sampled run fast-forwards 5/6 of them and measures windows.
    // The sampled means must land inside a band computed from both
    // runs' standard errors (with a small relative floor — these are
    // finite runs of a bursty system, not i.i.d. samples).
    for (const char *wl : {"oltp", "producer-consumer"}) {
        SystemConfig full = baseCfg(ProtocolKind::tokenB, wl);
        full.warmupOpsPerProcessor = 1000;
        full.opsPerProcessor = 12000;

        SystemConfig sampled = full;
        sampled.opsPerProcessor = 0;
        sampled.sampling = SamplingSpec{1250, 250, 8};

        System fs(full);
        fs.run();
        System ss(sampled);
        ss.run();
        const System::Results fr = fs.results();
        const System::Results sr = ss.results();

        const RunningStat fml = fr.missLatency();
        const RunningStat sml = sr.missLatency();
        ASSERT_GT(fml.count(), 0u) << wl;
        ASSERT_GT(sml.count(), 0u) << wl;
        const double mlBand =
            3.0 * (fml.stddev() / std::sqrt(double(fml.count())) +
                   sml.stddev() / std::sqrt(double(sml.count()))) +
            0.10 * fml.mean();
        EXPECT_NEAR(sml.mean(), fml.mean(), mlBand) << wl;

        const RunningStat scpt = sr.metrics.statValue("cpt_ns");
        const double fcpt = fr.cyclesPerTransaction();
        ASSERT_EQ(scpt.count(), 8u) << wl;
        const double cptBand =
            4.0 * scpt.stddev() / std::sqrt(double(scpt.count())) +
            0.12 * fcpt;
        EXPECT_NEAR(scpt.mean(), fcpt, cptBand) << wl;
    }
}

// ---------------------------------------------------------------------
// Transactional presets and multi-tenant node groups.
// ---------------------------------------------------------------------

TEST(FastForward, ConservesTokensOnTransactionalPresets)
{
    for (const char *wl : {"ycsb", "tpcc"}) {
        for (ProtocolKind proto :
             {ProtocolKind::tokenB, ProtocolKind::tokenM}) {
            SystemConfig cfg = baseCfg(proto, wl);
            cfg.attachAuditor = true;
            cfg.opsPerProcessor = 200;
            System sys(cfg);
            sys.fastForward(2000);
            std::string err;
            EXPECT_TRUE(sys.auditor()->auditAll(&err))
                << wl << "/" << protocolName(proto)
                << " after fast-forward: " << err;
            sys.run();
            EXPECT_TRUE(sys.auditor()->auditAll(&err))
                << wl << "/" << protocolName(proto)
                << " after detailed run: " << err;
            EXPECT_EQ(sys.results().ops(),
                      static_cast<std::uint64_t>(cfg.numNodes) *
                          cfg.opsPerProcessor);
        }
    }
}

SystemConfig
twoTenantCfg(ProtocolKind proto)
{
    SystemConfig cfg = baseCfg(proto);
    cfg.tenants = {TenantSpec{WorkloadSpec("ycsb"), 4},
                   TenantSpec{WorkloadSpec("tpcc"), 4}};
    return cfg;
}

TEST(MultiTenant, BitIdenticalAcrossRunnerWidths)
{
    std::vector<ExperimentSpec> specs;
    for (ProtocolKind p :
         {ProtocolKind::tokenB, ProtocolKind::directory}) {
        SystemConfig cfg = twoTenantCfg(p);
        cfg.sampling = SamplingSpec{300, 100, 3};
        cfg.opsPerProcessor = 0;
        specs.push_back(ExperimentSpec{cfg, 2, protocolName(p)});
    }
    const std::vector<ExperimentResult> serial =
        ParallelRunner(ParallelRunnerOptions{1}).run(specs);
    for (int threads : {2, 4}) {
        expectSameDigests(
            ParallelRunner(ParallelRunnerOptions{threads}).run(specs),
            serial);
    }
}

TEST(MultiTenant, PerTenantMetricsPartitionSystemOps)
{
    SystemConfig cfg = twoTenantCfg(ProtocolKind::tokenB);
    System sys(cfg);
    sys.run();
    const System::Results r = sys.results();
    const std::uint64_t t0 = r.metrics.counterValue("tenant0_ops");
    const std::uint64_t t1 = r.metrics.counterValue("tenant1_ops");
    // Each group ran its own budget; together they are the system.
    EXPECT_EQ(t0, std::uint64_t{4} * cfg.opsPerProcessor);
    EXPECT_EQ(t1, std::uint64_t{4} * cfg.opsPerProcessor);
    EXPECT_EQ(t0 + t1, r.ops());
    // Both groups missed in their own address spaces.
    EXPECT_GT(
        r.metrics.statValue("tenant0_miss_latency_ticks").count(), 0u);
    EXPECT_GT(
        r.metrics.statValue("tenant1_miss_latency_ticks").count(), 0u);
}

TEST(MultiTenant, BadGroupConfigsAreTyped)
{
    // Group sizes must cover the machine exactly.
    SystemConfig cfg = twoTenantCfg(ProtocolKind::tokenB);
    cfg.tenants[1].nodes = 3;
    EXPECT_THROW(System{cfg}, std::invalid_argument);
    cfg.tenants[1].nodes = 5;
    EXPECT_THROW(System{cfg}, std::invalid_argument);
    // Empty groups are meaningless.
    cfg.tenants[1].nodes = 0;
    EXPECT_THROW(System{cfg}, std::invalid_argument);
    // Recorded traces bake in a whole machine's node count.
    cfg = twoTenantCfg(ProtocolKind::tokenB);
    cfg.tenants[0].workload = WorkloadSpec::trace("whole.trace");
    EXPECT_THROW(System{cfg}, std::invalid_argument);
}

TEST(MultiTenant, ShapeFingerprintSeesTenantList)
{
    const SystemConfig plain = baseCfg(ProtocolKind::tokenB);
    SystemConfig tenanted = twoTenantCfg(ProtocolKind::tokenB);
    EXPECT_NE(snapshotShapeFingerprint(plain),
              snapshotShapeFingerprint(tenanted));
    SystemConfig resized = tenanted;
    resized.tenants[0].nodes = 5;
    resized.tenants[1].nodes = 3;
    EXPECT_NE(snapshotShapeFingerprint(tenanted),
              snapshotShapeFingerprint(resized));
}

// ---------------------------------------------------------------------
// The token-holder set.
// ---------------------------------------------------------------------

constexpr ProtocolKind tokenFamilies[] = {
    ProtocolKind::tokenB, ProtocolKind::tokenD, ProtocolKind::tokenM,
    ProtocolKind::tokenA, ProtocolKind::tokenNull,
};

void
expectHoldersMatch(const System &sys, const char *when)
{
    std::string err;
    EXPECT_TRUE(sys.checkTokenHolders(&err))
        << protocolName(sys.config().protocol) << " " << when << ": "
        << err;
}

TEST(TokenHolders, MatchTheCachesThroughEveryPhase)
{
    for (ProtocolKind proto : tokenFamilies) {
        // A 64 KB L2 under oltp's 4096-block preamble: both engines
        // evict as well as allocate and free.
        SystemConfig cfg = baseCfg(proto);
        cfg.l2 = CacheParams{64 * 1024, 4, 64, nsToTicks(6)};
        System sys(cfg);
        ASSERT_NE(sys.tokenHolders(), nullptr);
        sys.fastForward(1500);
        expectHoldersMatch(sys, "after fast-forward");

        const std::string snap = saveWarmSnapshot(sys);
        System restored(cfg);
        loadWarmSnapshot(restored, snap);
        expectHoldersMatch(restored, "after a snapshot restore");

        sys.run();
        expectHoldersMatch(sys, "after a detailed run");
        std::uint64_t evictions = 0;
        for (int i = 0; i < cfg.numNodes; ++i)
            evictions += sys.cache(static_cast<NodeId>(i)).stats().evictions;
        EXPECT_GT(evictions, 0u) << protocolName(proto);
        restored.run();
        EXPECT_TRUE(sys.results().metrics == restored.results().metrics)
            << protocolName(proto);

        SystemConfig reseeded = cfg;
        reseeded.seed = cfg.seed + 1;
        ASSERT_TRUE(sys.reset(reseeded));
        expectHoldersMatch(sys, "after reset");
        sys.run();
        expectHoldersMatch(sys, "after a run on a reset System");
    }
}

TEST(TokenHolders, OnlyTokenProtocolsKeepASet)
{
    for (ProtocolKind proto : snapshotFamilies) {
        System sys(baseCfg(proto));
        EXPECT_EQ(sys.tokenHolders() != nullptr, isTokenProtocol(proto))
            << protocolName(proto);
        EXPECT_TRUE(sys.checkTokenHolders());
    }
}

TEST(TokenHolders, KilonodeMasksSpanManyWords)
{
    // 1024 caches: 16 mask words per block, and 1024-way broadcasts
    // whose ignored copies the network skips.
    SystemConfig cfg;
    cfg.numNodes = 1024;
    cfg.topology = "torus";
    cfg.protocol = ProtocolKind::tokenB;
    cfg.workload = "ycsb";
    cfg.l2 = CacheParams{64 * 1024, 4, 64, nsToTicks(6)};
    cfg.seq.l1 = CacheParams{16 * 1024, 2, 64, nsToTicks(1)};
    cfg.opsPerProcessor = 1;
    cfg.seed = 99;
    System sys(cfg);
    EXPECT_EQ(sys.tokenHolders()->words(), 16u);
    sys.fastForward(100);
    expectHoldersMatch(sys, "after fast-forward");
    sys.run();
    expectHoldersMatch(sys, "after a detailed run");
    EXPECT_EQ(sys.results().ops(), std::uint64_t{1024});
}

// ---------------------------------------------------------------------
// Kilonode scale.
// ---------------------------------------------------------------------

TEST(Sampling, KilonodeSampledSmoke)
{
    // 1024 nodes end to end: small caches keep the footprint sane;
    // the directory protocol avoids kilonode broadcast storms. This
    // is the tier that flushed out <=64-node capacity assumptions
    // (DestSetPredictor's single-word mask).
    SystemConfig cfg;
    cfg.numNodes = 1024;
    cfg.topology = "torus";
    cfg.protocol = ProtocolKind::directory;
    cfg.workload = "ycsb";
    cfg.l2 = CacheParams{64 * 1024, 4, 64, nsToTicks(6)};
    cfg.seq.l1 = CacheParams{16 * 1024, 2, 64, nsToTicks(1)};
    cfg.sampling = SamplingSpec{200, 50, 2};
    cfg.opsPerProcessor = 0;
    cfg.seed = 97;
    System sys(cfg);
    sys.run();
    const System::Results r = sys.results();
    EXPECT_EQ(r.ops(), std::uint64_t{2 * 50 * 1024});
    EXPECT_GT(r.missLatency().count(), 0u);
}

TEST(MultiTenant, KilonodeTenantsKeepDisjointFootprints)
{
    SystemConfig cfg;
    cfg.numNodes = 1024;
    cfg.topology = "torus";
    cfg.protocol = ProtocolKind::directory;
    cfg.tenants = {TenantSpec{WorkloadSpec("ycsb"), 512},
                   TenantSpec{WorkloadSpec("tpcc"), 512}};
    cfg.l2 = CacheParams{64 * 1024, 4, 64, nsToTicks(6)};
    cfg.seq.l1 = CacheParams{16 * 1024, 2, 64, nsToTicks(1)};
    cfg.opsPerProcessor = 60;
    cfg.seed = 98;
    System sys(cfg);
    sys.run();
    const System::Results r = sys.results();
    EXPECT_EQ(r.metrics.counterValue("tenant0_ops"),
              std::uint64_t{512 * 60});
    EXPECT_EQ(r.metrics.counterValue("tenant1_ops"),
              std::uint64_t{512 * 60});
}

} // namespace
} // namespace tokensim
