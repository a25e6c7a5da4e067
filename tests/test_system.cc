/**
 * @file
 * Full-system integration tests: every protocol x topology x workload
 * combination runs to completion with sane aggregate results, runs are
 * bit-deterministic per seed, and the qualitative relationships the
 * paper reports (latency orderings, traffic orderings) hold on small
 * configurations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>

#include "harness/experiment.hh"
#include "harness/system.hh"
#include "proto/directory/directory.hh"
#include "proto/hammer/hammer.hh"
#include "proto/snooping/snooping.hh"

namespace tokensim {
namespace {

SystemConfig
baseConfig(ProtocolKind proto, const std::string &topo,
           const std::string &workload)
{
    SystemConfig cfg;
    cfg.numNodes = 8;
    cfg.topology = topo;
    cfg.protocol = proto;
    cfg.workload = workload;
    cfg.opsPerProcessor = 1500;
    cfg.attachAuditor = isTokenProtocol(proto);
    cfg.seed = 12345;
    return cfg;
}

using Combo = std::tuple<ProtocolKind, const char *, const char *>;

class SystemCombo : public ::testing::TestWithParam<Combo>
{
};

TEST_P(SystemCombo, RunsToCompletionWithSaneResults)
{
    const auto [proto, topo, workload] = GetParam();
    SystemConfig cfg = baseConfig(proto, topo, workload);
    System sys(cfg);
    sys.run();
    const System::Results r = sys.results();

    EXPECT_EQ(r.ops(), cfg.opsPerProcessor *
                           static_cast<std::uint64_t>(cfg.numNodes));
    EXPECT_GT(r.transactions(), 0u);
    EXPECT_GT(r.runtimeTicks(), 0u);
    EXPECT_GT(r.misses(), 0u);
    EXPECT_GT(r.totalLinkBytes(), 0u);
    EXPECT_GT(r.cyclesPerTransaction(), 0.0);
    // Reissue buckets partition misses.
    EXPECT_EQ(r.misses(),
              r.missesNotReissued() + r.missesReissuedOnce() +
                  r.missesReissuedMore() + r.missesPersistent());
    // The miss-latency stat and histogram see every completed miss.
    EXPECT_EQ(r.missLatency().count(), r.misses());
    const LogHistogram *hist =
        r.metrics.histogram("miss_latency_hist");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->total(), r.misses());
    if (!isTokenProtocol(proto)) {
        EXPECT_EQ(r.missesReissuedOnce(), 0u);
        EXPECT_EQ(r.missesPersistent(), 0u);
    }
    if (sys.auditor()) {
        std::string err;
        EXPECT_TRUE(sys.auditor()->auditAll(&err)) << err;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, SystemCombo,
    ::testing::Values(
        Combo{ProtocolKind::snooping, "tree", "oltp"},
        Combo{ProtocolKind::directory, "torus", "oltp"},
        Combo{ProtocolKind::hammer, "torus", "oltp"},
        Combo{ProtocolKind::tokenB, "torus", "oltp"},
        Combo{ProtocolKind::tokenB, "tree", "apache"},
        Combo{ProtocolKind::tokenB, "torus", "specjbb"},
        Combo{ProtocolKind::tokenD, "torus", "oltp"},
        Combo{ProtocolKind::tokenM, "torus", "apache"},
        Combo{ProtocolKind::directory, "tree", "specjbb"},
        Combo{ProtocolKind::hammer, "tree", "apache"},
        Combo{ProtocolKind::tokenB, "torus", "uniform"},
        Combo{ProtocolKind::directory, "torus", "uniform"},
        Combo{ProtocolKind::tokenB, "torus", "private"},
        Combo{ProtocolKind::tokenB, "torus", "producer-consumer"},
        Combo{ProtocolKind::directory, "torus", "producer-consumer"},
        Combo{ProtocolKind::tokenB, "torus", "lock-ping"},
        Combo{ProtocolKind::hammer, "torus", "lock-ping"}),
    [](const ::testing::TestParamInfo<Combo> &info) {
        std::string name =
            std::string(protocolName(std::get<0>(info.param))) + "_" +
            std::get<1>(info.param) + "_" + std::get<2>(info.param);
        // gtest names allow [A-Za-z0-9_] only ("producer-consumer").
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

TEST(SystemDeterminism, SameSeedSameResult)
{
    for (ProtocolKind proto : {ProtocolKind::tokenB,
                               ProtocolKind::directory,
                               ProtocolKind::hammer}) {
        SystemConfig cfg = baseConfig(proto, "torus", "oltp");
        cfg.opsPerProcessor = 800;
        System a(cfg), b(cfg);
        a.run();
        b.run();
        EXPECT_EQ(a.results().runtimeTicks(),
                  b.results().runtimeTicks())
            << protocolName(proto);
        EXPECT_EQ(a.results().totalLinkBytes(),
                  b.results().totalLinkBytes());
        EXPECT_EQ(a.results().misses(), b.results().misses());
        EXPECT_TRUE(a.results().metrics == b.results().metrics)
            << protocolName(proto);
    }
}

TEST(SystemDeterminism, DifferentSeedDifferentInterleaving)
{
    SystemConfig cfg = baseConfig(ProtocolKind::tokenB, "torus",
                                  "oltp");
    cfg.opsPerProcessor = 800;
    System a(cfg);
    cfg.seed = 999;
    System b(cfg);
    a.run();
    b.run();
    EXPECT_NE(a.results().runtimeTicks(), b.results().runtimeTicks());
}

TEST(SystemShape, TokenBBeatsDirectoryOnCacheToCacheWorkload)
{
    // The headline claim on a sharing-heavy workload: avoiding the
    // home indirection makes TokenB faster than Directory.
    SystemConfig cfg = baseConfig(ProtocolKind::tokenB, "torus",
                                  "uniform");
    cfg.workload.uniformBlocks = 128;
    cfg.opsPerProcessor = 2000;
    System token(cfg);
    token.run();
    cfg.protocol = ProtocolKind::directory;
    cfg.attachAuditor = false;
    System dir(cfg);
    dir.run();
    EXPECT_LT(token.results().runtimeTicks(),
              dir.results().runtimeTicks());
}

TEST(SystemShape, DirectoryUsesLessTrafficThanTokenB)
{
    SystemConfig cfg = baseConfig(ProtocolKind::tokenB, "torus",
                                  "oltp");
    cfg.opsPerProcessor = 1500;
    System token(cfg);
    token.run();
    cfg.protocol = ProtocolKind::directory;
    cfg.attachAuditor = false;
    System dir(cfg);
    dir.run();
    const double token_bpm = token.results().bytesPerMiss();
    const double dir_bpm = dir.results().bytesPerMiss();
    EXPECT_LT(dir_bpm, token_bpm);
}

TEST(SystemShape, HammerUsesMostTraffic)
{
    SystemConfig cfg = baseConfig(ProtocolKind::hammer, "torus",
                                  "oltp");
    cfg.opsPerProcessor = 1500;
    System hammer(cfg);
    hammer.run();
    cfg.protocol = ProtocolKind::tokenB;
    cfg.attachAuditor = true;
    System token(cfg);
    token.run();
    EXPECT_GT(hammer.results().bytesPerMiss(),
              token.results().bytesPerMiss());
}

TEST(SystemShape, ReissuesAreRareOnCommercialWorkloads)
{
    // Table 2's premise: races are rare, so ~97% of misses complete
    // on the first transient request.
    SystemConfig cfg = baseConfig(ProtocolKind::tokenB, "torus",
                                  "oltp");
    cfg.opsPerProcessor = 3000;
    System sys(cfg);
    sys.run();
    const System::Results r = sys.results();
    const double not_reissued =
        static_cast<double>(r.missesNotReissued()) /
        static_cast<double>(r.misses());
    EXPECT_GT(not_reissued, 0.90);
}

TEST(Experiment, MultiSeedAveragingFillsAllFields)
{
    SystemConfig cfg = baseConfig(ProtocolKind::tokenB, "torus",
                                  "specjbb");
    cfg.opsPerProcessor = 600;
    const ExperimentResult r = runExperiment(cfg, 2, "tb");
    EXPECT_EQ(r.label, "tb");
    EXPECT_GT(r.cyclesPerTransaction, 0.0);
    EXPECT_GT(r.bytesPerMiss, 0.0);
    EXPECT_GT(r.misses, 0u);
    EXPECT_NEAR(r.pctNotReissued + r.pctReissuedOnce +
                    r.pctReissuedMore + r.pctPersistent,
                100.0, 1e-6);
}

TEST(SystemConfigErrors, RejectsBadWorkloadName)
{
    SystemConfig cfg = baseConfig(ProtocolKind::tokenB, "torus",
                                  "doom3");
    EXPECT_THROW(System{cfg}, std::invalid_argument);
}

TEST(SystemConfigErrors, RejectsInvalidLinkBandwidth)
{
    // A limited link needs a positive rate: anything else would turn
    // the serialization delay into an out-of-range double-to-Tick cast.
    for (double bw : {0.0, -3.2, std::nan(""), 1e-300}) {
        SystemConfig cfg = baseConfig(ProtocolKind::tokenB, "torus",
                                      "oltp");
        cfg.net.bytesPerNs = bw;
        try {
            System sys(cfg);
            ADD_FAILURE() << "bytesPerNs " << bw << " accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("bytesPerNs"),
                      std::string::npos)
                << e.what();
        }
    }
    // reset() validates the same field; unlimited bandwidth never
    // reads it.
    SystemConfig cfg = baseConfig(ProtocolKind::tokenB, "torus", "oltp");
    System sys(cfg);
    cfg.net.bytesPerNs = 0;
    EXPECT_THROW(sys.reset(cfg), std::invalid_argument);
    cfg.net.unlimitedBandwidth = true;
    EXPECT_NO_THROW(System{cfg});
}

/** The most requests queued at once at any home of @p sys. */
std::size_t
maxWaitPoolHighWater(System &sys)
{
    std::size_t most = 0;
    for (int n = 0; n < sys.numNodes(); ++n) {
        auto *m = dynamic_cast<MosiHome *>(
            &sys.memory(static_cast<NodeId>(n)));
        if (!m) {
            ADD_FAILURE() << "not a queueing home controller";
            continue;
        }
        most = std::max(most, m->waitPoolHighWater());
    }
    return most;
}

TEST(HomeWaitPool, StorageFollowsWaitingRequestsNotRunLength)
{
    // Every node hammers one block, so its home queues requests the
    // whole run. Wait storage must stop at the most requests waiting
    // at once (at most every outstanding request in the machine), not
    // grow with the number that passed through.
    for (ProtocolKind proto : {ProtocolKind::directory,
                               ProtocolKind::hammer,
                               ProtocolKind::snooping}) {
        SCOPED_TRACE(protocolName(proto));
        const char *topo =
            proto == ProtocolKind::snooping ? "tree" : "torus";
        SystemConfig cfg = baseConfig(proto, topo, "hot");
        cfg.numNodes = 16;
        cfg.opsPerProcessor = 400;
        System sys(cfg);
        sys.run();
        cfg.opsPerProcessor = 1600;
        System longer(cfg);
        longer.run();
        const std::size_t high = maxWaitPoolHighWater(sys);
        EXPECT_EQ(maxWaitPoolHighWater(longer), high);
        EXPECT_LE(high, static_cast<std::size_t>(
                            cfg.numNodes * cfg.seq.maxOutstanding));

        // Reset empties the pools: a run without contention on the
        // reset System has never queued anything.
        cfg.workload = "private";
        ASSERT_TRUE(sys.reset(cfg));
        sys.run();
        EXPECT_EQ(maxWaitPoolHighWater(sys), 0u);
    }
}

TEST(BaselineEviction, OwnedLinesSurviveSmallL2Contention)
{
    // A 1 KB, 2-way L2 under a 64-block uniform mix keeps evicting Owned
    // lines. Two races used to abort these runs (Debug asserts, Release
    // crashes): an Owned line evicted while its own upgrade GetM was in
    // flight (Directory: a dataless grant found no line), and a
    // writeback buffer that kept answering requests after a GetM took
    // its ownership (Snooping and Hammer: two data responses for one
    // miss). Each run must complete and leave every block with one
    // owner at most, agreeing with its home.
    for (ProtocolKind proto : {ProtocolKind::directory,
                               ProtocolKind::snooping,
                               ProtocolKind::hammer}) {
        for (const char *topo : {"torus", "tree"}) {
            if (proto == ProtocolKind::snooping &&
                std::string(topo) == "torus")
                continue;
            SCOPED_TRACE(std::string(protocolName(proto)) + "/" + topo);
            SystemConfig cfg = baseConfig(proto, topo, "uniform");
            cfg.numNodes = 16;
            cfg.workload.uniformBlocks = 64;
            cfg.l2 = CacheParams{1024, 2, 64, nsToTicks(6)};
            cfg.opsPerProcessor = 1600;
            cfg.seed = 12345;
            System sys(cfg);
            sys.run();
            EXPECT_EQ(sys.results().ops(), 16u * 1600u);

            for (Addr blk = 0; blk < 64; ++blk) {
                const Addr a = blk * 64;
                std::vector<NodeId> owners;
                int copies = 0;
                for (NodeId n = 0; n < 16; ++n) {
                    const MosiState st =
                        dynamic_cast<MosiCache &>(sys.cache(n)).state(a);
                    copies += st != MosiState::I;
                    if (st == MosiState::M || st == MosiState::O)
                        owners.push_back(n);
                    if (st == MosiState::M) {
                        EXPECT_EQ(copies, 1)
                            << "M beside a copy, block " << blk;
                    }
                }
                ASSERT_LE(owners.size(), 1u) << "block " << blk;
                const NodeId owner =
                    owners.empty() ? invalidNode : owners[0];
                MemoryController &home = sys.memory(sys.ctx().home(a));
                if (auto *d = dynamic_cast<DirMemory *>(&home)) {
                    EXPECT_EQ(d->view(a).owner, owner) << "block " << blk;
                }
                if (auto *s = dynamic_cast<SnoopMemory *>(&home)) {
                    EXPECT_EQ(s->memoryOwns(a), owners.empty())
                        << "block " << blk;
                }
            }
        }
    }
}

TEST(SystemStall, DrainedQueueWithOpsOutstandingIsATypedDeadlock)
{
    // A known TokenNull deadlock under eviction pressure: the event
    // queue drains at ~73 us with operations still outstanding, so no
    // future event can complete them. The run must report a
    // DeadlockError naming the stuck nodes and blocks, not the maxTicks
    // message. Once the persistent-request bug is fixed this becomes a
    // must-complete regression case (ROADMAP item 9(c)).
    SystemConfig cfg = baseConfig(ProtocolKind::tokenNull, "torus",
                                  "uniform");
    cfg.workload.uniformBlocks = 48;
    cfg.l2 = CacheParams{512, 2, 64, nsToTicks(6)};
    cfg.seq.maxOutstanding = 4;
    cfg.seed = 870;
    cfg.opsPerProcessor = 300;
    System sys(cfg);
    try {
        sys.run();
        FAIL() << "the known TokenNull deadlock ran to completion";
    } catch (const DeadlockError &e) {
        const std::string msg = e.what();
        EXPECT_TRUE(sys.eq().empty());
        EXPECT_NE(msg.find("deadlock at tick"), std::string::npos) << msg;
        EXPECT_NE(msg.find("; node "), std::string::npos) << msg;
        EXPECT_NE(msg.find(" outstanding on 0x"), std::string::npos)
            << msg;
    }
}

TEST(SystemStall, LiveQueuePastMaxTicksKeepsTheMaxTicksError)
{
    SystemConfig cfg = baseConfig(ProtocolKind::tokenB, "torus", "oltp");
    cfg.maxTicks = nsToTicks(100);
    System sys(cfg);
    try {
        sys.run();
        FAIL() << "a 100 ns budget finished a 1500-op run";
    } catch (const DeadlockError &e) {
        FAIL() << "a live queue reported a deadlock: " << e.what();
    } catch (const std::runtime_error &e) {
        EXPECT_FALSE(sys.eq().empty());
        EXPECT_NE(std::string(e.what()).find("exceeded maxTicks"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace tokensim
