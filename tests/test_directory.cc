/**
 * @file
 * Protocol tests for the full-map MOSI directory: home serialization,
 * forwarded requests, invalidation acks, the owner-upgrade grant path,
 * writeback/forward races, queueing without NACKs, and the
 * perfect-directory latency ablation of Figure 5a.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "proto/directory/directory.hh"
#include "proto_test_util.hh"

namespace tokensim {
namespace {

using testutil::ProtoDriver;
using testutil::smallConfig;

DirCache &
dcache(ProtoDriver &d, NodeId n)
{
    return dynamic_cast<DirCache &>(d.sys->cache(n));
}

DirMemory &
dmem(ProtoDriver &d, NodeId n)
{
    return dynamic_cast<DirMemory &>(d.sys->memory(n));
}

SystemConfig
dirConfig(int nodes = 4)
{
    return smallConfig(ProtocolKind::directory, "torus", nodes);
}

constexpr Addr kBlock = 0x400;   // home 0 on 4 nodes

/** A node's delivery endpoint that also logs, in delivery order, the
 *  messages of one type it receives. */
class LoggingEndpoint : public NetworkEndpoint
{
  public:
    LoggingEndpoint(System &sys, NodeId id, MsgType type,
                    std::vector<Message> &log)
        : node_(sys.ctx(), id, &sys.cache(id), &sys.memory(id)),
          type_(type), log_(log)
    {}

    void
    deliver(const Message &msg) override
    {
        if (msg.type == type_)
            log_.push_back(msg);
        node_.deliver(msg);
    }

  private:
    Node node_;
    MsgType type_;
    std::vector<Message> &log_;
};

/** Wrap every node of @p sys in a LoggingEndpoint for @p type. */
std::vector<std::unique_ptr<LoggingEndpoint>>
logDeliveries(System &sys, MsgType type, std::vector<Message> &log)
{
    std::vector<std::unique_ptr<LoggingEndpoint>> eps;
    for (int i = 0; i < sys.numNodes(); ++i) {
        const auto id = static_cast<NodeId>(i);
        eps.push_back(
            std::make_unique<LoggingEndpoint>(sys, id, type, log));
        sys.net().attach(id, eps.back().get());
    }
    return eps;
}

std::uint64_t
messagesOfType(ProtoDriver &d, MsgType type)
{
    return d.sys->net().traffic()
        .messagesByType[static_cast<std::size_t>(type)];
}

TEST(Directory, ColdLoadRecordsSharer)
{
    ProtoDriver d(dirConfig());
    const ProcResponse r = d.load(1, kBlock);
    EXPECT_TRUE(r.wasMiss);
    EXPECT_FALSE(r.cacheToCache);
    EXPECT_EQ(r.value, kBlock);
    EXPECT_EQ(dcache(d, 1).state(kBlock), MosiState::S);
    d.drain();   // let the unblock land before inspecting the home
    const auto v = dmem(d, 0).view(kBlock);
    EXPECT_FALSE(v.busy);
    EXPECT_EQ(v.owner, invalidNode);
    ASSERT_EQ(v.sharers.size(), 1u);
    EXPECT_EQ(v.sharers[0], 1u);
}

TEST(Directory, StoreRecordsOwner)
{
    ProtoDriver d(dirConfig());
    d.store(2, kBlock, 0x22);
    d.drain();
    const auto v = dmem(d, 0).view(kBlock);
    EXPECT_EQ(v.owner, 2u);
    EXPECT_TRUE(v.sharers.empty());
    EXPECT_EQ(dcache(d, 2).state(kBlock), MosiState::M);
}

TEST(Directory, StoreToSharedSendsInvalidations)
{
    ProtoDriver d(dirConfig());
    for (NodeId n = 1; n < 4; ++n)
        d.load(n, kBlock);
    const ProcResponse r = d.store(3, kBlock, 0x99);
    EXPECT_TRUE(r.wasMiss);
    for (NodeId n = 1; n < 3; ++n)
        EXPECT_EQ(dcache(d, n).state(kBlock), MosiState::I);
    EXPECT_EQ(dcache(d, 3).state(kBlock), MosiState::M);
    // Two sharers were invalidated; their acks went to node 3.
    EXPECT_EQ(d.sys->net().traffic()
                  .messagesByType[static_cast<std::size_t>(
                      MsgType::inv)], 2u);
    EXPECT_EQ(d.sys->net().traffic()
                  .messagesByType[static_cast<std::size_t>(
                      MsgType::invAck)], 2u);
}

TEST(Directory, CacheToCacheForwardOnRead)
{
    SystemConfig cfg = dirConfig();
    cfg.proto.migratoryOpt = false;
    ProtoDriver d(cfg);
    d.store(1, kBlock, 0xabc);
    const ProcResponse r = d.load(2, kBlock);
    EXPECT_TRUE(r.cacheToCache);   // three-hop transfer via owner
    EXPECT_EQ(r.value, 0xabcu);
    EXPECT_EQ(dcache(d, 1).state(kBlock), MosiState::O);
    EXPECT_EQ(dcache(d, 2).state(kBlock), MosiState::S);
    d.drain();
    const auto v = dmem(d, 0).view(kBlock);
    EXPECT_EQ(v.owner, 1u);
    EXPECT_EQ(v.sharers.size(), 1u);
}

TEST(Directory, MigratoryReadTransfersExclusive)
{
    ProtoDriver d(dirConfig());
    d.store(1, kBlock, 0xabc);
    const ProcResponse r = d.load(2, kBlock);
    EXPECT_TRUE(r.cacheToCache);
    EXPECT_EQ(dcache(d, 2).state(kBlock), MosiState::M);
    EXPECT_EQ(dcache(d, 1).state(kBlock), MosiState::I);
    d.drain();
    const auto v = dmem(d, 0).view(kBlock);
    EXPECT_EQ(v.owner, 2u);   // unblockExclusive retargeted ownership
    EXPECT_FALSE(d.store(2, kBlock, 0xdef).wasMiss);
}

TEST(Directory, OwnerUpgradeUsesDatalessGrant)
{
    SystemConfig cfg = dirConfig();
    cfg.proto.migratoryOpt = false;
    ProtoDriver d(cfg);
    d.store(1, kBlock, 0x1);    // node 1: M
    d.load(2, kBlock);          // node 1 -> O, node 2: S
    ASSERT_EQ(dcache(d, 1).state(kBlock), MosiState::O);
    const auto data_before = d.sys->net().traffic().messagesOf(
        MsgClass::data);
    const ProcResponse r = d.store(1, kBlock, 0x2);   // O -> M upgrade
    EXPECT_TRUE(r.wasMiss);
    EXPECT_EQ(dcache(d, 1).state(kBlock), MosiState::M);
    EXPECT_EQ(dcache(d, 2).state(kBlock), MosiState::I);
    // The grant carried no data: no new data messages.
    EXPECT_EQ(d.sys->net().traffic().messagesOf(MsgClass::data),
              data_before);
    EXPECT_EQ(d.load(1, kBlock).value, 0x2u);
}

TEST(Directory, FwdGetMCollectsInvalidationsAtRequester)
{
    SystemConfig cfg = dirConfig();
    cfg.proto.migratoryOpt = false;
    ProtoDriver d(cfg);
    d.store(1, kBlock, 0x1);    // owner 1
    d.load(2, kBlock);          // owner 1 (O), sharer 2
    d.load(3, kBlock);          // sharers {2, 3}
    const ProcResponse r = d.store(0, kBlock, 0xff);
    EXPECT_TRUE(r.wasMiss);
    EXPECT_EQ(dcache(d, 0).state(kBlock), MosiState::M);
    for (NodeId n = 1; n < 4; ++n)
        EXPECT_EQ(dcache(d, n).state(kBlock), MosiState::I);
    d.drain();
    const auto v = dmem(d, 0).view(kBlock);
    EXPECT_EQ(v.owner, 0u);
    EXPECT_TRUE(v.sharers.empty());
}

TEST(Directory, RacingRequestsQueueWithoutNacks)
{
    ProtoDriver d(dirConfig());
    for (NodeId n = 0; n < 4; ++n)
        d.issue(n, MemOp::store, kBlock, 0x100 + n);
    for (NodeId n = 0; n < 4; ++n)
        ASSERT_TRUE(d.runUntilCompletions(n, 1)) << "node " << n;
    d.drain();
    EXPECT_TRUE(dmem(d, 0).quiescent());
    int modified = 0;
    for (NodeId n = 0; n < 4; ++n)
        modified += dcache(d, n).state(kBlock) == MosiState::M;
    EXPECT_EQ(modified, 1);
}

TEST(Directory, WritebackUpdatesMemoryAndDirectory)
{
    SystemConfig cfg = dirConfig();
    cfg.l2 = CacheParams{512, 2, 64, nsToTicks(6)};
    ProtoDriver d(cfg);
    d.store(1, 0x000, 0x111);
    d.store(1, 0x100, 0x222);
    d.store(1, 0x200, 0x333);   // evicts 0x000 -> PutM
    d.drain();
    EXPECT_TRUE(dcache(d, 1).quiescent());   // wbAck arrived
    const auto v = dmem(d, 0).view(0x000);
    EXPECT_EQ(v.owner, invalidNode);
    EXPECT_EQ(dmem(d, 0).peekData(0x000), 0x111u);
    EXPECT_EQ(d.load(2, 0x000).value, 0x111u);
}

TEST(Directory, ForwardDuringWritebackServedFromBuffer)
{
    // Evict a dirty line and immediately have another node request
    // it: the forward may reach the evictor before its PutM lands;
    // it must answer from the writeback buffer.
    SystemConfig cfg = dirConfig();
    cfg.l2 = CacheParams{512, 2, 64, nsToTicks(6)};
    ProtoDriver d(cfg);
    d.store(1, 0x000, 0x111);
    d.store(1, 0x100, 0x222);
    d.issue(1, MemOp::store, 0x200, 0x333);   // evicts 0x000
    d.issue(3, MemOp::load, 0x000);
    ASSERT_TRUE(d.runUntilCompletions(3, 1));
    EXPECT_EQ(d.completions[3][0].value, 0x111u);
    d.drain();
    EXPECT_TRUE(dcache(d, 1).quiescent());
    EXPECT_TRUE(dmem(d, 0).quiescent());
}

TEST(Directory, PerfectDirectoryLowersCacheToCacheLatency)
{
    // Figure 5a's striped bar: the DRAM directory lookup gates the
    // forward; a zero-latency directory removes it.
    auto run = [](bool perfect) {
        SystemConfig cfg = dirConfig();
        cfg.proto.perfectDirectory = perfect;
        ProtoDriver d(cfg);
        d.store(1, kBlock, 0x1);
        const ProcResponse r = d.load(2, kBlock);
        return r.completedAt - r.issuedAt;
    };
    const Tick dram_dir = run(false);
    const Tick perfect_dir = run(true);
    EXPECT_GT(dram_dir, perfect_dir);
    // The difference is roughly the 80 ns lookup.
    EXPECT_NEAR(static_cast<double>(dram_dir - perfect_dir),
                static_cast<double>(nsToTicks(80)),
                static_cast<double>(nsToTicks(10)));
}

TEST(Directory, ValuesChainAcrossOwners)
{
    ProtoDriver d(dirConfig());
    std::uint64_t expect = kBlock;
    for (int round = 0; round < 3; ++round) {
        for (NodeId n = 0; n < 4; ++n) {
            EXPECT_EQ(d.load(n, kBlock).value, expect);
            expect = 0x1000u * (round + 1) + n;
            d.store(n, kBlock, expect);
        }
    }
    d.drain();
    EXPECT_TRUE(dmem(d, 0).quiescent());
}

TEST(Directory, SilentSharerDropStillAcksInvalidation)
{
    SystemConfig cfg = dirConfig();
    cfg.l2 = CacheParams{512, 2, 64, nsToTicks(6)};
    cfg.proto.migratoryOpt = false;
    ProtoDriver d(cfg);
    d.load(1, 0x000);           // sharer 1 recorded
    d.load(1, 0x100);
    d.load(1, 0x200);           // silently evicts 0x000 from node 1
    EXPECT_EQ(dcache(d, 1).state(0x000), MosiState::I);
    // The directory still thinks node 1 shares 0x000; the store must
    // complete anyway (stale sharers ack without a line).
    const ProcResponse r = d.store(2, 0x000, 0x77);
    EXPECT_TRUE(r.wasMiss);
    EXPECT_EQ(dcache(d, 2).state(0x000), MosiState::M);
    d.drain();
}

TEST(Directory, WideSharerMasksInvalidateInAscendingOrder)
{
    // 130 nodes: sharer masks span three 64-bit words, and the sharers
    // sit on both sides of each word boundary. On the tree every
    // unicast crosses four links, so with unlimited bandwidth all the
    // invalidations land on one tick, in the order the home sent them.
    SystemConfig cfg = dirConfig(130);
    cfg.topology = "tree";
    cfg.net.unlimitedBandwidth = true;
    ProtoDriver d(cfg);
    const NodeId home = d.sys->ctx().home(kBlock);
    for (NodeId n : {129u, 63u, 128u, 64u, 127u})
        d.load(n, kBlock);
    d.drain();
    EXPECT_EQ(dmem(d, home).view(kBlock).sharers,
              (std::vector<NodeId>{63, 64, 127, 128, 129}));

    std::vector<Message> invs;
    const auto eps = logDeliveries(*d.sys, MsgType::inv, invs);
    const std::uint64_t acks_before = messagesOfType(d, MsgType::invAck);
    d.store(128, kBlock, 0x5);
    d.drain();

    // Every sharer but the requester, ascending, each acked once.
    std::vector<NodeId> dests;
    for (const Message &m : invs) {
        dests.push_back(m.dest);
        EXPECT_EQ(m.requester, 128u);
        EXPECT_EQ(m.sentAt, invs.front().sentAt);
    }
    EXPECT_EQ(dests, (std::vector<NodeId>{63, 64, 127, 129}));
    EXPECT_EQ(messagesOfType(d, MsgType::invAck) - acks_before, 4u);
    for (NodeId n : {63u, 64u, 127u, 129u})
        EXPECT_EQ(dcache(d, n).state(kBlock), MosiState::I);
    EXPECT_EQ(dcache(d, 128).state(kBlock), MosiState::M);
    const auto v = dmem(d, home).view(kBlock);
    EXPECT_EQ(v.owner, 128u);
    EXPECT_TRUE(v.sharers.empty());
}

TEST(Directory, ThreeDeepRaceDrainsInArrivalOrder)
{
    // Four stores to one block at once: the home serves the first and
    // queues three. Each must complete in the order its request
    // reached the home.
    ProtoDriver d(dirConfig());
    std::vector<Message> arrivals;
    const auto eps = logDeliveries(*d.sys, MsgType::getM, arrivals);
    for (NodeId n : {3u, 1u, 2u, 0u})
        d.issue(n, MemOp::store, kBlock, 0x100 + n);
    for (NodeId n = 0; n < 4; ++n)
        ASSERT_TRUE(d.runUntilCompletions(n, 1)) << "node " << n;
    d.drain();
    EXPECT_EQ(dmem(d, 0).waitPoolHighWater(), 3u);

    ASSERT_EQ(arrivals.size(), 4u);
    std::vector<NodeId> arrived, completed;
    for (const Message &m : arrivals)
        arrived.push_back(m.requester);
    for (NodeId n = 0; n < 4; ++n)
        completed.push_back(n);
    std::sort(completed.begin(), completed.end(),
              [&](NodeId a, NodeId b) {
                  return d.completions[a][0].completedAt <
                      d.completions[b][0].completedAt;
              });
    EXPECT_EQ(completed, arrived);
    // The last to arrive wrote last.
    EXPECT_EQ(d.load(arrived.front(), kBlock).value,
              0x100u + arrived.back());
}

} // namespace
} // namespace tokensim
