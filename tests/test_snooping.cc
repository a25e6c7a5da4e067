/**
 * @file
 * Protocol tests for traditional MOSI snooping on the totally-ordered
 * tree: state transitions, the memory owner-bit mechanism, migratory
 * optimization, ordered races, writeback races, and the configuration
 * error for unordered interconnects (Figure 4a's "not applicable").
 */

#include <gtest/gtest.h>

#include "proto/snooping/snooping.hh"
#include "proto_test_util.hh"

namespace tokensim {
namespace {

using testutil::ProtoDriver;
using testutil::smallConfig;

SnoopCache &
scache(ProtoDriver &d, NodeId n)
{
    return dynamic_cast<SnoopCache &>(d.sys->cache(n));
}

SnoopMemory &
smem(ProtoDriver &d, NodeId n)
{
    return dynamic_cast<SnoopMemory &>(d.sys->memory(n));
}

SystemConfig
snoopConfig(int nodes = 4)
{
    return smallConfig(ProtocolKind::snooping, "tree", nodes);
}

constexpr Addr kBlock = 0x400;   // home 0 on 4 nodes

TEST(Snooping, RejectsUnorderedInterconnect)
{
    SystemConfig cfg = smallConfig(ProtocolKind::snooping, "torus");
    EXPECT_THROW(System{cfg}, std::invalid_argument);
}

TEST(Snooping, ColdLoadFromMemory)
{
    ProtoDriver d(snoopConfig());
    const ProcResponse r = d.load(1, kBlock);
    EXPECT_TRUE(r.wasMiss);
    EXPECT_FALSE(r.cacheToCache);
    EXPECT_EQ(r.value, kBlock);
    EXPECT_EQ(scache(d, 1).state(kBlock), MosiState::S);
    EXPECT_TRUE(smem(d, 0).memoryOwns(kBlock));
}

TEST(Snooping, StoreMakesModifiedAndClearsMemoryOwner)
{
    ProtoDriver d(snoopConfig());
    d.store(2, kBlock, 0x2222);
    EXPECT_EQ(scache(d, 2).state(kBlock), MosiState::M);
    EXPECT_FALSE(smem(d, 0).memoryOwns(kBlock));
}

TEST(Snooping, LoadHitAndStoreHit)
{
    ProtoDriver d(snoopConfig());
    d.store(1, kBlock, 0x1);
    EXPECT_FALSE(d.load(1, kBlock).wasMiss);
    EXPECT_FALSE(d.store(1, kBlock, 0x2).wasMiss);
    EXPECT_EQ(d.load(1, kBlock).value, 0x2u);
}

TEST(Snooping, MigratoryPredictorMakesLoadsExclusive)
{
    // Snooping's migratory optimization is requester-side (see
    // snooping.hh): a node that once missed on a store to a block
    // fetches it exclusively on later loads, turning each migratory
    // section into a single miss.
    ProtoDriver d(snoopConfig());
    d.store(0, kBlock, 0xaaaa);
    // Node 3's first section: load shared (predictor untrained),
    // then an upgrade miss for the store — and the store miss trains
    // node 3's predictor.
    const ProcResponse r = d.load(3, kBlock);
    EXPECT_TRUE(r.cacheToCache);
    EXPECT_EQ(r.value, 0xaaaau);
    EXPECT_EQ(scache(d, 3).state(kBlock), MosiState::S);
    EXPECT_TRUE(d.store(3, kBlock, 0xbbbb).wasMiss);

    // Node 0 runs another section: its store miss on this block
    // already trained its predictor, so the load comes back M and
    // the store hits — one miss for the whole section.
    const ProcResponse r0 = d.load(0, kBlock);
    EXPECT_EQ(r0.value, 0xbbbbu);
    EXPECT_EQ(scache(d, 0).state(kBlock), MosiState::M);
    EXPECT_FALSE(d.store(0, kBlock, 0xcccc).wasMiss);
    EXPECT_EQ(scache(d, 3).state(kBlock), MosiState::I);
}

TEST(Snooping, OwnerSuppliesSharedDataWithoutMigratory)
{
    SystemConfig cfg = snoopConfig();
    cfg.proto.migratoryOpt = false;
    ProtoDriver d(cfg);
    d.store(0, kBlock, 0xaaaa);
    const ProcResponse r = d.load(3, kBlock);
    EXPECT_TRUE(r.cacheToCache);
    EXPECT_EQ(scache(d, 0).state(kBlock), MosiState::O);
    EXPECT_EQ(scache(d, 3).state(kBlock), MosiState::S);
    // A second reader is served by the O-state owner, not memory.
    const ProcResponse r2 = d.load(1, kBlock);
    EXPECT_TRUE(r2.cacheToCache);
    EXPECT_EQ(r2.value, 0xaaaau);
    EXPECT_FALSE(smem(d, 0).memoryOwns(kBlock));
}

TEST(Snooping, GetMInvalidatesSharers)
{
    SystemConfig cfg = snoopConfig();
    cfg.proto.migratoryOpt = false;
    ProtoDriver d(cfg);
    for (NodeId n = 0; n < 4; ++n)
        d.load(n, kBlock);
    d.store(2, kBlock, 0x5555);
    for (NodeId n = 0; n < 4; ++n) {
        if (n != 2) {
            EXPECT_EQ(scache(d, n).state(kBlock), MosiState::I);
        }
    }
    EXPECT_EQ(d.load(1, kBlock).value, 0x5555u);
}

TEST(Snooping, RacingStoresSerializeThroughRoot)
{
    ProtoDriver d(snoopConfig());
    for (NodeId n = 0; n < 4; ++n)
        d.issue(n, MemOp::store, kBlock, 0x100 + n);
    for (NodeId n = 0; n < 4; ++n)
        ASSERT_TRUE(d.runUntilCompletions(n, 1)) << "node " << n;
    d.drain();
    int modified = 0;
    for (NodeId n = 0; n < 4; ++n)
        modified += scache(d, n).state(kBlock) == MosiState::M;
    EXPECT_EQ(modified, 1);
    const ProcResponse r = d.load(0, kBlock);
    EXPECT_GE(r.value, 0x100u);
    EXPECT_LE(r.value, 0x103u);
}

TEST(Snooping, RacingLoadAndStoreResolveByOrder)
{
    // The Section-2 example race, resolved by the total order.
    ProtoDriver d(snoopConfig());
    d.issue(0, MemOp::store, kBlock, 0xd00d);
    d.issue(1, MemOp::load, kBlock);
    ASSERT_TRUE(d.runUntilCompletions(0, 1));
    ASSERT_TRUE(d.runUntilCompletions(1, 1));
    const ProcResponse &r = d.completions[1][0];
    EXPECT_TRUE(r.value == kBlock || r.value == 0xd00d);
    d.drain();
}

TEST(Snooping, EvictionWritesBackThroughOrderedPutM)
{
    SystemConfig cfg = snoopConfig();
    cfg.l2 = CacheParams{512, 2, 64, nsToTicks(6)};
    ProtoDriver d(cfg);
    d.store(1, 0x000, 0x111);
    d.store(1, 0x100, 0x222);
    d.store(1, 0x200, 0x333);   // evicts 0x000 (M) -> PutM + data
    d.drain();
    EXPECT_EQ(scache(d, 1).state(0x000), MosiState::I);
    EXPECT_TRUE(scache(d, 1).quiescent());
    EXPECT_TRUE(smem(d, 0).memoryOwns(0x000));
    EXPECT_EQ(smem(d, 0).peekData(0x000), 0x111u);
    EXPECT_EQ(d.load(2, 0x000).value, 0x111u);
}

TEST(Snooping, RequestDuringWritebackIsServedByMemoryAfterData)
{
    // A load races an eviction: the PutM is ordered first, memory
    // queues the request until the writeback data arrives.
    SystemConfig cfg = snoopConfig();
    cfg.l2 = CacheParams{512, 2, 64, nsToTicks(6)};
    ProtoDriver d(cfg);
    d.store(1, 0x000, 0x111);
    d.store(1, 0x100, 0x222);
    // Evict 0x000 and immediately request it from another node.
    d.issue(1, MemOp::store, 0x200, 0x333);
    d.issue(3, MemOp::load, 0x000);
    ASSERT_TRUE(d.runUntilCompletions(3, 1));
    EXPECT_EQ(d.completions[3][0].value, 0x111u);
    d.drain();
    EXPECT_TRUE(scache(d, 1).quiescent());
}

TEST(Snooping, SharedEvictionIsSilent)
{
    SystemConfig cfg = snoopConfig();
    cfg.l2 = CacheParams{512, 2, 64, nsToTicks(6)};
    cfg.proto.migratoryOpt = false;
    ProtoDriver d(cfg);
    d.store(0, 0x000, 0x9);    // node 0 owns
    d.load(1, 0x000);          // node 1 shared
    const auto before = d.sys->net().traffic().messagesOf(
        MsgClass::request);
    d.load(1, 0x100);
    d.load(1, 0x200);          // evicts 0x000 from node 1 (S): silent
    d.drain();
    EXPECT_EQ(scache(d, 1).state(0x000), MosiState::I);
    // Only the two loads' ordered requests were added; no PutM.
    EXPECT_EQ(d.sys->net().traffic().messagesOf(MsgClass::request),
              before + 2);
}

TEST(Snooping, OwnershipChainWithValues)
{
    ProtoDriver d(snoopConfig());
    std::uint64_t expect = kBlock;
    for (int round = 0; round < 3; ++round) {
        for (NodeId n = 0; n < 4; ++n) {
            EXPECT_EQ(d.load(n, kBlock).value, expect);
            expect = 0x1000u * (round + 1) + n;
            d.store(n, kBlock, expect);
        }
    }
    d.drain();
}

TEST(Snooping, AllBroadcastsUseTheOrderedPath)
{
    ProtoDriver d(snoopConfig());
    d.load(1, kBlock);
    d.store(2, kBlock, 1);
    d.drain();
    // Both requests crossed the root: each ordered broadcast counts
    // up-links (2) and the full down-tree (2 root->out + 4 out->proc
    // for 4 nodes with fanout 4: 1 group => 1 + 4... computed from
    // topology instead:
    const auto &topo = d.sys->net().topology();
    const std::size_t expected_links =
        topo.routeToRoot(1).size() + topo.downTree().size() +
        topo.routeToRoot(2).size() + topo.downTree().size();
    EXPECT_EQ(d.sys->net().traffic().byteLinksOf(MsgClass::request),
              8u * expected_links);
}

} // namespace
} // namespace tokensim
