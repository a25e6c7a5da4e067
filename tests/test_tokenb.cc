/**
 * @file
 * Protocol tests for the Token Coherence correctness substrate and the
 * TokenB performance protocol: MOESI-equivalent transitions, the
 * migratory optimization, the Section-2 race, token conservation
 * through every scenario, evictions, and reissue bookkeeping.
 */

#include <gtest/gtest.h>

#include "core/tokenb.hh"
#include "proto_test_util.hh"

namespace tokensim {
namespace {

using testutil::ProtoDriver;
using testutil::smallConfig;

TokenBCache &
tcache(ProtoDriver &d, NodeId n)
{
    return dynamic_cast<TokenBCache &>(d.sys->cache(n));
}

TokenBMemory &
tmem(ProtoDriver &d, NodeId n)
{
    return dynamic_cast<TokenBMemory &>(d.sys->memory(n));
}

// Block 0x400 on a 4-node system: home = (0x400/64) % 4 = 0.
constexpr Addr kBlock = 0x400;

/** A node endpoint that counts what the network hands it. */
class CountingNode : public NetworkEndpoint
{
  public:
    CountingNode(System &sys, NodeId id)
        : node_(sys.ctx(), id, &sys.cache(id), &sys.memory(id))
    {}

    void
    deliver(const Message &msg) override
    {
        ++delivered;
        if (msg.type == MsgType::getS || msg.type == MsgType::getM)
            ++transients;
        node_.deliver(msg);
    }

    std::uint64_t delivered = 0;
    std::uint64_t transients = 0;

  private:
    Node node_;
};

/** Attach a CountingNode in place of every node of @p sys. */
std::vector<std::unique_ptr<CountingNode>>
countDeliveries(System &sys)
{
    std::vector<std::unique_ptr<CountingNode>> nodes;
    for (int i = 0; i < sys.numNodes(); ++i) {
        const auto id = static_cast<NodeId>(i);
        nodes.push_back(std::make_unique<CountingNode>(sys, id));
        sys.net().attach(id, nodes.back().get());
    }
    return nodes;
}

/** Transient requests each node was handed. */
std::vector<std::uint64_t>
transientsPerNode(const std::vector<std::unique_ptr<CountingNode>> &nodes)
{
    std::vector<std::uint64_t> out;
    for (const auto &n : nodes)
        out.push_back(n->transients);
    return out;
}

/** Copies the network counted but no endpoint was handed. */
std::uint64_t
skipped(System &sys, const std::vector<std::unique_ptr<CountingNode>> &nodes)
{
    std::uint64_t handed = 0;
    for (const auto &n : nodes)
        handed += n->delivered;
    return sys.net().traffic().deliveries - handed;
}

TEST(TokenB, ColdLoadGetsOneTokenFromMemory)
{
    ProtoDriver d(smallConfig(ProtocolKind::tokenB));
    const ProcResponse r = d.load(1, kBlock);
    EXPECT_TRUE(r.wasMiss);
    EXPECT_FALSE(r.cacheToCache);   // memory supplied the data
    EXPECT_EQ(r.value, kBlock);     // architectural initial pattern
    EXPECT_EQ(tcache(d, 1).moesiState(kBlock), TokenMoesi::shared);
    // Memory kept the owner token and the rest.
    const TokenCount mt = tmem(d, 0).tokenState(kBlock);
    EXPECT_EQ(mt.count, 3);
    EXPECT_TRUE(mt.owner);
    d.drain();
    d.expectConserved();
}

TEST(TokenB, ColdStoreCollectsAllTokens)
{
    ProtoDriver d(smallConfig(ProtocolKind::tokenB));
    const ProcResponse r = d.store(2, kBlock, 0x1111);
    EXPECT_TRUE(r.wasMiss);
    EXPECT_EQ(tcache(d, 2).moesiState(kBlock), TokenMoesi::modified);
    EXPECT_EQ(tmem(d, 0).tokenState(kBlock).count, 0);
    d.drain();
    d.expectConserved();
}

TEST(TokenB, LoadHitAfterFill)
{
    ProtoDriver d(smallConfig(ProtocolKind::tokenB));
    d.load(1, kBlock);
    const ProcResponse r = d.load(1, kBlock);
    EXPECT_FALSE(r.wasMiss);   // L2 hit: token + valid data present
    EXPECT_EQ(r.value, kBlock);
}

TEST(TokenB, StoreUpgradeFromShared)
{
    ProtoDriver d(smallConfig(ProtocolKind::tokenB));
    d.load(1, kBlock);
    EXPECT_EQ(tcache(d, 1).moesiState(kBlock), TokenMoesi::shared);
    const ProcResponse r = d.store(1, kBlock, 0xbeef);
    EXPECT_TRUE(r.wasMiss);    // needed the remaining tokens
    EXPECT_EQ(tcache(d, 1).moesiState(kBlock), TokenMoesi::modified);
    EXPECT_EQ(d.load(1, kBlock).value, 0xbeefu);
    d.drain();
    d.expectConserved();
}

TEST(TokenB, MigratoryOptimizationHandsOverAllTokens)
{
    ProtoDriver d(smallConfig(ProtocolKind::tokenB));
    d.store(0, kBlock, 0xaaaa);
    // A written exclusive owner answering a *read* hands over
    // read/write permission (Section 4.2).
    const ProcResponse r = d.load(3, kBlock);
    EXPECT_TRUE(r.cacheToCache);
    EXPECT_EQ(r.value, 0xaaaau);
    EXPECT_EQ(tcache(d, 3).moesiState(kBlock), TokenMoesi::modified);
    EXPECT_EQ(tcache(d, 0).moesiState(kBlock), TokenMoesi::invalid);
    // The follow-on store is now a hit: the migratory pattern pays.
    EXPECT_FALSE(d.store(3, kBlock, 0xbbbb).wasMiss);
    d.drain();
    d.expectConserved();
}

TEST(TokenB, MigratoryOptimizationDisabled)
{
    SystemConfig cfg = smallConfig(ProtocolKind::tokenB);
    cfg.proto.migratoryOpt = false;
    ProtoDriver d(cfg);
    d.store(0, kBlock, 0xaaaa);
    const ProcResponse r = d.load(3, kBlock);
    EXPECT_EQ(r.value, 0xaaaau);
    // Without the optimization the owner shares a single token.
    EXPECT_EQ(tcache(d, 3).moesiState(kBlock), TokenMoesi::shared);
    EXPECT_EQ(tcache(d, 0).moesiState(kBlock), TokenMoesi::owned);
    d.drain();
    d.expectConserved();
}

TEST(TokenB, CleanOwnerSharesWithoutMigratory)
{
    ProtoDriver d(smallConfig(ProtocolKind::tokenB));
    d.store(0, kBlock, 0xaaaa);
    d.load(3, kBlock);          // migratory: node 3 becomes M (clean)
    // Node 3 never wrote, so the next reader gets a plain token.
    const ProcResponse r = d.load(2, kBlock);
    EXPECT_EQ(r.value, 0xaaaau);
    EXPECT_EQ(tcache(d, 2).moesiState(kBlock), TokenMoesi::shared);
    EXPECT_EQ(tcache(d, 3).moesiState(kBlock), TokenMoesi::owned);
    d.drain();
    d.expectConserved();
}

TEST(TokenB, ManyReadersShareTokens)
{
    ProtoDriver d(smallConfig(ProtocolKind::tokenB, "torus", 4));
    for (NodeId n = 0; n < 4; ++n) {
        const ProcResponse r = d.load(n, kBlock);
        EXPECT_EQ(r.value, kBlock);
    }
    for (NodeId n = 0; n < 4; ++n)
        EXPECT_TRUE(d.sys->cache(n).hasPermission(kBlock, MemOp::load));
    d.drain();
    d.expectConserved();
}

TEST(TokenB, StoreInvalidatesAllReaders)
{
    ProtoDriver d(smallConfig(ProtocolKind::tokenB));
    for (NodeId n = 0; n < 4; ++n)
        d.load(n, kBlock);
    const ProcResponse r = d.store(2, kBlock, 0xcafe);
    EXPECT_TRUE(r.wasMiss);
    EXPECT_EQ(tcache(d, 2).moesiState(kBlock), TokenMoesi::modified);
    for (NodeId n = 0; n < 4; ++n) {
        if (n != 2) {
            EXPECT_EQ(tcache(d, n).moesiState(kBlock),
                      TokenMoesi::invalid);
            // The sequencer was told so its L1 stays inclusive.
            EXPECT_NE(std::find(d.removals[n].begin(),
                                d.removals[n].end(), kBlock),
                      d.removals[n].end());
        }
    }
    EXPECT_EQ(d.load(3, kBlock).value, 0xcafeu);
    d.drain();
    d.expectConserved();
}

TEST(TokenB, Figure2RaceBothRequestsEventuallySucceed)
{
    // Section 2 / Figure 2b: a ReqM (P0) races a ReqS (P1). With
    // tokens, the race may split tokens between them; reissues (and
    // ultimately persistent requests) resolve it.
    ProtoDriver d(smallConfig(ProtocolKind::tokenB, "torus", 4));
    d.issue(0, MemOp::store, kBlock, 0xd00d);
    d.issue(1, MemOp::load, kBlock);
    ASSERT_TRUE(d.runUntilCompletions(0, 1));
    ASSERT_TRUE(d.runUntilCompletions(1, 1));
    const ProcResponse &w = d.completions[0][0];
    const ProcResponse &r = d.completions[1][0];
    EXPECT_TRUE(w.wasMiss);
    // The read saw either the old or the new value, never garbage.
    EXPECT_TRUE(r.value == kBlock || r.value == 0xd00d)
        << std::hex << r.value;
    d.drain();
    d.expectConserved();
}

TEST(TokenB, RacingStoresFromAllNodesStayCoherent)
{
    ProtoDriver d(smallConfig(ProtocolKind::tokenB, "torus", 4));
    for (NodeId n = 0; n < 4; ++n)
        d.issue(n, MemOp::store, kBlock, 0x100 + n);
    for (NodeId n = 0; n < 4; ++n)
        ASSERT_TRUE(d.runUntilCompletions(n, 1)) << "node " << n;
    d.drain();
    d.expectConserved();
    // Exactly one node ended with all tokens (or memory did, had
    // everyone evicted - not possible here).
    int modified = 0;
    for (NodeId n = 0; n < 4; ++n)
        modified += tcache(d, n).moesiState(kBlock) ==
            TokenMoesi::modified;
    EXPECT_EQ(modified, 1);
    // The final read returns one of the written values.
    const ProcResponse r = d.load(0, kBlock);
    EXPECT_GE(r.value, 0x100u);
    EXPECT_LE(r.value, 0x103u);
}

TEST(TokenB, EvictionReturnsTokensToMemory)
{
    SystemConfig cfg = smallConfig(ProtocolKind::tokenB);
    cfg.l2 = CacheParams{512, 2, 64, nsToTicks(6)};   // 4 sets x 2 ways
    ProtoDriver d(cfg);
    // Three blocks in set 0 (stride 256); the third evicts the LRU.
    d.store(1, 0x000, 0x111);
    d.store(1, 0x100, 0x222);
    d.store(1, 0x200, 0x333);
    d.drain();
    d.expectConserved();
    EXPECT_EQ(tcache(d, 1).moesiState(0x000), TokenMoesi::invalid);
    // The dirty data went home with the owner token.
    EXPECT_EQ(tmem(d, 0).tokenState(0x000).count, 4);
    EXPECT_EQ(tmem(d, 0).peekData(0x000), 0x111u);
    // And a fresh read sees it.
    EXPECT_EQ(d.load(2, 0x000).value, 0x111u);
}

TEST(TokenB, DatalessTokensDoNotGrantReads)
{
    // A cache holding non-owner tokens without valid data must not
    // satisfy loads (invariant #3'). Exercised via the state check.
    ProtoDriver d(smallConfig(ProtocolKind::tokenB));
    d.load(1, kBlock);
    EXPECT_FALSE(d.sys->cache(3).hasPermission(kBlock, MemOp::load));
}

TEST(TokenB, Table2BucketsPartitionMisses)
{
    ProtoDriver d(smallConfig(ProtocolKind::tokenB));
    for (NodeId n = 0; n < 4; ++n)
        d.issue(n, MemOp::store, kBlock, n);
    for (NodeId n = 0; n < 4; ++n)
        ASSERT_TRUE(d.runUntilCompletions(n, 1));
    d.drain();
    std::uint64_t total = 0, buckets = 0;
    for (NodeId n = 0; n < 4; ++n) {
        const CacheCtrlStats &s = d.sys->cache(n).stats();
        total += s.missesCompleted;
        buckets += s.missesNotReissued + s.missesReissuedOnce +
            s.missesReissuedMore + s.missesPersistent;
    }
    EXPECT_EQ(total, buckets);
    EXPECT_EQ(total, 4u);
}

TEST(TokenB, LargerTokenCountWorks)
{
    SystemConfig cfg = smallConfig(ProtocolKind::tokenB);
    cfg.proto.tokensPerBlock = 32;   // T > numProcs is allowed
    ProtoDriver d(cfg);
    d.load(1, kBlock);
    d.load(2, kBlock);
    const ProcResponse r = d.store(3, kBlock, 0x77);
    EXPECT_TRUE(r.wasMiss);
    EXPECT_EQ(tcache(d, 3).moesiState(kBlock), TokenMoesi::modified);
    d.drain();
    d.expectConserved();
}

TEST(TokenB, WorksOnOrderedTreeToo)
{
    // TokenB needs no ordering but must also run on the tree
    // (Figure 4a compares TokenB on both interconnects).
    ProtoDriver d(smallConfig(ProtocolKind::tokenB, "tree", 4));
    d.store(0, kBlock, 0x42);
    EXPECT_EQ(d.load(1, kBlock).value, 0x42u);
    d.drain();
    d.expectConserved();
}

TEST(TokenB, HomeNodeRequesterLocalMemory)
{
    // Block homed at the requesting node: the broadcast's local copy
    // must still reach the co-located memory controller.
    ProtoDriver d(smallConfig(ProtocolKind::tokenB));
    const ProcResponse r = d.load(0, kBlock);   // home(0x400) == 0
    EXPECT_TRUE(r.wasMiss);
    EXPECT_EQ(r.value, kBlock);
    d.drain();
    d.expectConserved();
}

TEST(TokenB, SequentialOwnershipChainAcrossAllNodes)
{
    ProtoDriver d(smallConfig(ProtocolKind::tokenB));
    std::uint64_t expect = kBlock;
    for (int round = 0; round < 3; ++round) {
        for (NodeId n = 0; n < 4; ++n) {
            EXPECT_EQ(d.load(n, kBlock).value, expect);
            expect = 0x1000u * (round + 1) + n;
            d.store(n, kBlock, expect);
        }
    }
    d.drain();
    d.expectConserved();
}

TEST(TokenB, BroadcastReachesOnlyTheHomeAndTheHolders)
{
    // 8 nodes; block 5 * 64 is homed at node 5.
    ProtoDriver d(smallConfig(ProtocolKind::tokenB, "torus", 8));
    const auto nodes = countDeliveries(*d.sys);
    constexpr Addr blk = 5 * 64;
    std::string err;

    // Nobody holds the block: only the home sees the request, and the
    // other seven copies (the requester's echo included) are skipped.
    d.load(1, blk);
    using V = std::vector<std::uint64_t>;
    EXPECT_EQ(transientsPerNode(nodes), (V{0, 0, 0, 0, 0, 1, 0, 0}));
    EXPECT_EQ(skipped(*d.sys, nodes), 7u);
    EXPECT_TRUE(d.sys->checkTokenHolders(&err)) << err;

    // Node 1 now holds a token and sees the next request.
    d.load(2, blk);
    EXPECT_EQ(transientsPerNode(nodes), (V{0, 1, 0, 0, 0, 2, 0, 0}));
    EXPECT_EQ(skipped(*d.sys, nodes), 13u);

    // A store reaches both readers, which give up their tokens.
    d.store(3, blk, 0x77);
    EXPECT_EQ(transientsPerNode(nodes), (V{0, 2, 1, 0, 0, 3, 0, 0}));
    EXPECT_EQ(skipped(*d.sys, nodes), 18u);
    d.drain();
    EXPECT_TRUE(d.sys->checkTokenHolders(&err)) << err;
    const std::uint64_t *holders = d.sys->tokenHolders()->mask(blk);
    EXPECT_TRUE(TokenHolderSet::test(holders, 3));
    EXPECT_FALSE(TokenHolderSet::test(holders, 1));
    d.expectConserved();
}

TEST(TokenB, TokenMOptsOutOfTheSkip)
{
    // TokenM opts out of the skip: every copy reaches its endpoint.
    ProtoDriver d(smallConfig(ProtocolKind::tokenM, "torus", 8));
    const auto nodes = countDeliveries(*d.sys);
    constexpr Addr blk = 5 * 64;
    d.load(1, blk);
    d.load(2, blk);
    d.store(3, blk, 0x77);
    d.drain();
    EXPECT_EQ(skipped(*d.sys, nodes), 0u);
    std::string err;
    EXPECT_TRUE(d.sys->checkTokenHolders(&err)) << err;
    d.expectConserved();
}

} // namespace
} // namespace tokensim
