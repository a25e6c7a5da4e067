/**
 * @file
 * Tests for the persistent-request substrate (Section 3.2): the
 * arbiter handshake, starvation freedom under contention, fairness,
 * and the "null performance protocol" (TokenNull) that the paper uses
 * to argue performance protocols carry no correctness obligations —
 * every miss completes solely through persistent requests.
 */

#include <gtest/gtest.h>

#include "core/tokenb.hh"
#include "proto_test_util.hh"

namespace tokensim {
namespace {

using testutil::ProtoDriver;
using testutil::smallConfig;

constexpr Addr kBlock = 0x400;   // home node 0 on 4 nodes

TokenBMemory &
tmem(ProtoDriver &d, NodeId n)
{
    return dynamic_cast<TokenBMemory &>(d.sys->memory(n));
}

TEST(Persistent, NullProtocolCompletesViaPersistentRequests)
{
    // TokenNull issues no transient requests at all: the only way a
    // miss can complete is the persistent-request machinery.
    ProtoDriver d(smallConfig(ProtocolKind::tokenNull));
    const ProcResponse r = d.load(1, kBlock);
    EXPECT_TRUE(r.wasMiss);
    EXPECT_TRUE(r.usedPersistent);
    EXPECT_EQ(r.value, kBlock);
    d.drain();
    d.expectConserved();

    const ArbiterStats &as = tmem(d, 0).arbiter().stats();
    EXPECT_EQ(as.activations, 1u);
    EXPECT_EQ(as.deactivations, 1u);
    EXPECT_TRUE(tmem(d, 0).arbiter().quiescent());
}

TEST(Persistent, NullProtocolStoreGathersAllTokens)
{
    ProtoDriver d(smallConfig(ProtocolKind::tokenNull));
    const ProcResponse r = d.store(2, kBlock, 0xf00d);
    EXPECT_TRUE(r.usedPersistent);
    EXPECT_EQ(d.load(2, kBlock).value, 0xf00du);   // now a hit
    d.drain();
    d.expectConserved();
}

TEST(Persistent, TableEntriesClearAfterDeactivation)
{
    ProtoDriver d(smallConfig(ProtocolKind::tokenNull));
    d.load(1, kBlock);
    d.drain();
    // After deactivation the arbiter is idle; a later request must
    // activate afresh (entry was deleted everywhere).
    d.store(3, kBlock, 0x1);
    d.drain();
    const ArbiterStats &as = tmem(d, 0).arbiter().stats();
    EXPECT_EQ(as.activations, 2u);
    EXPECT_EQ(as.deactivations, 2u);
    EXPECT_TRUE(tmem(d, 0).arbiter().quiescent());
    d.expectConserved();
}

TEST(Persistent, QueuedRequestsActivateInTurn)
{
    ProtoDriver d(smallConfig(ProtocolKind::tokenNull));
    // All four nodes want to write the same block; requests queue at
    // the arbiter and are activated one at a time.
    for (NodeId n = 0; n < 4; ++n)
        d.issue(n, MemOp::store, kBlock, 0x100 + n);
    for (NodeId n = 0; n < 4; ++n)
        ASSERT_TRUE(d.runUntilCompletions(n, 1)) << "node " << n;
    d.drain();
    d.expectConserved();
    const ArbiterStats &as = tmem(d, 0).arbiter().stats();
    EXPECT_EQ(as.activations, 4u);
    EXPECT_EQ(as.deactivations, 4u);
    EXPECT_GE(as.maxQueueDepth, 2u);
    EXPECT_TRUE(tmem(d, 0).arbiter().quiescent());
}

TEST(Persistent, StarvationFreedomUnderHeavyContention)
{
    // Repeated conflicting stores through the persistent mechanism
    // only: every single one must complete (starvation freedom).
    ProtoDriver d(smallConfig(ProtocolKind::tokenNull));
    const int rounds = 5;
    for (int r = 0; r < rounds; ++r) {
        for (NodeId n = 0; n < 4; ++n)
            d.issue(n, MemOp::store, kBlock,
                    0x1000u * (r + 1) + n);
        for (NodeId n = 0; n < 4; ++n) {
            ASSERT_TRUE(d.runUntilCompletions(
                n, static_cast<std::size_t>(r + 1)))
                << "round " << r << " node " << n;
        }
    }
    d.drain();
    d.expectConserved();
    EXPECT_TRUE(tmem(d, 0).arbiter().quiescent());
}

TEST(Persistent, TokenBEscalatesWhenReissuesDisabled)
{
    // With reissues disabled, TokenB's unanswered misses must still
    // complete through the persistent path... but an uncontended miss
    // is answered by the first transient request, no escalation.
    SystemConfig cfg = smallConfig(ProtocolKind::tokenB);
    cfg.proto.reissueEnabled = false;
    ProtoDriver d(cfg);
    const ProcResponse r = d.load(1, kBlock);
    EXPECT_FALSE(r.usedPersistent);
    d.drain();
    d.expectConserved();
}

TEST(Persistent, ArbitersIndependentAcrossBlocks)
{
    // Different blocks (different homes) have independent arbiters:
    // concurrent persistent requests on them proceed in parallel.
    ProtoDriver d(smallConfig(ProtocolKind::tokenNull));
    const Addr block_home1 = 0x440;   // home 1
    const Addr block_home2 = 0x480;   // home 2
    d.issue(0, MemOp::store, block_home1, 0xa);
    d.issue(3, MemOp::store, block_home2, 0xb);
    ASSERT_TRUE(d.runUntilCompletions(0, 1));
    ASSERT_TRUE(d.runUntilCompletions(3, 1));
    d.drain();
    d.expectConserved();
    EXPECT_EQ(tmem(d, 1).arbiter().stats().activations, 1u);
    EXPECT_EQ(tmem(d, 2).arbiter().stats().activations, 1u);
}

TEST(Persistent, MixedTransientAndPersistentTraffic)
{
    // TokenB nodes race on a block while a TokenNull-style starving
    // pattern is emulated by disabling reissues on the whole system:
    // under contention some misses escalate, and all complete.
    SystemConfig cfg = smallConfig(ProtocolKind::tokenB);
    cfg.proto.reissueEnabled = false;   // first timeout -> persistent
    ProtoDriver d(cfg);
    const int rounds = 4;
    for (int r = 0; r < rounds; ++r) {
        for (NodeId n = 0; n < 4; ++n)
            d.issue(n, MemOp::store, kBlock, 0x10u * (r + 1) + n);
        for (NodeId n = 0; n < 4; ++n) {
            ASSERT_TRUE(d.runUntilCompletions(
                n, static_cast<std::size_t>(r + 1)));
        }
    }
    d.drain();
    d.expectConserved();
    EXPECT_TRUE(tmem(d, 0).arbiter().quiescent());
}

TEST(Persistent, PersistentRequestOnBlockHomedAtRequester)
{
    ProtoDriver d(smallConfig(ProtocolKind::tokenNull));
    // home(0x400) == 0, requester is also node 0: the arbiter,
    // memory, and starving cache share one node.
    const ProcResponse r = d.store(0, kBlock, 0x99);
    EXPECT_TRUE(r.usedPersistent);
    d.drain();
    d.expectConserved();
    EXPECT_TRUE(tmem(d, 0).arbiter().quiescent());
}

TEST(Persistent, WholeSystemStarvationFreedomOnOneHotBlock)
{
    // Section 3.2's stress case on a whole System: eight processors on
    // a torus hammer one block with 90% stores, where racing transient
    // requests could starve a requester forever. TokenB resolves the
    // races with reissues and the odd persistent request; TokenNull,
    // which never sends a transient request, resolves every miss
    // through the arbiter. Every op completes and tokens stay
    // conserved either way.
    for (const auto &[proto, ops] :
         {std::pair{ProtocolKind::tokenB, std::uint64_t{2000}},
          std::pair{ProtocolKind::tokenNull, std::uint64_t{100}}}) {
        SCOPED_TRACE(protocolName(proto));
        SystemConfig cfg;
        cfg.numNodes = 8;
        cfg.topology = "torus";
        cfg.protocol = proto;
        cfg.workload = "hot";
        cfg.workload.storeFraction = 0.9;
        cfg.opsPerProcessor = ops;
        cfg.attachAuditor = true;
        System sys(cfg);
        sys.run();

        const System::Results r = sys.results();
        EXPECT_EQ(r.ops(), 8 * ops);
        EXPECT_GT(r.misses(), 0u);
        std::string err;
        EXPECT_TRUE(sys.auditor()->auditAll(&err)) << err;
        if (proto != ProtocolKind::tokenNull)
            continue;
        EXPECT_EQ(r.missesPersistent(), r.misses());
        std::uint64_t activations = 0;
        for (NodeId n = 0; n < 8; ++n) {
            activations += dynamic_cast<TokenBMemory &>(sys.memory(n))
                               .arbiter()
                               .stats()
                               .activations;
        }
        EXPECT_GT(activations, 0u);
    }
}

} // namespace
} // namespace tokensim
