/**
 * @file
 * Unit tests for the set-associative cache array, DRAM model, and
 * backing store.
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "proto/controller.hh"

namespace tokensim {
namespace {

struct TestLine : CacheLineBase
{
    int payload = 0;
};

CacheParams
smallCache()
{
    // 4 sets x 2 ways x 64B.
    return CacheParams{512, 2, 64, nsToTicks(6)};
}

TEST(CacheArray, Geometry)
{
    CacheArray<TestLine> c(smallCache());
    EXPECT_EQ(c.params().numSets(), 4u);
    EXPECT_EQ(c.blockAlign(0x12345), 0x12340u);
}

TEST(CacheArray, FindMissesWhenEmpty)
{
    CacheArray<TestLine> c(smallCache());
    EXPECT_EQ(c.find(0x1000), nullptr);
    EXPECT_FALSE(c.contains(0x1000));
}

TEST(CacheArray, AllocateAndFind)
{
    CacheArray<TestLine> c(smallCache());
    CacheArray<TestLine>::Victim v;
    TestLine *l = c.allocate(0x1000, &v);
    ASSERT_NE(l, nullptr);
    EXPECT_FALSE(v.valid);
    l->payload = 42;
    TestLine *f = c.find(0x1000);
    ASSERT_EQ(f, l);
    EXPECT_EQ(f->payload, 42);
    // Sub-block addresses find the same line.
    EXPECT_EQ(c.find(0x1004), l);
}

TEST(CacheArray, EvictsLruWayWhenSetFull)
{
    CacheArray<TestLine> c(smallCache());
    // Set index = (addr/64) % 4. Addresses 0x000, 0x100, 0x200 all
    // map to set 0 (strides of 256 = 4 blocks).
    CacheArray<TestLine>::Victim v;
    c.allocate(0x000, &v)->payload = 1;
    c.allocate(0x100, &v)->payload = 2;
    EXPECT_FALSE(v.valid);
    // Touch 0x000 so 0x100 becomes LRU.
    c.touch(0x000);
    c.allocate(0x200, &v);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.line.addr, 0x100u);
    EXPECT_EQ(v.line.payload, 2);
    EXPECT_TRUE(c.contains(0x000));
    EXPECT_FALSE(c.contains(0x100));
    EXPECT_TRUE(c.contains(0x200));
}

TEST(CacheArray, PinnedLruWayIsPassedOver)
{
    CacheArray<TestLine> c(smallCache());
    CacheArray<TestLine>::Victim v;
    c.allocate(0x000, &v)->payload = 1;   // set 0, LRU
    c.allocate(0x100, &v)->payload = 2;
    const auto pinOne = [](const TestLine &l) { return l.payload == 1; };
    c.allocate(0x200, &v, pinOne);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.line.addr, 0x100u);
    EXPECT_TRUE(c.contains(0x000));

    // With every way pinned the LRU way goes anyway.
    c.find(0x200)->payload = 1;
    c.allocate(0x300, &v, pinOne);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.line.addr, 0x000u);
}

TEST(CacheArray, InvalidateFreesWay)
{
    CacheArray<TestLine> c(smallCache());
    CacheArray<TestLine>::Victim v;
    c.allocate(0x000, &v);
    c.allocate(0x100, &v);
    c.invalidate(0x000);
    EXPECT_FALSE(c.contains(0x000));
    // Allocation now reuses the freed way without eviction.
    c.allocate(0x200, &v);
    EXPECT_FALSE(v.valid);
}

TEST(CacheArray, ForEachValidVisitsAllLines)
{
    CacheArray<TestLine> c(smallCache());
    CacheArray<TestLine>::Victim v;
    c.allocate(0x000, &v);
    c.allocate(0x040, &v);
    c.allocate(0x080, &v);
    EXPECT_EQ(c.validCount(), 3u);
    int sum = 0;
    c.forEachValid([&](TestLine &l) {
        l.payload = 1;
        ++sum;
    });
    EXPECT_EQ(sum, 3);
}

TEST(CacheArray, Table1L2Geometry)
{
    // 4 MB, 4-way, 64 B: 16384 sets.
    CacheParams p{4 * 1024 * 1024, 4, 64, nsToTicks(6)};
    EXPECT_EQ(p.numSets(), 16384u);
    CacheArray<TestLine> c(p);
    CacheArray<TestLine>::Victim v;
    c.allocate(0xdeadbeefc0ULL, &v);
    EXPECT_TRUE(c.contains(0xdeadbeefc0ULL));
}

TEST(Dram, FixedLatency)
{
    Dram d(DramParams{nsToTicks(80), 0});
    EXPECT_EQ(d.access(0), nsToTicks(80));
    EXPECT_EQ(d.access(100), 100 + nsToTicks(80));
    EXPECT_EQ(d.accesses(), 2u);
}

TEST(Dram, MinGapSerializesBursts)
{
    Dram d(DramParams{nsToTicks(80), nsToTicks(10)});
    EXPECT_EQ(d.access(0), nsToTicks(80));
    // Second access at the same instant starts 10 ns later.
    EXPECT_EQ(d.access(0), nsToTicks(10) + nsToTicks(80));
}

TEST(BackingStore, InitialValueIsAddressPattern)
{
    BackingStore bs(64);
    EXPECT_EQ(bs.read(0x1000), 0x1000u);
    EXPECT_EQ(bs.read(0x1004), 0x1000u);   // block-aligned
}

TEST(BackingStore, WriteThenRead)
{
    BackingStore bs(64);
    bs.write(0x2000, 0xabcd);
    EXPECT_EQ(bs.read(0x2000), 0xabcdu);
    EXPECT_EQ(bs.read(0x203f), 0xabcdu);
    EXPECT_EQ(bs.read(0x2040), 0x2040u);   // next block untouched
}

} // namespace
} // namespace tokensim
