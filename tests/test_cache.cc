/**
 * @file
 * Unit tests for the set-associative cache array, DRAM model, and
 * backing store.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "proto/controller.hh"

namespace tokensim {
namespace {

struct TestLine
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
    EXPECT_EQ(v.addr, 0x100u);
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
    const auto pinOne = [](Addr, const TestLine &l) {
        return l.payload == 1;
    };
    c.allocate(0x200, &v, pinOne);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.addr, 0x100u);
    EXPECT_TRUE(c.contains(0x000));

    // With every way pinned the LRU way goes anyway.
    c.find(0x200)->payload = 1;
    c.allocate(0x300, &v, pinOne);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.addr, 0x000u);
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
    Addr addrs = 0;
    c.forEachValid([&](Addr a, TestLine &l) {
        l.payload = 1;
        addrs += a;
        ++sum;
    });
    EXPECT_EQ(sum, 3);
    EXPECT_EQ(addrs, 0x000u + 0x040u + 0x080u);
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

/**
 * Reference LRU model: what CacheArray kept before recency ranks, a
 * 64-bit use stamp per way from one cache-wide counter. Victim choice
 * is the least-stamped valid way; with a pin predicate, the
 * least-stamped unpinned way other than that one, else that one.
 */
class StampedLru
{
  public:
    struct Way
    {
        bool valid = false;
        Addr addr = 0;
        std::uint64_t stamp = 0;
        TestLine line;
    };

    explicit StampedLru(const CacheParams &p)
        : assoc_(p.assoc), numSets_(p.numSets()),
          blockBytes_(p.blockBytes), ways_(numSets_ * assoc_)
    {
    }

    std::size_t
    setBase(Addr ba) const
    {
        return static_cast<std::size_t>((ba / blockBytes_) % numSets_) *
            assoc_;
    }

    Way *
    find(Addr ba)
    {
        for (std::size_t i = setBase(ba); i < setBase(ba) + assoc_; ++i) {
            if (ways_[i].valid && ways_[i].addr == ba)
                return &ways_[i];
        }
        return nullptr;
    }

    Way *
    touch(Addr ba)
    {
        Way *w = find(ba);
        if (w)
            w->stamp = ++clock_;
        return w;
    }

    template <typename Pinned>
    Way *
    allocate(Addr ba, Way *victim, Pinned pinned)
    {
        const std::size_t base = setBase(ba);
        Way *way = nullptr;
        for (std::size_t i = base; i < base + assoc_ && !way; ++i) {
            if (!ways_[i].valid)
                way = &ways_[i];
        }
        if (!way) {
            Way *lru = &ways_[base];
            for (std::size_t i = base; i < base + assoc_; ++i) {
                if (ways_[i].stamp < lru->stamp)
                    lru = &ways_[i];
            }
            way = lru;
            if (pinned(lru->addr, lru->line)) {
                for (std::size_t i = base; i < base + assoc_; ++i) {
                    Way *w = &ways_[i];
                    if (w != lru && !pinned(w->addr, w->line) &&
                        (way == lru || w->stamp < way->stamp))
                        way = w;
                }
            }
            *victim = *way;
        }
        *way = Way{true, ba, ++clock_, TestLine{}};
        return way;
    }

    void invalidate(Addr ba) { find(ba)->valid = false; }

    const std::vector<Way> &ways() const { return ways_; }

  private:
    std::uint32_t assoc_;
    std::uint64_t numSets_;
    std::uint32_t blockBytes_;
    std::vector<Way> ways_;
    std::uint64_t clock_ = 0;
};

TEST(CacheArray, RecencyRanksMatchStampedLruStepForStep)
{
    // Random touch / find / allocate (with and without a pin
    // predicate) / invalidate steps over a footprint of three blocks
    // per way of 4 sets, so sets fill, evict and drain constantly.
    // After every step the array and the stamped reference must agree
    // on the step's result (hit, victim) and on every set's contents.
    for (std::uint32_t assoc : {1u, 2u, 4u, 8u, 16u}) {
        SCOPED_TRACE("assoc=" + std::to_string(assoc));
        const CacheParams p{4ull * assoc * 64, assoc, 64, nsToTicks(6)};
        CacheArray<TestLine> c(p);
        StampedLru ref(p);
        std::mt19937_64 rng(assoc);
        const std::uint64_t blocks = 4ull * assoc * 3;
        const auto pinOdd = [](Addr, const TestLine &l) {
            return (l.payload & 1) != 0;
        };
        for (int step = 0; step < 100000; ++step) {
            const Addr ba = (rng() % blocks) * 64;
            const int op = static_cast<int>(rng() % 8);
            TestLine *got = c.find(ba);
            StampedLru::Way *want = ref.find(ba);
            ASSERT_EQ(got != nullptr, want != nullptr) << "step " << step;
            if (op <= 2) {
                ASSERT_EQ(c.touch(ba) != nullptr,
                          ref.touch(ba) != nullptr);
            } else if (op == 3 && got) {
                // Flip the pin bit in place: find() must not reorder.
                got->payload ^= 1;
                want->line.payload ^= 1;
            } else if (op == 4 && got) {
                c.invalidate(ba);
                ref.invalidate(ba);
            } else if (!got) {
                const bool pin = op >= 6;
                CacheArray<TestLine>::Victim v;
                StampedLru::Way rv;
                TestLine *l = pin ? c.allocate(ba, &v, pinOdd)
                                  : c.allocate(ba, &v);
                StampedLru::Way *rl = ref.allocate(
                    ba, &rv,
                    pin ? std::function<bool(Addr, const TestLine &)>(
                              pinOdd)
                        : [](Addr, const TestLine &) { return false; });
                ASSERT_EQ(v.valid, rv.valid) << "step " << step;
                if (v.valid) {
                    ASSERT_EQ(v.addr, rv.addr) << "step " << step;
                    ASSERT_EQ(v.line.payload, rv.line.payload);
                }
                l->payload = rl->line.payload =
                    static_cast<int>(rng() % 1000);
            }
            std::vector<std::pair<Addr, int>> have, expect;
            c.forEachValid([&](Addr a, const TestLine &l) {
                have.emplace_back(a, l.payload);
            });
            for (const StampedLru::Way &w : ref.ways()) {
                if (w.valid)
                    expect.emplace_back(w.addr, w.line.payload);
            }
            std::sort(have.begin(), have.end());
            std::sort(expect.begin(), expect.end());
            ASSERT_EQ(have, expect) << "step " << step;
        }
    }
}

TEST(CacheArray, AssociativityAboveARankByteIsRejected)
{
    EXPECT_THROW(CacheArray<TestLine>(CacheParams{257 * 64, 257, 64, 1}),
                 std::invalid_argument);
    CacheArray<TestLine> widest(CacheParams{256 * 64, 256, 64, 1});
    EXPECT_EQ(widest.params().numSets(), 1u);
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
