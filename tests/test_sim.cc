/**
 * @file
 * Unit tests for the simulation kernel: event queue ordering, time
 * conversions, the deterministic RNG, the statistics utilities, the
 * allocation-freedom of the Event record / calendar-ring steady state,
 * of network multicast and of BlockMap churn, and the ring's storage
 * following pending events (enforced with a counting global operator
 * new).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <stdexcept>
#include <utility>
#include <vector>

#include "mem/block_map.hh"
#include "net/network.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

// The counting operator new below pairs malloc with the (correctly
// overridden) deletes; GCC's heuristic cannot see the pairing through
// the replacement and warns spuriously.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {

/** Global allocation counter for the no-alloc steady-state tests. */
std::atomic<std::uint64_t> gAllocCount{0};
/** Bytes requested from operator new, for the storage-bound tests. */
std::atomic<std::uint64_t> gAllocBytes{0};

std::uint64_t
allocCount()
{
    return gAllocCount.load(std::memory_order_relaxed);
}

std::uint64_t
allocBytes()
{
    return gAllocBytes.load(std::memory_order_relaxed);
}

} // namespace

void *
operator new(std::size_t n)
{
    gAllocCount.fetch_add(1, std::memory_order_relaxed);
    gAllocBytes.fetch_add(n, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace tokensim {
namespace {

// The Event record's size contract: two cache lines, inline storage
// only. The constructor's static_assert rejects any closure in src/
// that would not fit, so compiling the library is itself the proof
// that no event capture can spill to the heap.
static_assert(sizeof(Event) == 128, "Event record size contract");
static_assert(Event::inlineCapacity == 120,
              "Event inline capacity contract");

TEST(EventRecord, InvokesAndDestroysCapturesExactlyOnce)
{
    auto token = std::make_shared<int>(7);
    std::weak_ptr<int> watch = token;
    int fired = 0;
    {
        EventQueue eq;
        eq.schedule(5, [token, &fired]() { fired += *token; });
        token.reset();
        EXPECT_FALSE(watch.expired());   // capture keeps it alive
        eq.run();
        EXPECT_EQ(fired, 7);
        EXPECT_TRUE(watch.expired());    // dispatch destroyed it
    }
}

TEST(EventRecord, PendingCapturesReleasedOnQueueDestruction)
{
    auto token = std::make_shared<int>(1);
    std::weak_ptr<int> watch = token;
    {
        EventQueue eq;
        eq.schedule(10, [token]() {});
        eq.schedule(100000, [token]() {});   // far-horizon copy too
        token.reset();
        EXPECT_FALSE(watch.expired());
    }
    EXPECT_TRUE(watch.expired());
}

TEST(EventRecord, SteadyStateSchedulingIsAllocationFree)
{
    EventQueue eq;
    auto round = [&eq]() {
        std::uint64_t sink = 0;
        for (int i = 0; i < 512; ++i) {
            eq.scheduleIn(static_cast<Tick>((i * 37) % 300),
                          [&sink]() { ++sink; });
        }
        for (int i = 0; i < 64; ++i) {
            // Beyond the ring horizon: exercises the overflow heap.
            eq.scheduleIn(static_cast<Tick>(5000 + (i * 911) % 90000),
                          [&sink]() { ++sink; });
        }
        eq.run();
        EXPECT_EQ(sink, 576u);
    };
    // Reset between rounds like the reusable-System path does, so
    // every round schedules into the same ring slots.
    round();   // warm the chunk pool and the overflow heap
    eq.reset();
    round();
    eq.reset();
    const std::uint64_t before = allocCount();
    round();
    eq.reset();
    round();
    EXPECT_EQ(allocCount(), before)
        << "event scheduling/dispatch allocated on a warmed queue";
}

TEST(EventQueue, StorageFollowsPendingEventsNotSlotPeaks)
{
    // A 64-event burst walks through every one of the ring's 4096 tick
    // slots in turn, with only three bursts pending at once. The chunks
    // one tick drains are reused by the next, so the queue's heap
    // bytes stay a small multiple of the peak pending events; storage
    // kept per slot would retain 4096 x 64 x 128 B = 32 MB.
    constexpr Tick ticks = 4096;
    constexpr Tick lead = 3;
    constexpr int burst = 64;
    EventQueue eq;
    std::uint64_t ran = 0;
    std::size_t peak = 0;
    const std::uint64_t before = allocBytes();
    for (Tick t = 0; t < ticks; ++t) {
        for (int i = 0; i < burst; ++i)
            eq.schedule(t + lead, [&ran]() { ++ran; });
        peak = std::max(peak, eq.pending());
        eq.run(t + 1);
    }
    EXPECT_TRUE(eq.run());
    const std::uint64_t bytes = allocBytes() - before;
    EXPECT_EQ(ran, ticks * burst);
    EXPECT_EQ(peak, lead * burst);
    EXPECT_LE(bytes, 4 * peak * sizeof(Event))
        << "the ring kept storage for drained ticks";
}

TEST(EventQueue, ResetRestoresFreshStateKeepingStorage)
{
    auto token = std::make_shared<int>(1);
    std::weak_ptr<int> watch = token;
    EventQueue eq;
    int ran = 0;
    eq.schedule(3, [&ran]() { ++ran; });
    eq.run();
    eq.schedule(eq.curTick() + 1, [token, &ran]() { ++ran; });
    eq.schedule(eq.curTick() + 50000, [token, &ran]() { ++ran; });
    token.reset();

    eq.reset();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_EQ(eq.executed(), 0u);
    EXPECT_TRUE(watch.expired());   // pending captures destroyed

    eq.schedule(2, [&ran]() { ran += 10; });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(ran, 11);
    EXPECT_EQ(eq.curTick(), 2u);
    EXPECT_EQ(eq.executed(), 1u);
}

TEST(Types, TickConversions)
{
    EXPECT_EQ(nsToTicks(15), 150u);
    EXPECT_EQ(ticksToNs(150), 15u);
    EXPECT_DOUBLE_EQ(ticksToNsF(Tick{25}), 2.5);
    // The double overload preserves fractional ticks (a pooled
    // latency mean is rarely integral).
    EXPECT_DOUBLE_EQ(ticksToNsF(3.5), 0.35);
    EXPECT_EQ(nsToTicks(0), 0u);
}

TEST(Types, BitHelpers)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(64), 6u);
    EXPECT_EQ(floorLog2(65), 6u);
    EXPECT_TRUE(isPowerOf2(64));
    EXPECT_FALSE(isPowerOf2(65));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_EQ(divCeil(10, 3), 4u);
    EXPECT_EQ(divCeil(9, 3), 3u);
}

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&]() { order.push_back(3); });
    eq.schedule(10, [&]() { order.push_back(1); });
    eq.schedule(20, [&]() { order.push_back(2); });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&, i]() { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&]() {
        eq.scheduleIn(5, [&]() {
            ++fired;
            eq.scheduleIn(5, [&]() { ++fired; });
        });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.curTick(), 11u);
}

TEST(EventQueue, MaxTickStopsExecution)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&]() { ++fired; });
    eq.schedule(100, [&]() { ++fired; });
    EXPECT_FALSE(eq.run(50));
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.curTick(), 50u);
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, EventAtExactlyMaxTickRuns)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(50, [&]() { ++fired; });
    EXPECT_TRUE(eq.run(50));
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, RunUntilPredicate)
{
    EventQueue eq;
    int count = 0;
    for (int i = 1; i <= 10; ++i)
        eq.schedule(static_cast<Tick>(i), [&]() { ++count; });
    EXPECT_TRUE(eq.runUntil([&]() { return count == 4; }));
    EXPECT_EQ(count, 4);
    EXPECT_EQ(eq.curTick(), 4u);
}

TEST(EventQueue, PastScheduleClampsToNow)
{
    EventQueue eq;
    Tick seen = tickNever;
    eq.schedule(100, [&]() {
        // Scheduling "in the past" must not rewind time.
        eq.schedule(5, [&]() { seen = eq.curTick(); });
    });
    eq.run();
    EXPECT_EQ(seen, 100u);
}

// --- Bucketed-queue specifics: the ring horizon is 4096 ticks, so
// these exercise the overflow heap and the migrate-on-advance path.

TEST(EventQueue, FarFutureEventsRunInOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(100000, [&]() { order.push_back(3); });
    eq.schedule(50000, [&]() { order.push_back(2); });
    eq.schedule(3, [&]() { order.push_back(1); });
    EXPECT_EQ(eq.pending(), 3u);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 100000u);
    EXPECT_EQ(eq.executed(), 3u);
}

TEST(EventQueue, FarFutureSameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(1 << 20, [&, i]() { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, FifoAcrossHorizonMigration)
{
    // a and b start beyond the ring horizon; c is scheduled for the
    // same tick once that tick is inside the window. FIFO order of
    // scheduling (a, b, c) must survive the overflow->ring migration.
    EventQueue eq;
    std::vector<char> order;
    eq.schedule(5000, [&]() { order.push_back('a'); });
    eq.schedule(5000, [&]() { order.push_back('b'); });
    EXPECT_FALSE(eq.run(4000));
    EXPECT_EQ(eq.curTick(), 4000u);
    eq.schedule(5000, [&]() { order.push_back('c'); });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'c'}));
}

TEST(EventQueue, DenseAndSparseMix)
{
    // Dense same-tick bursts plus sparse far jumps, crossing many
    // window wraps; every event must run exactly once, in tick order.
    EventQueue eq;
    std::vector<Tick> fired;
    Tick t = 0;
    std::vector<Tick> expect;
    for (int i = 0; i < 200; ++i) {
        t += static_cast<Tick>((i % 7 == 0) ? 9001 : i % 5);
        expect.push_back(t);
        eq.schedule(t, [&fired, &eq]() {
            fired.push_back(eq.curTick());
        });
    }
    std::sort(expect.begin(), expect.end());
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, expect);
    EXPECT_EQ(eq.executed(), 200u);
}

TEST(EventQueue, RunUntilResumesMidBucket)
{
    // Stop mid-way through a same-tick bucket, then resume: the
    // unexecuted suffix must still run, exactly once, in order.
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 6; ++i)
        eq.schedule(7, [&, i]() { order.push_back(i); });
    EXPECT_TRUE(eq.runUntil([&]() { return order.size() == 2; }));
    EXPECT_EQ(eq.curTick(), 7u);
    EXPECT_EQ(eq.pending(), 4u);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(EventQueue, MaxTickDoesNotRewindClock)
{
    EventQueue eq;
    eq.schedule(100, []() {});
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(eq.curTick(), 100u);
    // A bound in the past must not move time backwards.
    eq.schedule(200, []() {});
    EXPECT_FALSE(eq.run(50));
    EXPECT_EQ(eq.curTick(), 100u);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(eq.curTick(), 200u);
}

TEST(EventQueue, HandlerSchedulesIntoCurrentAndFarTicks)
{
    EventQueue eq;
    std::vector<char> order;
    eq.schedule(10, [&]() {
        order.push_back('x');
        // Same-tick append lands at the tail of the live bucket...
        eq.schedule(10, [&]() { order.push_back('y'); });
        // ...and a far event takes the overflow path.
        eq.scheduleIn(100000, [&]() { order.push_back('z'); });
    });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<char>{'x', 'y', 'z'}));
    EXPECT_EQ(eq.curTick(), 100010u);
}

TEST(EventQueue, ResumableAfterHandlerThrows)
{
    // A throwing handler must leave the queue consistent: the
    // unexecuted same-tick suffix and later events still run, and no
    // moved-from handler is ever re-invoked.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&]() { order.push_back(0); });
    eq.schedule(5, [&]() { throw std::runtime_error("boom"); });
    eq.schedule(5, [&]() { order.push_back(2); });
    eq.schedule(9, [&]() { order.push_back(3); });
    EXPECT_THROW(eq.run(), std::runtime_error);
    EXPECT_EQ(eq.curTick(), 5u);
    EXPECT_EQ(eq.pending(), 2u);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{0, 2, 3}));
    EXPECT_EQ(eq.executed(), 4u);
}

// --- Timers: the cancellable/reschedulable pooled handles that the
// reissue-timeout and arbiter-broadcast paths are built on.

TEST(Timer, FiresOnceAtDeadline)
{
    EventQueue eq;
    int fired = 0;
    Timer t;
    t.schedule(eq, 25, [&]() { fired += 1; });
    EXPECT_TRUE(t.pending());
    EXPECT_EQ(t.deadline(), 25u);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(t.pending());
    EXPECT_EQ(eq.curTick(), 25u);
    EXPECT_EQ(eq.dispatched(), 1u);
}

TEST(Timer, CancelBeforeFire)
{
    EventQueue eq;
    int fired = 0;
    Timer t;
    t.scheduleIn(eq, 10, [&]() { ++fired; });
    t.cancel();
    EXPECT_FALSE(t.pending());
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(eq.cancelled(), 1u);
    // The superseded proxy drained as a record but dispatched nothing.
    EXPECT_EQ(eq.executed(), 1u);
    EXPECT_EQ(eq.dispatched(), 0u);
}

TEST(Timer, CancelReleasesCapturesImmediately)
{
    EventQueue eq;
    auto token = std::make_shared<int>(1);
    std::weak_ptr<int> watch = token;
    Timer t;
    t.schedule(eq, 5, [token]() {});
    token.reset();
    EXPECT_FALSE(watch.expired());
    t.cancel();
    EXPECT_TRUE(watch.expired());   // destroyed at cancel, not drain
    eq.run();
}

TEST(Timer, RescheduleMovesDeadlineKeepingCallback)
{
    EventQueue eq;
    std::vector<Tick> fired;
    Timer t;
    t.schedule(eq, 10, [&]() { fired.push_back(eq.curTick()); });
    t.reschedule(50);
    EXPECT_EQ(t.deadline(), 50u);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, (std::vector<Tick>{50}));
    EXPECT_EQ(eq.curTick(), 50u);

    // Rescheduling EARLIER works too: the late proxy fires stale.
    t.schedule(eq, eq.curTick() + 100, [&]() {
        fired.push_back(eq.curTick());
    });
    t.reschedule(eq.curTick() + 10);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired.size(), 2u);
    EXPECT_EQ(fired[1], 60u);
}

TEST(Timer, StaleTimerNeverDispatches)
{
    // A cancelled deadline must never reach the callback even though
    // its proxy record still drains through the ring — and a slot
    // recycled to a NEW timer must not resurrect the old deadline.
    EventQueue eq;
    int old_fired = 0, new_fired = 0;
    {
        Timer victim;
        victim.schedule(eq, 10, [&]() { ++old_fired; });
    }   // destroyed while pending: cancels and frees its slot
    Timer fresh;   // recycles the released slot
    fresh.schedule(eq, 10, [&]() { ++new_fired; });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(old_fired, 0);
    EXPECT_EQ(new_fired, 1);
    EXPECT_EQ(eq.executed(), 2u);     // both proxies drained
    EXPECT_EQ(eq.dispatched(), 1u);   // only the live one dispatched
}

TEST(Timer, HandleReuseAcrossManyArms)
{
    EventQueue eq;
    int fired = 0;
    Timer t;
    for (int i = 0; i < 5; ++i) {
        t.scheduleIn(eq, 7, [&]() { ++fired; });
        EXPECT_TRUE(eq.run());
    }
    EXPECT_EQ(fired, 5);

    // Re-arm + cancel churn on the same handle.
    for (int i = 0; i < 5; ++i) {
        t.scheduleIn(eq, 7, [&]() { ++fired; });
        t.cancel();
    }
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 5);
}

TEST(Timer, CallbackMayRearmItsOwnTimer)
{
    // The reissue-timeout shape: the callback re-arms the very timer
    // that is firing.
    EventQueue eq;
    int fired = 0;
    Timer t;
    std::function<void()> arm = [&]() {
        t.scheduleIn(eq, 10, [&]() {
            ++fired;
            if (fired < 3)
                arm();
        });
    };
    arm();
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(Timer, CancelAfterQueueResetIsSafeAndHandleReusable)
{
    EventQueue eq;
    int fired = 0;
    Timer t;
    t.schedule(eq, 100, [&]() { ++fired; });
    eq.reset();   // disarms every timer, drops every event
    EXPECT_FALSE(t.pending());
    t.cancel();   // must be a harmless no-op
    EXPECT_TRUE(eq.empty());

    // The handle (and its slot) survive the reset and re-arm cleanly.
    t.schedule(eq, 5, [&]() { fired += 10; });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 10);
}

TEST(Timer, QueueResetDestroysArmedCaptures)
{
    EventQueue eq;
    auto token = std::make_shared<int>(1);
    std::weak_ptr<int> watch = token;
    Timer t;
    t.schedule(eq, 50, [token]() {});
    token.reset();
    EXPECT_FALSE(watch.expired());
    eq.reset();
    EXPECT_TRUE(watch.expired());
}

TEST(Timer, MoveTransfersOwnership)
{
    EventQueue eq;
    int fired = 0;
    Timer a;
    a.schedule(eq, 10, [&]() { ++fired; });
    Timer b = std::move(a);
    EXPECT_TRUE(b.pending());
    b.cancel();
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 0);

    // Move-assign over a pending timer cancels the overwritten one.
    Timer c, d;
    c.schedule(eq, eq.curTick() + 10, [&]() { ++fired; });
    d.schedule(eq, eq.curTick() + 10, [&]() { fired += 100; });
    d = std::move(c);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 1);   // c's callback ran; d's was cancelled
}

TEST(Timer, CountersTrackScheduleDispatchCancel)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(5, [&]() { ++fired; });
    Timer t;
    t.schedule(eq, 10, [&]() { ++fired; });   // fires
    Timer u;
    u.schedule(eq, 15, [&]() { ++fired; });   // cancelled below
    u.cancel();
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.scheduled(), 3u);
    EXPECT_EQ(eq.executed(), 3u);
    EXPECT_EQ(eq.dispatched(), 2u);
    EXPECT_EQ(eq.cancelled(), 1u);
    eq.reset();
    EXPECT_EQ(eq.scheduled(), 0u);
    EXPECT_EQ(eq.dispatched(), 0u);
    EXPECT_EQ(eq.cancelled(), 0u);
}

TEST(Timer, SteadyStateTimerChurnIsAllocationFree)
{
    // Timer arm/fire/cancel/reschedule churn must stay allocation-free
    // once the slot pool and ring are warm, like plain scheduling.
    EventQueue eq;
    std::vector<Timer> timers(32);
    std::uint64_t fired = 0;
    auto round = [&]() {
        for (int rep = 0; rep < 8; ++rep) {
            for (std::size_t i = 0; i < timers.size(); ++i) {
                timers[i].scheduleIn(eq,
                                     static_cast<Tick>(1 + (i % 13)),
                                     [&fired]() { ++fired; });
            }
            for (std::size_t i = 0; i < timers.size(); i += 3)
                timers[i].cancel();
            for (std::size_t i = 1; i < timers.size(); i += 3)
                timers[i].rescheduleIn(20);
            eq.run();
            // Fresh handles each rep exercise slot recycling.
            Timer scratch;
            scratch.scheduleIn(eq, 5, [&fired]() { ++fired; });
            eq.run();
        }
    };
    round();   // warm the pool, ring, and free list
    eq.reset();
    round();
    eq.reset();
    const std::uint64_t before = allocCount();
    round();
    eq.reset();
    round();
    EXPECT_EQ(allocCount(), before)
        << "timer churn allocated on a warmed queue";
    EXPECT_GT(fired, 0u);
}

class NullEndpoint : public NetworkEndpoint
{
  public:
    void deliver(const Message &) override { ++delivered; }
    std::uint64_t delivered = 0;
};

TEST(NetworkAlloc, SteadyStateMulticastIsAllocationFree)
{
    // TokenM-style multicast bursts to varying destination sets: once
    // the transit pool, delivery chunks, far map and event ring are
    // warm, the pruned tree walk (marks in the transit slot, (slot,
    // edge) fan-out closures) must not allocate.
    EventQueue eq;
    Network net(eq, std::unique_ptr<Topology>(makeTopology("torus", 64)));
    std::vector<NullEndpoint> eps(64);
    for (NodeId i = 0; i < 64; ++i)
        net.attach(i, &eps[i]);
    std::vector<std::vector<NodeId>> sets = {
        {3, 17, 30, 44, 58}, {0, 1, 2, 63}, {9}, {5, 5, 40, 12, 7, 33}};
    std::vector<NodeId> all;
    for (NodeId i = 0; i < 64; ++i)
        all.push_back(i);
    sets.push_back(all);
    auto send = [&](NodeId src, bool data) {
        for (const auto &dests : sets) {
            Message m;
            m.type = data ? MsgType::data : MsgType::getS;
            m.cls = data ? MsgClass::data : MsgClass::request;
            m.hasData = data;
            m.src = src;
            m.addr = 0x40 * (src + 1);
            net.multicast(m, dests);
        }
    };
    auto burst = [&]() {
        // One source's burst at a time: every delivery stays within
        // the delivery ring's horizon.
        for (NodeId src = 0; src < 64; ++src) {
            send(src, false);
            eq.run();
        }
        // Every source at once, 20 rounds of data: the later rounds'
        // copies queue behind up to 19 x 225 ticks of serialization
        // on the sources' own links, past the 4096-tick horizon, so
        // their batches go through the far map.
        for (int round = 0; round < 20; ++round) {
            for (NodeId src = 0; src < 64; ++src)
                send(src, true);
        }
        eq.run();
    };
    burst();   // warm the slot pool, mark storage, chunks and far map
    EXPECT_GT(net.traffic().latency.max(), 4096.0);
    net.reset(NetworkParams{});
    eq.reset();
    burst();
    net.reset(NetworkParams{});
    eq.reset();
    const std::uint64_t before = allocCount();
    burst();
    net.reset(NetworkParams{});
    eq.reset();
    burst();
    EXPECT_EQ(allocCount(), before)
        << "multicast allocated on a warmed network";
    EXPECT_GT(eps[17].delivered, 0u);
}

TEST(BlockMapAlloc, TombstoneChurnIsAllocationFreeOnceWarm)
{
    // The far delivery map's pattern: keys inserted ahead and erased
    // as they pass, 100 live at a time. Every erase leaves a
    // tombstone, so the table keeps rehashing at its own size; once
    // it has done so, later rehashes reuse its storage.
    BlockMap<std::uint64_t> m;
    Addr next = 0;
    auto churn = [&](int n) {
        for (int i = 0; i < n; ++i) {
            m[next] = next * 3;
            if (next >= 100)
                m.erase(next - 100);
            ++next;
        }
    };
    churn(10000);
    const std::uint64_t before = allocCount();
    churn(10000);
    EXPECT_EQ(allocCount(), before)
        << "a warm BlockMap allocated under insert/erase churn";
    EXPECT_EQ(m.size(), 100u);
    for (Addr k = next - 100; k < next; ++k) {
        auto it = m.find(k);
        ASSERT_NE(it, m.end());
        EXPECT_EQ(it->second, k * 3);
    }
    EXPECT_EQ(m.count(next - 101), 0u);
}

/** Records (node, tick) for each delivery into a shared log. */
class RecordingEndpoint : public NetworkEndpoint
{
  public:
    RecordingEndpoint(const EventQueue &eq,
                      std::vector<std::pair<int, Tick>> &log, int node)
        : eq_(eq), log_(log), node_(node)
    {}

    void
    deliver(const Message &) override
    {
        log_.emplace_back(node_, eq_.curTick());
    }

  private:
    const EventQueue &eq_;
    std::vector<std::pair<int, Tick>> &log_;
    int node_;
};

TEST(NetworkBatches, FarBatchFlushesApartFromLaterSameTickBatch)
{
    // The delivery ring's horizon is part of the model: a batch opened
    // while its tick T lies beyond the horizon flushes in its own
    // event, before the separate batch a later delivery for T opens
    // once T is within the horizon, and an event scheduled for T
    // between the two sends runs between the two flushes.
    NetworkParams params;
    params.unlimitedBandwidth = true;   // arrival = sum of link latencies
    params.linkLatency = 100;
    params.localDelay = 5000;           // beyond the 4096-tick horizon
    const Tick when = params.localDelay;
    EventQueue eq;
    Network net(eq, std::unique_ptr<Topology>(makeTopology("torus", 16)),
                params);
    std::vector<std::pair<int, Tick>> log;
    std::vector<std::unique_ptr<RecordingEndpoint>> eps;
    for (NodeId i = 0; i < 16; ++i) {
        eps.push_back(std::make_unique<RecordingEndpoint>(
            eq, log, static_cast<int>(i)));
        net.attach(i, eps.back().get());
    }
    Message m;
    m.type = MsgType::getS;
    m.cls = MsgClass::request;
    m.src = 0;
    m.dest = 0;
    m.addr = 0x40;
    net.unicast(m);   // to itself: lands at `when`, beyond the horizon
    eq.schedule(when, [&]() { log.emplace_back(-1, eq.curTick()); });
    const Tick hops = static_cast<Tick>(net.topology().hops(0, 1));
    eq.schedule(when - hops * params.linkLatency, [&]() {
        Message r = m;
        r.dest = 1;
        net.unicast(r);   // lands at `when`, now within the horizon
    });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(log, (std::vector<std::pair<int, Tick>>{
                       {0, when}, {-1, when}, {1, when}}));
    // Two flushes, the marker and the second sender.
    EXPECT_EQ(eq.executed(), 4u);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowCoversRange)
{
    Rng rng(9);
    std::vector<int> hits(8, 0);
    for (int i = 0; i < 8000; ++i)
        ++hits[rng.below(8)];
    for (int h : hits) {
        EXPECT_GT(h, 700);   // roughly uniform
        EXPECT_LT(h, 1300);
    }
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceRespectsfraction)
{
    Rng rng(13);
    int yes = 0;
    for (int i = 0; i < 10000; ++i)
        yes += rng.chance(0.25);
    EXPECT_NEAR(yes / 10000.0, 0.25, 0.02);
}

TEST(Rng, GeometricMean)
{
    Rng rng(17);
    double sum = 0;
    const double p = 0.1;
    for (int i = 0; i < 20000; ++i)
        sum += static_cast<double>(rng.geometric(p));
    EXPECT_NEAR(sum / 20000.0, 1.0 / p, 0.5);
}

TEST(Rng, ForkIndependence)
{
    Rng parent(5);
    Rng c1 = parent.fork(1);
    Rng c2 = parent.fork(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += c1.next() == c2.next();
    EXPECT_LT(same, 2);
}

TEST(RunningStat, MeanAndStddev)
{
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.stddev(), 2.138, 0.001);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Ewma, TracksRecentValues)
{
    Ewma e(0.5);
    EXPECT_FALSE(e.primed());
    e.add(100.0);
    EXPECT_TRUE(e.primed());
    EXPECT_DOUBLE_EQ(e.value(), 100.0);   // first sample primes
    e.add(200.0);
    EXPECT_DOUBLE_EQ(e.value(), 150.0);
    e.add(200.0);
    EXPECT_DOUBLE_EQ(e.value(), 175.0);
}

TEST(Strformat, FormatsLikePrintf)
{
    EXPECT_EQ(strformat("x=%d y=%s", 5, "abc"), "x=5 y=abc");
    EXPECT_EQ(strformat("%04x", 0xab), "00ab");
    EXPECT_EQ(strformat("%s", ""), "");
}

} // namespace
} // namespace tokensim
