/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single EventQueue drives the whole simulated system. Components
 * schedule callbacks at absolute or relative ticks; events scheduled for
 * the same tick fire in FIFO order of scheduling (a deterministic total
 * order, which keeps simulations reproducible for a given seed).
 *
 * ## The event record (SBO size contract)
 *
 * Events are stored as Event records: a fixed-size, small-buffer-
 * optimized closure with `Event::inlineCapacity` bytes of inline
 * storage and NO heap fallback. Constructing an Event from a callable
 * larger than the inline buffer is a compile error (static_assert), so
 * scheduling can never allocate behind the simulator's back the way
 * std::function's SBO-miss path does. The capacity is sized for the
 * largest closure the simulator schedules — a controller send helper
 * capturing `this`, a full Message by value, and a destination vector
 * (8 + 88 + 24 bytes; see ControllerBase::multicastAfter) — and the
 * static_assert is the contract: if Message grows, the assert fires at
 * the offending capture site and the capacity here must be revisited
 * deliberately.
 *
 * ## The pool design (allocation-free steady state)
 *
 * The queue is a calendar-style ring rather than a binary heap: the
 * next `windowSize` ticks map one-to-one onto an array of per-tick
 * FIFOs (append = O(1), no comparator), with a bitmap over the slots so
 * finding the next occupied tick is a handful of count-trailing-zero
 * scans. Each FIFO is a list of 16-event chunks drawn from one
 * recycled chunk pool (sim/tick_fifo.hh): scheduling placement-
 * constructs the event into its tick's tail chunk, dispatch runs the
 * events in place, and a drained chunk goes straight back to the pool
 * for the next tick to write into. The ring's storage therefore
 * follows the events pending now, not every slot's all-time peak, and
 * once the pool has warmed up the steady-state loop performs zero heap
 * allocations (tests/test_sim.cc proves both with a counting
 * operator new). Events beyond the ring's horizon wait in a small
 * overflow heap (a capacity-retaining vector managed with push_heap/
 * pop_heap) and migrate into the ring as the clock advances —
 * migration happens eagerly on every clock advance, before any new
 * events can be scheduled, which preserves the global same-tick FIFO
 * order across the horizon boundary.
 *
 * ## Timers (cancellable, reschedulable)
 *
 * Plain scheduled events cannot be cancelled — the ring hands out no
 * stable handles. Components that need an abandonable deadline
 * (reissue timeouts, the arbiter's delayed broadcasts) hold an
 * EventQueue::Timer: a handle onto a slot-stable pooled timer record.
 * Arming stores the callback in the pool slot and schedules a small
 * proxy event carrying (slot, generation); cancel and reschedule bump
 * the generation (cancel also destroys the callback immediately, so
 * captures are released at cancel time). A superseded proxy still
 * drains through the ring — cancellation is lazy — but it fires into a
 * generation check instead of a user callback, costs no protocol work,
 * and is excluded from dispatched(). Slots recycle through a free list
 * tied to handle lifetime, so steady-state timer churn is
 * allocation-free like everything else here.
 */

#ifndef TOKENSIM_SIM_EVENT_QUEUE_HH
#define TOKENSIM_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/tick_fifo.hh"
#include "sim/types.hh"

namespace tokensim {

/**
 * A fixed-size, move-only callable: the one event type the queue
 * stores. Captures live inline (never on the heap); see the file
 * comment for the size contract.
 */
class Event
{
  public:
    /** Inline capture storage, in bytes. */
    static constexpr std::size_t inlineCapacity = 120;

    Event() noexcept = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, Event>>>
    Event(F &&f)   // NOLINT: implicit, mirrors std::function
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= inlineCapacity,
                      "event closure exceeds Event::inlineCapacity — "
                      "it would spill to the heap; shrink the capture "
                      "or grow the contract in sim/event_queue.hh");
        static_assert(alignof(Fn) <= alignof(std::max_align_t),
                      "over-aligned event closure");
        static_assert(std::is_nothrow_move_constructible_v<Fn>,
                      "event closures must be nothrow-movable");
        ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
        vt_ = &vtableFor<Fn>;
    }

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    Event(Event &&o) noexcept
    {
        if (o.vt_) {
            vt_ = o.vt_;
            vt_->relocate(buf_, o.buf_);
            o.vt_ = nullptr;
        }
    }

    Event &
    operator=(Event &&o) noexcept
    {
        if (this != &o) {
            if (vt_)
                vt_->destroy(buf_);
            vt_ = nullptr;
            if (o.vt_) {
                vt_ = o.vt_;
                vt_->relocate(buf_, o.buf_);
                o.vt_ = nullptr;
            }
        }
        return *this;
    }

    ~Event()
    {
        if (vt_)
            vt_->destroy(buf_);
    }

    /** True if this event holds a callable (not moved-from). */
    explicit operator bool() const noexcept { return vt_ != nullptr; }

    /** Invoke the stored callable. */
    void operator()() { vt_->invoke(buf_); }

    /**
     * Invoke the stored callable and destroy it in one indirect call,
     * leaving this Event empty — the dispatch loop's fast path (the
     * callable is destroyed even if it throws).
     */
    void
    runAndDispose()
    {
        const VTable *vt = vt_;
        vt_ = nullptr;
        vt->run(buf_);
    }

  private:
    struct VTable
    {
        void (*invoke)(void *);
        void (*run)(void *);   ///< invoke + destroy (throw-safe)
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *) noexcept;
    };

    template <typename Fn>
    static constexpr VTable vtableFor = {
        [](void *p) { (*static_cast<Fn *>(p))(); },
        [](void *p) {
            struct Guard
            {
                Fn *f;
                ~Guard() { f->~Fn(); }
            } g{static_cast<Fn *>(p)};
            (*g.f)();
        },
        [](void *dst, void *src) noexcept {
            ::new (dst) Fn(std::move(*static_cast<Fn *>(src)));
            static_cast<Fn *>(src)->~Fn();
        },
        [](void *p) noexcept { static_cast<Fn *>(p)->~Fn(); },
    };

    alignas(std::max_align_t) unsigned char buf_[inlineCapacity];
    const VTable *vt_ = nullptr;
};

static_assert(sizeof(Event) == 128,
              "Event should stay exactly two cache lines");

/** Callback type executed when an event fires. */
using EventFn = Event;

/**
 * The central event queue of a simulated system.
 *
 * Each System owns exactly one EventQueue. All components hold a
 * reference to it and schedule work through it; curTick() is the only
 * notion of "now" in the simulator.
 */
class EventQueue
{
  public:
    EventQueue() : ring_(windowSize), occupied_(windowSize / 64, 0) {}

    /** Destroys the pending events (releasing their captures). */
    ~EventQueue() { dropRing(); }

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick curTick() const { return curTick_; }

    /**
     * Schedule an event at an absolute tick.
     *
     * A template so the caller's closure is placement-constructed
     * directly into its tick's FIFO — no intermediate Event copy on
     * the hottest call in the simulator.
     *
     * @param when absolute tick; must not be in the past.
     * @param fn callback to run (anything an Event can hold).
     */
    template <typename F>
    void
    schedule(Tick when, F &&fn)
    {
        ++scheduled_;
        if (when < curTick_)
            when = curTick_;
        if (when - curTick_ < windowSize) {
            const std::size_t slot = when & windowMask;
            pool_.push(ring_[slot], std::forward<F>(fn));
            occupied_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
            ++ringCount_;
        } else {
            overflow_.push_back(FarEntry{when, nextSeq_++,
                                         Event(std::forward<F>(fn))});
            std::push_heap(overflow_.begin(), overflow_.end(),
                           FarEntry::Later{});
        }
    }

    /** Schedule an event @p delay ticks from now. */
    template <typename F>
    void
    scheduleIn(Tick delay, F &&fn)
    {
        schedule(curTick_ + delay, std::forward<F>(fn));
    }

    /** True if no events remain. */
    bool empty() const { return ringCount_ == 0 && overflow_.empty(); }

    /** Number of pending events. */
    std::size_t pending() const { return ringCount_ + overflow_.size(); }

    /** Total number of events executed so far. This is the raw record
     *  count — it includes superseded timer proxies that fired into a
     *  generation check; see dispatched() for the useful-work count. */
    std::uint64_t executed() const { return executed_; }

    /** Total events accepted by schedule()/scheduleIn(), including
     *  the proxy scheduled by every Timer arm/re-arm. */
    std::uint64_t scheduled() const { return scheduled_; }

    /**
     * Events that executed a live callback: executed() minus timer
     * proxies that fired stale (cancelled, rescheduled, or reset away
     * before their tick). The events-per-op diagnostics report this.
     */
    std::uint64_t
    dispatched() const
    {
        return executed_ - staleTimerFires_;
    }

    /** Timer disarms: explicit cancel(), a re-schedule of a pending
     *  timer, or handle destruction while pending. */
    std::uint64_t cancelled() const { return cancelled_; }

    /**
     * Return to the just-constructed state (time zero, no events, no
     * counters) while KEEPING the grown chunk pool and overflow
     * storage — the reusable-System path resets the queue between runs
     * so the next run starts allocation-free.
     */
    void
    reset()
    {
        dropRing();
        std::fill(occupied_.begin(), occupied_.end(), 0);
        overflow_.clear();
        ringCount_ = 0;
        curTick_ = 0;
        nextSeq_ = 0;
        executed_ = 0;
        scheduled_ = 0;
        cancelled_ = 0;
        staleTimerFires_ = 0;
        // Disarm every timer: pending callbacks are destroyed with the
        // rest of the queue's events. Handles keep their slots (and
        // stay usable — re-arming after a reset is allowed); only the
        // armed state and the stored callback are wiped.
        for (std::uint32_t s = 0; s < timerCount_; ++s) {
            TimerSlot &slot = timerSlot(s);
            slot.armed = false;
            slot.fn = Event();
        }
    }

    /**
     * Run until the queue drains or @p maxTick is passed.
     *
     * Events scheduled exactly at @p maxTick still execute; the first
     * event strictly beyond it stays queued and the clock advances to
     * @p maxTick.
     *
     * @return true if the queue drained, false if maxTick stopped it.
     */
    bool
    run(Tick maxTick = tickNever)
    {
        runUntil([]() { return false; }, maxTick);
        return empty();
    }

    /**
     * Run until @p pred returns true (checked after every event), the
     * queue drains, or @p maxTick passes.
     *
     * A template so the predicate check inlines into the dispatch
     * loop (the harness polls a counter after every event).
     *
     * @return true if pred was satisfied.
     */
    template <typename Pred>
    bool
    runUntil(Pred &&pred, Tick maxTick = tickNever)
    {
        if (pred())
            return true;
        while (!empty()) {
            const Tick next = nextEventTick();
            if (next > maxTick) {
                advanceTo(maxTick);
                return false;
            }
            advanceTo(next);

            // Run the tick's events in place, oldest first. A handler
            // scheduling into this tick appends behind the read
            // position, so its event runs later in this same loop —
            // the global same-tick FIFO order.
            const std::size_t slot = curTick_ & windowMask;
            EventFifo &fifo = ring_[slot];
            try {
                while (settle(fifo, slot)) {
                    Event &e = *fifo.head->at(readPos_++);
                    --ringCount_;
                    ++executed_;
                    e.runAndDispose();
                    if (pred()) {
                        settle(fifo, slot);
                        return true;
                    }
                }
            } catch (...) {
                settle(fifo, slot);
                throw;
            }
        }
        return false;
    }

    /**
     * A cancellable, reschedulable deadline — the handle side of the
     * queue's pooled timer records (see the file comment).
     *
     * A default-constructed Timer is idle. schedule() binds it to a
     * queue on first use (one queue per handle, asserted), arms it,
     * and implicitly cancels any pending arming — a Timer holds at
     * most one live deadline. reschedule() moves a *pending* timer's
     * deadline, reusing the stored callback; after the timer fires or
     * is cancelled the callback is gone and schedule() must supply a
     * new one. cancel() on an idle timer is a no-op, so completion
     * paths can cancel unconditionally.
     *
     * The handle owns its pool slot: move-only, releasing the slot on
     * destruction (cancelling first). EventQueue::reset() disarms
     * every timer but leaves handles usable — they may be re-armed,
     * cancelled, or destroyed afterwards. Handles must not outlive
     * their queue.
     */
    class Timer
    {
      public:
        Timer() = default;

        ~Timer() { release(); }

        Timer(const Timer &) = delete;
        Timer &operator=(const Timer &) = delete;

        Timer(Timer &&o) noexcept : eq_(o.eq_), slot_(o.slot_)
        {
            o.eq_ = nullptr;
            o.slot_ = noTimer;
        }

        Timer &
        operator=(Timer &&o) noexcept
        {
            if (this != &o) {
                release();
                eq_ = o.eq_;
                slot_ = o.slot_;
                o.eq_ = nullptr;
                o.slot_ = noTimer;
            }
            return *this;
        }

        /** True if armed and not yet fired. */
        bool
        pending() const
        {
            return eq_ && slot_ != noTimer &&
                eq_->timerSlot(slot_).armed;
        }

        /** Absolute fire tick; only meaningful while pending(). */
        Tick
        deadline() const
        {
            assert(pending());
            return eq_->timerSlot(slot_).when;
        }

        /**
         * Arm (or re-arm) the timer to run @p fn at absolute tick
         * @p when. Supersedes any pending deadline.
         */
        template <typename F>
        void
        schedule(EventQueue &eq, Tick when, F &&fn)
        {
            bind(eq);
            TimerSlot &s = eq_->timerSlot(slot_);
            if (s.armed)
                ++eq_->cancelled_;
            s.fn = Event(std::forward<F>(fn));
            arm(when);
        }

        /** Arm the timer @p delay ticks from now. */
        template <typename F>
        void
        scheduleIn(EventQueue &eq, Tick delay, F &&fn)
        {
            schedule(eq, eq.curTick() + delay,
                     std::forward<F>(fn));
        }

        /**
         * Move a pending timer's deadline to @p when, keeping the
         * stored callback. The timer must be pending — after a fire
         * or cancel there is no callback left to reuse.
         */
        void
        reschedule(Tick when)
        {
            assert(pending() &&
                   "reschedule() needs a pending timer; use "
                   "schedule() to arm with a fresh callback");
            ++eq_->cancelled_;
            arm(when);
        }

        /** Move a pending timer's deadline @p delay ticks from now. */
        void
        rescheduleIn(Tick delay)
        {
            reschedule(eq_->curTick() + delay);
        }

        /**
         * Disarm: the stored callback is destroyed now (releasing its
         * captures) and the already-scheduled proxy fires stale. Idle
         * timers ignore this, so it is safe on every completion path.
         */
        void
        cancel() noexcept
        {
            if (!pending())
                return;
            TimerSlot &s = eq_->timerSlot(slot_);
            s.armed = false;
            s.fn = Event();
            ++eq_->cancelled_;
        }

      private:
        /** Adopt @p eq and a pool slot on first use. */
        void
        bind(EventQueue &eq)
        {
            assert((!eq_ || eq_ == &eq) &&
                   "a Timer binds to one EventQueue for life");
            eq_ = &eq;
            if (slot_ == noTimer)
                slot_ = eq_->acquireTimerSlot();
        }

        /** Stamp a fresh generation and schedule the proxy. */
        void
        arm(Tick when)
        {
            auto &s = eq_->timerSlot(slot_);
            if (when < eq_->curTick_)
                when = eq_->curTick_;
            ++s.gen;
            s.when = when;
            s.armed = true;
            eq_->schedule(when, TimerFire{eq_, slot_, s.gen});
        }

        void
        release() noexcept
        {
            if (eq_ && slot_ != noTimer) {
                cancel();
                eq_->releaseTimerSlot(slot_);
            }
            eq_ = nullptr;
            slot_ = noTimer;
        }

        EventQueue *eq_ = nullptr;
        std::uint32_t slot_ = noTimer;
    };

  private:
    /** Ring horizon: how far ahead the FIFO array reaches. */
    static constexpr std::size_t windowBits = 12;
    static constexpr std::size_t windowSize = std::size_t{1} << windowBits;
    static constexpr std::size_t windowMask = windowSize - 1;

    /** The ring's chunk pool: 16 events (2 KB) per chunk. */
    using EventPool = TickFifoPool<Event, 16>;
    using EventFifo = EventPool::List;

    /** An event beyond the ring horizon, ordered by (when, seq). */
    struct FarEntry
    {
        Tick when;
        std::uint64_t seq;
        Event fn;

        /** Min-heap comparator: "a fires later than b". */
        struct Later
        {
            bool
            operator()(const FarEntry &a, const FarEntry &b) const
            {
                if (a.when != b.when)
                    return a.when > b.when;
                return a.seq > b.seq;
            }
        };
    };

    /**
     * Earliest pending tick. With the migration invariant (every
     * overflow entry is at least windowSize past curTick_), any
     * occupied ring slot beats the overflow heap.
     */
    Tick
    nextEventTick() const
    {
        if (ringCount_ != 0) {
            const std::size_t start = curTick_ & windowMask;
            const std::size_t startWord = start >> 6;
            constexpr std::size_t numWords = windowSize / 64;
            for (std::size_t k = 0; k <= numWords; ++k) {
                const std::size_t w = (startWord + k) & (numWords - 1);
                std::uint64_t word = occupied_[w];
                if (k == 0)
                    word &= ~std::uint64_t{0} << (start & 63);
                else if (k == numWords)
                    word &= (std::uint64_t{1} << (start & 63)) - 1;
                if (word) {
                    const std::size_t slot =
                        (w << 6) +
                        static_cast<std::size_t>(
                            __builtin_ctzll(word));
                    return curTick_ + ((slot - start) & windowMask);
                }
            }
        }
        return overflow_.front().when;
    }

    /**
     * Advance the clock and immediately migrate every overflow event
     * that the new window now covers. Doing this on every advance —
     * before any handler can schedule — keeps same-tick FIFO exact
     * across the horizon: a ring FIFO only ever receives entries in
     * global scheduling order.
     */
    void
    advanceTo(Tick t)
    {
        if (t > curTick_)
            curTick_ = t;
        while (!overflow_.empty() &&
               overflow_.front().when - curTick_ < windowSize) {
            std::pop_heap(overflow_.begin(), overflow_.end(),
                          FarEntry::Later{});
            FarEntry &e = overflow_.back();
            const std::size_t slot = e.when & windowMask;
            pool_.push(ring_[slot], std::move(e.fn));
            occupied_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
            ++ringCount_;
            overflow_.pop_back();
        }
    }

    /**
     * Return the fully read chunks at the front of @p fifo, the
     * current tick's FIFO, to the pool. True if an unread event
     * remains; otherwise the FIFO is left empty, its occupancy bit
     * cleared and the read position rewound, so the clock may move on.
     * The drain calls this before every event and when it stops early
     * (predicate satisfied or a handler threw), which keeps the read
     * position pointing at the next unrun event across a resume.
     */
    bool
    settle(EventFifo &fifo, std::size_t slot) noexcept
    {
        while (readPos_ == fifo.size(fifo.head)) {
            const bool last = fifo.head == fifo.tail;
            pool_.popChunk(fifo);
            readPos_ = 0;
            if (last) {
                occupied_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
                return false;
            }
        }
        return true;
    }

    /** Destroy every event in the ring (run ones are already empty)
     *  and return all chunks to the pool. */
    void
    dropRing() noexcept
    {
        for (EventFifo &fifo : ring_)
            pool_.clear(fifo);
        readPos_ = 0;
    }

    // ---- Timer pool -----------------------------------------------
    //
    // One slot per live Timer handle, in fixed-size chunks so slot
    // addresses stay stable while a firing callback grows the pool.
    // The proxy event in the ring carries (slot, generation); a
    // generation mismatch — or a disarmed slot — means the proxy was
    // superseded and it returns without touching user code.

    /** No-slot sentinel / free-list terminator. */
    static constexpr std::uint32_t noTimer = ~std::uint32_t{0};

    struct TimerSlot
    {
        Event fn;                          ///< armed callback
        Tick when = 0;                     ///< armed deadline
        std::uint32_t gen = 0;             ///< bumped on every arm
        std::uint32_t nextFree = noTimer;
        bool armed = false;
    };

    static constexpr std::uint32_t timerChunkBits = 6;
    static constexpr std::uint32_t timerChunkSize =
        1u << timerChunkBits;

    TimerSlot &
    timerSlot(std::uint32_t s)
    {
        return timerChunks_[s >> timerChunkBits]
                           [s & (timerChunkSize - 1)];
    }

    std::uint32_t
    acquireTimerSlot()
    {
        std::uint32_t s;
        if (timerFreeHead_ != noTimer) {
            s = timerFreeHead_;
            timerFreeHead_ = timerSlot(s).nextFree;
        } else {
            s = timerCount_++;
            if ((s >> timerChunkBits) >= timerChunks_.size()) {
                timerChunks_.push_back(
                    std::make_unique<TimerSlot[]>(timerChunkSize));
            }
        }
        return s;
    }

    void
    releaseTimerSlot(std::uint32_t s) noexcept
    {
        TimerSlot &slot = timerSlot(s);
        slot.nextFree = timerFreeHead_;
        timerFreeHead_ = s;
    }

    /** The proxy event a Timer arm schedules into the ring. */
    struct TimerFire
    {
        EventQueue *q;
        std::uint32_t slot;
        std::uint32_t gen;

        void operator()() { q->fireTimer(slot, gen); }
    };

    /**
     * Proxy dispatch: run the armed callback, or count a stale fire
     * if this proxy was superseded. The callback is moved out of the
     * slot before it runs, so it may freely re-arm its own timer.
     */
    void
    fireTimer(std::uint32_t slot, std::uint32_t gen)
    {
        TimerSlot &s = timerSlot(slot);
        if (!s.armed || s.gen != gen) {
            ++staleTimerFires_;
            return;
        }
        s.armed = false;
        Event fn = std::move(s.fn);
        fn.runAndDispose();
    }

    EventPool pool_;
    /** One FIFO per tick of the window, indexed by tick & windowMask. */
    std::vector<EventFifo> ring_;
    std::vector<std::uint64_t> occupied_;
    /** Read position in the head chunk of the current tick's FIFO. */
    std::uint32_t readPos_ = 0;
    std::size_t ringCount_ = 0;
    /** Min-heap (via push_heap/pop_heap) of beyond-horizon events;
     *  a plain vector so capacity survives reset(). */
    std::vector<FarEntry> overflow_;
    /** Timer pool chunks (see the Timer pool section above). */
    std::vector<std::unique_ptr<TimerSlot[]>> timerChunks_;
    std::uint32_t timerCount_ = 0;
    std::uint32_t timerFreeHead_ = noTimer;
    Tick curTick_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t scheduled_ = 0;
    std::uint64_t cancelled_ = 0;
    std::uint64_t staleTimerFires_ = 0;
};

/** The simulator's timer handle (see EventQueue::Timer). */
using Timer = EventQueue::Timer;

} // namespace tokensim

#endif // TOKENSIM_SIM_EVENT_QUEUE_HH
