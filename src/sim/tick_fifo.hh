/**
 * @file
 * Per-tick FIFOs drawn from one recycled pool of fixed-size chunks.
 *
 * Both calendars in the simulator (the event queue's ring of pending
 * events and the network's ring of same-tick delivery batches) keep one
 * FIFO per tick of a 4096-tick horizon. A vector per tick would keep its
 * all-time peak capacity forever, so the rings would retain 4096 slots ×
 * each slot's peak. Here every FIFO is instead a singly linked list of
 * chunks of `ChunkItems` items taken from a shared LIFO free list:
 * storage follows what is pending now (plus at most one partly filled
 * chunk per live tick), and a new tick writes into a chunk that a
 * drained tick returned moments ago, while it is still in cache.
 *
 * Chunks never move, so an item's address is stable while later pushes
 * grow the list — a handler may read the item it was dispatched from
 * while its own sends append to the same tick. Chunks are allocated one
 * at a time when the free list is empty and returned to the allocator
 * only when the pool is destroyed; a warmed pool pushes and pops
 * without allocating.
 *
 * The pool stores items but does not run their destructors when a
 * chunk is popped: the consumer reads (or disposes of) the items it
 * takes, and calls clear() for lists it abandons.
 */

#ifndef TOKENSIM_SIM_TICK_FIFO_HH
#define TOKENSIM_SIM_TICK_FIFO_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace tokensim {

/** Chunk pool plus the list type its FIFOs use (see file comment). */
template <typename T, std::uint32_t ChunkItems>
class TickFifoPool
{
  public:
    /** A fixed block of raw item storage, linked to the next chunk of
     *  the same list. */
    struct Chunk
    {
        alignas(T) unsigned char raw[ChunkItems * sizeof(T)];
        Chunk *next;

        /** Storage of item @p i. */
        void *slot(std::uint32_t i) { return raw + i * sizeof(T); }

        /** Item @p i, which must have been constructed. */
        T *
        at(std::uint32_t i)
        {
            return std::launder(reinterpret_cast<T *>(slot(i)));
        }
    };

    /**
     * One tick's FIFO. Every chunk before `tail` is full; `fill`
     * counts the items written into `tail`. The read position is the
     * consumer's (the event queue keeps one for the tick it drains;
     * the network detaches a whole list and walks it).
     */
    struct List
    {
        Chunk *head = nullptr;
        Chunk *tail = nullptr;
        std::uint32_t fill = 0;

        bool empty() const { return head == nullptr; }

        /** Items written into @p c, a chunk of this list. */
        std::uint32_t
        size(const Chunk *c) const
        {
            return c == tail ? fill : ChunkItems;
        }
    };

    /**
     * Append T(args...) to @p l. The item is counted only once it is
     * constructed, so a throwing constructor leaves @p l as it was
     * (possibly with an empty tail chunk linked).
     */
    template <typename... Args>
    void
    push(List &l, Args &&...args)
    {
        if (l.tail == nullptr) {
            l.head = l.tail = acquire();
            l.fill = 0;
        } else if (l.fill == ChunkItems) {
            Chunk *c = acquire();
            l.tail->next = c;
            l.tail = c;
            l.fill = 0;
        }
        ::new (l.tail->slot(l.fill)) T(std::forward<Args>(args)...);
        ++l.fill;
    }

    /** Return head chunk of @p l to the free list and unlink it; the
     *  list is left empty if it was its only chunk. */
    void
    popChunk(List &l) noexcept
    {
        Chunk *c = l.head;
        if (c == l.tail) {
            l = List();
        } else {
            l.head = c->next;
        }
        release(c);
    }

    /** Run the destructor of every item written to @p l (a no-op
     *  for trivially destructible items), then return its chunks and
     *  leave it empty. Items must not have been destroyed already; the
     *  event queue's run events are emptied in place, not destroyed. */
    void
    clear(List &l) noexcept
    {
        while (!l.empty()) {
            const std::uint32_t n = l.size(l.head);
            for (std::uint32_t i = 0; i < n; ++i)
                l.head->at(i)->~T();
            popChunk(l);
        }
    }

  private:
    Chunk *
    acquire()
    {
        if (free_ == nullptr) {
            // Plain new: default-initialized raw storage, not zeroed.
            all_.push_back(std::unique_ptr<Chunk>(new Chunk));
            free_ = all_.back().get();
            free_->next = nullptr;
        }
        Chunk *c = free_;
        free_ = c->next;
        c->next = nullptr;
        return c;
    }

    void
    release(Chunk *c) noexcept
    {
        c->next = free_;
        free_ = c;
    }

    Chunk *free_ = nullptr;
    /** Owns every chunk ever allocated. */
    std::vector<std::unique_ptr<Chunk>> all_;
};

} // namespace tokensim

#endif // TOKENSIM_SIM_TICK_FIFO_HH
