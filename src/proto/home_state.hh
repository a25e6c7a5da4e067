/**
 * @file
 * Pooled storage for per-block home-controller state.
 *
 * Home controllers keep an entry per block they have ever seen, in
 * BlockMap tables that grow to hundreds of thousands of slots. Almost
 * every entry is idle: no sharers, nothing waiting. So an entry holds
 * only small indices into two pools owned by its controller, and the
 * entry itself is trivially copyable — a rehash or reset copies bytes
 * and never walks a set or a vector.
 *
 * - NodeMaskPool: fixed-width bitmasks of ceil(nodes / 64) words. A
 *   mask takes a slot on its first insert and returns it to a free
 *   list when cleared, so the pool grows to the most masks non-empty
 *   at once, not one per block ever touched. Iteration is in
 *   ascending node order.
 * - WaitPool<T>: FIFOs of {T, next} nodes with a free list. A FIFO is
 *   a head and a tail index. Storage is the most items ever waiting at
 *   once, not the total that ever passed through.
 *
 * Both pools give their storage back only when destroyed: clear()
 * (the controllers' resetState) forgets every slot but keeps the
 * capacity for the next run. Entries still holding indices from before
 * a clear() must be discarded with it.
 */

#ifndef TOKENSIM_PROTO_HOME_STATE_HH
#define TOKENSIM_PROTO_HOME_STATE_HH

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace tokensim {

/** Null pool index. */
constexpr std::uint32_t noSlot = ~std::uint32_t{0};

/** A set of nodes: a slot in a NodeMaskPool, or empty. */
struct NodeMask
{
    std::uint32_t slot = noSlot;

    bool empty() const { return slot == noSlot; }
};

/** Call @p fn(node) for every set bit of @p words, ascending. */
template <typename Fn>
void
forEachNode(const std::uint64_t *words, std::size_t nwords, Fn fn)
{
    for (std::size_t w = 0; w < nwords; ++w) {
        for (std::uint64_t bits = words[w]; bits != 0;
             bits &= bits - 1) {
            fn(static_cast<NodeId>(
                w * 64 +
                static_cast<std::size_t>(__builtin_ctzll(bits))));
        }
    }
}

/** Fixed-width node masks on a free list (see file comment). */
class NodeMaskPool
{
  public:
    explicit NodeMaskPool(int num_nodes)
        : width_((static_cast<std::size_t>(num_nodes) + 63) / 64)
    {}

    void
    insert(NodeMask &m, NodeId n)
    {
        assert(n / 64 < width_);
        if (m.empty())
            m.slot = acquire();
        words(m)[n / 64] |= std::uint64_t{1} << (n % 64);
    }

    bool
    contains(NodeMask m, NodeId n) const
    {
        return !m.empty() &&
            (words(m)[n / 64] >> (n % 64) & 1) != 0;
    }

    std::size_t
    count(NodeMask m) const
    {
        if (m.empty())
            return 0;
        std::size_t c = 0;
        for (std::size_t w = 0; w < width_; ++w) {
            c += static_cast<std::size_t>(
                __builtin_popcountll(words(m)[w]));
        }
        return c;
    }

    /** Empty @p m and return its slot to the free list. */
    void
    clear(NodeMask &m)
    {
        if (m.empty())
            return;
        words(m)[0] = free_;
        free_ = m.slot;
        m.slot = noSlot;
    }

    /** Ascending iteration over the members of @p m. */
    template <typename Fn>
    void
    forEach(NodeMask m, Fn fn) const
    {
        if (!m.empty())
            forEachNode(words(m), width_, fn);
    }

    /** Copy @p m's words into @p out (resized to width(); all zero for
     *  an empty mask). */
    void
    copyTo(NodeMask m, std::vector<std::uint64_t> &out) const
    {
        out.assign(width_, 0);
        if (!m.empty())
            std::copy(words(m), words(m) + width_, out.begin());
    }

    /** Forget every mask; storage is kept. */
    void
    clear()
    {
        words_.clear();
        free_ = noSlot;
    }

    /** Slots ever handed out since the last clear(): the most masks
     *  non-empty at once. */
    std::size_t highWater() const { return words_.size() / width_; }

  private:
    std::uint64_t *words(NodeMask m) { return &words_[m.slot * width_]; }

    const std::uint64_t *
    words(NodeMask m) const
    {
        return &words_[m.slot * width_];
    }

    /** A zeroed slot. A free slot links to the next through its first
     *  word. */
    std::uint32_t
    acquire()
    {
        std::uint32_t s = free_;
        if (s == noSlot) {
            s = static_cast<std::uint32_t>(words_.size() / width_);
            words_.resize(words_.size() + width_);
            return s;
        }
        free_ = static_cast<std::uint32_t>(words_[s * width_]);
        std::fill_n(&words_[s * width_], width_, 0);
        return s;
    }

    std::size_t width_;
    std::vector<std::uint64_t> words_;
    std::uint32_t free_ = noSlot;
};

/** A FIFO whose items live in a WaitPool. */
struct WaitFifo
{
    std::uint32_t head = noSlot;
    std::uint32_t tail = noSlot;

    bool empty() const { return head == noSlot; }
};

/** FIFO nodes of T on a free list (see file comment). */
template <typename T>
class WaitPool
{
  public:
    void
    push(WaitFifo &f, const T &item)
    {
        std::uint32_t s = free_;
        if (s == noSlot) {
            s = static_cast<std::uint32_t>(nodes_.size());
            nodes_.push_back(Node{item, noSlot});
        } else {
            free_ = nodes_[s].next;
            nodes_[s] = Node{item, noSlot};
        }
        if (f.empty())
            f.head = s;
        else
            nodes_[f.tail].next = s;
        f.tail = s;
    }

    /** Remove and return the front item of non-empty @p f. */
    T
    pop(WaitFifo &f)
    {
        assert(!f.empty());
        const std::uint32_t s = f.head;
        Node &n = nodes_[s];
        f.head = n.next;
        if (f.empty())
            f.tail = noSlot;
        n.next = free_;
        free_ = s;
        return n.item;
    }

    /** Call @p fn(item) for every item of @p f, front to back. */
    template <typename Fn>
    void
    forEach(WaitFifo f, Fn fn) const
    {
        for (std::uint32_t s = f.head; s != noSlot; s = nodes_[s].next)
            fn(nodes_[s].item);
    }

    /** Forget every FIFO; storage is kept. */
    void
    clear()
    {
        nodes_.clear();
        free_ = noSlot;
    }

    /** Nodes ever handed out since the last clear(): the most items
     *  waiting at once. */
    std::size_t highWater() const { return nodes_.size(); }

  private:
    struct Node
    {
        T item;
        std::uint32_t next;
    };

    std::vector<Node> nodes_;
    std::uint32_t free_ = noSlot;
};

} // namespace tokensim

#endif // TOKENSIM_PROTO_HOME_STATE_HH
