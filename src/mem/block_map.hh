/**
 * @file
 * Flat open-addressed hash map keyed by block address.
 *
 * Every protocol keeps per-block state (transaction tables, directory
 * entries, token counts, backing-store writes) in maps keyed by a
 * block-aligned Addr, and those lookups sit directly on the simulator's
 * hot path. std::unordered_map pays a prime-modulo hash reduction, a
 * pointer chase per node, and a node allocation per insert; BlockMap
 * replaces that with one multiplicative hash, a power-of-two mask, and
 * linear probing over a single contiguous entry array — no per-entry
 * allocation, and clear() recycles the table storage.
 *
 * The interface is the subset of std::unordered_map the protocols use
 * (find/count/emplace/operator[]/erase/clear/size/iteration), with
 * entries exposing `first`/`second` so call sites are drop-in.
 * Deletion uses tombstones; the table rehashes when live + dead slots
 * pass 7/8 occupancy (shrinking never happens — the reusable-System
 * path wants the capacity back on the next run). A rehash that keeps
 * the size (mostly tombstones, as a churning table accumulates) works
 * in place through a retained scratch list, so a warm table under
 * steady insert/erase churn does not allocate.
 *
 * Keys must be block-aligned addresses (or at least never the two
 * all-ones sentinel values — asserted), which every user guarantees by
 * construction.
 */

#ifndef TOKENSIM_MEM_BLOCK_MAP_HH
#define TOKENSIM_MEM_BLOCK_MAP_HH

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace tokensim {

/** Open-addressed Addr -> T map (see file comment). */
template <typename T>
class BlockMap
{
    /** Slot states, stored in the key word. */
    static constexpr Addr emptyKey = ~Addr{0};
    static constexpr Addr tombKey = ~Addr{0} - 1;

  public:
    /** View of one live slot; named like std::pair for drop-in use.
     *  The table itself is SoA (keys and values in separate arrays,
     *  so probing never touches a value cache line); iterators
     *  synthesize this view on demand. */
    template <bool Const>
    class Iter
    {
        using MapPtr =
            std::conditional_t<Const, const BlockMap *, BlockMap *>;
        using Ref = std::conditional_t<Const, const T &, T &>;

        /** first/second accessor pair (pair-of-references style). */
        struct View
        {
            Addr first;
            Ref second;
            const View *operator->() const { return this; }
        };

      public:
        Iter() = default;
        Iter(MapPtr m, std::size_t i) : m_(m), i_(i) { skip(); }

        View operator*() const
        {
            return View{m_->keys_[i_], m_->values_[i_]};
        }

        View operator->() const { return **this; }

        Iter &
        operator++()
        {
            ++i_;
            skip();
            return *this;
        }

        bool operator==(const Iter &o) const { return i_ == o.i_; }
        bool operator!=(const Iter &o) const { return i_ != o.i_; }

      private:
        friend class BlockMap;

        void
        skip()
        {
            while (i_ < m_->keys_.size() &&
                   (m_->keys_[i_] == emptyKey ||
                    m_->keys_[i_] == tombKey))
                ++i_;
        }

        MapPtr m_ = nullptr;
        std::size_t i_ = 0;
    };

    using iterator = Iter<false>;
    using const_iterator = Iter<true>;

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    iterator begin() { return iterator(this, 0); }
    iterator end() { return iterator(this, keys_.size()); }
    const_iterator begin() const { return const_iterator(this, 0); }

    const_iterator
    end() const
    {
        return const_iterator(this, keys_.size());
    }

    iterator
    find(Addr key)
    {
        const std::size_t i = lookup(key);
        return i == notFound ? end() : iterator(this, i);
    }

    const_iterator
    find(Addr key) const
    {
        const std::size_t i = lookup(key);
        return i == notFound ? end() : const_iterator(this, i);
    }

    std::size_t
    count(Addr key) const
    {
        return lookup(key) == notFound ? 0 : 1;
    }

    T &
    operator[](Addr key)
    {
        return values_[slotFor(key)];
    }

    /** Insert (key, T(args...)) if absent; like unordered_map. */
    template <typename... Args>
    std::pair<iterator, bool>
    emplace(Addr key, Args &&...args)
    {
        const std::size_t before = size_;
        const std::size_t i =
            slotFor(key, std::forward<Args>(args)...);
        return {iterator(this, i), size_ != before};
    }

    /**
     * Erase leaves the value object in place (tombstoned slots are
     * unreachable, and a later insert assigns over it) — so a value's
     * internal buffers get recycled when its slot is reused.
     */
    void
    erase(iterator it)
    {
        assert(it.i_ < keys_.size());
        keys_[it.i_] = tombKey;
        --size_;
        ++tombs_;
    }

    std::size_t
    erase(Addr key)
    {
        const std::size_t i = lookup(key);
        if (i == notFound)
            return 0;
        keys_[i] = tombKey;
        --size_;
        ++tombs_;
        return 1;
    }

    /** Drop every entry but keep the table storage (and, like
     *  erase(), the unreachable value objects — see file doc). */
    void
    clear()
    {
        std::fill(keys_.begin(), keys_.end(), emptyKey);
        size_ = 0;
        tombs_ = 0;
    }

  private:
    static constexpr std::size_t notFound = ~std::size_t{0};

    static std::size_t
    hashOf(Addr key)
    {
        std::uint64_t h = key;
        h *= 0x9e3779b97f4a7c15ULL;
        h ^= h >> 32;
        return static_cast<std::size_t>(h);
    }

    /** Index of the live entry for @p key, or notFound. */
    std::size_t
    lookup(Addr key) const
    {
        assert(key < tombKey);
        if (keys_.empty())
            return notFound;
        const std::size_t mask = keys_.size() - 1;
        std::size_t i = hashOf(key) & mask;
        for (;;) {
            const Addr k = keys_[i];
            if (k == key)
                return i;
            if (k == emptyKey)
                return notFound;
            i = (i + 1) & mask;
        }
    }

    /**
     * Find-or-insert, default- or args-constructing the value.
     *
     * The growth check runs only when a new key is actually inserted:
     * a lookup of a present key NEVER rehashes, so (like
     * std::unordered_map) references stay valid as long as no new key
     * is added.
     */
    template <typename... Args>
    std::size_t
    slotFor(Addr key, Args &&...args)
    {
        assert(key < tombKey);
        if (keys_.empty())
            rehash();
        for (;;) {
            const std::size_t mask = keys_.size() - 1;
            std::size_t i = hashOf(key) & mask;
            std::size_t tomb = notFound;
            for (;;) {
                const Addr k = keys_[i];
                if (k == key)
                    return i;
                if (k == emptyKey) {
                    if ((size_ + tombs_ + 1) * 8 >=
                        keys_.size() * 7) {
                        rehash();
                        break;   // re-probe the regrown table
                    }
                    const std::size_t dst =
                        tomb != notFound ? tomb : i;
                    if (tomb != notFound)
                        --tombs_;
                    keys_[dst] = key;
                    values_[dst] = T(std::forward<Args>(args)...);
                    ++size_;
                    return dst;
                }
                if (k == tombKey && tomb == notFound)
                    tomb = i;
                i = (i + 1) & mask;
            }
        }
    }

    void
    rehash()
    {
        // Double when genuinely full; same-size when mostly tombs.
        const std::size_t newCap = keys_.empty()
            ? 16
            : (size_ * 4 >= keys_.size() ? keys_.size() * 2
                                         : keys_.size());
        if (newCap == keys_.size()) {
            purgeTombs();
            return;
        }
        std::vector<Addr> oldKeys(newCap, emptyKey);
        std::vector<T> oldValues(newCap);
        oldKeys.swap(keys_);
        oldValues.swap(values_);
        size_ = 0;
        tombs_ = 0;
        const std::size_t mask = keys_.size() - 1;
        for (std::size_t j = 0; j < oldKeys.size(); ++j) {
            const Addr k = oldKeys[j];
            if (k != emptyKey && k != tombKey) {
                std::size_t i = hashOf(k) & mask;
                while (keys_[i] != emptyKey)
                    i = (i + 1) & mask;
                keys_[i] = k;
                values_[i] = std::move(oldValues[j]);
                ++size_;
            }
        }
    }

    /**
     * Same-size rehash in place: reinsert the live entries in slot
     * order into the cleared table — the layout rehash() would build
     * in new arrays — staging them in scratch_, whose capacity is kept.
     */
    void
    purgeTombs()
    {
        for (std::size_t j = 0; j < keys_.size(); ++j) {
            if (keys_[j] != emptyKey && keys_[j] != tombKey)
                scratch_.emplace_back(keys_[j], std::move(values_[j]));
        }
        std::fill(keys_.begin(), keys_.end(), emptyKey);
        tombs_ = 0;
        const std::size_t mask = keys_.size() - 1;
        for (auto &[k, v] : scratch_) {
            std::size_t i = hashOf(k) & mask;
            while (keys_[i] != emptyKey)
                i = (i + 1) & mask;
            keys_[i] = k;
            values_[i] = std::move(v);
        }
        scratch_.clear();
    }

    /** SoA table: probe keys_ only; values_ touched on hit. */
    std::vector<Addr> keys_;
    std::vector<T> values_;
    /** Live entries staged by purgeTombs() (empty between calls). */
    std::vector<std::pair<Addr, T>> scratch_;
    std::size_t size_ = 0;
    std::size_t tombs_ = 0;
};

/** Set of block addresses with std::unordered_set-compatible calls. */
class BlockSet
{
    struct Nothing
    {};

  public:
    bool empty() const { return map_.empty(); }
    std::size_t size() const { return map_.size(); }
    std::size_t count(Addr key) const { return map_.count(key); }
    std::size_t erase(Addr key) { return map_.erase(key); }
    void clear() { map_.clear(); }

    std::pair<BlockMap<Nothing>::iterator, bool>
    insert(Addr key)
    {
        return map_.emplace(key);
    }

    /** Apply @p fn(addr) to every member (slot order — sort before
     *  serializing). */
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        for (const auto &[a, nothing] : map_)
            fn(a);
    }

  private:
    BlockMap<Nothing> map_;
};

} // namespace tokensim

#endif // TOKENSIM_MEM_BLOCK_MAP_HH
