/**
 * @file
 * Set-associative cache array with LRU replacement.
 *
 * The array is protocol-agnostic: each protocol derives its line type
 * from CacheLineBase and stores its own coherence state (MOSI state bits
 * for the classical protocols, token counts for Token Coherence — the
 * paper notes tokens are held "in processor caches (e.g., part of tag
 * state)"). Replacement victims are returned to the caller, which must
 * take protocol action (write back data, return tokens to the home).
 *
 * Lookup is structure-of-arrays: the block tags and LRU stamps live in
 * their own contiguous arrays, so a set probe scans assoc consecutive
 * tag words (one cache line for a 4-way set) without dragging the full
 * protocol Line payloads through the data cache. touch() — the hottest
 * call in the whole simulator — only dereferences a payload on a hit.
 *
 * Only the tag array is initialised, at construction and in clear():
 * the LRU stamp and payload of a way are never read until allocate()
 * or decodeWays() writes them, so wide systems pay neither the time
 * nor the resident memory of zero-filling them. Debug builds fill that
 * never-written storage with a poison pattern, so a read of an
 * unwritten way shows up as a wrong result (or a UBSan bool report).
 */

#ifndef TOKENSIM_MEM_CACHE_HH
#define TOKENSIM_MEM_CACHE_HH

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/bytes.hh"
#include "sim/types.hh"

namespace tokensim {

/** Geometry and latency of one cache level (Table 1). */
struct CacheParams
{
    std::uint64_t sizeBytes = 4 * 1024 * 1024;   ///< capacity
    std::uint32_t assoc = 4;                     ///< ways per set
    std::uint32_t blockBytes = 64;               ///< line size
    Tick latency = nsToTicks(6);                 ///< access latency

    std::uint64_t
    numSets() const
    {
        return sizeBytes / (static_cast<std::uint64_t>(assoc) *
                            blockBytes);
    }
};

/**
 * Common bookkeeping every cache line carries. The authoritative tag
 * and replacement state live in the CacheArray's SoA metadata; these
 * fields are kept in sync on allocate/invalidate so protocol code and
 * eviction victims still see the block identity.
 */
struct CacheLineBase
{
    Addr addr = 0;            ///< block-aligned address
    bool valid = false;       ///< tag valid (the line is allocated)
};

/**
 * Heap storage for @p n objects of a trivially destructible @p T that
 * is allocated but not initialised: objects are created by placement
 * new (or plain stores, for scalars) when first written.
 */
template <typename T>
class UninitArray
{
    static_assert(std::is_trivially_destructible<T>::value,
                  "stale objects are overwritten without destruction");

  public:
    explicit UninitArray(std::size_t n)
        : data_(std::allocator<T>().allocate(n)), size_(n)
    {
        poison();
    }

    ~UninitArray() { std::allocator<T>().deallocate(data_, size_); }

    UninitArray(const UninitArray &) = delete;
    UninitArray &operator=(const UninitArray &) = delete;

    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }

    /** Debug builds: overwrite everything with a poison pattern. */
    void
    poison()
    {
#ifndef NDEBUG
        std::memset(static_cast<void *>(data_), 0xa5, size_ * sizeof(T));
#endif
    }

  private:
    T *data_;
    std::size_t size_;
};

/**
 * A set-associative array of @p Line (derived from CacheLineBase),
 * with true-LRU replacement inside each set.
 */
template <typename Line>
class CacheArray
{
  public:
    explicit CacheArray(const CacheParams &params)
        : params_(params),
          numSets_(params.numSets()),
          blockShift_(floorLog2(params.blockBytes)),
          setMask_(numSets_ - 1),
          tags_(numSets_ * params.assoc, invalidTag),
          lruStamp_(tags_.size()),
          lines_(tags_.size())
    {
        assert(isPowerOf2(params.blockBytes));
        assert(numSets_ > 0 && isPowerOf2(numSets_));
    }

    const CacheParams &params() const { return params_; }

    /** Block-align an address. */
    Addr
    blockAlign(Addr a) const
    {
        return a & ~static_cast<Addr>(params_.blockBytes - 1);
    }

    /** Find a line without touching LRU state; nullptr if absent. */
    Line *
    find(Addr a)
    {
        const std::size_t i = indexOf(blockAlign(a));
        return i == notFound ? nullptr : &lines_[i];
    }

    const Line *
    find(Addr a) const
    {
        return const_cast<CacheArray *>(this)->find(a);
    }

    /** Find a line and mark it most-recently used. */
    Line *
    touch(Addr a)
    {
        const std::size_t i = indexOf(blockAlign(a));
        if (i == notFound)
            return nullptr;
        lruStamp_[i] = ++useCounter_;
        return &lines_[i];
    }

    /** True if the block is present. */
    bool
    contains(Addr a) const
    {
        return indexOf(blockAlign(a)) != notFound;
    }

    /** Replacement victim information from allocate(). */
    struct Victim
    {
        bool valid = false;   ///< true if a line was evicted
        Line line;            ///< copy of the evicted line
    };

    /**
     * Allocate a line for block @p a (which must not be present).
     * If the set is full, the LRU way is evicted and a copy returned
     * through @p victim so the caller can perform protocol actions
     * (write back dirty data, send tokens home). The returned line is
     * default-initialized with addr/valid set.
     *
     * One pass over the set's tags decides everything: presence
     * (asserted against), the first invalid way, and the LRU victim —
     * no separate find() probe.
     */
    Line *
    allocate(Addr a, Victim *victim)
    {
        return allocate(a, victim, [](const Line &) { return false; });
    }

    /**
     * allocate() that passes over ways @p pinned(line) marks: the
     * victim is the least-recent unpinned way. Only the LRU way is
     * tested unless it is pinned, so the common case reads no extra
     * payload. If every way is pinned the LRU way goes anyway.
     */
    template <typename Pinned>
    Line *
    allocate(Addr a, Victim *victim, Pinned pinned)
    {
        const Addr ba = blockAlign(a);
        const std::size_t base = setBase(ba);
        std::size_t way = notFound;       // first invalid way
        std::size_t lruWay = base;        // least-recent valid way
        std::uint64_t lruMin = ~std::uint64_t{0};
        for (std::size_t i = base; i < base + params_.assoc; ++i) {
            if (tags_[i] == ba) {
                assert(false &&
                       "allocate of a block already present");
            } else if (tags_[i] == invalidTag) {
                if (way == notFound)
                    way = i;
            } else if (way == notFound && lruStamp_[i] < lruMin) {
                lruMin = lruStamp_[i];
                lruWay = i;
            }
        }
        if (way == notFound) {
            way = lruWay;
            if (pinned(lines_[way])) {
                std::uint64_t stamp = ~std::uint64_t{0};
                for (std::size_t i = base; i < base + params_.assoc; ++i) {
                    if (i != lruWay && lruStamp_[i] < stamp &&
                        !pinned(lines_[i])) {
                        stamp = lruStamp_[i];
                        way = i;
                    }
                }
            }
            if (victim) {
                victim->valid = true;
                victim->line = lines_[way];
            }
        }
        tags_[way] = ba;
        lruStamp_[way] = ++useCounter_;
        return emplace(way, ba);
    }

    /** Remove a block (it must be present). */
    void
    invalidate(Addr a)
    {
        const std::size_t i = indexOf(blockAlign(a));
        assert(i != notFound);
        tags_[i] = invalidTag;
        lines_[i] = Line{};
    }

    /** Apply @p fn to every valid line (used by invariant checkers). */
    template <typename Fn>
    void
    forEachValid(Fn fn)
    {
        for (std::size_t i = 0; i < tags_.size(); ++i) {
            if (tags_[i] != invalidTag)
                fn(lines_[i]);
        }
    }

    template <typename Fn>
    void
    forEachValid(Fn fn) const
    {
        for (std::size_t i = 0; i < tags_.size(); ++i) {
            if (tags_[i] != invalidTag)
                fn(lines_[i]);
        }
    }

    /** Number of currently valid lines. */
    std::uint64_t
    validCount() const
    {
        std::uint64_t n = 0;
        forEachValid([&](const Line &) { ++n; });
        return n;
    }

    /**
     * Invalidate every line and rewind the LRU clock — equivalent to
     * a freshly constructed array but reusing the (large) tag/stamp/
     * payload storage. The reusable-System path calls this between
     * runs. Stamps and payloads are left stale, as on construction.
     */
    void
    clear()
    {
        std::fill(tags_.begin(), tags_.end(), invalidTag);
        lruStamp_.poison();
        lines_.poison();
        useCounter_ = 0;
    }

    // -----------------------------------------------------------------
    // Snapshot support. The warm-state snapshot codec serializes the
    // exact replacement state (per-way LRU stamps plus the global use
    // counter), so a restored array is bit-for-bit the array that was
    // saved — same victims in the same order forever after.
    // -----------------------------------------------------------------

    /**
     * Serialize the replacement clock and every valid way in flat way
     * order: use counter, line count, then per line its way index, LRU
     * stamp and address followed by @p payload(w, line).
     */
    template <typename Payload>
    void
    encodeWays(WireWriter &w, Payload payload) const
    {
        w.varint(useCounter_);
        w.varint(validCount());
        for (std::size_t i = 0; i < tags_.size(); ++i) {
            if (tags_[i] == invalidTag)
                continue;
            w.varint(i);
            w.varint(lruStamp_[i]);
            w.varint(tags_[i]);
            payload(w, lines_[i]);
        }
    }

    /**
     * Inverse of encodeWays() into a cleared array. @p read(r) decodes
     * one payload into a Line, throwing WireError if it is invalid;
     * @p installed(line) runs once the line sits in its way. Every way
     * is validated before it is installed: in range, vacant, in the
     * block's set, block-aligned, not a duplicate block, and stamped
     * no later than the use counter.
     */
    template <typename Read, typename Installed>
    void
    decodeWays(WireReader &r, Read read, Installed installed)
    {
        useCounter_ = r.varint("cache use counter");
        const std::uint64_t count = r.varint("cache line count");
        if (count > tags_.size()) {
            throw WireError("cache line count " + std::to_string(count) +
                            " exceeds the array's " +
                            std::to_string(tags_.size()) + " ways");
        }
        for (std::uint64_t n = 0; n < count; ++n) {
            const std::uint64_t i = r.varint("cache way index");
            const std::uint64_t stamp = r.varint("cache lru stamp");
            const Addr ba = r.varint("cache line address");
            Line line = read(r);
            if (i >= tags_.size())
                throw WireError("cache way index out of range");
            if (tags_[i] != invalidTag)
                throw WireError("duplicate cache way in snapshot");
            if (blockAlign(ba) != ba)
                throw WireError("cache line address not block-aligned");
            if (i < setBase(ba) || i >= setBase(ba) + params_.assoc)
                throw WireError("cache line mapped to the wrong set");
            if (contains(ba))
                throw WireError("duplicate cache block in snapshot");
            if (stamp > useCounter_)
                throw WireError("cache lru stamp exceeds the use counter");
            tags_[i] = ba;
            lruStamp_[i] = stamp;
            line.addr = ba;
            line.valid = true;
            installed(*::new (static_cast<void *>(&lines_[i])) Line(line));
        }
    }

    template <typename Read>
    void
    decodeWays(WireReader &r, Read read)
    {
        decodeWays(r, read, [](const Line &) {});
    }

  private:
    /** Tag value of an unallocated way (never a block address: block
     *  addresses are block-aligned, all-ones is not). */
    static constexpr Addr invalidTag = ~Addr{0};
    static constexpr std::size_t notFound = ~std::size_t{0};

    /** Create a fresh line for block @p ba in flat way @p i. */
    Line *
    emplace(std::size_t i, Addr ba)
    {
        Line *l = ::new (static_cast<void *>(&lines_[i])) Line{};
        l->addr = ba;
        l->valid = true;
        return l;
    }

    std::size_t
    setBase(Addr block_addr) const
    {
        const std::uint64_t idx = (block_addr >> blockShift_) & setMask_;
        return static_cast<std::size_t>(idx * params_.assoc);
    }

    /** Flat way index of @p ba, or notFound. Tag-array scan only. */
    std::size_t
    indexOf(Addr ba) const
    {
        const std::size_t base = setBase(ba);
        const Addr *t = &tags_[base];
        if (params_.assoc == 4) {
            // The ubiquitous geometry (Table 1 L1 and L2 are both
            // 4-way): a fixed-trip probe the compiler fully unrolls
            // over one 32-byte tag group.
            if (t[0] == ba)
                return base;
            if (t[1] == ba)
                return base + 1;
            if (t[2] == ba)
                return base + 2;
            if (t[3] == ba)
                return base + 3;
            return notFound;
        }
        for (std::uint32_t w = 0; w < params_.assoc; ++w) {
            if (t[w] == ba)
                return base + w;
        }
        return notFound;
    }

    CacheParams params_;
    std::uint64_t numSets_;
    /** blockBytes and numSets are powers of two: index with
     *  shift/mask, never a runtime division. */
    unsigned blockShift_;
    std::uint64_t setMask_;
    /** SoA metadata: tags and LRU stamps, contiguous per set. A
     *  stamp is meaningful only while its way's tag is valid. */
    std::vector<Addr> tags_;
    UninitArray<std::uint64_t> lruStamp_;
    /** Protocol payloads, touched only on hit/allocate/evict; a
     *  payload exists only once its way has been allocated. */
    UninitArray<Line> lines_;
    std::uint64_t useCounter_ = 0;
};

} // namespace tokensim

#endif // TOKENSIM_MEM_CACHE_HH
