/**
 * @file
 * Set-associative cache array with LRU replacement.
 *
 * The array is protocol-agnostic: each protocol supplies a plain Line
 * type holding only its coherence state (MOSI state bits for the
 * classical protocols, token counts for Token Coherence — the paper
 * notes tokens are held "in processor caches (e.g., part of tag
 * state)"). A way's block address and validity are its tag, which the
 * array hands over wherever it hands over a line: replacement victims,
 * forEachValid(), the pin predicate, decoded snapshot lines. Victims
 * are returned to the caller, which must take protocol action (write
 * back data, return tokens to the home).
 *
 * Lookup is structure-of-arrays: the block tags and recency ranks live
 * in their own contiguous arrays, so a set probe scans assoc
 * consecutive tag words (one cache line for a 4-way set) without
 * dragging the protocol Line payloads through the data cache. touch()
 * — the hottest call in the whole simulator — only dereferences a
 * payload on a hit.
 *
 * Replacement state is one byte per way: the way's recency rank among
 * its set's valid ways, 0 for the most recent and valid-1 for the LRU
 * way, so a set's valid ranks are always a permutation of 0..valid-1.
 * Touch, allocate and invalidate rewrite at most the assoc rank bytes
 * of one set. A way costs the host 8 B of tag, 1 B of rank and the
 * Line (25 B for the 16 B protocol lines).
 *
 * Only the tag array is initialised, at construction and in clear():
 * the rank and payload of a way are never read while its tag is
 * invalid, so wide systems pay neither the time nor the resident
 * memory of zero-filling them. Debug builds fill that never-written
 * storage with a poison pattern, so a read of an unwritten way shows
 * up as a wrong result (or a UBSan bool report).
 */

#ifndef TOKENSIM_MEM_CACHE_HH
#define TOKENSIM_MEM_CACHE_HH

#include <algorithm>
#include <bitset>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
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
 * A set-associative array of @p Line (plain protocol state, no
 * address), with true-LRU replacement inside each set.
 */
template <typename Line>
class CacheArray
{
  public:
    /** Most ways a set may have: ranks are one byte. */
    static constexpr std::uint32_t maxAssoc = 256;
    /** Host bytes one way costs: tag, recency rank and payload. */
    static constexpr std::size_t bytesPerWay =
        sizeof(Addr) + sizeof(std::uint8_t) + sizeof(Line);

    explicit CacheArray(const CacheParams &params)
        : params_(params),
          numSets_(params.numSets()),
          blockShift_(floorLog2(params.blockBytes)),
          setMask_(numSets_ - 1),
          tags_(numSets_ * params.assoc, invalidTag),
          rank_(tags_.size()),
          lines_(tags_.size())
    {
        assert(isPowerOf2(params.blockBytes));
        assert(numSets_ > 0 && isPowerOf2(numSets_));
        if (params.assoc < 1 || params.assoc > maxAssoc) {
            throw std::invalid_argument(
                "cache associativity " + std::to_string(params.assoc) +
                " outside [1, " + std::to_string(maxAssoc) + "]");
        }
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
        const Addr ba = blockAlign(a);
        const std::size_t i = indexOf(ba, setBase(ba));
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
        const Addr ba = blockAlign(a);
        const std::size_t base = setBase(ba);
        const std::size_t i = indexOf(ba, base);
        if (i == notFound)
            return nullptr;
        makeMostRecent(base, i, rank_[i]);
        return &lines_[i];
    }

    /** True if the block is present. */
    bool
    contains(Addr a) const
    {
        const Addr ba = blockAlign(a);
        return indexOf(ba, setBase(ba)) != notFound;
    }

    /** Replacement victim information from allocate(). */
    struct Victim
    {
        bool valid = false;   ///< true if a line was evicted
        Addr addr = 0;        ///< the evicted line's block address
        Line line;            ///< copy of the evicted line
    };

    /**
     * Allocate a line for block @p a (which must not be present).
     * If the set is full, the LRU way is evicted and a copy returned
     * through @p victim so the caller can perform protocol actions
     * (write back dirty data, send tokens home). The returned line is
     * value-initialized.
     *
     * One pass over the set's tags decides presence (asserted
     * against) and the first invalid way; only a full set scans its
     * ranks for the victim — no separate find() probe.
     */
    Line *
    allocate(Addr a, Victim *victim)
    {
        return allocate(a, victim, [](Addr, const Line &) {
            return false;
        });
    }

    /**
     * allocate() that passes over ways @p pinned(addr, line) marks:
     * the victim is the least-recent unpinned way. Only the LRU way is
     * tested unless it is pinned, so the common case reads no extra
     * payload. If every way is pinned the LRU way goes anyway.
     */
    template <typename Pinned>
    Line *
    allocate(Addr a, Victim *victim, Pinned pinned)
    {
        const Addr ba = blockAlign(a);
        const std::size_t base = setBase(ba);
        const std::size_t end = base + params_.assoc;
        std::size_t way = notFound;       // first invalid way
        for (std::size_t i = base; i < end; ++i) {
            assert(tags_[i] != ba && "allocate of a block already present");
            if (tags_[i] == invalidTag && way == notFound)
                way = i;
        }
        // A vacant way ages every valid way of the set by one.
        unsigned rank = params_.assoc;
        if (way == notFound) {
            way = base;
            for (std::size_t i = base + 1; i < end; ++i) {
                if (rank_[i] > rank_[way])
                    way = i;
            }
            if (pinned(tags_[way], lines_[way])) {
                const std::size_t lru = way;
                int best = -1;
                for (std::size_t i = base; i < end; ++i) {
                    if (i != lru && rank_[i] > best &&
                        !pinned(tags_[i], lines_[i])) {
                        best = rank_[i];
                        way = i;
                    }
                }
            }
            if (victim) {
                victim->valid = true;
                victim->addr = tags_[way];
                victim->line = lines_[way];
            }
            rank = rank_[way];
        }
        makeMostRecent(base, way, rank);
        tags_[way] = ba;
        return ::new (static_cast<void *>(&lines_[way])) Line{};
    }

    /** Remove a block (it must be present). */
    void
    invalidate(Addr a)
    {
        const Addr ba = blockAlign(a);
        const std::size_t base = setBase(ba);
        const std::size_t i = indexOf(ba, base);
        assert(i != notFound);
        tags_[i] = invalidTag;
        const std::uint8_t rank = rank_[i];
        for (std::size_t j = base; j < base + params_.assoc; ++j) {
            if (tags_[j] != invalidTag)
                rank_[j] -= rank_[j] > rank;
        }
    }

    /** Apply @p fn(addr, line) to every valid line. */
    template <typename Fn>
    void
    forEachValid(Fn fn)
    {
        for (std::size_t i = 0; i < tags_.size(); ++i) {
            if (tags_[i] != invalidTag)
                fn(tags_[i], lines_[i]);
        }
    }

    template <typename Fn>
    void
    forEachValid(Fn fn) const
    {
        for (std::size_t i = 0; i < tags_.size(); ++i) {
            if (tags_[i] != invalidTag)
                fn(tags_[i], lines_[i]);
        }
    }

    /** Number of currently valid lines. */
    std::uint64_t
    validCount() const
    {
        return tags_.size() -
            static_cast<std::uint64_t>(
                std::count(tags_.begin(), tags_.end(), invalidTag));
    }

    /**
     * Invalidate every line — equivalent to a freshly constructed
     * array but reusing the (large) tag/rank/payload storage. The
     * reusable-System path calls this between runs. Ranks and payloads
     * are left stale, as on construction.
     */
    void
    clear()
    {
        std::fill(tags_.begin(), tags_.end(), invalidTag);
        rank_.poison();
        lines_.poison();
    }

    // -----------------------------------------------------------------
    // Snapshot support. The warm-state snapshot codec serializes the
    // exact replacement state (every valid way's recency rank), so a
    // restored array is bit-for-bit the array that was saved — same
    // victims in the same order forever after.
    // -----------------------------------------------------------------

    /**
     * Serialize every valid way in flat way order: line count, then
     * per line its way index, recency rank and address followed by
     * @p payload(w, line).
     */
    template <typename Payload>
    void
    encodeWays(WireWriter &w, Payload payload) const
    {
        w.varint(validCount());
        for (std::size_t i = 0; i < tags_.size(); ++i) {
            if (tags_[i] == invalidTag)
                continue;
            w.varint(i);
            w.u8(rank_[i]);
            w.varint(tags_[i]);
            payload(w, lines_[i]);
        }
    }

    /**
     * Inverse of encodeWays() into a cleared array. @p read(r) decodes
     * one payload into a Line, throwing WireError if it is invalid;
     * @p installed(addr, line) runs once the line sits in its way.
     * Every way is validated before it is installed: in range, after
     * the previous way, in the block's set, block-aligned, not a
     * duplicate block. Once a set's last way is in, its ranks must be
     * a permutation of 0..valid-1.
     */
    template <typename Read, typename Installed>
    void
    decodeWays(WireReader &r, Read read, Installed installed)
    {
        const std::uint64_t count = r.varint("cache line count");
        if (count > tags_.size()) {
            throw WireError("cache line count " + std::to_string(count) +
                            " exceeds the array's " +
                            std::to_string(tags_.size()) + " ways");
        }
        std::size_t next = 0;            // lowest way index allowed
        std::size_t openSet = notFound;  // base of the set being filled
        for (std::uint64_t n = 0; n < count; ++n) {
            const std::uint64_t i = r.varint("cache way index");
            const std::uint8_t rank = r.u8("cache lru rank");
            const Addr ba = r.varint("cache line address");
            Line line = read(r);
            if (i >= tags_.size())
                throw WireError("cache way index out of range");
            if (i < next)
                throw WireError("cache ways out of order in snapshot");
            if (blockAlign(ba) != ba)
                throw WireError("cache line address not block-aligned");
            const std::size_t base = setBase(ba);
            if (i < base || i >= base + params_.assoc)
                throw WireError("cache line mapped to the wrong set");
            if (contains(ba))
                throw WireError("duplicate cache block in snapshot");
            if (base != openSet) {
                checkRanks(openSet);
                openSet = base;
            }
            next = i + 1;
            tags_[i] = ba;
            rank_[i] = rank;
            installed(ba, *::new (static_cast<void *>(&lines_[i]))
                              Line(line));
        }
        checkRanks(openSet);
    }

    template <typename Read>
    void
    decodeWays(WireReader &r, Read read)
    {
        decodeWays(r, read, [](Addr, const Line &) {});
    }

  private:
    /** Tag value of an unallocated way (never a block address: block
     *  addresses are block-aligned, all-ones is not). */
    static constexpr Addr invalidTag = ~Addr{0};
    static constexpr std::size_t notFound = ~std::size_t{0};

    /**
     * Give way @p i rank 0: every valid way of the set more recent
     * than @p rank (way i's old rank, or assoc for a way not yet
     * valid) ages by one.
     */
    void
    makeMostRecent(std::size_t base, std::size_t i, unsigned rank)
    {
        // Branch only on validity (steady-state sets are full, so it
        // predicts); the rank comparison is random per touch, so it is
        // added, not branched on. The 4-way geometry is unrolled, as
        // in indexOf().
        const Addr *t = &tags_[base];
        std::uint8_t *r = &rank_[base];
        const auto age = [&](std::uint32_t w) {
            if (t[w] != invalidTag)
                r[w] += r[w] < rank;
        };
        if (params_.assoc == 4) {
            age(0);
            age(1);
            age(2);
            age(3);
        } else {
            for (std::uint32_t w = 0; w < params_.assoc; ++w)
                age(w);
        }
        rank_[i] = 0;
    }

    /** Throw unless the valid ranks of the set at @p base (notFound:
     *  none) are a permutation of 0..valid-1. */
    void
    checkRanks(std::size_t base) const
    {
        if (base == notFound)
            return;
        const std::size_t end = base + params_.assoc;
        const auto valid = static_cast<unsigned>(
            end - base -
            static_cast<std::size_t>(std::count(
                tags_.begin() + base, tags_.begin() + end, invalidTag)));
        std::bitset<maxAssoc> seen;
        for (std::size_t j = base; j < end; ++j) {
            if (tags_[j] == invalidTag)
                continue;
            if (rank_[j] >= valid || seen[rank_[j]])
                throw WireError("cache lru ranks of a set are not a "
                                "permutation of its valid ways");
            seen.set(rank_[j]);
        }
    }

    std::size_t
    setBase(Addr block_addr) const
    {
        const std::uint64_t idx = (block_addr >> blockShift_) & setMask_;
        return static_cast<std::size_t>(idx * params_.assoc);
    }

    /** Flat way index of @p ba in the set at @p base, or notFound.
     *  Tag-array scan only. */
    std::size_t
    indexOf(Addr ba, std::size_t base) const
    {
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
    /** SoA metadata: tags and recency ranks, contiguous per set. A
     *  rank is meaningful only while its way's tag is valid. */
    std::vector<Addr> tags_;
    UninitArray<std::uint8_t> rank_;
    /** Protocol payloads, touched only on hit/allocate/evict; a
     *  payload exists only once its way has been allocated. */
    UninitArray<Line> lines_;
};

} // namespace tokensim

#endif // TOKENSIM_MEM_CACHE_HH
