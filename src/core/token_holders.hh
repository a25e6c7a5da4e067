/**
 * @file
 * TokenHolderSet: for every block, the exact set of caches whose L2
 * holds it, kept by the token substrate.
 *
 * Under Token Coherence a cache line exists exactly while it holds
 * tokens: a line is allocated when tokens arrive and freed when its
 * last token leaves (an eviction of a token-less line is a bug the
 * cache asserts against). So L2 residency is token holding, and a set
 * updated wherever a token cache allocates or frees a line is exact
 * between any two protocol handlers. One set per System serves two
 * readers:
 *
 *  - the network skips a broadcast transient request's copy to a node
 *    that neither homes the block nor holds it — TokenB's responding
 *    policy ignores such a copy before touching any state (Section
 *    4.2), so only the host work of delivering it is saved;
 *  - functional fast-forward finds a block's owner, and drains its
 *    holders on a store, by visiting the set's members instead of
 *    probing every peer's tags.
 *
 * Per block the set keeps a bitmask of ceil(numNodes / 64) words, so
 * node count has no cap. A block's entry stays when its last holder
 * leaves: entries are bounded by the blocks the run has touched, like
 * the home memories' token tables.
 */

#ifndef TOKENSIM_CORE_TOKEN_HOLDERS_HH
#define TOKENSIM_CORE_TOKEN_HOLDERS_HH

#include <cassert>
#include <cstdint>
#include <vector>

#include "mem/block_map.hh"
#include "sim/types.hh"

namespace tokensim {

class TokenHolder;

/** Per-block bitmask of the caches holding the block (see file doc). */
class TokenHolderSet
{
  public:
    /** A set for @p num_nodes caches of @p block_bytes blocks homed
     *  block-interleaved, as ProtoContext::home() maps them. */
    TokenHolderSet(int num_nodes, std::uint32_t block_bytes)
        : words_((static_cast<unsigned>(num_nodes) + 63) / 64),
          numNodes_(static_cast<Addr>(num_nodes)),
          blockShift_(floorLog2(block_bytes)),
          caches_(static_cast<std::size_t>(num_nodes), nullptr)
    {
        assert(isPowerOf2(block_bytes));
    }

    /** Register cache @p id, whose tokens Debug builds check when the
     *  network skips a copy to it. */
    void attach(NodeId id, const TokenHolder *cache) { caches_[id] = cache; }
    const TokenHolder *cache(NodeId id) const { return caches_[id]; }

    /** Cache @p id's L2 now holds block @p ba. */
    void
    add(Addr ba, NodeId id)
    {
        const auto [it, inserted] =
            index_.emplace(ba, static_cast<std::uint32_t>(pool_.size()));
        if (inserted) {
            assert(pool_.size() + words_ <= ~std::uint32_t{0});
            for (unsigned w = 0; w < words_; ++w)
                pool_.push_back(0);
        }
        pool_[it->second + id / 64] |= bitOf(id);
        ++generation_;
    }

    /** Cache @p id's L2 no longer holds block @p ba. */
    void
    remove(Addr ba, NodeId id)
    {
        const auto it = index_.find(ba);
        assert(it != index_.end() && "removing a holder never added");
        pool_[it->second + id / 64] &= ~bitOf(id);
        ++generation_;
    }

    /** Forget every block (the reusable-System path; storage kept). */
    void
    clear()
    {
        index_.clear();
        pool_.clear();
        ++generation_;
    }

    /**
     * The words() mask words of block @p ba, or nullptr if no cache
     * has held it since the last clear(). The pointer stays valid
     * while generation() is unchanged.
     */
    const std::uint64_t *
    mask(Addr ba) const
    {
        const auto it = index_.find(ba);
        return it == index_.end() ? nullptr : &pool_[it->second];
    }

    /** True if mask @p m (possibly nullptr) contains cache @p id. */
    static bool
    test(const std::uint64_t *m, NodeId id)
    {
        return m && (m[id / 64] & bitOf(id)) != 0;
    }

    /**
     * Call @p fn(id) for each cache in mask @p m (possibly nullptr),
     * in ascending id order, until @p fn returns false. @p fn must
     * not change the set: copy the mask first if it does.
     */
    template <typename Fn>
    void
    forEach(const std::uint64_t *m, Fn fn) const
    {
        if (!m)
            return;
        for (unsigned w = 0; w < words_; ++w) {
            for (std::uint64_t bits = m[w]; bits; bits &= bits - 1) {
                const auto id = static_cast<NodeId>(
                    w * 64 + static_cast<unsigned>(__builtin_ctzll(bits)));
                if (!fn(id))
                    return;
            }
        }
    }

    /** Call @p fn(block, mask) for every block with an entry. */
    template <typename Fn>
    void
    forEachBlock(Fn fn) const
    {
        for (const auto &[ba, offset] : index_)
            fn(ba, &pool_[offset]);
    }

    /** Words per mask. */
    unsigned words() const { return words_; }

    /** Bumped by every add(), remove() and clear(). */
    std::uint64_t generation() const { return generation_; }

    /** Home node of block @p ba. */
    NodeId
    home(Addr ba) const
    {
        return static_cast<NodeId>((ba >> blockShift_) % numNodes_);
    }

  private:
    static std::uint64_t
    bitOf(NodeId id)
    {
        return std::uint64_t{1} << (id % 64);
    }

    unsigned words_;
    Addr numNodes_;
    unsigned blockShift_;
    std::vector<const TokenHolder *> caches_;
    /** Block -> offset of its mask in pool_. */
    BlockMap<std::uint32_t> index_;
    std::vector<std::uint64_t> pool_;
    std::uint64_t generation_ = 0;
};

} // namespace tokensim

#endif // TOKENSIM_CORE_TOKEN_HOLDERS_HH
