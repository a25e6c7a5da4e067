/**
 * @file
 * TokenM: Token Coherence with destination-set prediction (Section 7).
 *
 * Instead of broadcasting, the first transient request multicasts to a
 * predicted destination set — the home node plus the nodes a small
 * per-cache predictor believes hold tokens (trained from received
 * token transfers and observed requests, after the destination-set
 * prediction line of work the paper cites [2, 3, 9, 27]). A mispredict
 * costs only a reissue, which falls back to a full broadcast; safety
 * and starvation-freedom come unchanged from the substrate, which is
 * the paper's point: prediction needs no new protocol races.
 */

#ifndef TOKENSIM_CORE_EXT_TOKENM_HH
#define TOKENSIM_CORE_EXT_TOKENM_HH

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/tokenb.hh"
#include "mem/block_map.hh"
#include "proto/home_state.hh"

namespace tokensim {

/**
 * Direct-mapped destination-set predictor: per block-group, the set of
 * nodes recently seen holding (or about to hold) tokens.
 *
 * The table is indexed by (addr / blockBytes) % entries, and a
 * conflict evicts the entry at that index, so it predicts exactly what
 * a dense array of that many entries would. It is stored sparsely: a
 * BlockMap keyed by index holds only the indices trained since the
 * last clear(), each a tag and a NodeMask drawn from a NodeMaskPool
 * (proto/home_state.hh), as the Directory's sharer sets are. A
 * sampled 256-node run trains under 500 of a cache's 8192 indices, so
 * the predictor costs a few KB per cache rather than 128 KB, and
 * clear() touches only what was trained. A mask takes a
 * ceil(nodes / 64)-word slot on an entry's first training and gives it
 * back on conflict eviction and trainExclusive().
 */
class DestSetPredictor
{
  public:
    DestSetPredictor(std::uint32_t entries, std::uint32_t block_bytes,
                     int num_nodes)
        : blockBytes_(block_bytes), numEntries_(entries),
          pool_(num_nodes)
    {
        if (entries == 0) {
            throw std::invalid_argument(
                "TokenM predictorEntries must be at least 1");
        }
    }

    /** Record that @p node holds (or will hold) tokens for @p addr. */
    void
    train(Addr addr, NodeId node)
    {
        Entry &e = entries_[indexOf(addr)];
        const Addr tag = addr / blockBytes_;
        if (e.tag != tag) {
            e.tag = tag;
            pool_.clear(e.mask);
        }
        pool_.insert(e.mask, node);
    }

    /** Forget all training (reusable-System path). */
    void
    clear()
    {
        entries_.clear();
        pool_.clear();
    }

    /**
     * Record that @p node is gathering *all* tokens for @p addr (an
     * observed exclusive request): every other holder is about to be
     * emptied, so the destination set collapses to that node. This is
     * what keeps predicted sets small instead of accreting toward
     * broadcast.
     */
    void
    trainExclusive(Addr addr, NodeId node)
    {
        Entry &e = entries_[indexOf(addr)];
        e.tag = addr / blockBytes_;
        pool_.clear(e.mask);
        pool_.insert(e.mask, node);
    }

    /** Predicted holder set for @p addr (may be empty), ascending. */
    std::vector<NodeId>
    predict(Addr addr) const
    {
        std::vector<NodeId> out;
        const auto it = entries_.find(indexOf(addr));
        if (it != entries_.end() && it->second.tag == addr / blockBytes_)
            pool_.forEach(it->second.mask,
                          [&](NodeId n) { out.push_back(n); });
        return out;
    }

    /** Indices trained since the last clear(). */
    std::size_t liveEntries() const { return entries_.size(); }

    /** Mask slots ever in use at once since the last clear(). */
    std::size_t maskPoolHighWater() const { return pool_.highWater(); }

  private:
    struct Entry
    {
        Addr tag = ~Addr{0};
        NodeMask mask;   ///< in pool_
    };

    Addr
    indexOf(Addr addr) const
    {
        return (addr / blockBytes_) % numEntries_;
    }

    std::uint32_t blockBytes_;
    std::uint32_t numEntries_;
    BlockMap<Entry> entries_;   ///< keyed by index
    NodeMaskPool pool_;
};

/** TokenM cache controller: multicast to a predicted destination set. */
class TokenMCache : public TokenBCache
{
  public:
    TokenMCache(ProtoContext &ctx, NodeId id,
                const ProtocolParams &params, TokenAuditor *auditor,
                std::uint64_t seed, TokenHolderSet &holders);

    void handleMessage(const Message &msg) override;

    /** Multicasts sent vs. broadcast fallbacks (for the ablation). */
    std::uint64_t multicasts() const { return multicasts_; }
    std::uint64_t broadcastFallbacks() const { return fallbacks_; }

    void
    resetState(const ProtocolParams &params,
               std::uint64_t seed) override
    {
        TokenBCache::resetState(params, seed);
        predictor_.clear();
        multicasts_ = 0;
        fallbacks_ = 0;
    }

  protected:
    void issueTransient(Addr addr, const Transaction &trans,
                        bool reissue) override;

  private:
    DestSetPredictor predictor_;
    std::uint64_t multicasts_ = 0;
    std::uint64_t fallbacks_ = 0;
};

} // namespace tokensim

#endif // TOKENSIM_CORE_EXT_TOKENM_HH
