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

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/tokenb.hh"

namespace tokensim {

/**
 * Direct-mapped destination-set predictor: per block-group, a bitmask
 * of nodes recently seen holding (or about to hold) tokens.
 */
class DestSetPredictor
{
  public:
    DestSetPredictor(std::uint32_t entries, std::uint32_t block_bytes,
                     int num_nodes)
        : entries_(entries), blockBytes_(block_bytes),
          maskWords_((static_cast<std::size_t>(num_nodes) + 63) / 64),
          tags_(entries, ~Addr{0}),
          masks_(static_cast<std::size_t>(entries) * maskWords_, 0)
    {}

    /** Record that @p node holds (or will hold) tokens for @p addr. */
    void
    train(Addr addr, NodeId node)
    {
        const std::size_t idx = indexOf(addr);
        const Addr tag = addr / blockBytes_;
        if (tags_[idx] != tag) {
            tags_[idx] = tag;
            clearMask(idx);
        }
        setBit(idx, node);
    }

    /** Forget all training (reusable-System path). */
    void
    clear()
    {
        std::fill(tags_.begin(), tags_.end(), ~Addr{0});
        std::fill(masks_.begin(), masks_.end(), 0);
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
        const std::size_t idx = indexOf(addr);
        tags_[idx] = addr / blockBytes_;
        clearMask(idx);
        setBit(idx, node);
    }

    /** Predicted holder set for @p addr (may be empty), ascending. */
    std::vector<NodeId>
    predict(Addr addr) const
    {
        std::vector<NodeId> out;
        const std::size_t idx = indexOf(addr);
        if (tags_[idx] != addr / blockBytes_)
            return out;
        const std::uint64_t *mask = &masks_[idx * maskWords_];
        for (std::size_t w = 0; w < maskWords_; ++w) {
            std::uint64_t bits = mask[w];
            while (bits) {
                const int b = __builtin_ctzll(bits);
                out.push_back(static_cast<NodeId>(w * 64 +
                                                  std::size_t(b)));
                bits &= bits - 1;
            }
        }
        return out;
    }

  private:
    std::size_t
    indexOf(Addr addr) const
    {
        return (addr / blockBytes_) % entries_;
    }

    void
    clearMask(std::size_t idx)
    {
        std::fill_n(masks_.begin() +
                        static_cast<std::ptrdiff_t>(idx * maskWords_),
                    maskWords_, 0);
    }

    void
    setBit(std::size_t idx, NodeId node)
    {
        const auto n = static_cast<std::size_t>(node);
        if (n < maskWords_ * 64)
            masks_[idx * maskWords_ + n / 64] |=
                std::uint64_t{1} << (n % 64);
    }

    std::uint32_t entries_;
    std::uint32_t blockBytes_;
    /** 64-bit mask words per entry: ceil(numNodes / 64) — the fix for
     *  the former single-word mask that silently dropped every node
     *  >= 64 from trained destination sets. */
    std::size_t maskWords_;
    std::vector<Addr> tags_;
    std::vector<std::uint64_t> masks_;  ///< entries_ x maskWords_
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
