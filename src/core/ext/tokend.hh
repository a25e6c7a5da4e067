/**
 * @file
 * TokenD: a directory-like Token Coherence performance protocol
 * (Section 7, "Reducing traffic").
 *
 * Transient requests unicast to the home node instead of broadcasting.
 * The home responds from memory when it holds tokens and, in addition,
 * redirects the transient request to the nodes a small *soft-state*
 * directory predicts are holding tokens (a probable-owner/sharer set in
 * the spirit of Li & Hudak [25]). The soft state is only a performance
 * hint: it can be wrong, miss holders, or go stale — reissues fall back
 * to the same path and the persistent-request substrate guarantees
 * eventual success, so no directory-protocol-style races exist.
 *
 * Traffic is directory-like (point-to-point requests and redirects);
 * latency keeps the home indirection that TokenB avoids. TokenD's role
 * in this repository is the bandwidth end of the Section-7 trade-off
 * space, and the base protocol for the bandwidth-adaptive hybrid.
 *
 * TokenNullCache is the degenerate "null performance protocol" the
 * paper uses to argue obligations are empty: it never issues transient
 * requests at all, so every miss completes through a persistent
 * request. It is correct — and dreadfully slow — which the tests and
 * an ablation bench demonstrate.
 */

#ifndef TOKENSIM_CORE_EXT_TOKEND_HH
#define TOKENSIM_CORE_EXT_TOKEND_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "core/tokenb.hh"
#include "mem/block_map.hh"
#include "proto/home_state.hh"

namespace tokensim {

/** TokenD cache controller: unicast transient requests to the home. */
class TokenDCache : public TokenBCache
{
  public:
    using TokenBCache::TokenBCache;

  protected:
    void issueTransient(Addr addr, const Transaction &trans,
                        bool reissue) override;
};

/**
 * TokenD home controller: TokenB memory behavior plus soft-state
 * redirection of transient requests to predicted token holders.
 */
class TokenDMemory : public TokenBMemory
{
  public:
    using TokenBMemory::TokenBMemory;

    /** Soft-state view of one block (tests). */
    struct SoftView
    {
        NodeId probableOwner = invalidNode;
        std::vector<NodeId> probableSharers;   ///< ascending
    };

    /** The soft state of @p addr's block, if it has one. */
    std::optional<SoftView> softState(Addr addr) const;

    void
    resetState(const ProtocolParams &params) override
    {
        TokenBMemory::resetState(params);
        soft_.clear();
        sharerPool_.clear();
    }

  protected:
    void handleTransient(const Message &msg) override;

  private:
    struct SoftState
    {
        NodeId probableOwner = invalidNode;
        NodeMask probableSharers;   ///< in sharerPool_
    };

    BlockMap<SoftState> soft_;
    NodeMaskPool sharerPool_{ctx_.numNodes};
    /** Forward targets of the request being handled. */
    std::vector<std::uint64_t> targets_;
};

/** The null performance protocol: persistent requests do all the work. */
class TokenNullCache : public TokenBCache
{
  public:
    using TokenBCache::TokenBCache;

  protected:
    void
    issueTransient(Addr addr, const Transaction &trans,
                   bool reissue) override
    {
        // A null performance protocol has no obligations: issue
        // nothing and let the timeout escalate to a persistent
        // request. Correct, but slow (Section 4.1).
        (void)addr;
        (void)trans;
        (void)reissue;
    }
};

} // namespace tokensim

#endif // TOKENSIM_CORE_EXT_TOKEND_HH
