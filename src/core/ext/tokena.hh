/**
 * @file
 * TokenA: bandwidth-adaptive Token Coherence (Section 7).
 *
 * The paper: "bandwidth-adaptive techniques would allow a system to
 * dynamically adapt between TokenB and this directory-like mode,
 * providing high performance for multiple system sizes and workloads"
 * (citing the authors' bandwidth-adaptive snooping work [29]).
 *
 * TokenA issues each first transient request either as a TokenB
 * broadcast (bandwidth is cheap: lowest latency) or as a TokenD-style
 * unicast to the home's soft-state redirector (bandwidth is scarce:
 * directory-like traffic), choosing by a locally observable estimate
 * of interconnect utilization over a sliding window. Reissues always
 * broadcast — the safety net stays unconditional — and the correctness
 * substrate is untouched, so the adaptation policy, like every other
 * performance-protocol choice, cannot affect coherence.
 *
 * TokenA pairs with TokenDMemory so that unicast-mode requests get the
 * soft-state redirection they rely on.
 */

#ifndef TOKENSIM_CORE_EXT_TOKENA_HH
#define TOKENSIM_CORE_EXT_TOKENA_HH

#include "core/tokenb.hh"

namespace tokensim {

/** Bandwidth-adaptive cache controller. */
class TokenACache : public TokenBCache
{
  public:
    TokenACache(ProtoContext &ctx, NodeId id,
                const ProtocolParams &params, TokenAuditor *auditor,
                std::uint64_t seed, TokenHolderSet &holders);

    /** First-issue decisions taken in each mode (for tests/benches). */
    std::uint64_t broadcastIssues() const { return broadcasts_; }
    std::uint64_t unicastIssues() const { return unicasts_; }

    /** Most recent utilization estimate, in [0, 1]. */
    double utilizationEstimate() const { return utilization_; }

    void
    resetState(const ProtocolParams &params,
               std::uint64_t seed) override
    {
        TokenBCache::resetState(params, seed);
        windowStart_ = 0;
        windowStartByteLinks_ = 0;
        utilization_ = 0.0;
        broadcasts_ = 0;
        unicasts_ = 0;
    }

  protected:
    void issueTransient(Addr addr, const Transaction &trans,
                        bool reissue) override;

  private:
    /** Refresh the utilization estimate once per window. */
    void sampleUtilization();

    Tick windowStart_ = 0;
    std::uint64_t windowStartByteLinks_ = 0;
    double utilization_ = 0.0;
    std::uint64_t broadcasts_ = 0;
    std::uint64_t unicasts_ = 0;
};

} // namespace tokensim

#endif // TOKENSIM_CORE_EXT_TOKENA_HH
