/**
 * @file
 * TokenB: the Token-Coherence-using-Broadcast performance protocol
 * (Section 4.2), together with the token-counting cache and memory
 * controllers of the correctness substrate it runs on.
 *
 * Policy summary (the paper's three policies):
 *  - Issuing transient requests: broadcast every transient request.
 *  - Responding: like a MOSI protocol. No tokens: ignore. Non-owner
 *    tokens only: ignore shared requests; send all tokens (dataless)
 *    on exclusive requests. Owner: send data + one (usually non-owner)
 *    token on shared requests, data + all tokens on exclusive
 *    requests. An exclusive owner that has written the block answers a
 *    shared request with data + all tokens (migratory optimization).
 *  - Reissuing: after roughly twice the recent average miss latency
 *    (plus a small randomized exponential backoff), reissue; after
 *    maxReissues reissues (~10x the average miss time in total),
 *    invoke a persistent request.
 *
 * The cache controller is written so that the Section-7 performance
 * protocols (TokenD, TokenM) can subclass it and change only the
 * transient-request issue policy; the correctness machinery (token
 * counting, persistent-request tables) is shared, which is exactly the
 * decoupling the paper advocates.
 */

#ifndef TOKENSIM_CORE_TOKENB_HH
#define TOKENSIM_CORE_TOKENB_HH

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "core/persistent.hh"
#include "core/substrate.hh"
#include "core/token_holders.hh"
#include "core/token_state.hh"
#include "mem/block_map.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "proto/controller.hh"
#include "sim/random.hh"

namespace tokensim {

/** An L2 line under Token Coherence: tokens live in the tag state
 *  (the block address is the CacheArray's tag). */
struct TokenLine
{
    bool owner = false;    ///< owner token held
    bool validData = false;///< data-valid bit (invariant #3')
    bool dirty = false;    ///< written while holding all tokens
    int tokens = 0;        ///< total tokens held (including owner)
    std::uint64_t data = 0;
};
static_assert(sizeof(TokenLine) == 16,
              "TokenLine's flags no longer pack beside its token count");

/**
 * Token-coherence L2 cache controller running the TokenB performance
 * protocol.
 */
class TokenBCache : public CacheController, public TokenHolder
{
  public:
    /**
     * @param ctx shared environment.
     * @param id this node.
     * @param params protocol tuning (tokensPerBlock, reissue policy).
     * @param auditor optional conservation checker (tests).
     * @param seed RNG seed for the randomized reissue backoff.
     * @param holders the System's token-holder set, which this cache
     *     keeps current for its own L2.
     */
    TokenBCache(ProtoContext &ctx, NodeId id,
                const ProtocolParams &params, TokenAuditor *auditor,
                std::uint64_t seed, TokenHolderSet &holders);

    void request(const ProcRequest &req) override;
    void handleMessage(const Message &msg) override;
    bool hasPermission(Addr addr, MemOp op) const override;
    void resetState(const ProtocolParams &params,
                    std::uint64_t seed) override;

    /**
     * Functional apply, shared by every token performance protocol
     * (TokenD/M/A/Null inherit it): token movements settle atomically
     * — requester gathers what the responding policy would send — so
     * conservation invariant #1' holds at every step. Performance soft
     * state (destination predictors, soft-state directory, adaptation
     * windows) stays cold, as documented on the base class.
     */
    std::uint64_t applyFunctional(const ProcRequest &req,
                                  FunctionalEnv &env) override;
    void encodeWarmState(WireWriter &w) const override;
    void decodeWarmState(WireReader &r) override;

    // TokenHolder
    int tokensHeld(Addr block_addr) const override;
    bool ownerHeld(Addr block_addr) const override;
    std::string holderName() const override;

    /** Tokens per block, T. */
    int tokensPerBlock() const { return t_; }

    /** True if no transaction is outstanding (test teardown). */
    bool quiescent() const { return outstanding_.empty(); }

    /** L2 residency, for checking the token-holder set. */
    bool resident(Addr block_addr) const { return l2_.contains(block_addr); }
    std::uint64_t residentLines() const { return l2_.validCount(); }

    /** Current MOESI-equivalent state of a block (tests). */
    TokenMoesi moesiState(Addr addr) const;

  protected:
    /**
     * One outstanding processor miss. Move-only: the reissue timer is
     * a pooled EventQueue::Timer handle, cancelled automatically when
     * the transaction completes (erase/overwrite destroys or
     * reassigns the handle) — no stale timeout ever reaches the
     * protocol.
     */
    struct Transaction
    {
        ProcRequest req;
        Tick issuedAt = 0;
        int reissues = 0;
        bool persistentIssued = false;
        bool sawCacheData = false;
        /** Reissue/persistent-escalation deadline. */
        EventQueue::Timer timer;
    };

    /**
     * Send the transient request for @p trans. TokenB broadcasts;
     * subclasses (TokenD, TokenM) override to unicast or multicast.
     */
    virtual void issueTransient(Addr addr, const Transaction &trans,
                                bool reissue);

    /** Handle an incoming transient request (getS/getM). */
    void handleTransient(const Message &msg);

    /** Handle arriving tokens. */
    void handleTokenTransfer(const Message &msg);

    /** Handle persistent-request activation/deactivation broadcasts. */
    void handlePersistActivate(const Message &msg);
    void handlePersistDeactivate(const Message &msg);

    /** Allocate the line for a block, evicting if needed. */
    TokenLine *allocLine(Addr addr);

    /** Fast-forward allocation: a victim's tokens (and data, when it
     *  owns) move to the home atomically — no message. */
    TokenLine *functionalAlloc(Addr ba, FunctionalEnv &env);

    /** Release tokens from a line into a message and send it. */
    void sendTokensFromLine(Addr ba, TokenLine &line, int count,
                            bool send_owner, bool with_data, NodeId dest,
                            Unit dst_unit, MsgClass cls, Tick delay);

    /** Send an already-built token message (audits + schedules). */
    void sendTokenMsg(Message msg, Tick delay);

    /** Drop block @p ba's now-empty line and tell the sequencer. */
    void freeLine(Addr ba);

    /** Evict block @p ba's victim line produced by allocation. */
    void evictVictim(Addr ba, const TokenLine &victim);

    /** Complete @p trans if the line now grants its operation. */
    void checkSatisfied(Addr addr);

    /** Reissue/persistent timeout machinery. */
    void scheduleTimeout(Addr addr);
    void onTimeout(Addr addr);
    Tick timeoutDelay(int reissues_so_far);
    void invokePersistent(Addr addr, Transaction &trans);
    void sendPersistDone(Addr addr);

    /** Current average miss latency estimate, in ticks. */
    Tick avgMissTicks() const;

    int t_;
    ProtocolParams params_;
    TokenAuditor *auditor_;
    Rng rng_;
    CacheArray<TokenLine> l2_;
    /** Kept equal to l2_'s residency by every line allocation, free
     *  and eviction. */
    TokenHolderSet &holders_;
    /** A store's copy of its block's holders (fast-forward drains
     *  them, which edits the set). */
    std::vector<std::uint64_t> gatherMask_;
    BlockMap<Transaction> outstanding_;

    /**
     * Active persistent requests this node knows about (the paper's
     * per-node hardware table): block -> starving requester. All
     * tokens for these blocks are forwarded to the requester.
     */
    BlockMap<NodeId> persistentTable_;

    /** Blocks whose active persistent request we already released
     *  (one persistDone per activation). */
    BlockSet persistDoneSent_;

    Ewma avgMissLatency_;
};

/**
 * Token-coherence home memory controller: holds the tokens of
 * uncached blocks (conceptually in ECC bits), responds to transient
 * requests like a cache, accepts evicted tokens, and hosts the
 * persistent-request arbiter for the blocks homed here.
 */
class TokenBMemory : public MemoryController, public TokenHolder
{
  public:
    TokenBMemory(ProtoContext &ctx, NodeId id,
                 const ProtocolParams &params, TokenAuditor *auditor);

    void handleMessage(const Message &msg) override;
    std::uint64_t peekData(Addr addr) const override;
    void resetState(const ProtocolParams &params) override;

    void encodeWarmState(WireWriter &w) const override;
    void decodeWarmState(WireReader &r) override;

    // TokenHolder
    int tokensHeld(Addr block_addr) const override;
    bool ownerHeld(Addr block_addr) const override;
    std::string holderName() const override;

    PersistentArbiter &arbiter() { return arbiter_; }
    const PersistentArbiter &arbiter() const { return arbiter_; }

    /** Memory-side token holding for a block (tests). */
    TokenCount tokenState(Addr addr) const;

  protected:
    /** Fast-forward reaches straight into the home's token holdings
     *  and backing store. */
    friend class TokenBCache;

    /** Handle a transient request reaching the home. */
    virtual void handleTransient(const Message &msg);

    void handleTokenTransfer(const Message &msg);
    void handlePersistActivate(const Message &msg);
    void handlePersistDeactivate(const Message &msg);

    /** Mutable holding for a block homed here. */
    TokenCount &tokensFor(Addr addr);

    /** Send tokens out of memory (audits, applies DRAM latency). */
    void sendFromMemory(Addr addr, TokenCount &tc, int count,
                        bool send_owner, bool with_data, NodeId dest,
                        MsgClass cls);

    int t_;
    ProtocolParams params_;
    TokenAuditor *auditor_;
    BackingStore store_;
    Dram dram_;
    PersistentArbiter arbiter_;
    BlockMap<TokenCount> tokens_;
    BlockMap<NodeId> persistentTable_;
};

} // namespace tokensim

#endif // TOKENSIM_CORE_TOKENB_HH
