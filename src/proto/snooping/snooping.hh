/**
 * @file
 * Traditional split-transaction MOSI snooping (Section 5.1 baseline).
 *
 * Every request is a totally-ordered broadcast through the tree's root;
 * all caches and the home memory observe all requests for a block in
 * the same order, which is what resolves the races of Section 2. Like
 * the paper's baseline (modeled on the Sun Starfire [11]), the protocol
 * avoids a snoop-response combining tree by keeping a single "owner"
 * indication at the memory [16] that says whether memory must respond;
 * additional non-stable states relax synchronous timing (a requester
 * whose request has been ordered but whose data has not arrived defers
 * conflicting snoops until the data shows up).
 *
 * Store misses always issue GetM (no separate upgrade transaction);
 * this sidesteps the classic stale-upgrade race and matches the
 * migratory-optimized behavior the paper assumes, where write misses
 * transfer data anyway.
 *
 * The migratory-sharing optimization is implemented on the requester
 * side: a small per-cache predictor marks blocks that exhibit the
 * load-then-store pattern, and loads to marked blocks issue GetM
 * ("load-exclusive") so the whole read-modify-write costs one
 * transaction. Owner-side exclusive handoffs on GetS — what the other
 * protocols use — would move ownership invisibly to the memory's
 * owner tracking and break its stale-writeback filtering, because
 * snooping has no home-serialization point to make the transfer
 * visible; with the requester-side scheme every ownership transfer is
 * a GetM that memory observes in the total order.
 */

#ifndef TOKENSIM_PROTO_SNOOPING_SNOOPING_HH
#define TOKENSIM_PROTO_SNOOPING_SNOOPING_HH

#include <cstdint>
#include <type_traits>

#include "proto/mosi.hh"

namespace tokensim {

/** Snooping L2 cache controller. */
class SnoopCache : public MosiCache
{
  public:
    SnoopCache(ProtoContext &ctx, NodeId id,
               const ProtocolParams &params);

    void handleMessage(const Message &msg) override;
    void resetState(const ProtocolParams &params,
                    std::uint64_t seed) override;

    std::uint64_t applyFunctional(const ProcRequest &req,
                                  FunctionalEnv &env) override;
    void encodeWarmState(WireWriter &w) const override;
    void decodeWarmState(WireReader &r) override;

  private:
    void issueMiss(Addr ba, bool is_store) override;
    void writeBack(Addr ba, const MosiLine &victim) override;

    /** Migratory prediction for a miss on @p ba: true if it fetches
     *  the block exclusively. A store miss trains the predictor. */
    bool fetchExclusive(Addr ba, bool is_store);

    void handleSnoop(const Message &msg);
    void handleOwnRequest(const Message &msg);
    void applySnoop(const Message &msg);
    void handleData(const Message &msg);
    void completeMiss(Addr addr);

    /** Blocks predicted migratory: loads fetch them exclusively. */
    BlockSet migratoryPred_;

    /** Snoops ordered after an outstanding miss, replayed on fill. */
    WaitPool<Message> deferredPool_;
};

/**
 * Snooping home memory: observes the total order of requests for the
 * blocks homed here, keeps the per-block owner indication, and responds
 * when no cache owner exists. Writeback data that has been announced
 * (PutM ordered) but not yet arrived causes subsequent requests to
 * queue ("wb pending").
 */
class SnoopMemory : public MosiHome
{
  public:
    SnoopMemory(ProtoContext &ctx, NodeId id,
                const ProtocolParams &params);

    void handleMessage(const Message &msg) override;
    void resetState(const ProtocolParams &params) override;
    void settleWriteback(Addr addr, NodeId from,
                         std::uint64_t data) override;

    void encodeWarmState(WireWriter &w) const override;
    void decodeWarmState(WireReader &r) override;

    /** True if memory would respond to a request for @p addr. */
    bool memoryOwns(Addr addr) const;

  private:
    /** Fast-forward reaches straight into the home's owner table and
     *  backing store. */
    friend class SnoopCache;

    /** Per-block state; the waiting requests live in waitPool_. */
    struct MemBlock
    {
        NodeId owner = invalidNode;   ///< invalidNode = memory owns
        bool wbPending = false;
        WaitFifo waiting;
    };
    static_assert(std::is_trivially_copyable_v<MemBlock>);
    static_assert(sizeof(MemBlock) <= 16);

    MemBlock &blockFor(Addr addr);

    BlockMap<MemBlock> blocks_;
};

} // namespace tokensim

#endif // TOKENSIM_PROTO_SNOOPING_SNOOPING_HH
