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
#include <vector>

#include "mem/block_map.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "proto/controller.hh"
#include "proto/home_state.hh"

namespace tokensim {

/** Stable MOSI states of a snooping cache line. */
enum class SnoopState : std::uint8_t
{
    I = 0,
    S,
    O,
    M,
};

/** Human-readable state name. */
const char *snoopStateName(SnoopState s);

/** A snooping L2 line. */
struct SnoopLine : CacheLineBase
{
    SnoopState state = SnoopState::I;
    bool written = false;   ///< stored to while in M (migratory hint)
    std::uint64_t data = 0;
};

/** Snooping L2 cache controller. */
class SnoopCache : public CacheController
{
  public:
    SnoopCache(ProtoContext &ctx, NodeId id,
               const ProtocolParams &params);

    void request(const ProcRequest &req) override;
    void handleMessage(const Message &msg) override;
    bool hasPermission(Addr addr, MemOp op) const override;
    void resetState(const ProtocolParams &params,
                    std::uint64_t seed) override;

    std::uint64_t applyFunctional(const ProcRequest &req,
                                  FunctionalEnv &env) override;
    void encodeWarmState(WireWriter &w) const override;
    void decodeWarmState(WireReader &r) override;

    /** Stable state of a block (tests). */
    SnoopState state(Addr addr) const;

    bool
    quiescent() const
    {
        return outstanding_.empty() && wbBuffer_.empty();
    }

  private:
    /** One outstanding miss. */
    struct Transaction
    {
        ProcRequest req;
        Tick issuedAt = 0;
        bool ordered = false;        ///< own request observed
        bool dataReceived = false;
        bool dataExclusive = false;
        bool dataFromMemory = false;
        std::uint64_t dataValue = 0;
        std::vector<Message> deferred;   ///< snoops to apply after fill
    };

    /** A line between PutM issue and writeback-data send. */
    struct WbEntry
    {
        std::uint64_t data = 0;
        bool surrendered = false;   ///< ownership taken by a GetM
    };

    void handleSnoop(const Message &msg);
    void handleOwnRequest(const Message &msg);
    void applySnoop(const Message &msg);
    void handleData(const Message &msg);
    void completeTrans(Addr addr);

    SnoopLine *allocLine(Addr addr);
    void evictVictim(const SnoopLine &victim);
    void respondData(NodeId dest, Addr addr, std::uint64_t value,
                     bool exclusive);

    /** Allocate a line during fast-forward, retiring any victim by
     *  moving its state functionally (no PutM broadcast). */
    SnoopLine *functionalAlloc(Addr ba, FunctionalEnv &env);

    ProtocolParams params_;
    CacheArray<SnoopLine> l2_;
    BlockMap<Transaction> outstanding_;
    BlockMap<WbEntry> wbBuffer_;

    /** Blocks predicted migratory: loads fetch them exclusively. */
    BlockSet migratoryPred_;
};

/**
 * Snooping home memory: observes the total order of requests for the
 * blocks homed here, keeps the per-block owner indication, and responds
 * when no cache owner exists. Writeback data that has been announced
 * (PutM ordered) but not yet arrived causes subsequent requests to
 * queue ("wb pending").
 */
class SnoopMemory : public MemoryController
{
  public:
    SnoopMemory(ProtoContext &ctx, NodeId id,
                const ProtocolParams &params);

    void handleMessage(const Message &msg) override;
    std::uint64_t peekData(Addr addr) const override;
    void resetState(const ProtocolParams &params) override;

    void encodeWarmState(WireWriter &w) const override;
    void decodeWarmState(WireReader &r) override;

    /** True if memory would respond to a request for @p addr. */
    bool memoryOwns(Addr addr) const;

    /** Most requests ever queued at once across this home's blocks
     *  (tests: wait storage must not grow with run length). */
    std::size_t waitPoolHighWater() const { return waitPool_.highWater(); }

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

    MemBlock &blockFor(Addr addr);
    void respondData(const Message &req);

    ProtocolParams params_;
    BackingStore store_;
    Dram dram_;
    BlockMap<MemBlock> blocks_;
    WaitPool<Message> waitPool_;
};

} // namespace tokensim

#endif // TOKENSIM_PROTO_SNOOPING_SNOOPING_HH
