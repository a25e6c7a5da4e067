/**
 * @file
 * Persistent-request arbiter (Section 3.2, Figure 3c).
 *
 * One arbiter lives at each home memory module and serializes
 * persistent requests for the blocks homed there. The state machine per
 * block is:
 *
 *   Idle --persistReq--> Activating  (broadcast activation; await one
 *                                     ack from every node)
 *   Activating --all acks--> Active
 *   Active --persistDone--> Deactivating (broadcast deactivation;
 *                                     await acks)
 *   Deactivating --all acks--> Idle  (activate next queued requester)
 *
 * While a request is active every node — including the home memory —
 * forwards all present and future tokens for the block to the
 * initiator, which is what makes persistent requests succeed regardless
 * of races. Activation is fair (FIFO per block), giving starvation
 * freedom.
 */

#ifndef TOKENSIM_CORE_PERSISTENT_HH
#define TOKENSIM_CORE_PERSISTENT_HH

#include <cstdint>

#include "mem/block_map.hh"
#include "net/message.hh"
#include "proto/context.hh"
#include "proto/home_state.hh"
#include "sim/types.hh"

namespace tokensim {

/** Arbiter statistics (exposed for tests and the reissue benches). */
struct ArbiterStats
{
    std::uint64_t requestsReceived = 0;
    std::uint64_t activations = 0;
    std::uint64_t deactivations = 0;
    std::uint64_t maxQueueDepth = 0;
};

/**
 * The per-home persistent-request arbiter. It is driven by the four
 * persistent message types its owning memory controller routes to it
 * and sends its own messages directly through the network.
 */
class PersistentArbiter
{
  public:
    /**
     * @param ctx shared protocol context.
     * @param id the home node this arbiter lives at.
     */
    PersistentArbiter(ProtoContext &ctx, NodeId id)
        : ctx_(ctx), id_(id)
    {}

    /** Route one arbiter-bound message (persistReq, persistActAck,
     *  persistDone, persistDeactAck). */
    void handleMessage(const Message &msg);

    const ArbiterStats &stats() const { return arbStats_; }

    /** Drop all per-block state and statistics (reusable-System
     *  path). */
    void
    reset()
    {
        // BlockMap::clear parks value objects; disarm any pending
        // broadcast timers so none fires for a wiped arbiter.
        for (auto entry : blocks_)
            entry.second.bcastTimer.cancel();
        blocks_.clear();
        queuePool_.clear();
        arbStats_ = ArbiterStats{};
    }

    /** Requester whose persistent request is active for @p addr, or
     *  invalidNode. */
    NodeId
    activeRequester(Addr addr) const
    {
        auto it = blocks_.find(addr);
        if (it == blocks_.end())
            return invalidNode;
        const BlockArb &b = it->second;
        return b.phase == Phase::idle ? invalidNode : b.requester;
    }

    /** True if no block has persistent activity (for test teardown). */
    bool
    quiescent() const
    {
        for (const auto &[addr, b] : blocks_) {
            if (b.phase != Phase::idle || !b.queue.empty())
                return false;
        }
        return true;
    }

  private:
    enum class Phase : std::uint8_t
    {
        idle,
        activating,
        active,
        deactivating,
    };

    struct BlockArb
    {
        Phase phase = Phase::idle;
        NodeId requester = invalidNode;
        int acksPending = 0;
        bool doneReceived = false;
        WaitFifo queue;   ///< in queuePool_
        /**
         * Controller-latency delay before the activation/deactivation
         * broadcast leaves this arbiter. The phases serialize, so one
         * reusable timer handle per block covers both broadcasts —
         * never pending twice at once (asserted in broadcastArb).
         */
        EventQueue::Timer bcastTimer;
    };

    void onRequest(const Message &msg);
    void onActAck(const Message &msg);
    void onDone(const Message &msg);
    void onDeactAck(const Message &msg);

    /** Start activation of the queue head for @p addr. */
    void activateNext(Addr addr, BlockArb &b);

    /** Begin the deactivation handshake. */
    void startDeactivation(Addr addr, BlockArb &b);

    /** Broadcast an activation/deactivation for @p b's block after
     *  the controller latency, via the block's reusable timer. */
    void broadcastArb(BlockArb &b, MsgType type, Addr addr,
                      NodeId requester);

    ProtoContext &ctx_;
    NodeId id_;
    BlockMap<BlockArb> blocks_;
    WaitPool<NodeId> queuePool_;
    ArbiterStats arbStats_;
};

} // namespace tokensim

#endif // TOKENSIM_CORE_PERSISTENT_HH
