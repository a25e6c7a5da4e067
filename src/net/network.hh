/**
 * @file
 * Timing model of the interconnection network.
 *
 * Models each directed link with a latency (15 ns default) and a
 * serialization delay from the 3.2 GB/s link bandwidth; per-link
 * occupancy produces contention (including the tree's central-root
 * bottleneck that Section 6 Question #2 discusses). Messages are routed
 * over the Topology's precomputed paths; broadcasts use bandwidth-
 * efficient tree multicast (one copy per link). Transfer is modeled as
 * cut-through: a message pays one serialization delay end-to-end plus
 * the per-hop link latency, while occupying each crossed link for its
 * serialization time.
 *
 * Unicasts (and the ordered broadcast's climb to the root) are also
 * cut-through in the *implementation*: the sender walks its cached
 * route once, at send time, against the per-link busy-until cursors,
 * and schedules a single delivery (or root-sequencing) event at the
 * computed arrival tick — no per-hop continuation events. A link is
 * therefore busy for exactly one serialization delay per crossing and
 * per-route FIFO holds as before, but contended links now serve
 * messages in *send* order rather than head-arrival order: a message
 * reserves its downstream links when it enters the network, so a
 * later-sent message that would have reached a shared link first now
 * queues behind the earlier sender's reservation. (Tree-forwarded
 * broadcasts and multicasts still arbitrate edge by edge at
 * head-arrival time.)
 *
 * Broadcasts and multicasts share one path: a walk of the source's
 * cached broadcast tree steered by per-edge marks — the tree's own for
 * a broadcast; for a multicast, marks of the union of the routes to
 * its destinations, computed at send time into its transit slot.
 *
 * The "unlimited bandwidth" configuration used for the dark-grey bars of
 * Figure 4a/5a zeroes serialization and occupancy, leaving pure latency.
 *
 * Copies a token cache would ignore are not delivered. With a
 * TokenHolderSet installed (setTokenHolders), a broadcast or multicast
 * copy of a transient request (getS/getM) is dropped at flush time
 * when its destination neither homes the block nor holds it in L2.
 * This is exact: TokenBCache::handleTransient returns before changing
 * any state when the copy is the requester's own echo, when the block
 * has a persistent-table entry, or when its L2 has no line for the
 * block, and the find() that decides the last case leaves LRU alone.
 * The skip drops only copies of the last kind, which the set names
 * exactly, and the home's memory controller always gets its copy.
 * Link timing, fan-out and traffic accounting are untouched, and a
 * skipped copy is still counted in TrafficStats::deliveries and
 * latency, in the same order; only the endpoint call is saved. The
 * set is read when the copy's turn comes, because handlers earlier in
 * the same batch can add or remove holders: a run of copies of one
 * message shares one lookup until the set's generation moves. Only
 * flushes on a network with a set installed check the message, so
 * protocols without one pay nothing. Debug builds assert that every
 * skipped copy's cache holds no tokens for the block.
 *
 * In-flight messages are pooled: a send copies the Message once into a
 * refcounted transit slot, and every forwarding event / batched
 * delivery carries only the 4-byte slot index. Slots recycle through a
 * free list (keeping their multicast-mark storage), so the
 * steady-state network neither allocates nor copies Messages hop by
 * hop.
 */

#ifndef TOKENSIM_NET_NETWORK_HH
#define TOKENSIM_NET_NETWORK_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "mem/block_map.hh"
#include "net/message.hh"
#include "net/topology.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/tick_fifo.hh"
#include "sim/types.hh"

namespace tokensim {

class TokenHolderSet;

/** Tunable parameters of the link/network model (Table 1 defaults). */
struct NetworkParams
{
    /** Per-hop link latency (wire + synchronization + route). */
    Tick linkLatency = nsToTicks(15);

    /** Link bandwidth in bytes per nanosecond (3.2 GB/s). */
    double bytesPerNs = 3.2;

    /** If true, serialization and contention are disabled. */
    bool unlimitedBandwidth = false;

    /** Size of control messages on the wire (requests, acks, tokens). */
    std::uint32_t ctrlBytes = 8;

    /** Size of data messages (8-byte header + 64-byte block). */
    std::uint32_t dataBytes = 72;

    /** Delivery delay for a message a node sends to itself. */
    Tick localDelay = 1;
};

/** Interconnect traffic accounting, per Figure 4b/5b category. */
struct TrafficStats
{
    struct PerClass
    {
        std::uint64_t messages = 0;
        /** Bytes multiplied by links crossed (link utilization). */
        std::uint64_t byteLinks = 0;
    };

    std::array<PerClass, numMsgClasses> byClass{};
    std::array<std::uint64_t, numMsgTypes> messagesByType{};
    std::uint64_t deliveries = 0;
    RunningStat latency;   ///< per-delivery network latency, in ticks

    std::uint64_t
    byteLinksOf(MsgClass c) const
    {
        return byClass[static_cast<std::size_t>(c)].byteLinks;
    }

    std::uint64_t
    messagesOf(MsgClass c) const
    {
        return byClass[static_cast<std::size_t>(c)].messages;
    }

    std::uint64_t
    totalByteLinks() const
    {
        std::uint64_t t = 0;
        for (const auto &c : byClass)
            t += c.byteLinks;
        return t;
    }

    void
    clear()
    {
        *this = TrafficStats();
    }
};

/**
 * The interconnection network: owns the topology and link state, routes
 * messages, applies latency/bandwidth/contention, and delivers them to
 * attached endpoints through the event queue.
 */
class Network
{
  public:
    /**
     * @param eq the system event queue.
     * @param topo the topology (ownership transferred).
     * @param params link model parameters.
     * @throws std::invalid_argument if bandwidth is limited and
     *     params.bytesPerNs is not a positive rate whose serialization
     *     delays fit in a Tick.
     */
    Network(EventQueue &eq, std::unique_ptr<Topology> topo,
            NetworkParams params = {});

    /** Attach the endpoint for node @p id (must cover all nodes). */
    void attach(NodeId id, NetworkEndpoint *ep);

    /**
     * Skip the transient-request broadcast copies that a non-holder
     * of the block would ignore, reading holders from @p holders (see
     * the file comment). Install it only when every endpoint's cache
     * ignores a transient request for a block it holds no tokens for.
     */
    void setTokenHolders(const TokenHolderSet *holders) { holders_ = holders; }

    /** Number of endpoint nodes. */
    int numNodes() const { return topo_->numNodes(); }

    /**
     * Send a point-to-point message to msg.dest. A message to the
     * sending node itself bypasses the network (localDelay, no
     * traffic) — this is how a request reaches a home memory that is
     * co-located with the requester.
     */
    void unicast(Message msg);

    /**
     * Send one logical message to a destination set, forwarded along
     * the source's broadcast tree pruned to the routes reaching
     * @p dests, so that each crossed link carries a single copy. A
     * destination equal to the source is delivered locally.
     */
    void multicast(Message msg, const std::vector<NodeId> &dests);

    /**
     * Unordered broadcast to every node. The sender receives its own
     * copy after localDelay (so a co-located home memory controller
     * still observes the request); remote nodes receive it through the
     * broadcast tree. No ordering across broadcasts is guaranteed.
     */
    void broadcast(Message msg);

    /**
     * Totally-ordered broadcast (traditional snooping). Requires a
     * topology with an ordering root. The message travels to the root,
     * receives the next global sequence number, and fans out to every
     * node — including the sender, which is how a snooping requester
     * learns its own place in the total order. All nodes observe all
     * ordered broadcasts in sequence-number order, and every node
     * observes a given broadcast at the same tick (atomic visibility:
     * the fan-out is delivered at the latest per-link arrival, so a
     * requester's echo cannot outrun a sharer's invalidation).
     */
    void broadcastOrdered(Message msg);

    /** True if broadcastOrdered() is usable on this topology. */
    bool ordered() const { return topo_->totallyOrdered(); }

    const Topology &topology() const { return *topo_; }
    const NetworkParams &params() const { return params_; }

    const TrafficStats &traffic() const { return stats_; }
    void clearTraffic() { stats_.clear(); }

    /** Serialization delay in ticks for a message of @p bytes. */
    Tick serializationTicks(std::uint32_t bytes) const;

    /**
     * Return to the just-constructed state with (possibly different)
     * link parameters @p params — clock-zero link occupancy, zeroed
     * traffic stats and ordering sequence, an empty transit pool —
     * while keeping all grown pool, chunk and far-map storage. The
     * reusable-System path calls this between runs. Throws like the
     * constructor on invalid @p params.
     */
    void reset(const NetworkParams &params);

  private:
    /** Validate and install @p params, caching both message sizes'
     *  serialization delays. */
    void setParams(const NetworkParams &params);

    /** Serialization delay of a finalized message. */
    Tick
    serialization(const Message &msg) const
    {
        return msg.hasData ? dataSer_ : ctrlSer_;
    }

    /** Fill in wire size and entry timestamp. */
    void finalize(Message &msg);

    /** Count a message crossing @p nlinks links. */
    void account(const Message &msg, std::size_t nlinks);

    // ---- In-flight message pool ----------------------------------
    //
    // Every message in transit lives in ONE pooled slot; forwarding
    // events and batched deliveries carry a 4-byte slot index plus a
    // reference count instead of copying the full Message through
    // each closure. Slots recycle through an intrusive free list, so
    // the steady-state network performs no allocation.

    /** No-slot sentinel / free-list terminator. */
    static constexpr std::uint32_t noSlot = ~std::uint32_t{0};

    struct TransitSlot
    {
        Message msg;
        std::uint32_t refs = 0;
        std::uint32_t nextFree = noSlot;
        /** Tree fan-out marks, one per edge of the source's broadcast
         *  tree: the tree's own, or ownMarks for a multicast. */
        const std::uint8_t *marks = nullptr;
        std::vector<std::uint8_t> ownMarks;
    };

    /** Slots per pool chunk (chunks give stable addresses, so a
     *  handler can read a delivered message in place while its own
     *  sends grow the pool). */
    static constexpr std::uint32_t slotChunkBits = 8;
    static constexpr std::uint32_t slotChunkSize = 1u << slotChunkBits;

    TransitSlot &
    slotRef(std::uint32_t s)
    {
        return slotChunks_[s >> slotChunkBits][s &
                                               (slotChunkSize - 1)];
    }

    /** Copy @p m into a recycled (or new) slot; refcount starts at 1. */
    std::uint32_t acquireSlot(const Message &m);

    void slotAddRef(std::uint32_t s) { ++slotRef(s).refs; }

    void
    slotRelease(std::uint32_t s)
    {
        TransitSlot &slot = slotRef(s);
        if (--slot.refs == 0) {
            slot.nextFree = freeHead_;
            freeHead_ = s;
        }
    }

    /**
     * Schedule delivery of pooled message @p slot to @p dest at
     * @p when (takes its own slot reference). Deliveries landing on
     * the same tick are batched: the first one schedules a single
     * flush event and later ones just append to its batch, so a
     * broadcast fanning out to N nodes in one cycle costs one event
     * instead of N. See deliveryRing_ for when one tick gets two
     * batches.
     */
    void scheduleDelivery(NodeId dest, std::uint32_t slot, Tick when);

    /** Deliver every message of the oldest open batch for tick
     *  @p when, in order. */
    void flushDeliveries(Tick when);

    /**
     * Arbitrate for @p link from tick @p at, occupying it for @p ser,
     * and return the head-arrival tick at its far end. Tree forwarding
     * arbitrates edge by edge at head-arrival time; unicasts and the
     * ordered broadcast chain it along a whole path up front.
     */
    Tick reserve(LinkId link, Tick at, Tick ser);

    /**
     * Transmit edge @p ei of the broadcast tree of pooled message
     * @p slot's source now; on head arrival, deliver to the node it
     * reaches and fan out to the needed child edges, as the slot's
     * marks say. Consumes one reference on @p slot.
     */
    void transmitEdge(std::uint32_t slot, std::uint32_t ei);

    /** Transmit the needed edges among @p edges of @p slot's tree.
     *  Consumes one reference on @p slot. */
    void forward(std::uint32_t slot, Span<std::uint32_t> edges);

    /**
     * Cut-through reservation: reserve() @p path's links in order
     * from the current tick and return the head-arrival tick at the
     * far end of the last link. The whole route is arbitrated at
     * send time — see the file comment for the tie-break this implies
     * versus per-hop arbitration.
     */
    Tick reservePath(Span<LinkId> path, Tick ser);

    /**
     * The ordered-broadcast root phase: assign the next global
     * sequence number to pooled message @p slot and fan it out down
     * the ordered tree. Runs in the event scheduled for the tick the
     * full message reaches the root. Consumes one reference.
     */
    void sequenceAndFanOut(std::uint32_t slot);

    /** One batched delivery: destination plus the pooled message. */
    struct Delivery
    {
        NodeId dest;
        std::uint32_t slot;
    };

    /** Batches are FIFOs of 32-delivery (256-byte) chunks drawn from
     *  one recycled pool (sim/tick_fifo.hh). */
    using DeliveryPool = TickFifoPool<Delivery, 32>;
    using Batch = DeliveryPool::List;

    /** The delivery loop of flushDeliveries: delivers @p batch and
     *  returns its chunks as it goes; @p SkipIgnored drops the copies
     *  holders_ shows would be ignored. */
    template <bool SkipIgnored>
    void deliverBatch(Batch &batch);

    EventQueue &eq_;
    std::unique_ptr<Topology> topo_;
    NetworkParams params_;
    /** Serialization delays of ctrlBytes / dataBytes messages. */
    Tick ctrlSer_ = 0;
    Tick dataSer_ = 0;
    std::vector<NetworkEndpoint *> endpoints_;
    /** Token holders for skipping ignored copies, or nullptr. */
    const TokenHolderSet *holders_ = nullptr;
    std::vector<Tick> linkFree_;
    /** In-flight message pool (see above), in fixed-size chunks. */
    std::vector<std::unique_ptr<TransitSlot[]>> slotChunks_;
    std::uint32_t slotCount_ = 0;
    std::uint32_t freeHead_ = noSlot;
    /** Delivery-batch calendar ring horizon (ticks). */
    static constexpr std::size_t deliveryRingSize = 4096;
    static constexpr std::size_t deliveryRingMask =
        deliveryRingSize - 1;

    /**
     * Same-tick delivery batches. Nearly every delivery lands within
     * deliveryRingSize ticks of "now", so batches live in a
     * direct-indexed calendar ring (no hashing on the per-message
     * path); the rare contention-delayed stragglers go to the far
     * map, keyed by tick (a tick is never one of BlockMap's two
     * all-ones sentinel keys). Slot aliasing is impossible: a batch at
     * tick T is flushed during tick T, and a later tick mapping to the
     * same slot is at distance >= deliveryRingSize, which routes to
     * the far map. A flush detaches its whole batch first, so a
     * handler's delivery for the tick being flushed opens a new batch
     * with its own flush event.
     *
     * The horizon is part of the model, not just a storage choice. A
     * far batch is opened while its tick T lies beyond the horizon;
     * once T comes within the horizon, a later delivery for T opens a
     * separate ring batch with a flush event of its own. The two flush
     * in the order they were opened (far first, since every far entry
     * for T predates every ring entry), and events scheduled for T in
     * between run between them. Changing deliveryRingSize moves that
     * split: a delivery's tick stays the same, but the number of flush
     * events (events_dispatched) and the order of same-tick work
     * change, and with them the registries.
     */
    DeliveryPool deliveryPool_;
    std::vector<Batch> deliveryRing_;
    BlockMap<Batch> farDeliveries_;
    /** Per-node multicast destination flags (all zero between
     *  sends). */
    std::vector<std::uint8_t> wanted_;
    /** Per-vertex head-arrival scratch for the ordered fan-out walk
     *  (sized to the vertex count on first use, then reused). */
    std::vector<Tick> headScratch_;
    std::uint64_t orderSeq_ = 0;
    TrafficStats stats_;
};

} // namespace tokensim

#endif // TOKENSIM_NET_NETWORK_HH
