/**
 * @file
 * The MOSI skeleton shared by the three baseline protocols of Section
 * 5.1 — Snooping, Directory and Hammer.
 *
 * All three keep the same stable line states and differ only in how a
 * miss finds its data: a totally-ordered broadcast (Snooping), a
 * directory at the home (Directory), or a broadcast the home forwards
 * (Hammer). So one cache base owns the L2 array, the writeback buffer,
 * the hit path, allocation and eviction, the data response, miss
 * completion, fast-forward victim retirement and the warm-state codec,
 * and a protocol plugs in three hooks:
 *
 * - issueMiss: send the request of a miss (default: unicast to the
 *   block's home; Snooping broadcasts it in the total order);
 * - writeBack: write back an owned victim (default: PutM with data to
 *   the home; Snooping announces it in the total order);
 * - MosiHome::settleWriteback: retire an owned victim at its home
 *   during fast-forward.
 *
 * No hook runs on the hit path. Directory and Hammer also share one
 * serializing home (SerialHome): a busy bit, the pending requester,
 * the last exclusive owner and a wait FIFO per block.
 *
 * Eviction never picks an Owned line whose own upgrade is in flight
 * while another way is free to go: its writeback would reach the home
 * after the upgrade and be taken for a live one (Directory would then
 * grant an upgrade to a node without the line; Snooping would wait for
 * data no one sends).
 */

#ifndef TOKENSIM_PROTO_MOSI_HH
#define TOKENSIM_PROTO_MOSI_HH

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "mem/block_map.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "proto/controller.hh"
#include "proto/home_state.hh"

namespace tokensim {

/** Stable MOSI states of a baseline-protocol L2 line. */
enum class MosiState : std::uint8_t
{
    I = 0,
    S,
    O,
    M,
};

/** A baseline-protocol L2 line (the block address is the
 *  CacheArray's tag). */
struct MosiLine
{
    MosiState state = MosiState::I;
    bool written = false;   ///< stored to while in M (migratory hint)
    std::uint64_t data = 0;
};
static_assert(sizeof(MosiLine) == 16, "MosiLine grew past 16 bytes");

/**
 * The home side every baseline protocol shares: the backing store, the
 * DRAM timing, the pool behind its wait FIFOs, and fast-forward's
 * writeback settlement.
 */
class MosiHome : public MemoryController
{
  public:
    MosiHome(ProtoContext &ctx, NodeId id, std::string tag,
             const ProtocolParams &params);

    std::uint64_t peekData(Addr addr) const override;

    /**
     * Fast-forward: settle @p from's writeback of @p data for @p addr,
     * as the detailed PutM would once it landed. The home takes the
     * data only from the owner it records, mirroring the detailed
     * stale-writeback filter.
     */
    virtual void settleWriteback(Addr addr, NodeId from,
                                 std::uint64_t data) = 0;

    /** Most requests ever queued at once across this home's blocks
     *  (tests: wait storage must not grow with run length). */
    std::size_t waitPoolHighWater() const { return waitPool_.highWater(); }

  protected:
    /** Back to fresh-construction state (resetState helper). */
    void resetHome(const ProtocolParams &params);

    /** Data response from memory to @p req's requester, after the
     *  DRAM access. */
    void sendMemoryData(const Message &req, bool exclusive,
                        int ack_count);

    ProtocolParams params_;
    BackingStore store_;
    Dram dram_;
    WaitPool<Message> waitPool_;
};

/**
 * Encode the (address, owner) records of every entry of @p entries
 * with an owner, by ascending address.
 */
template <typename Entry>
void
encodeOwnerRecords(WireWriter &w, const BlockMap<Entry> &entries)
{
    std::vector<std::pair<Addr, NodeId>> owners;
    for (const auto &[a, e] : entries) {
        if (e.owner != invalidNode)
            owners.emplace_back(a, e.owner);
    }
    std::sort(owners.begin(), owners.end());
    w.varint(owners.size());
    for (const auto &[a, o] : owners) {
        w.varint(a);
        w.varint(o);
    }
}

/** Inverse of encodeOwnerRecords() for the blocks homed at @p home. */
template <typename Entry>
void
decodeOwnerRecords(WireReader &r, BlockMap<Entry> &entries,
                   const ProtoContext &ctx, NodeId home)
{
    const std::uint64_t n = r.varint("owner record count");
    Addr prev = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        const Addr a = r.varint("owner record address");
        const std::uint64_t o = r.varint("owner record node");
        if (ctx.blockAlign(a) != a)
            throw WireError("owner record not block-aligned");
        if (ctx.home(a) != home)
            throw WireError("owner record homed elsewhere");
        if (i > 0 && a <= prev)
            throw WireError("owner records not strictly ascending");
        if (o >= static_cast<std::uint64_t>(ctx.numNodes))
            throw WireError("owner record names an invalid node");
        prev = a;
        entries[a].owner = static_cast<NodeId>(o);
    }
}

/** Per-block state of a serializing home. */
struct SerialEntry
{
    NodeId owner = invalidNode;   ///< last exclusive owner
    NodeId pendingRequester = invalidNode;
    WaitFifo queue;
    bool busy = false;
};
static_assert(std::is_trivially_copyable_v<SerialEntry>);
static_assert(sizeof(SerialEntry) <= 20);

/**
 * A home that serializes requests per block (Directory, Hammer). It
 * serves one GetS/GetM at a time and queues GetS, GetM and PutM while
 * busy — no NACKs or retries. The requester's unblock records the
 * outcome and releases the block. A PutM counts only from the owner
 * the home records: any other is stale (its ownership was handed over
 * from the writeback buffer while it was in flight) and is dropped.
 * Either way the evictor gets a wbAck.
 *
 * @p Entry derives from SerialEntry; the protocol adds its own fields.
 */
template <typename Entry>
class SerialHome : public MosiHome
{
  public:
    using MosiHome::MosiHome;

    void
    handleMessage(const Message &msg) override
    {
        switch (msg.type) {
          case MsgType::getS:
          case MsgType::getM:
          case MsgType::putM: {
            Entry &e = entryFor(msg.addr);
            if (e.busy)
                waitPool_.push(e.queue, msg);
            else
                serve(msg, e);
            break;
          }
          case MsgType::unblock:
          case MsgType::unblockExclusive:
            handleUnblock(msg);
            break;
          case MsgType::fwdGetS:
          case MsgType::fwdGetM:
            // Hammer's own probe broadcast echoing back to the home.
            break;
          default:
            assert(false && "unexpected message at a serializing home");
        }
    }

    void
    resetState(const ProtocolParams &params) override
    {
        resetHome(params);
        entries_.clear();
    }

    void
    settleWriteback(Addr addr, NodeId from, std::uint64_t data) override
    {
        Entry &e = entryFor(addr);
        if (e.owner == from) {
            store_.write(addr, data);
            e.owner = invalidNode;
        }
    }

    bool
    quiescent() const
    {
        for (const auto &[a, e] : entries_) {
            if (e.busy || !e.queue.empty())
                return false;
        }
        return true;
    }

  protected:
    Entry &
    entryFor(Addr addr)
    {
        assert(ctx_.home(addr) == id_);
        return entries_[addr];
    }

    /** Serve GetS/GetM @p msg for the now-busy block of @p e. */
    virtual void processRequest(const Message &msg, Entry &e) = 0;

    /** Record @p unblock's outcome beyond the owner (Directory's
     *  sharers). */
    virtual void recordUnblock(const Message &unblock, Entry &e)
    {
        (void)unblock;
        (void)e;
    }

    /** Throw unless no block is busy or has requests waiting. */
    void
    requireQuiescent() const
    {
        if (!quiescent())
            throw WireError(tag_ + " has transactions in flight");
    }

    BlockMap<Entry> entries_;

  private:
    void
    serve(const Message &msg, Entry &e)
    {
        if (msg.type == MsgType::putM) {
            handlePutM(msg, e);
            return;
        }
        e.busy = true;
        e.pendingRequester = msg.requester;
        processRequest(msg, e);
    }

    void
    handleUnblock(const Message &msg)
    {
        Entry &e = entryFor(msg.addr);
        assert(e.busy && "unblock with no transaction in flight");
        assert(msg.requester == e.pendingRequester);
        if (msg.type == MsgType::unblockExclusive)
            e.owner = msg.requester;
        recordUnblock(msg, e);
        e.busy = false;
        e.pendingRequester = invalidNode;
        while (!e.busy && !e.queue.empty())
            serve(waitPool_.pop(e.queue), e);
    }

    void
    handlePutM(const Message &msg, Entry &e)
    {
        if (e.owner == msg.requester) {
            store_.write(msg.addr, msg.data);
            dram_.access(ctx_.now());
            e.owner = invalidNode;
        }
        Message ack;
        ack.type = MsgType::wbAck;
        ack.cls = MsgClass::nonData;
        ack.dstUnit = Unit::cache;
        ack.addr = msg.addr;
        ack.dest = msg.requester;
        ack.requester = msg.requester;
        ack.src = id_;
        sendAfter(ctx_.ctrlLatency, ack);
    }
};

/**
 * The L2 cache controller every baseline protocol shares (see the file
 * comment). Subclasses handle their own coherence messages and
 * fast-forward misses; everything else lives here.
 */
class MosiCache : public CacheController
{
  public:
    MosiCache(ProtoContext &ctx, NodeId id, std::string tag,
              const ProtocolParams &params);

    void request(const ProcRequest &req) final;
    bool hasPermission(Addr addr, MemOp op) const final;
    void resetState(const ProtocolParams &params,
                    std::uint64_t seed) override;
    void encodeWarmState(WireWriter &w) const override;
    void decodeWarmState(WireReader &r) override;

    /** Stable state of a block (tests). */
    MosiState state(Addr addr) const;

    bool
    quiescent() const
    {
        return outstanding_.empty() && wbBuffer_.empty();
    }

  protected:
    /** One outstanding miss. */
    struct Miss
    {
        ProcRequest req;
        Tick issuedAt = 0;
        bool dataReceived = false;  ///< data (or an upgrade grant) is in
        bool exclusive = false;     ///< the data came with write permission
        bool cacheToCache = false;  ///< a remote cache supplied the data
        bool ordered = false;       ///< Snooping: own request ordered
        std::uint64_t value = 0;
        int acksNeeded = -1;        ///< unknown until the data arrives
        int acksReceived = 0;
        WaitFifo deferred;          ///< Snooping: snoops to replay
    };
    static_assert(std::is_trivially_copyable_v<Miss>);

    /** An evicted owned line whose writeback is in flight. */
    struct WbEntry
    {
        std::uint64_t data = 0;
        bool surrendered = false;   ///< ownership handed to a requester
    };

    /** Hook: send the request for the miss on @p ba just recorded in
     *  outstanding_. Default: GetS/GetM to the block's home. */
    virtual void issueMiss(Addr ba, bool is_store);

    /** Hook: write back owned @p victim of block @p ba, already
     *  parked in wbBuffer_. Default: PutM with the data to the
     *  block's home. */
    virtual void writeBack(Addr ba, const MosiLine &victim);

    /**
     * The hit path: if @p line grants @p req, perform it and return
     * true with the block value in @p value.
     */
    static bool
    applyHit(const ProcRequest &req, MosiLine *line, std::uint64_t &value)
    {
        const bool is_store = req.op == MemOp::store;
        if (!line || (is_store ? line->state != MosiState::M
                               : line->state == MosiState::I))
            return false;
        if (is_store) {
            line->data = req.storeValue;
            line->written = true;
        }
        value = line->data;
        return true;
    }

    /** Remove and return the outstanding miss on @p addr. */
    Miss takeMiss(Addr addr);

    /** Install a finished miss's data in its line, allocating (and
     *  maybe evicting) if absent. Returns the block value. */
    std::uint64_t fill(Addr addr, const Miss &done);

    /** Record a finished miss's statistics and answer the processor. */
    void respondMiss(const Miss &done, std::uint64_t value);

    /** Home protocols: complete the miss on @p addr once its data and
     *  every expected response are in — fill, unblock, respond. */
    void maybeComplete(Addr addr);

    void respondData(NodeId dest, Addr addr, std::uint64_t value,
                     bool exclusive, int ack_count = 0);

    /** Invalidate the present line of @p ba. */
    void dropLine(Addr ba);

    /** The L2 lines of the warm-state codec (without the struct end,
     *  so a protocol can append its own state). */
    void encodeLines(WireWriter &w) const;
    void decodeLines(WireReader &r);

    /** Fast-forward: set the line of @p ba (allocating if @p line is
     *  null) to (@p s, @p written, @p data); returns @p data. */
    std::uint64_t functionalFill(MosiLine *line, Addr ba,
                                 FunctionalEnv &env, MosiState s,
                                 bool written, std::uint64_t data);

    ProtocolParams params_;
    CacheArray<MosiLine> l2_;
    BlockMap<Miss> outstanding_;
    BlockMap<WbEntry> wbBuffer_;

  private:
    MosiLine *allocLine(Addr addr);
    void evictVictim(Addr ba, const MosiLine &victim);
};

} // namespace tokensim

#endif // TOKENSIM_PROTO_MOSI_HH
