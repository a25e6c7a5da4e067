/**
 * @file
 * Abstract cache and memory controller interfaces plus a small shared
 * base class with send/latency helpers.
 *
 * Each protocol provides one CacheController per node (the L2 coherence
 * engine) and one MemoryController per node (the home for the slice of
 * physical memory interleaved to that node). The harness's Node
 * dispatches network deliveries: unicasts by Message::dstUnit, and
 * broadcasts to the cache controller plus — when the node is the
 * block's home — the memory controller.
 */

#ifndef TOKENSIM_PROTO_CONTROLLER_HH
#define TOKENSIM_PROTO_CONTROLLER_HH

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "mem/block_map.hh"
#include "net/message.hh"
#include "proto/context.hh"
#include "proto/types.hh"
#include "sim/bytes.hh"
#include "sim/log.hh"
#include "sim/stats.hh"

namespace tokensim {

class CacheController;
class MemoryController;

/**
 * The whole-system view a functional fast-forward op runs against.
 * Fast-forward bypasses the network entirely: the requesting cache
 * controller reaches straight into its peers and the home memory and
 * moves the architectural state (lines, tokens, directory entries) to
 * the protocol's post-transaction fixpoint. Controllers are indexed by
 * node id; every element belongs to the same protocol family, so
 * implementations may static_cast to their own concrete type.
 */
struct FunctionalEnv
{
    std::vector<CacheController *> caches;
    std::vector<MemoryController *> memories;
};

/** Common plumbing for cache and memory controllers. */
class ControllerBase
{
  public:
    ControllerBase(ProtoContext &ctx, NodeId id, std::string tag)
        : ctx_(ctx), id_(id), tag_(std::move(tag))
    {}

    virtual ~ControllerBase() = default;

    ControllerBase(const ControllerBase &) = delete;
    ControllerBase &operator=(const ControllerBase &) = delete;

    NodeId nodeId() const { return id_; }

  protected:
    /** Unicast @p msg after @p delay ticks of local processing. */
    void
    sendAfter(Tick delay, Message msg)
    {
        msg.src = id_;
        ctx_.eq->scheduleIn(delay,
                            [this, msg]() { ctx_.net->unicast(msg); });
    }

    /** Broadcast @p msg (unordered) after @p delay ticks. */
    void
    broadcastAfter(Tick delay, Message msg)
    {
        msg.src = id_;
        ctx_.eq->scheduleIn(delay,
                            [this, msg]() { ctx_.net->broadcast(msg); });
    }

    /** Totally-ordered broadcast after @p delay ticks. */
    void
    broadcastOrderedAfter(Tick delay, Message msg)
    {
        msg.src = id_;
        ctx_.eq->scheduleIn(
            delay, [this, msg]() { ctx_.net->broadcastOrdered(msg); });
    }

    /** Multicast to a destination set after @p delay ticks. */
    void
    multicastAfter(Tick delay, Message msg, std::vector<NodeId> dests)
    {
        msg.src = id_;
        ctx_.eq->scheduleIn(delay, [this, msg, d = std::move(dests)]() {
            ctx_.net->multicast(msg, d);
        });
    }

    /**
     * True if trace-level logging is on. Call sites MUST use this to
     * guard the construction of trace strings (strformat calls,
     * Message::toString()) so untraced runs pay one branch, never a
     * std::string allocation.
     */
    static bool
    tracing()
    {
        return logging::enabled(logging::Level::trace);
    }

    /** Trace helper (no-op unless trace logging is enabled). */
    void
    trace(const std::string &what) const
    {
        if (logging::enabled(logging::Level::trace))
            logging::write(logging::Level::trace, ctx_.now(), tag_, what);
    }

    ProtoContext &ctx_;
    NodeId id_;
    std::string tag_;
};

/**
 * The per-node L2 coherence engine: accepts processor requests from the
 * sequencer and coherence messages from the network.
 */
class CacheController : public ControllerBase
{
  public:
    /** Called when a processor request completes. */
    using CompletionFn = std::function<void(const ProcResponse &)>;

    /**
     * Called when a block leaves the L2 (eviction, invalidation, or
     * loss of all permission); the sequencer uses it to keep its L1
     * inclusive.
     */
    using LineRemovedFn = std::function<void(Addr)>;

    using ControllerBase::ControllerBase;

    /**
     * Start one processor memory operation. At most one operation per
     * block may be outstanding from the local processor (the sequencer
     * serializes same-block operations).
     */
    virtual void request(const ProcRequest &req) = 0;

    /** Handle a coherence message delivered by the network. */
    virtual void handleMessage(const Message &msg) = 0;

    /**
     * True if the local L2 currently holds permission for @p op on
     * @p addr (used by tests and for hit classification).
     */
    virtual bool hasPermission(Addr addr, MemOp op) const = 0;

    /**
     * Reinitialize protocol and statistics state to exactly match a
     * freshly constructed controller built with @p params and seeded
     * with @p seed, while keeping the large allocations (the cache
     * array) in place. Structural parameters (tokensPerBlock,
     * predictorEntries) must be unchanged — System::reset() checks
     * that — but runtime tuning (reissue policy, chaos injection,
     * perfectDirectory, adaptation knobs) may differ. The completion/
     * line-removed callbacks are preserved. This is the reusable-
     * System path: System::reset() drives it between runs, and the
     * bit-identical regression tests compare it against fresh
     * construction.
     */
    virtual void resetState(const ProtocolParams &params,
                            std::uint64_t seed) = 0;

    /**
     * Apply one processor operation functionally: update the
     * architectural warm state (cache tags/LRU/data, token counts,
     * directory entries, backing stores — across the whole @p env, not
     * just this node) to the state the detailed protocol would reach
     * once the transaction and its side effects quiesced, without
     * sending messages, scheduling events, touching timers/RNGs, or
     * recording statistics. Requires a quiescent system (no
     * outstanding transactions, empty writeback buffers and home
     * queues); System::fastForward() guarantees that by draining the
     * event queue first. Returns the post-operation block value (the
     * value a ProcResponse would carry).
     *
     * Performance-policy soft state that only detailed timing
     * exercises (reissue-latency EWMAs, destination predictors,
     * adaptive filters) is deliberately left cold — the SMARTS
     * sampling model treats it as part of the detailed warm-up, not
     * the architectural state.
     */
    virtual std::uint64_t applyFunctional(const ProcRequest &req,
                                          FunctionalEnv &env) = 0;

    /**
     * Serialize this controller's architectural warm state (cache
     * lines with exact LRU ranks, predictor/coherence side tables)
     * for the warm-state snapshot codec. Requires quiescence — no
     * outstanding transactions or buffered writebacks; implementations
     * throw WireError otherwise. The encoding must be canonical
     * (BlockMap-backed state sorted by address) so identical states
     * produce identical bytes.
     */
    virtual void encodeWarmState(WireWriter &w) const = 0;

    /**
     * Inverse of encodeWarmState() into a freshly-reset controller.
     * Malformed input throws WireError; the controller may be left
     * partially populated (callers discard it on failure).
     */
    virtual void decodeWarmState(WireReader &r) = 0;

    void setCompletionCallback(CompletionFn fn) { complete_ = std::move(fn); }
    void setLineRemovedCallback(LineRemovedFn fn) { removed_ = std::move(fn); }

    const CacheCtrlStats &stats() const { return stats_; }
    CacheCtrlStats &stats() { return stats_; }

  protected:
    void
    respond(const ProcResponse &resp)
    {
        if (complete_)
            complete_(resp);
    }

    void
    notifyLineRemoved(Addr addr)
    {
        if (removed_)
            removed_(addr);
    }

    CompletionFn complete_;
    LineRemovedFn removed_;
    CacheCtrlStats stats_;
};

/**
 * The home memory controller for the slice of shared memory interleaved
 * to a node. Also hosts protocol-specific home-side machinery (the
 * directory, the hammer serializer, or the persistent-request arbiter).
 */
class MemoryController : public ControllerBase
{
  public:
    using ControllerBase::ControllerBase;

    /** Handle a coherence message delivered by the network. */
    virtual void handleMessage(const Message &msg) = 0;

    /**
     * Debug/verification accessor: the current memory image of a
     * block (the value a fresh reader would obtain from DRAM).
     */
    virtual std::uint64_t peekData(Addr addr) const = 0;

    /** Reinitialize to fresh-construction state with (runtime-
     *  compatible) @p params; memory controllers carry no RNG,
     *  hence no seed (reusable-System path). */
    virtual void resetState(const ProtocolParams &params) = 0;

    /** See CacheController::encodeWarmState — home-side warm state
     *  (backing store, directory/owner/token tables). */
    virtual void encodeWarmState(WireWriter &w) const = 0;

    /** See CacheController::decodeWarmState. */
    virtual void decodeWarmState(WireReader &r) = 0;
};

/**
 * Backing data store for one home memory controller. Untouched blocks
 * read as a deterministic function of their address (the block-aligned
 * address itself), which makes wrong-block and stale-data protocol bugs
 * visible to the value-checking tests.
 */
class BackingStore
{
  public:
    explicit BackingStore(std::uint32_t block_bytes)
        : blockBytes_(block_bytes)
    {}

    /** The architectural initial contents of a block. */
    static std::uint64_t
    initialValue(Addr block_addr)
    {
        return block_addr;
    }

    std::uint64_t
    read(Addr a) const
    {
        const Addr ba = align(a);
        auto it = data_.find(ba);
        return it == data_.end() ? initialValue(ba) : it->second;
    }

    void
    write(Addr a, std::uint64_t v)
    {
        data_[align(a)] = v;
    }

    /** Forget all writes (blocks revert to their initial values). */
    void clear() { data_.clear(); }

    /**
     * Serialize the blocks whose value differs from their initial
     * value: a count, then (address, value) pairs by ascending
     * address — canonical whatever the write history.
     */
    void
    encode(WireWriter &w) const
    {
        std::vector<std::pair<Addr, std::uint64_t>> written;
        for (const auto &[a, v] : data_) {
            if (v != initialValue(a))
                written.emplace_back(a, v);
        }
        std::sort(written.begin(), written.end());
        w.varint(written.size());
        for (const auto &[a, v] : written) {
            w.varint(a);
            w.varint(v);
        }
    }

    /** Inverse of encode() into an empty store. Every block must be
     *  aligned, strictly ascending, and @p homed(addr) here. */
    template <typename Homed>
    void
    decode(WireReader &r, Homed homed)
    {
        const std::uint64_t n = r.varint("written block count");
        Addr prev = 0;
        for (std::uint64_t i = 0; i < n; ++i) {
            const Addr a = r.varint("written block address");
            const std::uint64_t v = r.varint("written block value");
            if (align(a) != a)
                throw WireError("written block not block-aligned");
            if (!homed(a))
                throw WireError("written block homed elsewhere");
            if (i > 0 && a <= prev)
                throw WireError("written blocks not strictly ascending");
            prev = a;
            write(a, v);
        }
    }

  private:
    Addr
    align(Addr a) const
    {
        return a & ~static_cast<Addr>(blockBytes_ - 1);
    }

    std::uint32_t blockBytes_;
    BlockMap<std::uint64_t> data_;
};

} // namespace tokensim

#endif // TOKENSIM_PROTO_CONTROLLER_HH
