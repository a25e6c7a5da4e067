/**
 * @file
 * Full-map MOSI directory protocol (Section 5.1 baseline), inspired by
 * the SGI Origin 2000 and Alpha 21364.
 *
 * Requests go to the block's home, which serializes them per block (the
 * directory "busy" state queues conflicting requests — no NACKs or
 * retries) and either supplies memory data or forwards the request to
 * the current cache owner; GetM additionally sends invalidations whose
 * acknowledgments flow directly to the requester. The requester closes
 * every transaction with an unblock message that carries the outcome
 * (shared vs. exclusive), at which point the directory commits the
 * state transition and services the next queued request.
 *
 * The directory state lives in main-memory DRAM (dirLatency = 80 ns),
 * putting the lookup on the critical path of cache-to-cache misses —
 * the indirection cost Figure 5a quantifies. ProtocolParams::
 * perfectDirectory models an idealized zero-latency directory.
 */

#ifndef TOKENSIM_PROTO_DIRECTORY_DIRECTORY_HH
#define TOKENSIM_PROTO_DIRECTORY_DIRECTORY_HH

#include <cstdint>
#include <vector>

#include "proto/mosi.hh"

namespace tokensim {

/** Directory-protocol L2 cache controller. */
class DirCache : public MosiCache
{
  public:
    DirCache(ProtoContext &ctx, NodeId id, const ProtocolParams &params);

    void handleMessage(const Message &msg) override;
    std::uint64_t applyFunctional(const ProcRequest &req,
                                  FunctionalEnv &env) override;

  private:
    void handleFwd(const Message &msg);
    void handleInv(const Message &msg);
    void handleDataOrGrant(const Message &msg);
};

/** Per-block directory state: the serializing home's plus sharers. */
struct DirEntry : SerialEntry
{
    NodeMask sharers;
};
static_assert(std::is_trivially_copyable_v<DirEntry>);
static_assert(sizeof(DirEntry) <= 24);

/**
 * The home directory controller: full-map sharer/owner state per block,
 * invalidation fan-out, and the DRAM-resident directory lookup latency.
 */
class DirMemory : public SerialHome<DirEntry>
{
  public:
    DirMemory(ProtoContext &ctx, NodeId id, const ProtocolParams &params);

    void resetState(const ProtocolParams &params) override;

    void encodeWarmState(WireWriter &w) const override;
    void decodeWarmState(WireReader &r) override;

    /** Directory's view of a block (tests). */
    struct DirView
    {
        bool busy = false;
        NodeId owner = invalidNode;   ///< invalidNode = memory owns
        std::vector<NodeId> sharers;
    };
    DirView view(Addr addr) const;

  private:
    /** Fast-forward reaches straight into the directory entries and
     *  backing store. */
    friend class DirCache;

    void processRequest(const Message &msg, DirEntry &e) override;
    void recordUnblock(const Message &unblock, DirEntry &e) override;

    /** Directory access latency: DRAM unless perfectDirectory. */
    Tick dirLatency() const;

    /** Send @p type about @p req's block to @p dest's cache, once the
     *  directory lookup is done. */
    void sendAfterLookup(MsgType type, const Message &req, NodeId dest,
                         int ack_count);

    NodeMaskPool sharerPool_;
};

} // namespace tokensim

#endif // TOKENSIM_PROTO_DIRECTORY_DIRECTORY_HH
