/**
 * @file
 * AMD-Hammer-style broadcast protocol (Section 5.1 baseline).
 *
 * A requester sends its request to the block's home node, which
 * serializes requests per block and broadcasts a probe to every node
 * while reading memory in parallel. Every node responds directly to the
 * requester — the owner with data, everyone else with an ack — and the
 * memory's (possibly stale) data arrives as well; the requester prefers
 * owner data. A final unblock releases the home to service the next
 * queued request.
 *
 * The protocol needs no directory state and no directory lookup before
 * probing (lower cache-to-cache latency than Directory), but it still
 * takes the home-node indirection and pays one response message per
 * node per request — the traffic the paper's Figure 5b shows dwarfing
 * both TokenB and Directory.
 *
 * One home-side refinement: the home keeps the identity of the last
 * exclusive owner so that a stale writeback (whose data was already
 * handed over through a probe answered from the writeback buffer) can
 * be recognized and dropped. Real Hammer implementations resolve this
 * race with their victim-buffer/probe interlocks; a last-owner id is
 * the minimal equivalent in message-passing form: the home needs no
 * sharer state, and every M/O line was created through an exclusive
 * unblock, so the recorded owner is exactly the node whose writeback
 * is current (SerialHome in proto/mosi.hh).
 */

#ifndef TOKENSIM_PROTO_HAMMER_HAMMER_HH
#define TOKENSIM_PROTO_HAMMER_HAMMER_HH

#include <cstdint>

#include "proto/mosi.hh"

namespace tokensim {

/** Hammer L2 cache controller. */
class HammerCache : public MosiCache
{
  public:
    HammerCache(ProtoContext &ctx, NodeId id,
                const ProtocolParams &params);

    void handleMessage(const Message &msg) override;
    std::uint64_t applyFunctional(const ProcRequest &req,
                                  FunctionalEnv &env) override;

  private:
    void handleProbe(const Message &msg);
    void handleResponse(const Message &msg);
    void respondAck(NodeId dest, Addr addr);
};

/**
 * Hammer home controller: per-block serialization, probe broadcast,
 * speculative memory read, and the last-owner writeback filter.
 */
class HammerMemory : public SerialHome<SerialEntry>
{
  public:
    HammerMemory(ProtoContext &ctx, NodeId id,
                 const ProtocolParams &params);

    void encodeWarmState(WireWriter &w) const override;
    void decodeWarmState(WireReader &r) override;

  private:
    /** Fast-forward reaches straight into the owner table and backing
     *  store. */
    friend class HammerCache;

    void processRequest(const Message &msg, SerialEntry &e) override;
};

} // namespace tokensim

#endif // TOKENSIM_PROTO_HAMMER_HAMMER_HH
