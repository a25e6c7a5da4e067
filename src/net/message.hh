/**
 * @file
 * Coherence message definition shared by all protocols.
 *
 * A single flat Message struct carries every protocol's messages; fields
 * that a given protocol does not use stay at their defaults. The paper's
 * message sizing (Section 5.1) is reproduced exactly: all request,
 * acknowledgment, invalidation, and dataless token messages are 8 bytes;
 * data messages are 72 bytes (8-byte header + 64-byte block).
 *
 * The MsgClass field drives both virtual-network assignment and the
 * traffic-breakdown categories of Figures 4b and 5b.
 */

#ifndef TOKENSIM_NET_MESSAGE_HH
#define TOKENSIM_NET_MESSAGE_HH

#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace tokensim {

/**
 * Traffic category of a message, matching the stacked-bar breakdowns in
 * the paper's Figures 4b and 5b.
 */
enum class MsgClass : std::uint8_t
{
    request = 0,   ///< first-issue requests, forwards, invalidations
    reissue,       ///< reissued transient requests (token protocols only)
    persistent,    ///< persistent-request machinery (token protocols only)
    nonData,       ///< acks, unblocks, dataless token transfers
    data,          ///< data responses and writebacks
};

/** Number of MsgClass categories (for stats arrays). */
constexpr std::size_t numMsgClasses = 5;

/** Human-readable name of a MsgClass. */
const char *msgClassName(MsgClass c);

/** Which controller at the destination node receives a message. */
enum class Unit : std::uint8_t
{
    cache = 0,   ///< the node's L2 cache controller
    memory,      ///< the home memory controller
    arbiter,     ///< the persistent-request arbiter at the home
};

/**
 * All message kinds across all four protocols (plus the Section-7
 * extension protocols). Keeping one enum makes tracing and statistics
 * uniform; each protocol uses only its own subset.
 */
enum class MsgType : std::uint8_t
{
    invalid = 0,

    // -- Generic requests (snooping, directory, hammer, token) --
    getS,            ///< request read permission
    getM,            ///< request write permission
    upgrade,         ///< S->M permission request (no data needed)

    // -- Generic responses --
    data,            ///< data response (read permission)
    dataExclusive,   ///< data response granting write permission
    ack,             ///< generic acknowledgment
    inv,             ///< invalidation request
    invAck,          ///< invalidation acknowledgment
    wbData,          ///< writeback containing dirty data
    wbClean,         ///< clean eviction notice (token-free protocols)
    wbAck,           ///< writeback acknowledgment
    putM,            ///< owner announces a writeback (snooping, ordered)
    unblock,         ///< requester -> home: transaction complete
    unblockExclusive,///< requester -> home: complete, now exclusive owner

    // -- Directory-specific --
    fwdGetS,         ///< home -> owner: forward a read request
    fwdGetM,         ///< home -> owner: forward a write request

    // -- Token coherence --
    tokenTransfer,   ///< tokens (with or without data) moving between nodes
    persistReq,      ///< starving node -> arbiter: request activation
    persistActivate, ///< arbiter -> all nodes: activate persistent request
    persistActAck,   ///< node -> arbiter: activation acknowledged
    persistDone,     ///< satisfied node -> arbiter: request deactivation
    persistDeactivate, ///< arbiter -> all nodes: deactivate
    persistDeactAck, ///< node -> arbiter: deactivation acknowledged

    numTypes,
};

/** Number of MsgType values (for stats arrays). */
constexpr std::size_t numMsgTypes =
    static_cast<std::size_t>(MsgType::numTypes);

/** Human-readable name of a MsgType. */
const char *msgTypeName(MsgType t);

/**
 * One coherence message.
 *
 * Invariant #4' of the correctness substrate is encoded here: a message
 * carrying the owner token must carry data (asserted by the token
 * substrate when constructing messages).
 */
struct Message
{
    MsgType type = MsgType::invalid;
    MsgClass cls = MsgClass::nonData;
    Unit dstUnit = Unit::cache;

    /** Block-aligned physical address. */
    Addr addr = 0;

    /** Sending node. */
    NodeId src = invalidNode;

    /** Destination node (unicast); unused for broadcast. */
    NodeId dest = invalidNode;

    /** Original requester, for forwarded requests and responses. */
    NodeId requester = invalidNode;

    /** Non-owner tokens carried (token protocols). */
    int tokens = 0;

    /** True if the owner token is carried (token protocols). */
    bool ownerToken = false;

    /** True if the 64-byte data block is carried. */
    bool hasData = false;

    /** Modeled contents of the block (checked by the random tester). */
    std::uint64_t data = 0;

    /**
     * Acknowledgment count, used by the directory protocol to tell a
     * requester how many invalidation acks to expect, and by hammer for
     * the response count.
     */
    int ackCount = 0;

    /** Global sequence number assigned by the ordered tree's root. */
    std::uint64_t seq = 0;

    /** True if this message was produced by a memory controller
     *  (distinguishes memory data from cache-to-cache data). */
    bool fromMemoryCtrl = false;

    /** Wire size in bytes; filled in by the network from hasData. */
    std::uint32_t size = 0;

    /** Tick at which the message entered the network (for stats). */
    Tick sentAt = 0;

    /** True if delivered as part of a broadcast/multicast. */
    bool isBroadcast = false;

    /** Short human-readable rendering for traces. */
    std::string toString() const;
};

/**
 * Delivery interface implemented by each system node. The network calls
 * deliver() exactly once per (message, destination) pair at the tick the
 * message arrives — except for the transient-request copies it skips
 * because the destination would ignore them (Network::setTokenHolders).
 */
class NetworkEndpoint
{
  public:
    virtual ~NetworkEndpoint() = default;

    /** Receive one message from the interconnect. */
    virtual void deliver(const Message &msg) = 0;
};

} // namespace tokensim

#endif // TOKENSIM_NET_MESSAGE_HH
