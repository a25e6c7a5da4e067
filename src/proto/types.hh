/**
 * @file
 * Shared protocol-level types: processor requests/responses, controller
 * statistics, and per-protocol tuning parameters.
 */

#ifndef TOKENSIM_PROTO_TYPES_HH
#define TOKENSIM_PROTO_TYPES_HH

#include <cstdint>
#include <string>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace tokensim {

/** Kind of processor memory operation. */
enum class MemOp : std::uint8_t
{
    load = 0,
    store,
};

/** The coherence protocols this library implements. */
enum class ProtocolKind : std::uint8_t
{
    snooping = 0,   ///< traditional MOSI snooping (needs ordered tree)
    directory,      ///< Origin-2000-style full-map MOSI directory
    hammer,         ///< AMD-Hammer-style broadcast-from-home
    tokenB,         ///< Token Coherence w/ broadcast performance protocol
    tokenD,         ///< Section-7: directory-like performance protocol
    tokenM,         ///< Section-7: destination-set-predicting multicast
    tokenA,         ///< Section-7: bandwidth-adaptive TokenB/TokenD hybrid
    tokenNull,      ///< null performance protocol (persistent reqs only)
};

/** Every protocol, in enum order (extend together with the enum). */
inline constexpr ProtocolKind kAllProtocols[] = {
    ProtocolKind::snooping, ProtocolKind::directory,
    ProtocolKind::hammer,   ProtocolKind::tokenB,
    ProtocolKind::tokenD,   ProtocolKind::tokenM,
    ProtocolKind::tokenA,   ProtocolKind::tokenNull,
};

/** Human-readable protocol name. */
const char *protocolName(ProtocolKind k);

/** True for the Token Coherence family (shared correctness substrate). */
bool isTokenProtocol(ProtocolKind k);

/** One memory operation presented by a processor to its cache. */
struct ProcRequest
{
    MemOp op = MemOp::load;
    Addr addr = 0;
    std::uint64_t storeValue = 0;   ///< block payload written by a store
    std::uint64_t reqId = 0;        ///< sequencer-assigned id
};

/** Completion record returned to the processor. */
struct ProcResponse
{
    std::uint64_t reqId = 0;
    Addr addr = 0;
    MemOp op = MemOp::load;
    std::uint64_t value = 0;        ///< block payload observed by a load
    Tick issuedAt = 0;
    Tick completedAt = 0;
    bool wasMiss = false;           ///< required a coherence transaction
    bool cacheToCache = false;      ///< data supplied by another cache
    int reissues = 0;               ///< transient-request reissues (token)
    bool usedPersistent = false;    ///< resorted to a persistent request
};

/**
 * Statistics kept by every cache controller. Token-only fields stay
 * zero for the classical protocols.
 */
struct CacheCtrlStats
{
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t hits = 0;          ///< satisfied locally by the L2
    std::uint64_t misses = 0;        ///< coherence transactions started
    std::uint64_t missesCompleted = 0;
    std::uint64_t cacheToCache = 0;  ///< misses served by a remote cache
    std::uint64_t evictions = 0;
    RunningStat missLatency;         ///< ticks per completed miss
    LogHistogram missLatencyHist;    ///< same samples, log2 buckets

    // Token Coherence only (Table 2 inputs).
    std::uint64_t missesNotReissued = 0;
    std::uint64_t missesReissuedOnce = 0;
    std::uint64_t missesReissuedMore = 0;
    std::uint64_t missesPersistent = 0;
    std::uint64_t reissueMessages = 0;
    std::uint64_t persistentInvocations = 0;
};

/** Per-protocol tuning knobs (paper defaults). */
struct ProtocolParams
{
    /**
     * Migratory-sharing optimization (Section 4.2, implemented in all
     * compared protocols): a dirty exclusive owner answering a read
     * request hands over write permission instead of sharing.
     */
    bool migratoryOpt = true;

    // ---- Token Coherence ----

    /**
     * Tokens per block, T. Must be at least the number of processors;
     * 0 means "choose numNodes automatically".
     */
    int tokensPerBlock = 0;

    /** Transient-request reissues before a persistent request (~4). */
    int maxReissues = 4;

    /**
     * Reissue timeout = reissueLatencyMultiple x recent average miss
     * latency, plus a small randomized exponential backoff.
     */
    double reissueLatencyMultiple = 2.0;

    /** Fractional jitter added per reissue (doubles each attempt). */
    double reissueJitter = 0.2;

    /** Average miss latency assumed before any miss completes. */
    Tick initialAvgMissLatency = nsToTicks(400);

    /** Hard cap on the reissue timeout (runaway-backoff guard). */
    Tick maxReissueTimeout = nsToTicks(20000);

    /** Disable reissues entirely (ablation; persistent-only fallback). */
    bool reissueEnabled = true;

    // ---- Failure injection (tests of Section 4.1's claim that a
    // buggy performance protocol cannot affect correctness) ----

    /** Probability a transient request is silently dropped. */
    double chaosDropFraction = 0.0;

    /**
     * Probability a transient request is misdirected to a single
     * random node instead of broadcast.
     */
    double chaosMisdirectFraction = 0.0;

    // ---- Directory ----

    /** Zero-latency directory access ("perfect" SRAM/dir cache). */
    bool perfectDirectory = false;

    // ---- TokenM (destination-set prediction) ----

    /** Predictor table entries per node. */
    std::uint32_t predictorEntries = 8192;

    // ---- TokenA (bandwidth-adaptive) ----

    /** Utilization above which TokenA switches to unicast mode. */
    double adaptiveThreshold = 0.25;

    /** Utilization sampling window. */
    Tick adaptiveWindow = nsToTicks(1000);
};

} // namespace tokensim

#endif // TOKENSIM_PROTO_TYPES_HH
