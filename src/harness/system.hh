/**
 * @file
 * System builder: wires an entire simulated multiprocessor — event
 * queue, network, per-node cache/memory controllers for the chosen
 * protocol, sequencers, and workloads — from one SystemConfig.
 *
 * This is the library's top-level entry point: examples, tests, and
 * benches construct a System, run it, and read the aggregated results.
 */

#ifndef TOKENSIM_HARNESS_SYSTEM_HH
#define TOKENSIM_HARNESS_SYSTEM_HH

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/substrate.hh"
#include "core/token_holders.hh"
#include "cpu/sequencer.hh"
#include "net/network.hh"
#include "proto/controller.hh"
#include "proto/context.hh"
#include "proto/types.hh"
#include "sim/event_queue.hh"
#include "sim/metrics.hh"
#include "workload/commercial.hh"
#include "workload/factory.hh"
#include "workload/trace.hh"
#include "workload/workload.hh"

namespace tokensim {

/**
 * A run that cannot finish: the event queue drained while processors
 * still had operations outstanding, so no future event can complete
 * them. The message names the tick, each node with outstanding
 * operations, and the blocks those operations are in flight on.
 */
class DeadlockError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * SMARTS-style systematic sampling (Wunderlich et al., ISCA 2003):
 * alternate cheap functional fast-forward spans with short detailed
 * measurement windows. Each window contributes one sample of every
 * pinned metric; System::results() pools the windows so sampled means
 * carry standard errors. With @c windows windows, every processor
 * executes warmup + windows * (ffOps + measureOps) operations total,
 * of which only warmup + windows * measureOps run on the detailed
 * engine — the fast-forwarded ops update architectural warm state
 * (cache tags/LRU, token counts, directory entries, backing store)
 * at far above the detailed op rate, with no events, messages, or
 * RNG draws.
 */
struct SamplingSpec
{
    std::uint64_t ffOps = 0;       ///< functional ops per span
    std::uint64_t measureOps = 0;  ///< detailed ops per window
    std::uint64_t windows = 0;     ///< number of measurement windows

    bool enabled() const { return windows > 0 && measureOps > 0; }
};

/**
 * One tenant of a multi-tenant system: a workload co-scheduled on a
 * contiguous group of nodes of the shared machine. Tenants model
 * independent applications consolidated on one interconnect — each
 * group runs its own generator family over its own (offset-disjoint)
 * address space, while every memory access still contends for the
 * shared network, directories, and memory controllers, so per-tenant
 * metrics expose cross-tenant interference.
 */
struct TenantSpec
{
    /** The group's operation source (trace specs are rejected —
     *  recorded traces bake in a whole machine's node count). */
    WorkloadSpec workload;

    /** Nodes in this group; groups are assigned contiguously in
     *  declaration order and must sum to SystemConfig::numNodes. */
    int nodes = 0;

    friend bool
    operator==(const TenantSpec &a, const TenantSpec &b)
    {
        return a.workload == b.workload && a.nodes == b.nodes;
    }
    friend bool
    operator!=(const TenantSpec &a, const TenantSpec &b)
    {
        return !(a == b);
    }
};

/**
 * Tenant i's addresses are offset by i << kTenantAddrShift, far above
 * any address a single group's generators emit (private regions top
 * out near 2^34 at 1024 nodes; table regions are smaller), so tenant
 * address spaces are disjoint while the block-interleaved home mapping
 * still spreads every tenant's homes across the whole machine.
 */
constexpr int kTenantAddrShift = 44;

/** Everything needed to build one simulated system (Table 1 defaults). */
struct SystemConfig
{
    int numNodes = 16;

    /** "tree" (totally ordered) or "torus" (unordered). */
    std::string topology = "torus";

    ProtocolKind protocol = ProtocolKind::tokenB;
    ProtocolParams proto;

    NetworkParams net;
    SequencerParams seq;

    /** L2 geometry (Table 1: 4 MB, 4-way, 64 B, 6 ns). */
    CacheParams l2{4 * 1024 * 1024, 4, 64, nsToTicks(6)};

    /** DRAM (Table 1: 80 ns). */
    DramParams dram{};

    /** Controller processing latency (Table 1: 6 ns). */
    Tick ctrlLatency = nsToTicks(6);

    std::uint32_t blockBytes = 64;

    /**
     * The operation source: a synthetic preset name ("oltp",
     * "apache", "specjbb", "producer-consumer", "lock-ping",
     * "uniform", "hot", "private", "ycsb", "tpcc") with its
     * per-preset knobs, or a
     * recorded trace to replay (WorkloadSpec::trace(path)). A plain
     * string assigns the preset. Ignored when workloadFactory is set.
     */
    WorkloadSpec workload;

    /** Custom per-node workload factory (overrides `workload`). */
    std::function<std::unique_ptr<Workload>(NodeId, int,
                                            std::uint64_t seed)>
        workloadFactory;

    /**
     * Multi-tenant mode: when non-empty, these workloads are
     * co-scheduled on contiguous disjoint node groups (in declaration
     * order; node counts must sum to numNodes) and `workload` is
     * ignored. Each group's generators see their group-local node ids
     * and group size — a tenant's sharing pattern spans its own nodes
     * — and its addresses are offset per kTenantAddrShift. A runtime
     * knob like `workload`: System::reset switches tenant lists
     * freely, and results() gains per-tenant diagnostic metrics
     * (tenant<i>_ops, tenant<i>_miss_latency_ticks). Incompatible
     * with workloadFactory; trace specs are rejected inside tenants.
     */
    std::vector<TenantSpec> tenants;

    /**
     * When non-empty, record every operation the sequencers pull
     * (warmup included) and write the trace here as run() completes —
     * replayable later via WorkloadSpec::trace(). Meant for one
     * System at a time (parallel shards would race on the file).
     */
    std::string recordTrace;

    /** Operations each processor executes (measured window). Ignored
     *  when `sampling` is enabled — the sampled budget is
     *  sampling.windows * sampling.measureOps detailed ops plus
     *  sampling.windows * sampling.ffOps functional ops. */
    std::uint64_t opsPerProcessor = 20000;

    /** When enabled, run() alternates fast-forward spans with
     *  detailed measurement windows instead of one detailed run. */
    SamplingSpec sampling;

    /**
     * Warm-state snapshot bytes (harness/snapshot.hh) to restore
     * before running. The snapshot must have been saved from a config
     * with the same shape fingerprint (structure + workload + seed;
     * timing knobs are free). Shared so a sweep's many configs carry
     * one copy in-process; forked sweep workers inherit it, and
     * the wire codec fingerprints it. Incompatible with recordTrace.
     */
    std::shared_ptr<const std::string> warmSnapshot;

    /**
     * Operations each processor executes before statistics are
     * zeroed (the paper warms caches from checkpoints; this is the
     * simulator's equivalent).
     */
    std::uint64_t warmupOpsPerProcessor = 0;

    std::uint64_t seed = 1;

    /** Attach the token-conservation auditor (token protocols). */
    bool attachAuditor = false;

    /** Abort if simulated time passes this bound (deadlock guard). */
    Tick maxTicks = nsToTicks(2'000'000'000ULL);   // 2 s simulated
};

/**
 * One node's delivery endpoint: dispatches network messages to the
 * node's cache controller and — for the blocks homed here — its
 * memory controller.
 */
class Node : public NetworkEndpoint
{
  public:
    Node(ProtoContext &ctx, NodeId id, CacheController *cache,
         MemoryController *memory)
        : ctx_(ctx), id_(id), cache_(cache), memory_(memory)
    {}

    void
    deliver(const Message &msg) override
    {
        if (msg.isBroadcast) {
            // Broadcasts snoop the cache controller; the home memory
            // observes them too.
            cache_->handleMessage(msg);
            if (ctx_.home(msg.addr) == id_)
                memory_->handleMessage(msg);
            return;
        }
        switch (msg.dstUnit) {
          case Unit::cache:
            cache_->handleMessage(msg);
            break;
          case Unit::memory:
          case Unit::arbiter:
            memory_->handleMessage(msg);
            break;
        }
    }

  private:
    ProtoContext &ctx_;
    NodeId id_;
    CacheController *cache_;
    MemoryController *memory_;
};

/** A fully wired simulated multiprocessor. */
class System
{
  public:
    explicit System(const SystemConfig &cfg);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /**
     * Run to completion: all sequencers retire their budget, then the
     * system drains (all in-flight protocol activity settles).
     * @throws DeadlockError if the event queue drains with operations
     *         outstanding.
     * @throws std::runtime_error if maxTicks passes first.
     */
    void run();

    /**
     * Reinitialize this System in place for @p cfg — bit-identically
     * equivalent to destroying it and constructing System(cfg), but
     * reusing every large allocation (cache arrays, event and
     * delivery chunk pools, network pools, cached topology trees). This is the
     * reusable-System path the ParallelRunner drives per worker:
     * per-shard construction cost drops to a state wipe.
     *
     * Only possible when @p cfg has the same structural shape as the
     * config this System was built with (same node count, topology,
     * protocol and its parameters, cache/network/DRAM geometry);
     * runtime knobs (seed, op counts, workload preset) may differ
     * freely. @p trust_factory says the caller guarantees
     * cfg.workloadFactory is the same factory this System already
     * uses (std::function is not comparable); the runner passes true
     * when reusing within one spec.
     *
     * @return true if the System was reset and is ready to run();
     *         false if the shape differs (construct a fresh System).
     */
    bool reset(const SystemConfig &cfg, bool trust_factory = false);

    /** Run at most until @p tick (for incremental test control). */
    void runUntilTick(Tick tick) { eq_.run(tick); }

    /**
     * Advance every processor @p ops_per_node operations functionally
     * (round-robin, one op per node per turn): architectural warm
     * state updates in place through the protocol's applyFunctional
     * hook, with no events, messages, timers, RNG draws, or
     * statistics. The event queue is drained first; requires all
     * sequencers idle at an issue limit (or not yet started).
     * run() calls this between measurement windows when
     * cfg.sampling is enabled; tests and snapshot producers call it
     * directly.
     */
    void fastForward(std::uint64_t ops_per_node);

    EventQueue &eq() { return eq_; }
    Network &net() { return *net_; }
    ProtoContext &ctx() { return ctx_; }
    const SystemConfig &config() const { return cfg_; }

    CacheController &cache(NodeId id) { return *caches_[id]; }
    MemoryController &memory(NodeId id) { return *memories_[id]; }
    Sequencer &sequencer(NodeId id) { return *sequencers_[id]; }
    int numNodes() const { return cfg_.numNodes; }

    /** The conservation auditor, if attachAuditor was set. */
    TokenAuditor *auditor() { return auditor_.get(); }

    /** Which caches hold each block (token protocols; else nullptr). */
    const TokenHolderSet *tokenHolders() const { return holders_.get(); }

    /**
     * Check tokenHolders() against every cache's L2: each listed
     * holder has the block resident, and the set lists as many
     * (cache, block) pairs as the caches hold lines. True for
     * protocols without a set. On a mismatch fills @p err.
     */
    bool checkTokenHolders(std::string *err = nullptr) const;

    /** All sequencers retired their budgets. */
    bool allDone() const;

    /** Zero all reported statistics (measurement boundary). */
    void resetStats();

    /**
     * Aggregated results of a completed run: a named-metric registry
     * ("results v2") plus typed accessors for the common metrics.
     *
     * The registry is the single source of truth — the wire format
     * ships it generically, aggregateResults and the ParallelRunner
     * (either executor) merge it generically, and the determinism
     * gates compare it wholesale. System::results() registers every metric
     * in one fixed order (see its definition for the full catalog),
     * so registry equality is meaningful across runners.
     *
     * An accessor over an absent metric reports zero/empty, so a
     * default-constructed Results behaves exactly like the old
     * zero-initialized struct.
     */
    struct Results
    {
        MetricRegistry metrics;

        std::uint64_t ops() const { return metrics.counterValue("ops"); }
        std::uint64_t
        transactions() const
        {
            return metrics.counterValue("transactions");
        }
        Tick
        runtimeTicks() const
        {
            return metrics.counterValue("runtime_ticks");
        }
        std::uint64_t
        l1Hits() const
        {
            return metrics.counterValue("l1_hits");
        }
        std::uint64_t
        l2Accesses() const
        {
            return metrics.counterValue("l2_accesses");
        }
        std::uint64_t
        l2Hits() const
        {
            return metrics.counterValue("l2_hits");
        }
        std::uint64_t
        misses() const
        {
            return metrics.counterValue("misses");
        }
        std::uint64_t
        cacheToCache() const
        {
            return metrics.counterValue("cache_to_cache");
        }

        // Token Coherence reissue buckets (Table 2).
        std::uint64_t
        missesNotReissued() const
        {
            return metrics.counterValue("miss_reissue_none");
        }
        std::uint64_t
        missesReissuedOnce() const
        {
            return metrics.counterValue("miss_reissue_once");
        }
        std::uint64_t
        missesReissuedMore() const
        {
            return metrics.counterValue("miss_reissue_more");
        }
        std::uint64_t
        missesPersistent() const
        {
            return metrics.counterValue("miss_persistent");
        }

        // Event-kernel counters over the measured window (diagnostic:
        // simulator cost, not simulated behavior — kept out of
        // resultDigest() so golden digests don't churn with kernel
        // bookkeeping changes).
        std::uint64_t
        eventsScheduled() const
        {
            return metrics.counterValue("events_scheduled");
        }
        std::uint64_t
        eventsDispatched() const
        {
            return metrics.counterValue("events_dispatched");
        }
        std::uint64_t
        timersCancelled() const
        {
            return metrics.counterValue("timers_cancelled");
        }

        /** Miss-latency stat pooled over every miss on every node. */
        RunningStat
        missLatency() const
        {
            return metrics.statValue("miss_latency_ticks");
        }
        double
        avgMissLatencyTicks() const
        {
            return missLatency().mean();
        }

        // Interconnect traffic, flattened from the Network's
        // TrafficStats into per-class counters (the Network itself
        // still exposes the raw struct via Network::traffic()).
        std::uint64_t
        linkBytesOf(MsgClass c) const
        {
            return metrics.counterValue(std::string("link_bytes_") +
                                        msgClassName(c));
        }
        std::uint64_t
        messagesOf(MsgClass c) const
        {
            return metrics.counterValue(std::string("msgs_") +
                                        msgClassName(c));
        }
        std::uint64_t
        totalLinkBytes() const
        {
            std::uint64_t t = 0;
            for (std::size_t c = 0; c < numMsgClasses; ++c)
                t += linkBytesOf(static_cast<MsgClass>(c));
            return t;
        }

        /** Dispatched simulation events per completed operation. */
        double
        eventsPerOp() const
        {
            return ops() ? static_cast<double>(eventsDispatched()) /
                       static_cast<double>(ops())
                         : 0.0;
        }

        /** Cycles (1 GHz => ns) per transaction. */
        double
        cyclesPerTransaction() const
        {
            return transactions()
                ? ticksToNsF(runtimeTicks()) /
                      static_cast<double>(transactions())
                : 0.0;
        }

        /** Interconnect bytes (x links crossed) per L2 miss. */
        double
        bytesPerMiss() const
        {
            return misses()
                ? static_cast<double>(totalLinkBytes()) /
                      static_cast<double>(misses())
                : 0.0;
        }

        double
        bytesPerMissOf(MsgClass c) const
        {
            return misses()
                ? static_cast<double>(linkBytesOf(c)) /
                      static_cast<double>(misses())
                : 0.0;
        }
    };

    Results results() const;

  private:
    std::unique_ptr<Workload> makeWorkload(NodeId node,
                                           std::uint64_t seed);
    void buildControllers(NodeId id, std::uint64_t seed);

    /** Detailed-engine op budget per processor (warmup included);
     *  fast-forwarded ops ride on top of this at run time. */
    std::uint64_t detailedOpBudget() const;

    /** The sampled run loop (cfg_.sampling enabled): windows of
     *  fastForward + detailed measurement, pooled into
     *  sampledResults_. @p base is the per-node op count already
     *  completed when run() started (warm-snapshot progress). */
    void runSampled(std::uint64_t base);

    /** Report a run loop that stopped short of its milestone:
     *  DeadlockError if the event queue drained, else @p max_ticks_msg
     *  (maxTicks passed with events still queued). */
    [[noreturn]] void failStalled(const char *max_ticks_msg) const;

    /** Collect the current window/run counters (never the pooled
     *  sampled results). */
    Results collectResults() const;

    /** (Re)build the workload factory and trace recorder for cfg_. */
    void configureWorkloads();

    /** cfg_.proto with protocol-specific fixups applied (tokenNull
     *  disables reissue timers); what controllers are built/reset
     *  with. */
    ProtocolParams effectiveProtoParams() const;

    SystemConfig cfg_;
    EventQueue eq_;
    std::unique_ptr<Network> net_;
    ProtoContext ctx_;
    std::unique_ptr<TokenAuditor> auditor_;
    std::unique_ptr<TokenHolderSet> holders_;
    AddressMap addrMap_;
    std::unique_ptr<WorkloadFactory> wlFactory_;
    /** Per-tenant factories (multi-tenant mode; else empty). */
    std::vector<std::unique_ptr<WorkloadFactory>> tenantFactories_;
    /** Tenant group start nodes (tenantStarts_[i] = first node of
     *  tenant i; one extra trailing entry = numNodes). */
    std::vector<int> tenantStarts_;
    std::unique_ptr<TraceWriter> traceWriter_;
    std::vector<std::unique_ptr<CacheController>> caches_;
    std::vector<std::unique_ptr<MemoryController>> memories_;
    std::vector<std::unique_ptr<Node>> nodes_;
    std::vector<std::unique_ptr<Sequencer>> sequencers_;
    Tick measureStart_ = 0;
    /** Event-counter snapshots at the measurement boundary. */
    std::uint64_t measureStartScheduled_ = 0;
    std::uint64_t measureStartDispatched_ = 0;
    std::uint64_t measureStartCancelled_ = 0;
    /** Pooled per-window results of a completed sampled run; valid
     *  only when sampledValid_ (results() then returns these). */
    Results sampledResults_;
    bool sampledValid_ = false;
};

} // namespace tokensim

#endif // TOKENSIM_HARNESS_SYSTEM_HH
