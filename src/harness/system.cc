#include "harness/system.hh"

#include <cassert>
#include <sstream>
#include <stdexcept>

#include "core/ext/tokena.hh"
#include "core/ext/tokend.hh"
#include "core/ext/tokenm.hh"
#include "core/tokenb.hh"
#include "harness/snapshot.hh"
#include "proto/directory/directory.hh"
#include "proto/hammer/hammer.hh"
#include "proto/snooping/snooping.hh"

namespace tokensim {

System::System(const SystemConfig &cfg)
    : cfg_(cfg)
{
    if (cfg_.numNodes < 1)
        throw std::invalid_argument("system needs at least one node");

    std::unique_ptr<Topology> topo(
        makeTopology(cfg_.topology, cfg_.numNodes));
    if (cfg_.protocol == ProtocolKind::snooping &&
        !topo->totallyOrdered()) {
        // Figure 4a's "not applicable": traditional snooping cannot
        // run on an interconnect that provides no total order.
        throw std::invalid_argument(
            "snooping requires a totally-ordered interconnect; " +
            topo->name() + " provides none");
    }
    net_ = std::make_unique<Network>(eq_, std::move(topo), cfg_.net);

    ctx_.eq = &eq_;
    ctx_.net = net_.get();
    ctx_.numNodes = cfg_.numNodes;
    ctx_.blockBytes = cfg_.blockBytes;
    ctx_.ctrlLatency = cfg_.ctrlLatency;
    ctx_.l2 = cfg_.l2;
    ctx_.dram = cfg_.dram;

    if (cfg_.attachAuditor && isTokenProtocol(cfg_.protocol)) {
        const int t = cfg_.proto.tokensPerBlock > 0
            ? cfg_.proto.tokensPerBlock : cfg_.numNodes;
        auditor_ = std::make_unique<TokenAuditor>(t, cfg_.blockBytes);
    }
    if (isTokenProtocol(cfg_.protocol)) {
        holders_ = std::make_unique<TokenHolderSet>(cfg_.numNodes,
                                                    cfg_.blockBytes);
        // Every token cache ignores a transient request for a block
        // it holds no tokens for, except TokenM's, whose predictor
        // trains on every request it observes
        // (TokenMCache::handleMessage).
        if (cfg_.protocol != ProtocolKind::tokenM)
            net_->setTokenHolders(holders_.get());
    }

    addrMap_.blockBytes = cfg_.blockBytes;
    configureWorkloads();

    // The seeder draw order below (one draw per node for controllers,
    // then a workload draw and a sequencer draw per node) is the seed
    // contract: reset() replays exactly the same sequence so a reused
    // System is bit-identical to a fresh one.
    Rng seeder(cfg_.seed);
    for (int i = 0; i < cfg_.numNodes; ++i) {
        const auto id = static_cast<NodeId>(i);
        buildControllers(id, seeder.next());
        nodes_.push_back(std::make_unique<Node>(
            ctx_, id, caches_[i].get(), memories_[i].get()));
        net_->attach(id, nodes_[i].get());
    }
    for (int i = 0; i < cfg_.numNodes; ++i) {
        const auto id = static_cast<NodeId>(i);
        const std::uint64_t wl_seed = seeder.next();
        const std::uint64_t seq_seed = seeder.next();
        sequencers_.push_back(std::make_unique<Sequencer>(
            ctx_, id, caches_[i].get(),
            makeWorkload(id, wl_seed), cfg_.seq,
            detailedOpBudget(), seq_seed));
    }
}

std::uint64_t
System::detailedOpBudget() const
{
    return cfg_.warmupOpsPerProcessor +
        (cfg_.sampling.enabled()
             ? cfg_.sampling.windows * cfg_.sampling.measureOps
             : cfg_.opsPerProcessor);
}

namespace {

/** Equal cache geometry; latency is a runtime knob (read via ctx). */
bool
sameCacheGeometry(const CacheParams &a, const CacheParams &b)
{
    return a.sizeBytes == b.sizeBytes && a.assoc == b.assoc &&
        a.blockBytes == b.blockBytes;
}

/**
 * True if @p b describes a system with the same structural shape as
 * @p a: only what is baked into the constructed component graph must
 * match — node count, topology, protocol (controller types), cache
 * geometry, token count (sized into the auditor and controllers),
 * and predictor table size. Every other knob (seed, op budgets,
 * workload selection, network/DRAM timing, reissue policy, maxTicks)
 * is runtime state that reset() reapplies.
 */
bool
sameShape(const SystemConfig &a, const SystemConfig &b,
          bool trust_factory)
{
    if (!trust_factory && (a.workloadFactory || b.workloadFactory))
        return false;   // std::function targets are not comparable
    if (static_cast<bool>(a.workloadFactory) !=
        static_cast<bool>(b.workloadFactory))
        return false;
    return a.numNodes == b.numNodes && a.topology == b.topology &&
        a.protocol == b.protocol &&
        a.proto.tokensPerBlock == b.proto.tokensPerBlock &&
        a.proto.predictorEntries == b.proto.predictorEntries &&
        sameCacheGeometry(a.l2, b.l2) &&
        sameCacheGeometry(a.seq.l1, b.seq.l1) &&
        a.blockBytes == b.blockBytes &&
        a.attachAuditor == b.attachAuditor;
}

} // namespace

bool
System::reset(const SystemConfig &cfg, bool trust_factory)
{
    if (!sameShape(cfg_, cfg, trust_factory))
        return false;
    cfg_ = cfg;

    // Refresh the runtime knobs the components read through the
    // shared context.
    ctx_.blockBytes = cfg_.blockBytes;
    ctx_.ctrlLatency = cfg_.ctrlLatency;
    ctx_.l2 = cfg_.l2;
    ctx_.dram = cfg_.dram;
    addrMap_.blockBytes = cfg_.blockBytes;

    eq_.reset();
    net_->reset(cfg_.net);
    if (auditor_)
        auditor_->reset();
    if (holders_)
        holders_->clear();
    measureStart_ = 0;
    measureStartScheduled_ = 0;
    measureStartDispatched_ = 0;
    measureStartCancelled_ = 0;
    sampledValid_ = false;
    // The workload spec is a runtime knob: reset may switch
    // preset↔trace or trace↔trace. An invalid spec (unknown preset,
    // malformed trace) throws here, leaving the System unusable —
    // runOnceReusing drops such a System rather than reusing it.
    configureWorkloads();

    // Replay the constructor's exact seeding sequence.
    const ProtocolParams proto = effectiveProtoParams();
    Rng seeder(cfg_.seed);
    for (int i = 0; i < cfg_.numNodes; ++i) {
        const std::uint64_t ctrl_seed = seeder.next();
        caches_[static_cast<std::size_t>(i)]->resetState(proto,
                                                         ctrl_seed);
        memories_[static_cast<std::size_t>(i)]->resetState(proto);
    }
    for (int i = 0; i < cfg_.numNodes; ++i) {
        const auto id = static_cast<NodeId>(i);
        const std::uint64_t wl_seed = seeder.next();
        const std::uint64_t seq_seed = seeder.next();
        sequencers_[static_cast<std::size_t>(i)]->reset(
            cfg_.seq, makeWorkload(id, wl_seed),
            detailedOpBudget(), seq_seed);
    }
    return true;
}

System::~System() = default;

ProtocolParams
System::effectiveProtoParams() const
{
    ProtocolParams p = cfg_.proto;
    if (cfg_.protocol == ProtocolKind::tokenNull) {
        // The null performance protocol relies entirely on persistent
        // requests; pointless reissue timeouts are skipped.
        p.maxReissues = 0;
    }
    return p;
}

void
System::buildControllers(NodeId id, std::uint64_t seed)
{
    ProtocolParams p = effectiveProtoParams();
    TokenAuditor *aud = auditor_.get();

    switch (cfg_.protocol) {
      case ProtocolKind::snooping:
        caches_.push_back(std::make_unique<SnoopCache>(ctx_, id, p));
        memories_.push_back(std::make_unique<SnoopMemory>(ctx_, id, p));
        break;
      case ProtocolKind::directory:
        caches_.push_back(std::make_unique<DirCache>(ctx_, id, p));
        memories_.push_back(std::make_unique<DirMemory>(ctx_, id, p));
        break;
      case ProtocolKind::hammer:
        caches_.push_back(std::make_unique<HammerCache>(ctx_, id, p));
        memories_.push_back(
            std::make_unique<HammerMemory>(ctx_, id, p));
        break;
      case ProtocolKind::tokenB:
        caches_.push_back(
            std::make_unique<TokenBCache>(ctx_, id, p, aud, seed,
                                          *holders_));
        memories_.push_back(
            std::make_unique<TokenBMemory>(ctx_, id, p, aud));
        break;
      case ProtocolKind::tokenD:
        caches_.push_back(
            std::make_unique<TokenDCache>(ctx_, id, p, aud, seed,
                                          *holders_));
        memories_.push_back(
            std::make_unique<TokenDMemory>(ctx_, id, p, aud));
        break;
      case ProtocolKind::tokenM:
        caches_.push_back(
            std::make_unique<TokenMCache>(ctx_, id, p, aud, seed,
                                          *holders_));
        memories_.push_back(
            std::make_unique<TokenBMemory>(ctx_, id, p, aud));
        break;
      case ProtocolKind::tokenA:
        // Adaptive issue policy over TokenD's soft-state home.
        caches_.push_back(
            std::make_unique<TokenACache>(ctx_, id, p, aud, seed,
                                          *holders_));
        memories_.push_back(
            std::make_unique<TokenDMemory>(ctx_, id, p, aud));
        break;
      case ProtocolKind::tokenNull:
        caches_.push_back(
            std::make_unique<TokenNullCache>(ctx_, id, p, aud, seed,
                                             *holders_));
        memories_.push_back(
            std::make_unique<TokenBMemory>(ctx_, id, p, aud));
        break;
    }

    if (aud) {
        aud->addHolder(
            dynamic_cast<const TokenHolder *>(caches_.back().get()));
        aud->addHolder(
            dynamic_cast<const TokenHolder *>(memories_.back().get()));
    }
}

namespace {

/**
 * Decorates a tenant's group-local workload with the tenant's address
 * offset (see kTenantAddrShift): the inner generator runs in its own
 * group-sized address space, and every emitted address is lifted into
 * the tenant's disjoint slice of the machine's space.
 */
class TenantOffsetWorkload : public Workload
{
  public:
    TenantOffsetWorkload(std::unique_ptr<Workload> inner, Addr offset)
        : inner_(std::move(inner)), offset_(offset)
    {}

    WorkloadOp
    next() override
    {
        WorkloadOp op = inner_->next();
        op.addr += offset_;
        return op;
    }

    void
    skip(std::uint64_t n) override
    {
        // The offset is stateless; the inner generator skips natively.
        inner_->skip(n);
    }

    std::string name() const override { return inner_->name(); }

  private:
    std::unique_ptr<Workload> inner_;
    Addr offset_;
};

/** Joined display name of a tenant list ("ycsb+tpcc"). */
std::string
tenantListName(const std::vector<TenantSpec> &tenants)
{
    std::string out;
    for (const TenantSpec &t : tenants) {
        if (!out.empty())
            out += '+';
        out += t.workload.name();
    }
    return out;
}

} // namespace

void
System::configureWorkloads()
{
    tenantFactories_.clear();
    tenantStarts_.clear();
    if (!cfg_.tenants.empty()) {
        if (cfg_.workloadFactory) {
            throw std::invalid_argument(
                "tenants and workloadFactory are mutually exclusive");
        }
        int start = 0;
        for (std::size_t i = 0; i < cfg_.tenants.size(); ++i) {
            const TenantSpec &t = cfg_.tenants[i];
            if (t.workload.isTrace()) {
                throw std::invalid_argument(
                    "tenant " + std::to_string(i) +
                    ": trace specs cannot be tenant workloads");
            }
            if (t.nodes < 1) {
                throw std::invalid_argument(
                    "tenant " + std::to_string(i) + " has " +
                    std::to_string(t.nodes) +
                    " nodes; every tenant needs at least one");
            }
            tenantStarts_.push_back(start);
            // Each tenant's factory sees its group size: the tenant's
            // sharing pattern (producer mapping, warehouse count,
            // shared-region bases) spans its own nodes.
            tenantFactories_.push_back(std::make_unique<WorkloadFactory>(
                t.workload, t.nodes, addrMap_));
            start += t.nodes;
        }
        if (start != cfg_.numNodes) {
            throw std::invalid_argument(
                "tenant node counts sum to " + std::to_string(start) +
                " but the system has " + std::to_string(cfg_.numNodes) +
                " nodes");
        }
        tenantStarts_.push_back(start);
        wlFactory_.reset();
    } else {
        // The custom std::function factory bypasses spec validation
        // (its spec may be the unused default).
        wlFactory_ = cfg_.workloadFactory
            ? nullptr
            : std::make_unique<WorkloadFactory>(cfg_.workload,
                                                cfg_.numNodes,
                                                addrMap_);
    }
    if (cfg_.recordTrace.empty()) {
        traceWriter_.reset();
        return;
    }
    TraceHeader hdr;
    hdr.numNodes = static_cast<std::uint32_t>(cfg_.numNodes);
    hdr.blockBytes = cfg_.blockBytes;
    hdr.seed = cfg_.seed;
    hdr.warmupOpsPerProcessor = cfg_.warmupOpsPerProcessor;
    hdr.provenance = !cfg_.tenants.empty()
        ? tenantListName(cfg_.tenants)
        : (cfg_.workloadFactory ? "custom-factory"
                                : cfg_.workload.name());
    traceWriter_ = std::make_unique<TraceWriter>(std::move(hdr));
}

std::unique_ptr<Workload>
System::makeWorkload(NodeId node, std::uint64_t seed)
{
    std::unique_ptr<Workload> wl;
    if (!tenantFactories_.empty()) {
        // Find the node's tenant group (starts are sorted; the list
        // is short).
        std::size_t t = 0;
        while (static_cast<int>(node) >= tenantStarts_[t + 1])
            ++t;
        const NodeId local =
            static_cast<NodeId>(static_cast<int>(node) -
                                tenantStarts_[t]);
        wl = std::make_unique<TenantOffsetWorkload>(
            tenantFactories_[t]->make(local, seed),
            Addr{t} << kTenantAddrShift);
    } else if (cfg_.workloadFactory) {
        wl = cfg_.workloadFactory(node, cfg_.numNodes, seed);
    } else {
        wl = wlFactory_->make(node, seed);
    }
    if (traceWriter_) {
        wl = std::make_unique<RecordingWorkload>(
            std::move(wl), traceWriter_.get(), node);
    }
    return wl;
}

bool
System::checkTokenHolders(std::string *err) const
{
    if (!holders_)
        return true;
    std::uint64_t listed = 0;
    bool ok = true;
    holders_->forEachBlock([&](Addr ba, const std::uint64_t *mask) {
        holders_->forEach(mask, [&](NodeId id) {
            ++listed;
            if (ok && !static_cast<const TokenBCache &>(*caches_[id])
                           .resident(ba)) {
                ok = false;
                if (err) {
                    *err = strformat("block %#lx: the holder set lists "
                                     "cache %u, whose L2 lacks it",
                                     static_cast<unsigned long>(ba), id);
                }
            }
            return true;
        });
    });
    if (!ok)
        return false;
    std::uint64_t lines = 0;
    for (const auto &c : caches_)
        lines += static_cast<const TokenBCache &>(*c).residentLines();
    if (lines != listed) {
        if (err) {
            *err = strformat("the caches hold %lu lines but the holder "
                             "set lists %lu",
                             static_cast<unsigned long>(lines),
                             static_cast<unsigned long>(listed));
        }
        return false;
    }
    return true;
}

bool
System::allDone() const
{
    for (const auto &s : sequencers_) {
        if (!s->done())
            return false;
    }
    return true;
}

void
System::resetStats()
{
    net_->clearTraffic();
    for (auto &c : caches_)
        c->stats() = CacheCtrlStats{};
    for (auto &s : sequencers_)
        s->resetStats();
    measureStart_ = eq_.curTick();
    measureStartScheduled_ = eq_.scheduled();
    measureStartDispatched_ = eq_.dispatched();
    measureStartCancelled_ = eq_.cancelled();
}

namespace {

/**
 * The run loops' stop predicates poll one milestone counter that
 * sequencers bump on the relevant completion, instead of asking
 * every sequencer after every event (that scan was a measurable
 * fraction of total simulation time on wide systems). The guard
 * disarms the milestones on every exit path — the counters live
 * on the run loop's frame, and a throwing handler must not leave
 * dangling pointers behind in the sequencers.
 */
struct MilestoneGuard
{
    std::vector<std::unique_ptr<Sequencer>> &seqs;
    ~MilestoneGuard()
    {
        for (auto &s : seqs)
            s->setMilestone(0, nullptr);
    }
};

} // namespace

void
System::fastForward(std::uint64_t ops_per_node)
{
    // A functional step under in-flight messages would race them:
    // settle everything first. (Already drained when the sampled loop
    // calls this at a window edge.)
    if (!eq_.run(cfg_.maxTicks)) {
        throw std::runtime_error(
            "simulation failed to drain before fast-forward");
    }
    FunctionalEnv env;
    env.caches.reserve(caches_.size());
    env.memories.reserve(memories_.size());
    for (auto &c : caches_)
        env.caches.push_back(c.get());
    for (auto &m : memories_)
        env.memories.push_back(m.get());
    // Round-robin in small bursts: a node's workload tables and cache
    // arrays stay hot for the burst (per-op alternation thrashes them
    // across nodes), while the <=32-op skew between nodes stays
    // negligible against any useful fast-forward span. The schedule
    // is fixed, so every runner sees the same interleaving.
    constexpr std::uint64_t burst = 32;
    for (std::uint64_t k = 0; k < ops_per_node; k += burst) {
        const std::uint64_t n = std::min(burst, ops_per_node - k);
        for (auto &s : sequencers_)
            s->fastForward(n, env);
    }
}

void
System::run()
{
    const bool sampled = cfg_.sampling.enabled();
    if (!cfg_.recordTrace.empty() && (sampled || cfg_.warmSnapshot)) {
        // Fast-forward pulls ops the detailed engine never sees, and
        // a snapshot-warmed run never pulls its warmup ops at all —
        // either way the recorded trace would not replay the run that
        // produced it.
        throw std::runtime_error(
            "recordTrace requires a fully detailed run "
            "(no sampling, no warm snapshot)");
    }
    sampledValid_ = false;

    if (cfg_.warmSnapshot)
        loadWarmSnapshot(*this, *cfg_.warmSnapshot);
    // Warm progress — from the snapshot just loaded or from a direct
    // fastForward() call before run() — shifts every op-count edge.
    const std::uint64_t base = sequencers_[0]->completedOps();

    if (sampled) {
        runSampled(base);
        return;
    }

    for (auto &s : sequencers_)
        s->start();

    const auto n = static_cast<std::uint64_t>(sequencers_.size());
    MilestoneGuard guard{sequencers_};

    if (cfg_.warmupOpsPerProcessor > 0) {
        std::uint64_t warmCount = 0;
        for (auto &s : sequencers_)
            s->setMilestone(base + cfg_.warmupOpsPerProcessor,
                            &warmCount);
        const bool warmed = eq_.runUntil(
            [&warmCount, n]() { return warmCount >= n; },
            cfg_.maxTicks);
        if (!warmed)
            failStalled("simulation exceeded maxTicks during warmup");
        resetStats();
    }

    std::uint64_t doneCount = 0;
    for (auto &s : sequencers_) {
        s->setMilestone(
            base + cfg_.warmupOpsPerProcessor + cfg_.opsPerProcessor,
            &doneCount);
    }
    const bool finished = eq_.runUntil(
        [&doneCount, n]() { return doneCount >= n; }, cfg_.maxTicks);
    for (auto &s : sequencers_)
        s->setMilestone(0, nullptr);
    if (!finished) {
        failStalled("simulation exceeded maxTicks before completing - "
                    "possible protocol deadlock or starvation");
    }
    // Drain all in-flight protocol activity (evictions, persistent
    // deactivation handshakes, late token redirects).
    if (!eq_.run(cfg_.maxTicks)) {
        throw std::runtime_error(
            "simulation failed to drain before maxTicks");
    }

    // Flush the recorded trace once the run is complete — every
    // sequencer has pulled exactly its budget, so the trace holds the
    // full (warmup + measured) operation streams.
    if (traceWriter_)
        traceWriter_->writeFile(cfg_.recordTrace);
}

void
System::runSampled(std::uint64_t base)
{
    const SamplingSpec &sp = cfg_.sampling;
    const auto n = static_cast<std::uint64_t>(sequencers_.size());
    MilestoneGuard guard{sequencers_};

    // Sequencers pause at each phase edge instead of free-running to
    // their budgets, so every fast-forward span starts from a fully
    // drained, op-exact boundary.
    std::uint64_t edge = base + cfg_.warmupOpsPerProcessor;
    for (auto &s : sequencers_) {
        s->setIssueLimit(edge);
        s->start();
    }
    if (cfg_.warmupOpsPerProcessor > 0) {
        std::uint64_t warmCount = 0;
        for (auto &s : sequencers_)
            s->setMilestone(edge, &warmCount);
        const bool warmed = eq_.runUntil(
            [&warmCount, n]() { return warmCount >= n; },
            cfg_.maxTicks);
        if (!warmed)
            failStalled("simulation exceeded maxTicks during warmup");
        for (auto &s : sequencers_)
            s->setMilestone(0, nullptr);
        if (!eq_.run(cfg_.maxTicks)) {
            throw std::runtime_error(
                "simulation failed to drain after warmup");
        }
    }

    Results pooled;
    for (std::uint64_t w = 0; w < sp.windows; ++w) {
        fastForward(sp.ffOps);
        edge += sp.ffOps + sp.measureOps;
        resetStats();
        std::uint64_t winCount = 0;
        for (auto &s : sequencers_) {
            s->setMilestone(edge, &winCount);
            s->setIssueLimit(edge);
            s->kick();
        }
        const bool finished = eq_.runUntil(
            [&winCount, n]() { return winCount >= n; }, cfg_.maxTicks);
        for (auto &s : sequencers_)
            s->setMilestone(0, nullptr);
        if (!finished) {
            failStalled("simulation exceeded maxTicks in a sampled "
                        "window - possible protocol deadlock or "
                        "starvation");
        }
        if (!eq_.run(cfg_.maxTicks)) {
            throw std::runtime_error(
                "simulation failed to drain a sampled window");
        }
        // Each window is one sample: counters sum, RunningStats
        // Welford-combine. cpt_ns enters per window as a one-sample
        // stat, so the pooled stat's stderr is the across-window
        // standard error SMARTS reports.
        pooled.metrics.merge(collectResults().metrics);
    }
    sampledResults_ = std::move(pooled);
    sampledValid_ = true;
}

void
System::failStalled(const char *max_ticks_msg) const
{
    if (!eq_.empty())
        throw std::runtime_error(max_ticks_msg);
    std::ostringstream msg;
    msg << "deadlock at tick " << eq_.curTick() << " ("
        << ticksToNsF(eq_.curTick()) << " ns)"
        << ": event queue drained with operations outstanding";
    for (const auto &s : sequencers_) {
        if (s->outstanding() == 0)
            continue;
        msg << "; node " << s->nodeId() << ": " << s->outstanding()
            << " outstanding on" << std::hex;
        for (Addr a : s->busyBlocks())
            msg << " 0x" << a;
        msg << std::dec;
    }
    throw DeadlockError(msg.str());
}

/**
 * The full metric catalog of a run, registered in one fixed order so
 * registry equality is meaningful across runners. Pinned metrics feed
 * the aggregates resultDigest() prints; the rest are diagnostic (still
 * deterministic, still compared by the differential gates, but free to
 * evolve without golden-digest churn). New metrics are one
 * registration here — the wire codec, merge, and determinism gates
 * pick them up generically.
 */
System::Results
System::results() const
{
    return sampledValid_ ? sampledResults_ : collectResults();
}

System::Results
System::collectResults() const
{
    std::uint64_t ops = 0, transactions = 0, l1_hits = 0;
    std::uint64_t l2_accesses = 0, l2_hits = 0, misses = 0, c2c = 0;
    std::uint64_t not_reissued = 0, once = 0, more = 0, persistent = 0;
    RunningStat miss_lat;
    LogHistogram miss_hist;
    for (int i = 0; i < cfg_.numNodes; ++i) {
        const SequencerStats &ss = sequencers_[i]->stats();
        ops += ss.opsCompleted;
        transactions += ss.transactions;
        l1_hits += ss.l1Hits;
        l2_accesses += ss.l2Accesses;

        const CacheCtrlStats &cs = caches_[i]->stats();
        l2_hits += cs.hits;
        misses += cs.missesCompleted;
        c2c += cs.cacheToCache;
        not_reissued += cs.missesNotReissued;
        once += cs.missesReissuedOnce;
        more += cs.missesReissuedMore;
        persistent += cs.missesPersistent;
        // Pool the per-controller stats so every miss weighs equally.
        // (Until PR 6 this averaged the per-node means, giving a
        // lightly-loaded node the same weight as a saturated one.)
        miss_lat.combine(cs.missLatency);
        miss_hist.merge(cs.missLatencyHist);
    }
    const Tick runtime = eq_.curTick() - measureStart_;

    // Cycles-per-transaction enters the registry as a single-sample
    // stat: merging runs then Welford-combines these one-sample stats,
    // which RunningStat::combine guarantees is bit-identical to the
    // sequential add() loop the aggregation historically used — that
    // keeps the digest-pinned cpt/cptSd fields stable.
    RunningStat cpt;
    cpt.add(transactions ? ticksToNsF(runtime) /
                static_cast<double>(transactions)
                         : 0.0);

    Results r;
    MetricRegistry &m = r.metrics;
    m.addCounter("ops", metricPinned, ops);
    m.addCounter("transactions", metricDiagnostic, transactions);
    m.addCounter("runtime_ticks", metricDiagnostic, runtime);
    m.addCounter("l1_hits", metricDiagnostic, l1_hits);
    m.addCounter("l2_accesses", metricPinned, l2_accesses);
    m.addCounter("l2_hits", metricDiagnostic, l2_hits);
    m.addCounter("misses", metricPinned, misses);
    m.addCounter("cache_to_cache", metricPinned, c2c);

    // Token Coherence reissue buckets (Table 2).
    m.addCounter("miss_reissue_none", metricPinned, not_reissued);
    m.addCounter("miss_reissue_once", metricPinned, once);
    m.addCounter("miss_reissue_more", metricPinned, more);
    m.addCounter("miss_persistent", metricPinned, persistent);

    m.addStat("miss_latency_ticks", metricPinned, miss_lat);
    m.addHistogram("miss_latency_hist", metricDiagnostic, miss_hist);
    m.addStat("cpt_ns", metricPinned, cpt);

    // Interconnect traffic, flattened per message class; the per-type
    // counters are sparse (most of the 24 types are zero under any one
    // protocol), so zero counts are skipped and merge unions the rest.
    const TrafficStats &t = net_->traffic();
    for (std::size_t c = 0; c < numMsgClasses; ++c) {
        m.addCounter(std::string("link_bytes_") +
                         msgClassName(static_cast<MsgClass>(c)),
                     metricPinned, t.byClass[c].byteLinks);
    }
    for (std::size_t c = 0; c < numMsgClasses; ++c) {
        m.addCounter(std::string("msgs_") +
                         msgClassName(static_cast<MsgClass>(c)),
                     metricDiagnostic, t.byClass[c].messages);
    }
    for (std::size_t i = 0; i < numMsgTypes; ++i) {
        if (t.messagesByType[i]) {
            m.addCounter(std::string("msgs_type_") +
                             msgTypeName(static_cast<MsgType>(i)),
                         metricDiagnostic, t.messagesByType[i]);
        }
    }
    m.addCounter("net_deliveries", metricDiagnostic, t.deliveries);
    m.addStat("net_latency_ticks", metricDiagnostic, t.latency);

    m.addCounter("events_scheduled", metricDiagnostic,
                 eq_.scheduled() - measureStartScheduled_);
    m.addCounter("events_dispatched", metricDiagnostic,
                 eq_.dispatched() - measureStartDispatched_);
    m.addCounter("timers_cancelled", metricDiagnostic,
                 eq_.cancelled() - measureStartCancelled_);

    // Per-tenant breakdowns (multi-tenant mode only): diagnostic so
    // tenant sweeps can read interference without perturbing the
    // digest-pinned aggregate catalog above. Appended last — the
    // catalog stays a fixed-order prefix.
    for (std::size_t t = 0; t + 1 < tenantStarts_.size(); ++t) {
        std::uint64_t t_ops = 0;
        RunningStat t_lat;
        for (int i = tenantStarts_[t]; i < tenantStarts_[t + 1]; ++i) {
            t_ops += sequencers_[i]->stats().opsCompleted;
            t_lat.combine(caches_[i]->stats().missLatency);
        }
        const std::string prefix = "tenant" + std::to_string(t) + "_";
        m.addCounter(prefix + "ops", metricDiagnostic, t_ops);
        m.addStat(prefix + "miss_latency_ticks", metricDiagnostic,
                  t_lat);
    }
    return r;
}

} // namespace tokensim
