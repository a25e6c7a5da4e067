/**
 * @file
 * Workload generator interface and building blocks.
 *
 * The paper drives its evaluation with full-system commercial workload
 * checkpoints (OLTP, Apache, SPECjbb). Those are substituted here by
 * synthetic generators that reproduce the sharing *patterns* those
 * workloads are known for (Barroso et al. [8]; Alameldeen et al. [6]):
 * per-processor private data, read-mostly shared data,
 * producer-consumer data, and — dominant in OLTP — migratory data
 * (locks and counters accessed read-modify-write by one processor at a
 * time). The substitution is sound for what the paper measures: its
 * protocol comparisons depend on the mix of miss types — cache-to-cache
 * transfers, sharing misses, and memory misses — which these patterns
 * set directly, not on the instruction stream between misses.
 *
 * A Workload instance is the per-processor operation stream: the
 * sequencer pulls one WorkloadOp at a time.
 */

#ifndef TOKENSIM_WORKLOAD_WORKLOAD_HH
#define TOKENSIM_WORKLOAD_WORKLOAD_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "proto/types.hh"
#include "sim/random.hh"
#include "sim/types.hh"

namespace tokensim {

/** One memory operation produced by a workload generator. */
struct WorkloadOp
{
    MemOp op = MemOp::load;
    Addr addr = 0;
    bool endsTransaction = false;  ///< closes one unit of work
};

/** Per-processor stream of memory operations. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Produce the next operation of this processor's stream. */
    virtual WorkloadOp next() = 0;

    /**
     * Discard the next @p n operations of the stream, leaving the
     * generator exactly where @p n next() calls would have left it.
     * Warm-state snapshot restore uses this to re-align a fresh
     * workload with the operations the saved fast-forward consumed
     * (trace replays wrap exactly like repeated next() does).
     */
    virtual void
    skip(std::uint64_t n)
    {
        for (std::uint64_t i = 0; i < n; ++i)
            (void)next();
    }

    /** Generator name for reports. */
    virtual std::string name() const = 0;
};

/**
 * Zipf-distributed sampler over [0, n): item k has weight
 * 1/(k+1)^theta. theta = 0 degenerates to uniform.
 *
 * Sampling is O(1) via a Walker/Vose alias table (one uniform column
 * pick plus one biased coin) instead of the former O(log n) binary
 * search over a CDF — Zipf draws sit on the workload-generation hot
 * path of every commercial preset. The (immutable) alias tables are
 * interned in a process-wide cache keyed by (n, theta): every node of
 * every System reuses one table per distinct distribution instead of
 * re-running the O(n log) build, which used to dominate per-shard
 * workload construction in the sweep benches.
 */
class ZipfSampler
{
  public:
    ZipfSampler(std::size_t n, double theta);

    std::size_t
    sample(Rng &rng) const
    {
        const Table &t = *table_;
        const std::size_t i =
            static_cast<std::size_t>(rng.below(t.prob.size()));
        return rng.uniform() < t.prob[i] ? i : t.alias[i];
    }

    std::size_t size() const { return table_->prob.size(); }

    /** Normalized closed-form weight of item @p k (for tests). */
    double weight(std::size_t k) const;

  private:
    struct Table
    {
        std::vector<double> prob;           ///< acceptance threshold
        std::vector<std::uint32_t> alias;   ///< fallback per column
        double theta = 0.0;
        double invWeightSum = 0.0;
    };

    /** Build (or fetch from the intern cache) the table. */
    static std::shared_ptr<const Table> tableFor(std::size_t n,
                                                 double theta);

    std::shared_ptr<const Table> table_;
};

/**
 * Shared layout of the synthetic address space. All generators draw
 * from these four region types; region placement interleaves homes
 * across all nodes automatically (block-address interleaving).
 */
struct AddressMap
{
    std::uint32_t blockBytes = 64;

    std::uint64_t privateBlocksPerNode = 1 << 18;  ///< 16 MB/node
    std::uint64_t sharedBlocks = 1 << 14;          ///< read-mostly
    std::uint64_t migratoryBlocks = 1 << 12;       ///< locks/counters
    std::uint64_t prodConsBlocks = 1 << 12;

    /** Region bases (computed; regions are disjoint). */
    Addr
    privateBase(NodeId node) const
    {
        return (Addr{node} * privateBlocksPerNode) * blockBytes;
    }

    Addr
    sharedBase(int num_nodes) const
    {
        return (Addr{static_cast<std::uint64_t>(num_nodes)} *
                privateBlocksPerNode) * blockBytes;
    }

    Addr
    migratoryBase(int num_nodes) const
    {
        return sharedBase(num_nodes) + sharedBlocks * blockBytes;
    }

    Addr
    prodConsBase(int num_nodes) const
    {
        return migratoryBase(num_nodes) + migratoryBlocks * blockBytes;
    }

    /**
     * Base of the transactional table region (YCSB records, TPC-C
     * warehouse slabs). Last region in the address space, so its size
     * is open-ended: the transactional presets size it from their own
     * knobs (record count, warehouses x slab blocks).
     */
    Addr
    tableBase(int num_nodes) const
    {
        return prodConsBase(num_nodes) + prodConsBlocks * blockBytes;
    }
};

// ---------------------------------------------------------------------
// Microbenchmark generators
// ---------------------------------------------------------------------

/**
 * Uniform random accesses to a small hot set shared by every
 * processor; storeFraction of the operations are writes. Used by the
 * Question-5 scaling study and the contention stress tests.
 */
class UniformSharedWorkload : public Workload
{
  public:
    UniformSharedWorkload(std::uint64_t blocks, double store_fraction,
                          std::uint32_t block_bytes, std::uint64_t seed,
                          int ops_per_transaction = 20)
        : blocks_(blocks), storeFraction_(store_fraction),
          blockBytes_(block_bytes), rng_(seed),
          opsPerTransaction_(ops_per_transaction)
    {}

    WorkloadOp
    next() override
    {
        WorkloadOp op;
        op.addr = rng_.below(blocks_) * blockBytes_;
        op.op = rng_.chance(storeFraction_) ? MemOp::store : MemOp::load;
        op.endsTransaction = (++count_ % opsPerTransaction_) == 0;
        return op;
    }

    std::string name() const override { return "uniform-shared"; }

  private:
    std::uint64_t blocks_;
    double storeFraction_;
    std::uint32_t blockBytes_;
    Rng rng_;
    int opsPerTransaction_;
    std::uint64_t count_ = 0;
};

/**
 * Every processor hammers the same single block with stores — the
 * worst case for racing transient requests, used to exercise reissues
 * and persistent requests.
 */
class HotBlockWorkload : public Workload
{
  public:
    HotBlockWorkload(Addr block_addr, double store_fraction,
                     std::uint64_t seed)
        : addr_(block_addr), storeFraction_(store_fraction), rng_(seed)
    {}

    WorkloadOp
    next() override
    {
        WorkloadOp op;
        op.addr = addr_;
        op.op = rng_.chance(storeFraction_) ? MemOp::store : MemOp::load;
        op.endsTransaction = true;
        return op;
    }

    std::string name() const override { return "hot-block"; }

  private:
    Addr addr_;
    double storeFraction_;
    Rng rng_;
};

/** Purely private accesses (no sharing): a protocol-overhead floor. */
class PrivateWorkload : public Workload
{
  public:
    PrivateWorkload(NodeId node, const AddressMap &map,
                    std::uint64_t working_set_blocks, double store_frac,
                    std::uint64_t seed)
        : base_(map.privateBase(node)),
          blocks_(working_set_blocks),
          blockBytes_(map.blockBytes),
          storeFraction_(store_frac),
          rng_(seed)
    {}

    WorkloadOp
    next() override
    {
        WorkloadOp op;
        op.addr = base_ + rng_.below(blocks_) * blockBytes_;
        op.op = rng_.chance(storeFraction_) ? MemOp::store : MemOp::load;
        op.endsTransaction = (++count_ % 20) == 0;
        return op;
    }

    std::string name() const override { return "private"; }

  private:
    Addr base_;
    std::uint64_t blocks_;
    std::uint32_t blockBytes_;
    double storeFraction_;
    Rng rng_;
    std::uint64_t count_ = 0;
};

/**
 * Pure producer-consumer sharing: every block of a shared buffer
 * region has one static producer (block index mod node count) that
 * writes it; all other processors read it. This isolates the
 * producer-consumer component that the commercial mixes dilute with
 * private traffic — useful for studying forwarding behavior and as a
 * golden-trace workload whose sharing pattern is easy to reason about.
 */
class ProducerConsumerWorkload : public Workload
{
  public:
    ProducerConsumerWorkload(NodeId node, int num_nodes,
                             const AddressMap &map,
                             std::uint64_t buffer_blocks,
                             std::uint64_t seed,
                             int ops_per_transaction = 20)
        : node_(node), numNodes_(num_nodes),
          base_(map.prodConsBase(num_nodes)),
          blockBytes_(map.blockBytes),
          blocks_(std::min<std::uint64_t>(buffer_blocks,
                                          map.prodConsBlocks)),
          rng_(seed), opsPerTransaction_(ops_per_transaction)
    {}

    WorkloadOp
    next() override
    {
        const std::uint64_t idx = rng_.below(blocks_);
        const NodeId producer = static_cast<NodeId>(
            idx % static_cast<std::uint64_t>(numNodes_));
        WorkloadOp op;
        op.addr = base_ + idx * blockBytes_;
        op.op = producer == node_ ? MemOp::store : MemOp::load;
        op.endsTransaction = (++count_ % opsPerTransaction_) == 0;
        return op;
    }

    std::string name() const override { return "producer-consumer"; }

  private:
    NodeId node_;
    int numNodes_;
    Addr base_;
    std::uint32_t blockBytes_;
    std::uint64_t blocks_;
    Rng rng_;
    int opsPerTransaction_;
    std::uint64_t count_ = 0;
};

/**
 * Lock-contended ping-pong: every processor loops acquire → critical
 * section → release over a small set of lock blocks shared by all
 * nodes. An acquire is the load+store RMW pair of a test-and-set, the
 * critical section is a few private accesses (the protected work),
 * and the release is a final store to the lock that also ends the
 * transaction. With few locks and many contenders the lock lines
 * ping-pong continuously — a barrier-style stress for migratory
 * sharing, racing transient requests, and persistent-request
 * starvation avoidance.
 */
class LockPingWorkload : public Workload
{
  public:
    LockPingWorkload(NodeId node, int num_nodes, const AddressMap &map,
                     std::uint64_t lock_blocks, int section_ops,
                     std::uint64_t seed)
        : privateBase_(map.privateBase(node)),
          lockBase_(map.migratoryBase(num_nodes)),
          blockBytes_(map.blockBytes),
          locks_(std::min<std::uint64_t>(
              lock_blocks ? lock_blocks : 1, map.migratoryBlocks)),
          sectionOps_(section_ops), rng_(seed)
    {}

    WorkloadOp
    next() override
    {
        WorkloadOp op;
        switch (phase_) {
          case Phase::acquireLoad:
            lockAddr_ = lockBase_ + rng_.below(locks_) * blockBytes_;
            op = WorkloadOp{MemOp::load, lockAddr_, false};
            phase_ = Phase::acquireStore;
            break;
          case Phase::acquireStore:
            op = WorkloadOp{MemOp::store, lockAddr_, false};
            sectionLeft_ = sectionOps_;
            phase_ = sectionLeft_ > 0 ? Phase::section
                                      : Phase::release;
            break;
          case Phase::section:
            // Protected work: a small private working set, half
            // stores (the shared data a real lock guards is modeled
            // by the lock line itself ping-ponging).
            op.addr = privateBase_ +
                rng_.below(kSectionBlocks) * blockBytes_;
            op.op = rng_.chance(0.5) ? MemOp::store : MemOp::load;
            if (--sectionLeft_ == 0)
                phase_ = Phase::release;
            break;
          case Phase::release:
            // The release makes the next contender's acquire miss.
            op = WorkloadOp{MemOp::store, lockAddr_, true};
            phase_ = Phase::acquireLoad;
            break;
        }
        return op;
    }

    std::string name() const override { return "lock-ping"; }

  private:
    enum class Phase : std::uint8_t
    {
        acquireLoad,
        acquireStore,
        section,
        release,
    };

    static constexpr std::uint64_t kSectionBlocks = 64;

    Addr privateBase_;
    Addr lockBase_;
    std::uint32_t blockBytes_;
    std::uint64_t locks_;
    int sectionOps_;
    Rng rng_;
    Phase phase_ = Phase::acquireLoad;
    Addr lockAddr_ = 0;
    int sectionLeft_ = 0;
};

} // namespace tokensim

#endif // TOKENSIM_WORKLOAD_WORKLOAD_HH
