/**
 * @file
 * WorkloadSpec — how an experiment names its operation source — and
 * the factory that turns a spec into per-node Workload instances.
 *
 * A spec is either a synthetic preset name ("oltp", "apache",
 * "specjbb", "producer-consumer", "lock-ping", "uniform", "hot",
 * "private", "ycsb", "tpcc") plus its per-preset knobs, or a
 * recorded trace path
 * (workload/trace.hh) replayed as a drop-in op source. The spec is a
 * runtime knob of SystemConfig: System::reset switches preset↔trace
 * freely, and ParallelRunner sweeps can mix both in one matrix.
 *
 * The factory front-loads all validation: an unknown preset throws
 * std::invalid_argument and a missing/malformed/mismatched trace
 * throws TraceError at construction — never mid-simulation.
 */

#ifndef TOKENSIM_WORKLOAD_FACTORY_HH
#define TOKENSIM_WORKLOAD_FACTORY_HH

#include <memory>
#include <string>

#include "workload/trace.hh"
#include "workload/workload.hh"

namespace tokensim {

/** Every synthetic preset name a WorkloadSpec accepts. */
inline constexpr const char *kWorkloadPresets[] = {
    "oltp", "apache", "specjbb", "producer-consumer", "lock-ping",
    "uniform", "hot", "private", "ycsb", "tpcc",
};

/** Names an experiment's operation source: preset or recorded trace. */
struct WorkloadSpec
{
    /**
     * Synthetic preset name; ignored when tracePath is set. Implicit
     * construction from a string keeps `cfg.workload = "oltp"` the
     * idiomatic spelling.
     */
    std::string preset = "oltp";

    /** Replay this recorded trace instead of a generator. */
    std::string tracePath;

    // Per-preset knobs (each used only by the presets named).
    std::uint64_t uniformBlocks = 512;   ///< "uniform" hot-set size
    double storeFraction = 0.3;          ///< micro-workload stores
    std::uint64_t prodConsBlocks = 256;  ///< "producer-consumer" buffer
    std::uint64_t lockBlocks = 8;        ///< "lock-ping" lock count
    int sectionOps = 6;                  ///< "lock-ping" section length

    // "ycsb" knobs (workload/ycsb.hh).
    std::uint64_t ycsbRecords = 1 << 16; ///< table size in records
    double ycsbTheta = 0.8;              ///< Zipf skew of popularity
    double ycsbReadFraction = 0.70;      ///< point reads
    double ycsbUpdateFraction = 0.25;    ///< RMW updates (rest: scans)
    int ycsbScanLen = 8;                 ///< records per scan

    // "tpcc" knobs (workload/tpcc.hh).
    std::uint64_t tpccWarehouses = 0;    ///< 0 = one per node
    double tpccHomeFraction = 0.85;      ///< P(txn hits home warehouse)
    int tpccOpsPerTxn = 24;              ///< record accesses per txn
    int tpccThinkOps = 12;               ///< private ops between txns

    WorkloadSpec() = default;
    WorkloadSpec(std::string preset_name)          // NOLINT(implicit)
        : preset(std::move(preset_name))
    {}
    WorkloadSpec(const char *preset_name) : preset(preset_name) {}

    /** Named constructor for trace replay. */
    static WorkloadSpec
    trace(std::string path)
    {
        WorkloadSpec s;
        s.tracePath = std::move(path);
        return s;
    }

    bool isTrace() const { return !tracePath.empty(); }

    /** Display name for labels and reports. */
    std::string
    name() const
    {
        return isTrace() ? "trace:" + tracePath : preset;
    }

    /**
     * Whole-value equality over every field. A field added here must
     * also be added to encodeWorkloadSpec (harness/wire.cc, with
     * wireVersion bumped): the checkpoint's sweep fingerprint and the
     * snapshot shape fingerprint hash that encoding, and
     * test_wire.cc checks that every encoded knob moves the sweep
     * fingerprint. A sizeof sentinel next to encodeWorkloadSpec
     * additionally fails the build on layout growth, so the knob
     * can't be added *here* and forgotten *there*.
     */
    friend bool
    operator==(const WorkloadSpec &a, const WorkloadSpec &b)
    {
        return a.preset == b.preset && a.tracePath == b.tracePath &&
            a.uniformBlocks == b.uniformBlocks &&
            a.storeFraction == b.storeFraction &&
            a.prodConsBlocks == b.prodConsBlocks &&
            a.lockBlocks == b.lockBlocks &&
            a.sectionOps == b.sectionOps &&
            a.ycsbRecords == b.ycsbRecords &&
            a.ycsbTheta == b.ycsbTheta &&
            a.ycsbReadFraction == b.ycsbReadFraction &&
            a.ycsbUpdateFraction == b.ycsbUpdateFraction &&
            a.ycsbScanLen == b.ycsbScanLen &&
            a.tpccWarehouses == b.tpccWarehouses &&
            a.tpccHomeFraction == b.tpccHomeFraction &&
            a.tpccOpsPerTxn == b.tpccOpsPerTxn &&
            a.tpccThinkOps == b.tpccThinkOps;
    }

    friend bool
    operator!=(const WorkloadSpec &a, const WorkloadSpec &b)
    {
        return !(a == b);
    }
};

/**
 * Builds one node's Workload per call. Constructed once per System
 * (and once per System::reset), which is where the spec is validated
 * and a replayed trace is loaded — through the process-wide intern
 * cache, so every shard of a sweep shares one parsed copy.
 */
class WorkloadFactory
{
  public:
    /**
     * @throws std::invalid_argument unknown preset.
     * @throws TraceError missing/malformed trace, or a trace whose
     *         recorded node count differs from @p num_nodes.
     */
    WorkloadFactory(const WorkloadSpec &spec, int num_nodes,
                    const AddressMap &map);

    /** Build node @p node's op stream seeded with @p seed. */
    std::unique_ptr<Workload> make(NodeId node,
                                   std::uint64_t seed) const;

    const WorkloadSpec &spec() const { return spec_; }

    /** The replayed trace; null for preset specs. */
    const std::shared_ptr<const TraceData> &trace() const
    {
        return trace_;
    }

  private:
    WorkloadSpec spec_;
    int numNodes_;
    AddressMap map_;
    std::shared_ptr<const TraceData> trace_;
};

} // namespace tokensim

#endif // TOKENSIM_WORKLOAD_FACTORY_HH
