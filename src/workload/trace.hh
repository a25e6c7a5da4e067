/**
 * @file
 * Trace-driven workload replay: a versioned binary format for recorded
 * per-processor operation streams, a recorder that wraps any live
 * Workload, and a replaying Workload that is a drop-in op source.
 *
 * The paper's evaluation rests on replayable commercial workload
 * checkpoints; our synthetic generators are parameterized stand-ins.
 * Recording a generator run to a trace makes any experiment exactly
 * re-runnable from an artifact, and — because replay feeds the
 * protocol stack the very same operation streams — a committed trace
 * plus its expected results is the strongest regression oracle we have
 * against behavioral drift in the simulator hot path
 * (tests/test_golden_traces.cc).
 *
 * Two properties the format leans on:
 *  - A sequencer pulls exactly (opsPerProcessor + warmupOpsPerProcessor)
 *    operations from its Workload per run, independent of protocol or
 *    timing, so a recorded trace replays against ANY protocol /
 *    topology / timing configuration with the same node count.
 *  - Each node's stream is self-contained (own generator RNG), so
 *    streams are recorded and replayed per node with no interleaving
 *    information needed.
 *
 * ## Trace format, version 1 (little-endian throughout)
 *
 *   offset  size          field
 *   0       8             magic "TOKTRACE"
 *   8       u32           version (= 1)
 *   12      u32           numNodes
 *   16      u32           blockBytes   (provenance; not enforced)
 *   20      u64           seed         (cfg.seed of the recorded run)
 *   28      u64           warmupOpsPerProcessor of the recorded run
 *   36      u16           provenance length P
 *   38      P bytes       provenance (workload preset name, UTF-8)
 *   ...     numNodes*u64  opsPerNode[n]     (operation counts)
 *   ...     numNodes*u64  streamBytes[n]    (encoded stream sizes)
 *   ...                   node 0's stream, node 1's stream, ...
 *
 * Per-operation encoding inside a stream (typically 2-3 bytes/op):
 *
 *   1 byte  flags: bit0 = store, bit1 = endsTransaction, bits 2..7
 *           must be zero in version 1
 *   varint  ULEB128 of the zigzag-encoded signed delta between this
 *           op's address and the previous address in the same stream
 *           (the first op's "previous address" is 0)
 *
 * Every field is read and written through sim/bytes.hh: the fixed-
 * width fields are WireWriter/WireReader's u16/u32/u64 and the delta
 * is their svarint. Any malformed input — short header, bad
 * magic/version, reserved flag bits, a stream that ends mid-op or
 * whose decoded op count disagrees with the header — throws
 * TraceError with a message naming the problem (a WireError from the
 * codec is rethrown as one); the parser never reads out of bounds.
 */

#ifndef TOKENSIM_WORKLOAD_TRACE_HH
#define TOKENSIM_WORKLOAD_TRACE_HH

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/bytes.hh"
#include "workload/workload.hh"

namespace tokensim {

/** Any structural problem with a trace file or buffer. */
class TraceError : public std::runtime_error
{
  public:
    explicit TraceError(const std::string &what)
        : std::runtime_error("trace: " + what)
    {}
};

/** Provenance and geometry of a recorded run. */
struct TraceHeader
{
    std::uint32_t numNodes = 0;
    std::uint32_t blockBytes = 64;
    std::uint64_t seed = 0;
    std::uint64_t warmupOpsPerProcessor = 0;
    std::string provenance;   ///< preset name of the recorded workload
};

/**
 * An immutable parsed trace: the header plus one encoded operation
 * stream per node. Streams stay varint-encoded in memory (a few bytes
 * per op); TraceData::Reader decodes on the fly.
 */
class TraceData
{
  public:
    static constexpr std::uint32_t version = 1;

    /** Parse an in-memory serialized trace. @throws TraceError */
    static TraceData parse(const void *data, std::size_t size);

    /** Read and parse @p path. @throws TraceError (file or format). */
    static std::shared_ptr<const TraceData> load(const std::string &path);

    /**
     * Like load(), but interned in a process-wide cache keyed by path:
     * every shard of a ParallelRunner sweep replaying one trace shares
     * a single parsed copy instead of re-reading the file per
     * System::reset. Failed loads are never cached, and
     * TraceWriter::writeFile drops the entry for a path it rewrites
     * (in-process record → replay → re-record stays coherent; files
     * replaced behind the process's back by other means are not
     * detected).
     */
    static std::shared_ptr<const TraceData>
    loadCached(const std::string &path);

    /** Drop @p path's loadCached entry (the file changed). */
    static void invalidateCached(const std::string &path);

    const TraceHeader &header() const { return header_; }
    std::uint32_t numNodes() const { return header_.numNodes; }

    /** Recorded operation count of @p node's stream. */
    std::uint64_t
    opsForNode(NodeId node) const
    {
        return opsPerNode_.at(node);
    }

    /** Smallest per-node op count (a safe replay budget). */
    std::uint64_t minOpsPerNode() const;

    /** Total recorded operations across all nodes. */
    std::uint64_t totalOps() const;

    /** Sequential decoder over one node's stream. */
    class Reader
    {
      public:
        Reader(const TraceData &trace, NodeId node);

        /** All recorded ops have been returned since last rewind(). */
        bool done() const { return returned_ >= count_; }

        /** Decode the next op. @throws TraceError when done(). */
        WorkloadOp next();

        /** Restart from the first op. */
        void rewind();

      private:
        const std::vector<unsigned char> *stream_;
        WireReader in_;
        std::uint64_t count_;
        std::uint64_t returned_ = 0;
        Addr prevAddr_ = 0;
    };

  private:
    TraceHeader header_;
    std::vector<std::uint64_t> opsPerNode_;
    /** Encoded streams; streams_[n] is node n's bytes. */
    std::vector<std::vector<unsigned char>> streams_;
};

/**
 * Accumulates per-node operation streams and serializes them to the
 * format above. Appends are buffered in memory (encoded immediately);
 * nothing touches the filesystem until writeFile().
 */
class TraceWriter
{
  public:
    explicit TraceWriter(TraceHeader header);

    /** Record one op of @p node's stream (in pull order). */
    void append(NodeId node, const WorkloadOp &op);

    std::uint64_t
    opsForNode(NodeId node) const
    {
        return opsPerNode_.at(node);
    }

    /** Serialize everything recorded so far. */
    std::string serialize() const;

    /** serialize() to @p path. @throws TraceError on I/O failure. */
    void writeFile(const std::string &path) const;

  private:
    TraceHeader header_;
    std::vector<std::uint64_t> opsPerNode_;
    std::vector<WireWriter> streams_;
    std::vector<Addr> prevAddr_;
};

/**
 * Transparent recording decorator: pulls from the wrapped generator,
 * appends each op to the (System-owned) TraceWriter, and hands the op
 * through unchanged — the simulation cannot tell it is being recorded.
 */
class RecordingWorkload : public Workload
{
  public:
    RecordingWorkload(std::unique_ptr<Workload> inner,
                      TraceWriter *writer, NodeId node)
        : inner_(std::move(inner)), writer_(writer), node_(node)
    {}

    WorkloadOp
    next() override
    {
        const WorkloadOp op = inner_->next();
        writer_->append(node_, op);
        return op;
    }

    std::string name() const override { return inner_->name(); }

  private:
    std::unique_ptr<Workload> inner_;
    TraceWriter *writer_;
    NodeId node_;
};

/**
 * Replays one node's recorded stream as a drop-in Workload. Pulling
 * past the recorded length wraps around to the start of the stream
 * (so a replay budget larger than the recording still runs; exact
 * reproduction requires matching budgets — `sweep_tool trace stats`
 * prints the run flags that reproduce them).
 */
class TraceWorkload : public Workload
{
  public:
    TraceWorkload(std::shared_ptr<const TraceData> trace, NodeId node)
        : trace_(std::move(trace)), reader_(*trace_, node)
    {}

    WorkloadOp
    next() override
    {
        if (reader_.done())
            reader_.rewind();
        return reader_.next();
    }

    std::string
    name() const override
    {
        return "trace:" + trace_->header().provenance;
    }

  private:
    std::shared_ptr<const TraceData> trace_;   ///< keeps streams alive
    TraceData::Reader reader_;
};

} // namespace tokensim

#endif // TOKENSIM_WORKLOAD_TRACE_HH
