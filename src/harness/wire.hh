/**
 * @file
 * Sweep wire format: a compact versioned binary codec for raw
 * System::Results, the on-disk checkpoint format built on it, and
 * encode-only canonical forms of ExperimentSpec / SystemConfig /
 * WorkloadSpec that the sweep and snapshot fingerprints hash.
 *
 * Every byte goes through sim/bytes.hh, the one codec: little-endian
 * throughout, ULEB128 varints for counters, zigzag varints for signed
 * ints, doubles as raw IEEE-754 bit patterns (restored results must
 * merge bit-identically to a computed run, so no text round-trip),
 * and a bounds-checked reader where every malformed input class —
 * short buffer, oversized varint, out-of-range enum, non-0/1 bool,
 * trailing garbage — throws a typed WireError naming the field. The
 * parser never reads out of bounds.
 *
 * Versioning: wireVersion is stamped into every checkpoint header and
 * hashed into the sweep fingerprint. Bump it whenever an encoded
 * struct gains, loses, or reorders a field. Struct payloads end with
 * an end-of-struct sentinel byte so a skew inside one version (a
 * stale build's checkpoint) is caught as a typed error instead of a
 * silent misparse.
 *
 * ## Checkpoint layer
 *
 * The sweep runner's crash-safe on-disk checkpoint (--checkpoint): a
 * header naming the sweep (magic, wireVersion, a fingerprint hashed
 * over the encoded spec list) is written once via
 * write-then-atomic-rename, then one CRC-framed record — (spec index,
 * seed, raw System::Results) — is appended as each shard completes. A
 * process killed mid-append leaves at worst a torn trailing record,
 * which the loader detects (short record or CRC mismatch) and drops;
 * everything before it is intact, so a resumed sweep re-runs only the
 * lost shards and, because a shard's result depends only on (spec,
 * seed), merges bit-identically to an uninterrupted run.
 */

#ifndef TOKENSIM_HARNESS_WIRE_HH
#define TOKENSIM_HARNESS_WIRE_HH

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "harness/experiment.hh"
#include "sim/bytes.hh"

namespace tokensim {

// WireError / WireWriter / WireReader and the struct-end sentinel live
// in sim/bytes.hh (re-exported here) so proto/ and cpu/ warm-state
// codecs can use them without depending on the harness.

/** Bumped on any change to an encoded layout. */
// v2: System::Results became a named-metric registry; the per-field
//     Results encoding was replaced by the generic metric codec.
// v3: the hello payload gained a "host:pid" worker name string (for
//     the cross-host transport, since removed).
// v4: SystemConfig gained the SMARTS sampling spec (ffOps,
//     measureOps, windows) and the warm-state snapshot payload.
// v5: WorkloadSpec gained the "ycsb"/"tpcc" transactional-preset
//     knobs; SystemConfig gained the multi-tenant group list
//     (per-tenant WorkloadSpec + node count).
// v6: the hello payload dropped the worker name string. Removing
//     the frame layer later changed no checkpoint byte, so v6 stands.
constexpr std::uint32_t wireVersion = 6;

/** Hard cap on one record's payload (a corrupt length must not OOM). */
constexpr std::uint64_t maxRecordPayload = 1ull << 30;

// ---------------------------------------------------------------------
// Spec encodings. Specs are never decoded; these canonical encodings
// exist to be hashed — the checkpoint's sweepFingerprint and the
// snapshot shape fingerprint. Every field that defines a run must be
// encoded, or two different sweeps would share a fingerprint.
// ---------------------------------------------------------------------

void encodeWorkloadSpec(WireWriter &w, const WorkloadSpec &spec);

/**
 * @throws WireError if @p cfg carries a custom workloadFactory — a
 * std::function has no encoding, so such a spec cannot be
 * fingerprinted for a checkpoint.
 */
void encodeSystemConfig(WireWriter &w, const SystemConfig &cfg);

void encodeExperimentSpec(WireWriter &w, const ExperimentSpec &spec);

/** A corrupt metric count must not OOM the decoder. */
constexpr std::uint64_t maxWireMetrics = 1 << 16;

/**
 * Generic metric-registry codec: one encoder/decoder pair covers
 * every metric kind, so a metric added in System::results() ships
 * with no wire change. Per metric: name, kind byte, pinned flag, then
 * a kind-specific payload (counter value / RunningStat snapshot /
 * occupied histogram buckets in strictly ascending order). Lossless:
 * every counter and double round-trips bit-exactly. The decoder
 * rejects empty or duplicate names, unknown kind bytes, out-of-order
 * or out-of-range histogram buckets, and zero bucket counts.
 */
void encodeMetrics(WireWriter &w, const MetricRegistry &metrics);
MetricRegistry decodeMetrics(WireReader &r);

/** Results are their metric registry on the wire. */
void encodeResults(WireWriter &w, const System::Results &res);
System::Results decodeResults(WireReader &r);

// ---------------------------------------------------------------------
// Checkpoint layer (see file comment). Codec only — the file I/O
// (atomic header creation, append, torn-tail truncation) lives in
// harness/parallel_runner.cc.
// ---------------------------------------------------------------------

/**
 * A checkpoint file that cannot be used at all: bad magic, a
 * different wireVersion, or a header too corrupt to parse. Distinct
 * from a torn tail, which is tolerated and dropped silently.
 */
class CheckpointError : public std::runtime_error
{
  public:
    explicit CheckpointError(const std::string &what)
        : std::runtime_error("checkpoint: " + what)
    {}
};

/**
 * A structurally valid checkpoint recorded for a *different* sweep
 * (its fingerprint does not match the spec list being run). Resuming
 * would merge foreign results into the grid, so this is always fatal.
 */
class CheckpointMismatch : public CheckpointError
{
  public:
    using CheckpointError::CheckpointError;
};

/** Checkpoint file magic. */
constexpr char checkpointMagic[8] = {'T', 'O', 'K', 'C', 'K', 'P',
                                     'T', '1'};

/** CRC-32 (IEEE 802.3, reflected) over @p size bytes at @p data. */
std::uint32_t crc32(const void *data, std::size_t size);

/**
 * Order-sensitive FNV-1a hash over wireVersion plus the full encoded
 * spec list (configs, per-spec seed counts, labels). Two sweeps get
 * the same fingerprint only if every shard of one is a shard of the
 * other with the same meaning, which is exactly when resuming across
 * them is sound.
 * @throws WireError if a spec cannot be encoded (custom
 *         workloadFactory) — the runner rejects such checkpointed
 *         sweeps up front.
 */
std::uint64_t sweepFingerprint(const std::vector<ExperimentSpec> &specs);

struct CheckpointHeader
{
    std::uint64_t fingerprint = 0;
    std::uint64_t totalShards = 0;
};

std::string encodeCheckpointHeader(std::uint64_t fingerprint,
                                   std::uint64_t total_shards);

/**
 * Parse and validate the header at @p pos, advancing @p pos past it.
 * @throws CheckpointError on bad magic, wrong wireVersion, or a
 *         truncated header (a file that short has no usable records
 *         either). Fingerprint matching is the caller's job — only it
 *         knows the sweep being resumed.
 */
CheckpointHeader decodeCheckpointHeader(const std::string &buf,
                                        std::size_t &pos);

/** One completed shard restored from (or bound for) a checkpoint. */
struct CheckpointRecord
{
    std::uint64_t spec = 0;   ///< index into the sweep's spec list
    std::uint64_t seed = 0;   ///< 0-based seed offset within the spec
    System::Results results;
};

/**
 * One CRC-framed, append-safe record: varint payload length, payload
 * (spec, seed, encoded results), then the payload's CRC-32 as 4
 * little-endian bytes.
 */
std::string encodeCheckpointRecord(std::uint64_t spec,
                                   std::uint64_t seed,
                                   const System::Results &res);

/**
 * Incremental record parser: a complete, CRC-clean record fills
 * @p out and advances @p pos; an incomplete trailing record returns
 * false without consuming anything (the torn-tail case a killed
 * writer leaves behind). A record that is complete but corrupt — CRC
 * mismatch, undecodable payload, trailing payload bytes — throws
 * WireError; checkpoint loaders treat that exactly like a torn tail
 * (drop it and everything after), since an append-only writer can
 * only corrupt the end of the file.
 */
bool tryExtractCheckpointRecord(const std::string &buf,
                                std::size_t &pos,
                                CheckpointRecord &out);

} // namespace tokensim

#endif // TOKENSIM_HARNESS_WIRE_HH
