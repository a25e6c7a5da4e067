#include "harness/snapshot.hh"

#include <cstring>

#include "harness/system.hh"
#include "harness/wire.hh"
#include "sim/bytes.hh"

namespace tokensim {

namespace {

/** Header fields after the magic/version prefix. */
SnapshotHeader
readHeader(WireReader &r)
{
    char magic[8];
    r.raw(magic, sizeof magic, "snapshot magic");
    if (std::memcmp(magic, snapshotMagic, sizeof magic) != 0)
        throw SnapshotError("bad magic (not a warm-state snapshot)");
    const std::uint8_t version = r.u8("snapshot version");
    if (version != snapshotVersion) {
        throw SnapshotError(
            "version " + std::to_string(version) +
            " unsupported (this build reads version " +
            std::to_string(snapshotVersion) + ")");
    }
    SnapshotHeader hdr;
    hdr.fingerprint = r.varint("snapshot fingerprint");
    hdr.numNodes =
        static_cast<int>(r.varint("snapshot node count"));
    hdr.warmOps = r.varint("snapshot warm op count");
    hdr.protocol = r.u8("snapshot protocol kind");
    checkStructEnd(r, "snapshot header");
    return hdr;
}

} // namespace

std::uint64_t
snapshotShapeFingerprint(const SystemConfig &cfg)
{
    if (cfg.workloadFactory) {
        throw SnapshotError(
            "a custom workload factory has no fingerprintable "
            "identity; snapshots need a preset or trace workload");
    }
    // Hash over a canonical encoding of the bound fields. The
    // structural set matches System::reset()'s sameShape(); workload
    // spec and seed are added because the snapshot's progress is
    // meaningful only within these exact op streams.
    WireWriter w;
    w.varint(static_cast<std::uint64_t>(cfg.numNodes));
    w.str(cfg.topology);
    w.u8(static_cast<std::uint8_t>(cfg.protocol));
    w.varint(static_cast<std::uint64_t>(cfg.proto.tokensPerBlock));
    w.varint(static_cast<std::uint64_t>(cfg.proto.predictorEntries));
    w.varint(cfg.l2.sizeBytes);
    w.varint(cfg.l2.assoc);
    w.varint(cfg.l2.blockBytes);
    w.varint(cfg.seq.l1.sizeBytes);
    w.varint(cfg.seq.l1.assoc);
    w.varint(cfg.seq.l1.blockBytes);
    w.boolean(cfg.seq.l1Enabled);
    w.varint(cfg.blockBytes);
    w.boolean(cfg.attachAuditor);
    encodeWorkloadSpec(w, cfg.workload);
    // The tenant list defines the op streams just as the single-tenant
    // spec does: a snapshot saved under one tenant layout must not
    // restore under another.
    w.varint(cfg.tenants.size());
    for (const TenantSpec &t : cfg.tenants) {
        encodeWorkloadSpec(w, t.workload);
        w.varint(static_cast<std::uint64_t>(t.nodes));
    }
    w.varint(cfg.seed);
    return fnv1a(w.buffer());
}

SnapshotHeader
peekSnapshotHeader(const std::string &bytes)
{
    WireReader r(bytes);
    return readHeader(r);
}

std::string
saveWarmSnapshot(System &sys)
{
    const SystemConfig &cfg = sys.config();
    if (!cfg.recordTrace.empty()) {
        throw SnapshotError(
            "cannot snapshot a trace-recording system (the recorded "
            "trace would not replay the snapshotted run)");
    }
    if (sys.eq().curTick() != 0) {
        throw SnapshotError(
            "save requires a fast-forward-only system; this one has "
            "run detailed simulation");
    }
    const std::uint64_t fingerprint =
        snapshotShapeFingerprint(cfg);   // rejects custom factories
    const std::uint64_t warm_ops = sys.sequencer(0).completedOps();
    for (int i = 1; i < sys.numNodes(); ++i) {
        if (sys.sequencer(static_cast<NodeId>(i)).completedOps() !=
            warm_ops)
            throw SnapshotError("nodes disagree on warm op count");
    }

    WireWriter w;
    w.raw(snapshotMagic, sizeof snapshotMagic);
    w.u8(snapshotVersion);
    w.varint(fingerprint);
    w.varint(static_cast<std::uint64_t>(cfg.numNodes));
    w.varint(warm_ops);
    w.u8(static_cast<std::uint8_t>(cfg.protocol));
    putStructEnd(w);
    for (int i = 0; i < sys.numNodes(); ++i) {
        const auto id = static_cast<NodeId>(i);
        sys.sequencer(id).encodeWarmState(w);
        sys.cache(id).encodeWarmState(w);
        sys.memory(id).encodeWarmState(w);
    }
    putStructEnd(w);
    return w.take();
}

std::uint64_t
loadWarmSnapshot(System &sys, const std::string &bytes)
{
    const SystemConfig &cfg = sys.config();
    WireReader r(bytes);
    const SnapshotHeader hdr = readHeader(r);
    if (hdr.fingerprint != snapshotShapeFingerprint(cfg)) {
        throw SnapshotError(
            "shape mismatch: saved from a system with a different "
            "structure, workload, or seed than the one being "
            "restored (timing knobs alone never cause this)");
    }
    // The fingerprint already covers these; re-checking the plain
    // header fields catches a corrupt buffer whose hash happens to
    // collide before the per-node decoders trip over it.
    if (hdr.numNodes != cfg.numNodes)
        throw SnapshotError("node count disagrees with the config");
    if (hdr.protocol != static_cast<std::uint8_t>(cfg.protocol))
        throw SnapshotError("protocol disagrees with the config");
    if (sys.eq().curTick() != 0 ||
        sys.sequencer(0).completedOps() != 0) {
        throw SnapshotError(
            "restore requires a freshly built or reset system");
    }

    for (int i = 0; i < cfg.numNodes; ++i) {
        const auto id = static_cast<NodeId>(i);
        sys.sequencer(id).decodeWarmState(r);
        sys.cache(id).decodeWarmState(r);
        sys.memory(id).decodeWarmState(r);
    }
    checkStructEnd(r, "snapshot body");
    r.expectEnd("snapshot");

    for (int i = 0; i < cfg.numNodes; ++i)
        sys.sequencer(static_cast<NodeId>(i))
            .adoptWarmProgress(hdr.warmOps);
    return hdr.warmOps;
}

} // namespace tokensim
