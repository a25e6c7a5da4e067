#include "harness/wire.hh"

#include <cstring>

namespace tokensim {

// WireWriter / WireReader / struct-end sentinel moved to sim/bytes.cc.

// ---------------------------------------------------------------------
// Struct encodings
// ---------------------------------------------------------------------

// Layout-skew sentinel: adding a field to WorkloadSpec changes its
// size, which fails this assert until the new field is added to
// encodeWorkloadSpec and operator==, and wireVersion is bumped.
// Guarded to the one ABI the sentinel value was computed for — other
// ABIs still have the operator== doc contract and the test that every
// encoded field moves sweepFingerprint.
#if defined(__x86_64__) && defined(__GLIBCXX__)
static_assert(sizeof(WorkloadSpec) == 168,
              "WorkloadSpec layout changed: update encodeWorkloadSpec "
              "and WorkloadSpec::operator==, bump wireVersion, then "
              "refresh this sentinel");
#endif

void
encodeWorkloadSpec(WireWriter &w, const WorkloadSpec &spec)
{
    w.str(spec.preset);
    w.str(spec.tracePath);
    w.varint(spec.uniformBlocks);
    w.f64(spec.storeFraction);
    w.varint(spec.prodConsBlocks);
    w.varint(spec.lockBlocks);
    w.svarint(spec.sectionOps);
    w.varint(spec.ycsbRecords);
    w.f64(spec.ycsbTheta);
    w.f64(spec.ycsbReadFraction);
    w.f64(spec.ycsbUpdateFraction);
    w.svarint(spec.ycsbScanLen);
    w.varint(spec.tpccWarehouses);
    w.f64(spec.tpccHomeFraction);
    w.svarint(spec.tpccOpsPerTxn);
    w.svarint(spec.tpccThinkOps);
    putStructEnd(w);
}

namespace {

void
encodeCacheParams(WireWriter &w, const CacheParams &c)
{
    w.varint(c.sizeBytes);
    w.varint(c.assoc);
    w.varint(c.blockBytes);
    w.varint(c.latency);
}

} // namespace

void
encodeSystemConfig(WireWriter &w, const SystemConfig &cfg)
{
    if (cfg.workloadFactory) {
        throw WireError("cannot serialize a SystemConfig with a "
                        "custom workloadFactory (a std::function "
                        "does not cross a process boundary)");
    }

    w.svarint(cfg.numNodes);
    w.str(cfg.topology);
    w.u8(static_cast<std::uint8_t>(cfg.protocol));

    const ProtocolParams &p = cfg.proto;
    w.boolean(p.migratoryOpt);
    w.svarint(p.tokensPerBlock);
    w.svarint(p.maxReissues);
    w.f64(p.reissueLatencyMultiple);
    w.f64(p.reissueJitter);
    w.varint(p.initialAvgMissLatency);
    w.varint(p.maxReissueTimeout);
    w.boolean(p.reissueEnabled);
    w.f64(p.chaosDropFraction);
    w.f64(p.chaosMisdirectFraction);
    w.boolean(p.perfectDirectory);
    w.varint(p.predictorEntries);
    w.f64(p.adaptiveThreshold);
    w.varint(p.adaptiveWindow);

    const NetworkParams &n = cfg.net;
    w.varint(n.linkLatency);
    w.f64(n.bytesPerNs);
    w.boolean(n.unlimitedBandwidth);
    w.varint(n.ctrlBytes);
    w.varint(n.dataBytes);
    w.varint(n.localDelay);

    const SequencerParams &s = cfg.seq;
    w.svarint(s.maxOutstanding);
    w.varint(s.thinkMean);
    encodeCacheParams(w, s.l1);
    w.boolean(s.l1Enabled);

    encodeCacheParams(w, cfg.l2);
    w.varint(cfg.dram.latency);
    w.varint(cfg.dram.minGap);
    w.varint(cfg.ctrlLatency);
    w.varint(cfg.blockBytes);

    encodeWorkloadSpec(w, cfg.workload);
    w.str(cfg.recordTrace);
    w.varint(cfg.opsPerProcessor);
    w.varint(cfg.warmupOpsPerProcessor);
    w.varint(cfg.seed);
    w.boolean(cfg.attachAuditor);
    w.varint(cfg.maxTicks);

    w.varint(cfg.sampling.ffOps);
    w.varint(cfg.sampling.measureOps);
    w.varint(cfg.sampling.windows);
    // A snapshot rides along as an opaque blob; shards validate its
    // shape fingerprint themselves when they load it.
    w.str(cfg.warmSnapshot ? *cfg.warmSnapshot : std::string());

    w.varint(cfg.tenants.size());
    for (const TenantSpec &t : cfg.tenants) {
        encodeWorkloadSpec(w, t.workload);
        w.svarint(t.nodes);
    }
    putStructEnd(w);
}

void
encodeExperimentSpec(WireWriter &w, const ExperimentSpec &spec)
{
    encodeSystemConfig(w, spec.cfg);
    w.svarint(spec.seeds);
    w.str(spec.label);
    putStructEnd(w);
}

void
encodeMetrics(WireWriter &w, const MetricRegistry &metrics)
{
    w.varint(metrics.size());
    for (const Metric &m : metrics.all()) {
        w.str(m.name);
        w.u8(static_cast<std::uint8_t>(m.kind));
        w.boolean(m.pinned);
        switch (m.kind) {
          case MetricKind::counter:
            w.varint(m.value);
            break;
          case MetricKind::stat: {
            const RunningStat::Snapshot s = m.stat.snapshot();
            w.varint(s.count);
            w.f64(s.mean);
            w.f64(s.m2);
            w.f64(s.min);
            w.f64(s.max);
            break;
          }
          case MetricKind::histogram:
            w.varint(m.hist.buckets().size());
            for (const auto &[bucket, count] : m.hist.buckets()) {
                w.varint(static_cast<std::uint64_t>(bucket));
                w.varint(count);
            }
            break;
        }
    }
    putStructEnd(w);
}

MetricRegistry
decodeMetrics(WireReader &r)
{
    MetricRegistry metrics;
    const std::uint64_t count = r.varint("metric count");
    if (count > maxWireMetrics) {
        throw WireError("metric count " + std::to_string(count) +
                        " exceeds the cap");
    }
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::string name = r.str("metric name");
        if (name.empty())
            throw WireError("empty metric name");
        if (metrics.find(name))
            throw WireError("duplicate metric name: " + name);
        const std::uint8_t kind_byte = r.u8("metric kind");
        if (kind_byte >
            static_cast<std::uint8_t>(MetricKind::histogram)) {
            throw WireError("metric kind byte " +
                            std::to_string(kind_byte) +
                            " out of range");
        }
        const bool pinned = r.boolean("metric pinned flag");
        switch (static_cast<MetricKind>(kind_byte)) {
          case MetricKind::counter:
            metrics.addCounter(name, pinned,
                               r.varint("counter value"));
            break;
          case MetricKind::stat: {
            RunningStat::Snapshot s;
            s.count = r.varint("stat count");
            s.mean = r.f64("stat mean");
            s.m2 = r.f64("stat m2");
            s.min = r.f64("stat min");
            s.max = r.f64("stat max");
            metrics.addStat(name, pinned,
                            RunningStat::fromSnapshot(s));
            break;
          }
          case MetricKind::histogram: {
            const std::uint64_t nbuckets =
                r.varint("histogram bucket count");
            if (nbuckets >
                static_cast<std::uint64_t>(LogHistogram::kMaxBucket) +
                    1) {
                throw WireError("histogram bucket count " +
                                std::to_string(nbuckets) +
                                " exceeds the bucket range");
            }
            LogHistogram h;
            std::int64_t prev = -1;
            for (std::uint64_t b = 0; b < nbuckets; ++b) {
                const std::uint64_t idx =
                    r.varint("histogram bucket index");
                if (idx > static_cast<std::uint64_t>(
                              LogHistogram::kMaxBucket) ||
                    static_cast<std::int64_t>(idx) <= prev) {
                    throw WireError(
                        "histogram bucket indices must be strictly "
                        "ascending and within range");
                }
                prev = static_cast<std::int64_t>(idx);
                const std::uint64_t n =
                    r.varint("histogram bucket value");
                if (n == 0) {
                    throw WireError(
                        "histogram holds an empty bucket (encoding "
                        "is not canonical)");
                }
                h.addCount(static_cast<std::int32_t>(idx), n);
            }
            metrics.addHistogram(name, pinned, h);
            break;
          }
        }
    }
    checkStructEnd(r, "metric registry");
    return metrics;
}

void
encodeResults(WireWriter &w, const System::Results &res)
{
    encodeMetrics(w, res.metrics);
}

System::Results
decodeResults(WireReader &r)
{
    System::Results res;
    res.metrics = decodeMetrics(r);
    return res;
}

// ---------------------------------------------------------------------
// Frame layer
// ---------------------------------------------------------------------

void
appendFrame(std::string &out, FrameType type,
            const std::string &payload)
{
    if (payload.size() > maxFramePayload)
        throw WireError("frame payload too large to send");
    WireWriter w;
    w.u8(static_cast<std::uint8_t>(type));
    w.varint(payload.size());
    out += w.buffer();
    out += payload;
}

bool
tryExtractFrame(const std::string &buf, std::size_t &pos, Frame &out)
{
    const std::size_t avail = buf.size() - pos;
    if (avail < 1)
        return false;
    const auto type_byte =
        static_cast<std::uint8_t>(static_cast<unsigned char>(buf[pos]));
    if (type_byte < static_cast<std::uint8_t>(FrameType::job) ||
        type_byte > static_cast<std::uint8_t>(FrameType::error)) {
        throw WireError("unknown frame type " +
                        std::to_string(type_byte));
    }

    // Parse the length varint by hand: running out of buffer here
    // means "incomplete frame, wait for more bytes" — only a varint
    // that can never terminate validly is an error.
    std::uint64_t len = 0;
    int shift = 0;
    std::size_t at = pos + 1;
    for (;;) {
        if (at >= buf.size())
            return false;
        const auto b = static_cast<unsigned char>(buf[at++]);
        if (shift >= 63 && ((b & 0x7f) > 1 || (b & 0x80)))
            throw WireError("frame length varint overflows 64 bits");
        len |= static_cast<std::uint64_t>(b & 0x7f) << shift;
        if (!(b & 0x80))
            break;
        shift += 7;
    }
    if (len > maxFramePayload) {
        throw WireError("frame payload length " + std::to_string(len) +
                        " exceeds the cap");
    }
    if (buf.size() - at < len)
        return false;
    out.type = static_cast<FrameType>(type_byte);
    out.payload.assign(buf, at, static_cast<std::size_t>(len));
    pos = at + static_cast<std::size_t>(len);
    return true;
}

std::string
encodeJobPayload(std::uint64_t job_id)
{
    WireWriter w;
    w.varint(job_id);
    return w.take();
}

std::uint64_t
decodeJobPayload(const std::string &payload)
{
    WireReader r(payload);
    const std::uint64_t job_id = r.varint("job id");
    r.expectEnd("job frame");
    return job_id;
}

std::string
encodeResultPayload(std::uint64_t job_id, const System::Results &res)
{
    WireWriter w;
    w.varint(job_id);
    encodeResults(w, res);
    return w.take();
}

ResultFrame
decodeResultPayload(const std::string &payload)
{
    WireReader r(payload);
    ResultFrame rf;
    rf.jobId = r.varint("result job id");
    rf.results = decodeResults(r);
    r.expectEnd("result frame");
    return rf;
}

std::string
encodeErrorPayload(std::uint64_t job_id, const std::string &message)
{
    WireWriter w;
    w.varint(job_id);
    w.str(message);
    return w.take();
}

ErrorFrame
decodeErrorPayload(const std::string &payload)
{
    WireReader r(payload);
    ErrorFrame ef;
    ef.jobId = r.varint("error job id");
    ef.message = r.str("error message");
    r.expectEnd("error frame");
    return ef;
}

// ---------------------------------------------------------------------
// Checkpoint layer
// ---------------------------------------------------------------------

std::uint32_t
crc32(const void *data, std::size_t size)
{
    static const std::uint32_t *table = [] {
        static std::uint32_t t[256];
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    std::uint32_t c = 0xffffffffu;
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i)
        c = table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

std::uint64_t
sweepFingerprint(const std::vector<ExperimentSpec> &specs)
{
    WireWriter w;
    w.varint(wireVersion);
    w.varint(specs.size());
    for (const ExperimentSpec &s : specs)
        encodeExperimentSpec(w, s);

    std::uint64_t h = 1469598103934665603ull;   // FNV-1a 64 offset
    for (const char c : w.buffer()) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;                  // FNV-1a 64 prime
    }
    return h;
}

std::string
encodeCheckpointHeader(std::uint64_t fingerprint,
                       std::uint64_t total_shards)
{
    WireWriter w;
    w.raw(checkpointMagic, sizeof(checkpointMagic));
    w.varint(wireVersion);
    // Fixed 8 little-endian bytes: a fingerprint is an opaque bit
    // pattern, and a fixed width keeps it legible in a hex dump.
    for (int i = 0; i < 8; ++i)
        w.u8(static_cast<std::uint8_t>((fingerprint >> (8 * i)) &
                                       0xff));
    w.varint(total_shards);
    return w.take();
}

CheckpointHeader
decodeCheckpointHeader(const std::string &buf, std::size_t &pos)
{
    WireReader r(buf.data() + pos, buf.size() - pos);
    CheckpointHeader h;
    try {
        char magic[sizeof(checkpointMagic)];
        r.raw(magic, sizeof(magic), "checkpoint magic");
        if (std::memcmp(magic, checkpointMagic, sizeof(magic)) != 0) {
            throw CheckpointError(
                "not a tokensim sweep checkpoint (bad magic)");
        }
        const std::uint64_t ver = r.varint("checkpoint wire version");
        if (ver != wireVersion) {
            throw CheckpointError(
                "written by wire version " + std::to_string(ver) +
                ", this build speaks " + std::to_string(wireVersion) +
                " (delete the file to start over)");
        }
        std::uint64_t fp = 0;
        for (int i = 0; i < 8; ++i) {
            fp |= static_cast<std::uint64_t>(
                      r.u8("checkpoint fingerprint"))
                  << (8 * i);
        }
        h.fingerprint = fp;
        h.totalShards = r.varint("checkpoint shard count");
    } catch (const CheckpointError &) {
        throw;
    } catch (const WireError &e) {
        throw CheckpointError(std::string("corrupt header: ") +
                              e.what());
    }
    pos += r.consumed();
    return h;
}

std::string
encodeCheckpointRecord(std::uint64_t spec, std::uint64_t seed,
                       const System::Results &res)
{
    WireWriter p;
    p.varint(spec);
    p.varint(seed);
    encodeResults(p, res);
    const std::string &payload = p.buffer();
    if (payload.size() > maxFramePayload)
        throw WireError("checkpoint record too large to write");

    WireWriter w;
    w.varint(payload.size());
    w.raw(payload.data(), payload.size());
    const std::uint32_t c = crc32(payload.data(), payload.size());
    for (int i = 0; i < 4; ++i)
        w.u8(static_cast<std::uint8_t>((c >> (8 * i)) & 0xff));
    return w.take();
}

bool
tryExtractCheckpointRecord(const std::string &buf, std::size_t &pos,
                           CheckpointRecord &out)
{
    // Length varint by hand, exactly like tryExtractFrame: running
    // out of buffer mid-varint is an incomplete (torn) record, not an
    // error; only a varint that can never terminate validly throws.
    std::uint64_t len = 0;
    int shift = 0;
    std::size_t at = pos;
    for (;;) {
        if (at >= buf.size())
            return false;
        const auto b = static_cast<unsigned char>(buf[at++]);
        if (shift >= 63 && ((b & 0x7f) > 1 || (b & 0x80))) {
            throw WireError(
                "checkpoint record length varint overflows 64 bits");
        }
        len |= static_cast<std::uint64_t>(b & 0x7f) << shift;
        if (!(b & 0x80))
            break;
        shift += 7;
    }
    if (len > maxFramePayload) {
        throw WireError("checkpoint record length " +
                        std::to_string(len) + " exceeds the cap");
    }
    if (buf.size() - at < len + 4)
        return false;   // payload or CRC still incomplete: torn tail

    const char *payload = buf.data() + at;
    const auto plen = static_cast<std::size_t>(len);
    std::uint32_t stored = 0;
    for (int i = 0; i < 4; ++i) {
        stored |= static_cast<std::uint32_t>(static_cast<unsigned char>(
                      payload[plen + i]))
                  << (8 * i);
    }
    if (crc32(payload, plen) != stored)
        throw WireError("checkpoint record CRC mismatch");

    WireReader r(payload, plen);
    out.spec = r.varint("checkpoint record spec index");
    out.seed = r.varint("checkpoint record seed");
    out.results = decodeResults(r);
    r.expectEnd("checkpoint record");
    pos = at + plen + 4;
    return true;
}

} // namespace tokensim
