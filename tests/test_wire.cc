/**
 * @file
 * Wire-format fuzz suite for the sweep runner's serialization layer
 * (harness/wire.hh) and the warm-state snapshot codec, mirroring
 * test_trace.cc's coverage style: every result field round-trips
 * bit-exactly, every encoded spec field moves the sweep fingerprint,
 * truncation at every byte offset yields a typed WireError (never a
 * crash, never a silent success), and each malformed-input class —
 * bad magic, bad version, oversized varints, out-of-range enums,
 * non-0/1 bools, trailing garbage, layout skew — names its problem.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "harness/snapshot.hh"
#include "harness/wire.hh"
#include "mem/cache.hh"

namespace tokensim {
namespace {

/** Bit-exact double comparison (NaN payloads and -0.0 must survive). */
void
expectSameBits(double a, double b, const char *what)
{
    std::uint64_t ab, bb;
    std::memcpy(&ab, &a, sizeof(ab));
    std::memcpy(&bb, &b, sizeof(bb));
    EXPECT_EQ(ab, bb) << what;
}

/** Moves one field of a SystemConfig off its default. */
using ConfigMutation = std::function<void(SystemConfig &)>;

/** One mutation per knob of a WorkloadSpec, applied through @p pick
 *  (the config's own spec or a tenant's). */
void
addWorkloadMutations(std::vector<ConfigMutation> &out,
                     std::function<WorkloadSpec &(SystemConfig &)> pick)
{
    const auto knob = [&](std::function<void(WorkloadSpec &)> mutate) {
        out.push_back([pick, mutate](SystemConfig &c) { mutate(pick(c)); });
    };
    knob([](WorkloadSpec &s) { s.preset = "lock-ping"; });
    knob([](WorkloadSpec &s) { s.tracePath = "some/path.trace"; });
    knob([](WorkloadSpec &s) { s.uniformBlocks = 99; });
    knob([](WorkloadSpec &s) { s.storeFraction = 0.4375; });
    knob([](WorkloadSpec &s) { s.prodConsBlocks = 33; });
    knob([](WorkloadSpec &s) { s.lockBlocks = 21; });
    knob([](WorkloadSpec &s) { s.sectionOps = -3; });
    knob([](WorkloadSpec &s) { s.ycsbRecords = 777; });
    knob([](WorkloadSpec &s) { s.ycsbTheta = 0.9375; });
    knob([](WorkloadSpec &s) { s.ycsbReadFraction = 0.5625; });
    knob([](WorkloadSpec &s) { s.ycsbUpdateFraction = 0.1875; });
    knob([](WorkloadSpec &s) { s.ycsbScanLen = 23; });
    knob([](WorkloadSpec &s) { s.tpccWarehouses = 44; });
    knob([](WorkloadSpec &s) { s.tpccHomeFraction = 0.65625; });
    knob([](WorkloadSpec &s) { s.tpccOpsPerTxn = 31; });
    knob([](WorkloadSpec &s) { s.tpccThinkOps = -7; });
}

/** One mutation per encoded SystemConfig field, workload knobs and
 *  the tenant list included. */
std::vector<ConfigMutation>
configMutations()
{
    std::vector<ConfigMutation> m = {
        [](SystemConfig &c) { c.numNodes = 12; },
        [](SystemConfig &c) { c.topology = "tree"; },
        [](SystemConfig &c) { c.protocol = ProtocolKind::tokenM; },
        [](SystemConfig &c) { c.proto.migratoryOpt = false; },
        [](SystemConfig &c) { c.proto.tokensPerBlock = 17; },
        [](SystemConfig &c) { c.proto.maxReissues = 9; },
        [](SystemConfig &c) { c.proto.reissueLatencyMultiple = 3.25; },
        [](SystemConfig &c) { c.proto.reissueJitter = 0.125; },
        [](SystemConfig &c) { c.proto.initialAvgMissLatency = 1234; },
        [](SystemConfig &c) { c.proto.maxReissueTimeout = 987654; },
        [](SystemConfig &c) { c.proto.reissueEnabled = false; },
        [](SystemConfig &c) { c.proto.chaosDropFraction = 0.0625; },
        [](SystemConfig &c) { c.proto.chaosMisdirectFraction = 0.03125; },
        [](SystemConfig &c) { c.proto.perfectDirectory = true; },
        [](SystemConfig &c) { c.proto.predictorEntries = 4096; },
        [](SystemConfig &c) { c.proto.adaptiveThreshold = 0.75; },
        [](SystemConfig &c) { c.proto.adaptiveWindow = 5555; },
        [](SystemConfig &c) { c.net.linkLatency = 77; },
        [](SystemConfig &c) { c.net.bytesPerNs = 6.4; },
        [](SystemConfig &c) { c.net.unlimitedBandwidth = true; },
        [](SystemConfig &c) { c.net.ctrlBytes = 16; },
        [](SystemConfig &c) { c.net.dataBytes = 144; },
        [](SystemConfig &c) { c.net.localDelay = 3; },
        [](SystemConfig &c) { c.seq.maxOutstanding = 8; },
        [](SystemConfig &c) { c.seq.thinkMean = 42; },
        [](SystemConfig &c) { c.seq.l1.sizeBytes = 64 * 1024; },
        [](SystemConfig &c) { c.seq.l1.assoc = 2; },
        [](SystemConfig &c) { c.seq.l1.blockBytes = 32; },
        [](SystemConfig &c) { c.seq.l1.latency = 5; },
        [](SystemConfig &c) { c.seq.l1Enabled = false; },
        [](SystemConfig &c) { c.l2.sizeBytes = 1024 * 1024; },
        [](SystemConfig &c) { c.l2.assoc = 8; },
        [](SystemConfig &c) { c.l2.blockBytes = 32; },
        [](SystemConfig &c) { c.l2.latency = 11; },
        [](SystemConfig &c) { c.dram.latency = 321; },
        [](SystemConfig &c) { c.dram.minGap = 7; },
        [](SystemConfig &c) { c.ctrlLatency = 13; },
        [](SystemConfig &c) { c.blockBytes = 32; },
        [](SystemConfig &c) { c.recordTrace = "out/rec.trace"; },
        [](SystemConfig &c) { c.sampling.ffOps = 5000; },
        [](SystemConfig &c) { c.sampling.measureOps = 250; },
        [](SystemConfig &c) { c.sampling.windows = 19; },
        [](SystemConfig &c) {
            c.warmSnapshot =
                std::make_shared<const std::string>("opaque snapshot");
        },
        [](SystemConfig &c) { c.opsPerProcessor = 123456789; },
        [](SystemConfig &c) { c.warmupOpsPerProcessor = 55; },
        [](SystemConfig &c) { c.seed = 0xdeadbeefcafef00dULL; },
        [](SystemConfig &c) { c.attachAuditor = true; },
        [](SystemConfig &c) {
            c.maxTicks = std::numeric_limits<std::uint64_t>::max();
        },
        [](SystemConfig &c) { c.tenants = {TenantSpec{}}; },
        [](SystemConfig &c) {
            c.tenants = {TenantSpec{}};
            c.tenants[0].nodes = 5;
        },
    };
    addWorkloadMutations(m, [](SystemConfig &c) -> WorkloadSpec & {
        return c.workload;
    });
    addWorkloadMutations(m, [](SystemConfig &c) -> WorkloadSpec & {
        c.tenants.resize(1);
        return c.tenants[0].workload;
    });
    return m;
}

/** A SystemConfig with every encoded field moved off its default. */
SystemConfig
exhaustiveConfig()
{
    SystemConfig cfg;
    for (const ConfigMutation &mutate : configMutations())
        mutate(cfg);
    return cfg;
}

/**
 * A registry-backed Results exercising every metric kind, including
 * adversarial payloads: extreme counters, a stat whose doubles are
 * NaN / -0.0 / +-infinity (the codec ships raw bit patterns, so they
 * must survive), empty stats and histograms, and a histogram touching
 * bucket 0 and the overflow bucket.
 */
System::Results
exhaustiveResults()
{
    System::Results r;
    MetricRegistry &m = r.metrics;
    m.addCounter("ops", metricPinned, 22222);
    m.addCounter("misses", metricPinned, 777);
    m.addCounter("runtime_ticks", metricDiagnostic, 111111);
    m.addCounter("huge", metricDiagnostic,
                 std::numeric_limits<std::uint64_t>::max());

    RunningStat lat;
    lat.add(10.5);
    lat.add(-2.25);
    lat.add(400.125);
    m.addStat("miss_latency_ticks", metricPinned, lat);

    RunningStat::Snapshot weird;
    weird.count = 3;
    weird.mean = -0.0;
    weird.m2 = std::nan("");
    weird.min = -std::numeric_limits<double>::infinity();
    weird.max = std::numeric_limits<double>::infinity();
    m.addStat("weird_stat", metricDiagnostic,
              RunningStat::fromSnapshot(weird));
    m.addStat("empty_stat", metricDiagnostic, RunningStat{});

    LogHistogram h;
    h.add(0.5);                              // bucket 0
    h.add(3.0);                              // bucket 2
    h.addCount(LogHistogram::kMaxBucket, 7); // overflow bucket
    m.addHistogram("miss_latency_hist", metricDiagnostic, h);
    m.addHistogram("empty_hist", metricDiagnostic, LogHistogram{});
    return r;
}

void
expectSameResults(const System::Results &a, const System::Results &b)
{
    // MetricRegistry equality is bit-exact on every payload (stat
    // doubles compare as IEEE-754 bit patterns, so NaN == NaN and
    // -0.0 != +0.0) and order-sensitive.
    EXPECT_EQ(a.metrics.size(), b.metrics.size());
    EXPECT_TRUE(a.metrics == b.metrics);
}

// ---------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------

TEST(WirePrimitives, RoundTripEveryKind)
{
    WireWriter w;
    w.u8(0);
    w.u8(255);
    w.boolean(true);
    w.boolean(false);
    w.varint(0);
    w.varint(127);
    w.varint(128);
    w.varint(std::numeric_limits<std::uint64_t>::max());
    w.svarint(0);
    w.svarint(-1);
    w.svarint(std::numeric_limits<std::int64_t>::min());
    w.svarint(std::numeric_limits<std::int64_t>::max());
    w.f64(0.0);
    w.f64(-0.0);
    w.f64(std::numeric_limits<double>::infinity());
    w.f64(-std::numeric_limits<double>::infinity());
    w.f64(std::nan(""));
    w.f64(1.0 / 3.0);
    w.str("");
    w.str("hello, wire");
    w.str(std::string(3000, 'x'));

    WireReader r(w.buffer());
    EXPECT_EQ(r.u8("a"), 0);
    EXPECT_EQ(r.u8("b"), 255);
    EXPECT_TRUE(r.boolean("c"));
    EXPECT_FALSE(r.boolean("d"));
    EXPECT_EQ(r.varint("e"), 0u);
    EXPECT_EQ(r.varint("f"), 127u);
    EXPECT_EQ(r.varint("g"), 128u);
    EXPECT_EQ(r.varint("h"),
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(r.svarint("i"), 0);
    EXPECT_EQ(r.svarint("j"), -1);
    EXPECT_EQ(r.svarint("k"),
              std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(r.svarint("l"),
              std::numeric_limits<std::int64_t>::max());
    expectSameBits(r.f64("m"), 0.0, "zero");
    expectSameBits(r.f64("n"), -0.0, "negative zero");
    expectSameBits(r.f64("o"), std::numeric_limits<double>::infinity(),
                   "inf");
    expectSameBits(r.f64("p"),
                   -std::numeric_limits<double>::infinity(), "-inf");
    expectSameBits(r.f64("q"), std::nan(""), "nan");
    expectSameBits(r.f64("r"), 1.0 / 3.0, "third");
    EXPECT_EQ(r.str("s"), "");
    EXPECT_EQ(r.str("t"), "hello, wire");
    EXPECT_EQ(r.str("u"), std::string(3000, 'x'));
    EXPECT_NO_THROW(r.expectEnd("primitives"));
}

TEST(WirePrimitives, OversizedVarintsAreTypedErrors)
{
    // 11 continuation bytes: can never terminate within 64 bits.
    const std::string eleven(11, '\x80');
    WireReader r1(eleven);
    EXPECT_THROW(r1.varint("v"), WireError);

    // 10 bytes whose last carries payload beyond bit 63.
    std::string overflow(9, '\x80');
    overflow.push_back('\x02');
    WireReader r2(overflow);
    EXPECT_THROW(r2.varint("v"), WireError);

    // ...while bit 63 exactly (u64 max) is fine.
    std::string max(9, '\xff');
    max.push_back('\x01');
    WireReader r3(max);
    EXPECT_EQ(r3.varint("v"),
              std::numeric_limits<std::uint64_t>::max());
}

TEST(WirePrimitives, TruncatedVarintIsATypedError)
{
    const std::string partial("\x80\x80", 2);
    WireReader r(partial);
    EXPECT_THROW(r.varint("v"), WireError);
}

TEST(WirePrimitives, NonBinaryBoolByteIsATypedError)
{
    const std::string two("\x02", 1);
    WireReader r(two);
    EXPECT_THROW(r.boolean("flag"), WireError);
}

TEST(WirePrimitives, StringLengthBeyondBufferIsATypedError)
{
    WireWriter w;
    w.varint(1000);   // claims 1000 bytes...
    w.raw("abc", 3);  // ...provides 3
    WireReader r(w.buffer());
    EXPECT_THROW(r.str("s"), WireError);
}

TEST(WirePrimitives, TrailingBytesAreATypedError)
{
    WireWriter w;
    w.varint(7);
    w.u8(9);
    WireReader r(w.buffer());
    EXPECT_EQ(r.varint("v"), 7u);
    EXPECT_THROW(r.expectEnd("blob"), WireError);
}

// ---------------------------------------------------------------------
// Spec encodings and result round trips
// ---------------------------------------------------------------------

TEST(WireStructs, WorkloadSpecEqualityDiscriminatesEveryKnob)
{
    // operator== is the wire's serialization hook: each per-preset
    // knob perturbed alone must break equality, or a knob could ship
    // half-serialized without any test noticing.
    const WorkloadSpec base;
    const auto differs = [&](auto mutate) {
        WorkloadSpec s = base;
        mutate(s);
        EXPECT_TRUE(s != base);
    };
    differs([](WorkloadSpec &s) { s.preset = "hot"; });
    differs([](WorkloadSpec &s) { s.tracePath = "t.trace"; });
    differs([](WorkloadSpec &s) { s.uniformBlocks += 1; });
    differs([](WorkloadSpec &s) { s.storeFraction += 0.125; });
    differs([](WorkloadSpec &s) { s.prodConsBlocks += 1; });
    differs([](WorkloadSpec &s) { s.lockBlocks += 1; });
    differs([](WorkloadSpec &s) { s.sectionOps += 1; });
    differs([](WorkloadSpec &s) { s.ycsbRecords += 1; });
    differs([](WorkloadSpec &s) { s.ycsbTheta += 0.125; });
    differs([](WorkloadSpec &s) { s.ycsbReadFraction += 0.125; });
    differs([](WorkloadSpec &s) { s.ycsbUpdateFraction += 0.125; });
    differs([](WorkloadSpec &s) { s.ycsbScanLen += 1; });
    differs([](WorkloadSpec &s) { s.tpccWarehouses += 1; });
    differs([](WorkloadSpec &s) { s.tpccHomeFraction += 0.125; });
    differs([](WorkloadSpec &s) { s.tpccOpsPerTxn += 1; });
    differs([](WorkloadSpec &s) { s.tpccThinkOps += 1; });
}

TEST(WireStructs, EveryEncodedFieldMovesTheSweepFingerprint)
{
    // Specs are encoded only to be hashed: a field the encoder drops
    // would let a checkpoint of one sweep resume another. Each field
    // moved alone must change the fingerprint, and no two fields may
    // land on the same encoding.
    const auto fingerprint = [](const SystemConfig &cfg) {
        return sweepFingerprint({ExperimentSpec{cfg, 1, "spec"}});
    };
    std::set<std::uint64_t> seen{fingerprint(SystemConfig{})};
    const std::vector<ConfigMutation> mutations = configMutations();
    for (std::size_t i = 0; i < mutations.size(); ++i) {
        SCOPED_TRACE("mutation " + std::to_string(i));
        SystemConfig cfg;
        mutations[i](cfg);
        EXPECT_TRUE(seen.insert(fingerprint(cfg)).second);
    }
}

TEST(WireStructs, ResultsRoundTripBitExactly)
{
    const System::Results res = exhaustiveResults();
    WireWriter w;
    encodeResults(w, res);
    WireReader r(w.buffer());
    const System::Results back = decodeResults(r);
    EXPECT_NO_THROW(r.expectEnd("results"));
    expectSameResults(res, back);
}

TEST(WireStructs, EmptyResultsRoundTrip)
{
    // A default Results is an empty metric registry: zero metrics,
    // just the count varint and the end-of-struct sentinel.
    WireWriter w;
    encodeResults(w, System::Results{});
    WireReader r(w.buffer());
    expectSameResults(System::Results{}, decodeResults(r));
}

TEST(WireStructs, CustomWorkloadFactoryIsRejected)
{
    SystemConfig cfg;
    cfg.workloadFactory = [](NodeId, int,
                             std::uint64_t) -> std::unique_ptr<Workload> {
        return nullptr;
    };
    WireWriter w;
    EXPECT_THROW(encodeSystemConfig(w, cfg), WireError);
}

TEST(WireStructs, ResultsTruncationAtEveryByteOffsetIsATypedError)
{
    WireWriter w;
    encodeResults(w, exhaustiveResults());
    const std::string full = w.buffer();
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
        SCOPED_TRACE("cut=" + std::to_string(cut));
        WireReader r(full.data(), cut);
        EXPECT_THROW(decodeResults(r), WireError);
    }
}

TEST(WireStructs, DuplicateMetricNameOnWireIsATypedError)
{
    // A registry can never legitimately hold two metrics with one
    // name (addCounter throws), so a duplicate on the wire means a
    // corrupted or malicious peer — decode must refuse, not clobber.
    WireWriter w;
    w.varint(2);
    for (int i = 0; i < 2; ++i) {
        w.str("twice");
        w.u8(0);           // kind: counter
        w.boolean(false);
        w.varint(5);
    }
    WireReader r(w.buffer());
    EXPECT_THROW(decodeMetrics(r), WireError);
}

TEST(WireStructs, MetricKindByteOutOfRangeIsATypedError)
{
    WireWriter w;
    w.varint(1);
    w.str("m");
    w.u8(7);               // no such MetricKind
    w.boolean(true);
    w.varint(1);
    WireReader r(w.buffer());
    EXPECT_THROW(decodeMetrics(r), WireError);
}

TEST(WireStructs, MetricCountOverCapIsATypedError)
{
    // A count claiming 2^16+1 metrics must be rejected up front, not
    // looped over toward OOM.
    WireWriter w;
    w.varint(maxWireMetrics + 1);
    WireReader r(w.buffer());
    EXPECT_THROW(decodeMetrics(r), WireError);
}

TEST(WireStructs, LayoutSkewIsReportedAsVersionMismatch)
{
    // Flip the end-of-struct sentinel: the decode must say "layout
    // mismatch", the canary for a checkpoint from a skewed build.
    WireWriter w;
    encodeResults(w, System::Results{});
    std::string buf = w.take();
    buf.back() = '\x00';
    WireReader r(buf);
    try {
        decodeResults(r);
        FAIL() << "skewed layout decoded successfully";
    } catch (const WireError &e) {
        EXPECT_NE(std::string(e.what()).find("layout mismatch"),
                  std::string::npos)
            << e.what();
    }
}

// ---------------------------------------------------------------------
// Frame layer
// ---------------------------------------------------------------------

TEST(WireFrames, ExtractionIsIncrementalByteByByte)
{
    std::string stream;
    appendFrame(stream, FrameType::job, "payload-one");
    appendFrame(stream, FrameType::result, "");
    appendFrame(stream, FrameType::error, std::string(300, 'e'));

    // Feed one byte at a time: a frame must appear exactly when its
    // last byte arrives, and partial frames must never consume input.
    std::string buf;
    std::size_t pos = 0;
    std::vector<Frame> got;
    for (char c : stream) {
        buf.push_back(c);
        Frame f;
        while (tryExtractFrame(buf, pos, f))
            got.push_back(f);
    }
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0].type, FrameType::job);
    EXPECT_EQ(got[0].payload, "payload-one");
    EXPECT_EQ(got[1].type, FrameType::result);
    EXPECT_EQ(got[1].payload, "");
    EXPECT_EQ(got[2].type, FrameType::error);
    EXPECT_EQ(got[2].payload, std::string(300, 'e'));
    EXPECT_EQ(pos, stream.size());
}

TEST(WireFrames, UnknownFrameTypeIsATypedError)
{
    std::string buf("\x09\x00", 2);
    std::size_t pos = 0;
    Frame f;
    EXPECT_THROW(tryExtractFrame(buf, pos, f), WireError);
}

TEST(WireFrames, OversizedPayloadLengthIsATypedError)
{
    // A length claiming 2^40 bytes must be rejected up front, not
    // buffered toward OOM.
    std::string buf;
    buf.push_back(static_cast<char>(FrameType::job));
    WireWriter w;
    w.varint(1ull << 40);
    buf += w.buffer();
    std::size_t pos = 0;
    Frame f;
    EXPECT_THROW(tryExtractFrame(buf, pos, f), WireError);
}

TEST(WireFrames, JobResultErrorPayloadsRoundTrip)
{
    EXPECT_EQ(decodeJobPayload(encodeJobPayload(42)), 42u);
    EXPECT_THROW(decodeJobPayload(encodeJobPayload(42) + "x"),
                 WireError);

    const System::Results res = exhaustiveResults();
    const ResultFrame rf =
        decodeResultPayload(encodeResultPayload(7, res));
    EXPECT_EQ(rf.jobId, 7u);
    expectSameResults(rf.results, res);

    const ErrorFrame ef = decodeErrorPayload(
        encodeErrorPayload(9, "system exceeded maxTicks"));
    EXPECT_EQ(ef.jobId, 9u);
    EXPECT_EQ(ef.message, "system exceeded maxTicks");
}

TEST(WireFrames, ResultPayloadTruncationAtEveryByteIsATypedError)
{
    const std::string full =
        encodeResultPayload(3, exhaustiveResults());
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
        SCOPED_TRACE("cut=" + std::to_string(cut));
        EXPECT_THROW(decodeResultPayload(full.substr(0, cut)),
                     WireError);
    }
}

// ---------------------------------------------------------------------
// Checkpoint layer
// ---------------------------------------------------------------------

TEST(WireCheckpoint, Crc32MatchesTheIeeeKnownAnswer)
{
    // The CRC-32/IEEE check value: crc("123456789") = 0xcbf43926.
    // Pins the polynomial, reflection, and final xor all at once.
    EXPECT_EQ(crc32("123456789", 9), 0xcbf43926u);
    EXPECT_EQ(crc32("", 0), 0u);
    EXPECT_NE(crc32("123456789", 9), crc32("123456788", 9));
}

TEST(WireCheckpoint, HeaderRoundTripsAndStopsAtItsOwnEnd)
{
    const std::string hdr =
        encodeCheckpointHeader(0xdeadbeefcafef00dULL, 12);
    std::size_t pos = 0;
    const CheckpointHeader back = decodeCheckpointHeader(hdr, pos);
    EXPECT_EQ(back.fingerprint, 0xdeadbeefcafef00dULL);
    EXPECT_EQ(back.totalShards, 12u);
    // pos lands exactly on the first record byte even with trailing
    // data present (the resume path decodes header-then-records from
    // one buffer).
    EXPECT_EQ(pos, hdr.size());
    std::size_t pos2 = 0;
    decodeCheckpointHeader(hdr + "records follow", pos2);
    EXPECT_EQ(pos2, hdr.size());
}

TEST(WireCheckpoint, HeaderBadMagicAndVersionAreCheckpointErrors)
{
    std::string bad = encodeCheckpointHeader(1, 2);
    bad[0] = 'X';
    std::size_t pos = 0;
    EXPECT_THROW(decodeCheckpointHeader(bad, pos), CheckpointError);

    std::string vbad(checkpointMagic, sizeof(checkpointMagic));
    WireWriter w;
    w.varint(wireVersion + 1);
    vbad += w.buffer();
    pos = 0;
    EXPECT_THROW(decodeCheckpointHeader(vbad, pos), CheckpointError);
}

TEST(WireCheckpoint, HeaderTruncationAtEveryByteIsACheckpointError)
{
    const std::string full = encodeCheckpointHeader(
        std::numeric_limits<std::uint64_t>::max(), 100000);
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
        SCOPED_TRACE("cut=" + std::to_string(cut));
        std::size_t pos = 0;
        EXPECT_THROW(decodeCheckpointHeader(full.substr(0, cut), pos),
                     CheckpointError);
    }
}

TEST(WireCheckpoint, RecordRoundTripsBitExactly)
{
    const System::Results res = exhaustiveResults();
    const std::string rec = encodeCheckpointRecord(3, 7, res);
    std::size_t pos = 0;
    CheckpointRecord back;
    ASSERT_TRUE(tryExtractCheckpointRecord(rec, pos, back));
    EXPECT_EQ(back.spec, 3u);
    EXPECT_EQ(back.seed, 7u);
    expectSameResults(back.results, res);
    EXPECT_EQ(pos, rec.size());
    // And nothing more.
    EXPECT_FALSE(tryExtractCheckpointRecord(rec, pos, back));
}

TEST(WireCheckpoint, RecordStreamExtractsIncrementally)
{
    // Byte-at-a-time feeding, mirroring the frame-layer test: a
    // record appears exactly when its last (CRC) byte arrives. This
    // is the torn-tail property — any prefix is "no record yet",
    // never an error, never a partial success.
    std::string stream = encodeCheckpointRecord(0, 0, System::Results{});
    stream += encodeCheckpointRecord(1, 2, exhaustiveResults());
    std::string buf;
    std::size_t pos = 0;
    std::vector<CheckpointRecord> got;
    for (char c : stream) {
        buf.push_back(c);
        CheckpointRecord r;
        while (tryExtractCheckpointRecord(buf, pos, r))
            got.push_back(r);
    }
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].spec, 0u);
    EXPECT_EQ(got[1].spec, 1u);
    EXPECT_EQ(got[1].seed, 2u);
    EXPECT_EQ(pos, stream.size());
}

TEST(WireCheckpoint, CorruptRecordByteIsATypedErrorAtEveryOffset)
{
    // Flip each byte of a complete record: whichever field it lands
    // in (length varint, payload, CRC), extraction must either throw
    // WireError or report "no complete record" — never return a
    // record that differs from what was written.
    const std::string good = encodeCheckpointRecord(5, 6,
                                                    exhaustiveResults());
    for (std::size_t i = 0; i < good.size(); ++i) {
        SCOPED_TRACE("flip=" + std::to_string(i));
        std::string bad = good;
        bad[i] = static_cast<char>(bad[i] ^ 0x40);
        std::size_t pos = 0;
        CheckpointRecord r;
        try {
            if (tryExtractCheckpointRecord(bad, pos, r)) {
                FAIL() << "corrupt record extracted at flip " << i;
            }
            // false: the flip enlarged the claimed length — reads as
            // an incomplete (torn) record, which resume re-runs.
        } catch (const WireError &) {
            // CRC (or structural) mismatch: also correct.
        }
    }
}

// ---------------------------------------------------------------------
// Warm-state snapshot codec (harness/snapshot.hh)
// ---------------------------------------------------------------------

/** A small warmed system whose snapshot exercises every state class:
 *  sequencer counters + L1, cache tags/LRU/tokens/owner/data, memory
 *  token records and written backing-store blocks. */
SystemConfig
snapshotConfig(ProtocolKind proto)
{
    SystemConfig cfg;
    cfg.numNodes = 4;
    cfg.topology = proto == ProtocolKind::snooping ? "tree" : "torus";
    cfg.protocol = proto;
    cfg.l2 = CacheParams{32 * 1024, 2, 64, nsToTicks(6)};
    cfg.workload = "oltp";
    cfg.workload.storeFraction = 0.4;
    cfg.seed = 7;
    return cfg;
}

std::string
warmedSnapshot(const SystemConfig &cfg, std::uint64_t ff_ops = 400)
{
    System sys(cfg);
    sys.fastForward(ff_ops);
    return saveWarmSnapshot(sys);
}

/** One family per distinct warm-state codec: the shared MOSI cache
 *  and its three homes, and the token cache and home. */
const ProtocolKind kCodecFamilies[] = {
    ProtocolKind::snooping, ProtocolKind::directory,
    ProtocolKind::hammer, ProtocolKind::tokenB,
};

TEST(WireSnapshot, EveryStateClassRoundTripsToIdenticalBytes)
{
    // Canonical-encoding property per protocol family: decoding a
    // snapshot and re-encoding the restored system reproduces the
    // byte-identical buffer. (tokenD/M/A/Null share TokenB's codec
    // path — test_sampling.cc covers them; the families with distinct
    // warm-state codecs are what matters here.)
    for (ProtocolKind proto : kCodecFamilies) {
        SCOPED_TRACE(protocolName(proto));
        const SystemConfig cfg = snapshotConfig(proto);
        const std::string snap = warmedSnapshot(cfg);
        System sys(cfg);
        loadWarmSnapshot(sys, snap);
        EXPECT_EQ(saveWarmSnapshot(sys), snap);
    }
}

TEST(WireSnapshot, HeaderPeeksWithoutTouchingTheBody)
{
    const SystemConfig cfg = snapshotConfig(ProtocolKind::tokenB);
    const std::string snap = warmedSnapshot(cfg, 123);
    const SnapshotHeader hdr = peekSnapshotHeader(snap);
    EXPECT_EQ(hdr.fingerprint, snapshotShapeFingerprint(cfg));
    EXPECT_EQ(hdr.numNodes, cfg.numNodes);
    EXPECT_EQ(hdr.warmOps, 123u);
    EXPECT_EQ(hdr.protocol,
              static_cast<std::uint8_t>(ProtocolKind::tokenB));
}

TEST(WireSnapshot, BadMagicAndVersionAreTypedErrors)
{
    const SystemConfig cfg = snapshotConfig(ProtocolKind::tokenB);
    std::string bad_magic = warmedSnapshot(cfg);
    bad_magic[0] = 'X';
    EXPECT_THROW(peekSnapshotHeader(bad_magic), SnapshotError);

    for (int skew : {-1, 1}) {
        // The next layout, and the previous one (version 1 stored
        // 64-bit LRU stamps where version 2 stores ranks).
        std::string bad_version = warmedSnapshot(cfg);
        bad_version[sizeof snapshotMagic] =
            static_cast<char>(snapshotVersion + skew);
        EXPECT_THROW(peekSnapshotHeader(bad_version), SnapshotError)
            << "version " << snapshotVersion + skew;
    }

    // A checkpoint is not a snapshot.
    EXPECT_THROW(peekSnapshotHeader(encodeCheckpointHeader(1, 2)),
                 SnapshotError);
}

TEST(WireSnapshot, WrongShapeFingerprintIsATypedError)
{
    const SystemConfig cfg = snapshotConfig(ProtocolKind::tokenB);
    const std::string snap = warmedSnapshot(cfg);

    // Byte-level: flip one fingerprint byte (it follows magic and
    // version as a varint; flipping a low bit of its first byte never
    // breaks varint framing).
    std::string skewed = snap;
    skewed[sizeof snapshotMagic + 1] ^= 0x01;
    System sys(cfg);
    EXPECT_THROW(loadWarmSnapshot(sys, skewed), SnapshotError);

    // Config-level: a bound field differs on the restoring side.
    SystemConfig other = cfg;
    other.seed = cfg.seed + 1;
    System sys2(other);
    EXPECT_THROW(loadWarmSnapshot(sys2, snap), SnapshotError);
}

/** snapshotConfig() with an L2 of 16 two-way sets, which oltp's
 *  4096-block warm scan overflows: every set saved full, so the
 *  snapshot's LRU ranks are not all zero. */
SystemConfig
fullSetsConfig(ProtocolKind proto)
{
    SystemConfig cfg = snapshotConfig(proto);
    cfg.l2 = CacheParams{2 * 1024, 2, 64, nsToTicks(6)};
    cfg.seq.l1 = CacheParams{512, 2, 64, nsToTicks(2)};
    return cfg;
}

TEST(WireSnapshot, TruncationAtEveryByteOffsetIsATypedError)
{
    for (ProtocolKind proto : kCodecFamilies) {
      for (bool full_sets : {false, true}) {
        SCOPED_TRACE(std::string(protocolName(proto)) +
                     (full_sets ? " full sets" : ""));
        const SystemConfig cfg =
            full_sets ? fullSetsConfig(proto) : snapshotConfig(proto);
        const std::string full = warmedSnapshot(cfg, 200);
        System sys(cfg);
        for (std::size_t cut = 0; cut < full.size(); ++cut) {
            SCOPED_TRACE("cut=" + std::to_string(cut));
            ASSERT_TRUE(sys.reset(cfg));
            try {
                loadWarmSnapshot(sys, full.substr(0, cut));
                FAIL() << "truncated snapshot loaded";
            } catch (const WireError &) {
                // Ran off the end of a field: the common case.
            } catch (const SnapshotError &) {
                // Truncation inside the fingerprint varint shortens
                // it to a valid smaller value: reads as a shape
                // mismatch.
            }
        }
        ASSERT_TRUE(sys.reset(cfg));
        EXPECT_NO_THROW(loadWarmSnapshot(sys, full));
      }
    }
}

TEST(WireSnapshot, FullSetsRestoreToTheSameRun)
{
    // Saved sets are full, so their ranks decide every later victim:
    // load -> run must equal fast-forward -> run, and the restored
    // state must re-encode to the same bytes.
    for (ProtocolKind proto : kCodecFamilies) {
        SCOPED_TRACE(protocolName(proto));
        SystemConfig cfg = fullSetsConfig(proto);
        cfg.opsPerProcessor = 300;
        System warmed(cfg);
        warmed.fastForward(200);
        const std::string snap = saveWarmSnapshot(warmed);
        System restored(cfg);
        loadWarmSnapshot(restored, snap);
        EXPECT_EQ(saveWarmSnapshot(restored), snap);
        warmed.run();
        restored.run();
        EXPECT_TRUE(warmed.results().metrics ==
                    restored.results().metrics);
    }
}

/** A cache line that is just its value, as the L1 keeps. */
struct ValueLine
{
    std::uint64_t data = 0;
};

/** 4 sets x 4 ways; blocks 0x000, 0x100, 0x200, 0x300 share set 0. */
const CacheParams kRankCache{1024, 4, 64, 1};

/** Decode hand-written ways {way, rank, addr} into a fresh array. */
void
decodeHandWrittenWays(
    const std::vector<std::array<std::uint64_t, 3>> &ways)
{
    WireWriter w;
    w.varint(ways.size());
    for (const auto &way : ways) {
        w.varint(way[0]);
        w.u8(static_cast<std::uint8_t>(way[1]));
        w.varint(way[2]);
        w.varint(7);   // payload
    }
    const std::string buf = w.take();
    WireReader r(buf);
    CacheArray<ValueLine> c(kRankCache);
    c.decodeWays(r, [](WireReader &in) {
        return ValueLine{in.varint("value")};
    });
    r.expectEnd("hand-written ways");
}

TEST(WireSnapshot, CacheSetRanksMustBeAPermutation)
{
    EXPECT_NO_THROW(decodeHandWrittenWays(
        {{0, 2, 0x000}, {1, 0, 0x100}, {3, 1, 0x300}, {4, 0, 0x040}}));
    // Duplicate rank within a set.
    EXPECT_THROW(decodeHandWrittenWays({{0, 1, 0x000}, {1, 1, 0x100}}),
                 WireError);
    // Rank not below the set's valid count, inside and beyond assoc.
    EXPECT_THROW(decodeHandWrittenWays({{0, 0, 0x000}, {1, 2, 0x100}}),
                 WireError);
    EXPECT_THROW(decodeHandWrittenWays({{0, 200, 0x000}}), WireError);
    // The last set is checked at the end of the list, not only when
    // the next set opens.
    EXPECT_THROW(
        decodeHandWrittenWays({{0, 0, 0x000}, {4, 0, 0x040},
                               {5, 0, 0x140}}),
        WireError);
    // Ways must come in ascending order (each set contiguous).
    EXPECT_THROW(decodeHandWrittenWays({{1, 0, 0x000}, {0, 1, 0x100}}),
                 WireError);
}

TEST(WireSnapshot, CacheRanksRoundTripToTheSameVictims)
{
    // Fill every set, shuffle recency with touches and an
    // invalidation, then save and restore: the copy re-encodes to the
    // same bytes and evicts exactly what the original evicts.
    CacheArray<ValueLine> a(kRankCache);
    CacheArray<ValueLine>::Victim v;
    for (Addr ba = 0; ba < 16 * 64; ba += 64)
        a.allocate(ba, &v)->data = ba;
    for (Addr ba : {0x100, 0x000, 0x2c0, 0x340, 0x100})
        a.touch(ba);
    a.invalidate(0x200);
    WireWriter w;
    const auto put = [](WireWriter &out, const ValueLine &l) {
        out.varint(l.data);
    };
    a.encodeWays(w, put);
    const std::string buf = w.take();
    CacheArray<ValueLine> b(kRankCache);
    WireReader r(buf);
    b.decodeWays(r, [](WireReader &in) {
        return ValueLine{in.varint("value")};
    });
    WireWriter again;
    b.encodeWays(again, put);
    EXPECT_EQ(again.take(), buf);
    for (Addr ba = 0x1000; ba < 0x1000 + 40 * 64; ba += 64) {
        CacheArray<ValueLine>::Victim va, vb;
        a.allocate(ba, &va);
        b.allocate(ba, &vb);
        ASSERT_EQ(va.valid, vb.valid);
        EXPECT_EQ(va.addr, vb.addr) << "allocating " << ba;
    }
}

TEST(WireSnapshot, CorruptByteSweepNeverCrashesOrMisparses)
{
    // Flip each byte of a valid snapshot. Every outcome must be a
    // typed error (WireError / SnapshotError) or a clean load into a
    // self-consistent state — one whose canonical re-encode loads and
    // re-encodes to itself. (A flip can land in a stored data value
    // and decode fine; it can also produce a non-canonical buffer —
    // non-minimal varint, default-valued entry — so byte equality
    // with the corrupted input is not the contract, idempotence of
    // the restored state is.) Anything else — a crash, an untyped
    // exception — fails the test.
    for (ProtocolKind proto : kCodecFamilies) {
        SCOPED_TRACE(protocolName(proto));
        const SystemConfig cfg = snapshotConfig(proto);
        const std::string good = warmedSnapshot(cfg, 200);
        System sys(cfg);
        for (std::size_t i = 0; i < good.size(); ++i) {
            SCOPED_TRACE("flip=" + std::to_string(i));
            std::string bad = good;
            bad[i] = static_cast<char>(bad[i] ^ 0x40);
            ASSERT_TRUE(sys.reset(cfg));
            try {
                loadWarmSnapshot(sys, bad);
                const std::string re = saveWarmSnapshot(sys);
                ASSERT_TRUE(sys.reset(cfg));
                loadWarmSnapshot(sys, re);
                EXPECT_EQ(saveWarmSnapshot(sys), re);
            } catch (const WireError &) {
            } catch (const SnapshotError &) {
            }
        }
    }
}

TEST(WireSnapshot, TrailingBytesAreATypedError)
{
    const SystemConfig cfg = snapshotConfig(ProtocolKind::directory);
    std::string extra = warmedSnapshot(cfg);
    extra.push_back('\x00');
    System sys(cfg);
    EXPECT_THROW(loadWarmSnapshot(sys, extra), WireError);
}

TEST(WireCheckpoint, FingerprintSeesSpecsSeedsAndOrder)
{
    std::vector<ExperimentSpec> a;
    a.push_back(ExperimentSpec{exhaustiveConfig(), 3, "p1"});
    a.push_back(ExperimentSpec{SystemConfig{}, 2, "p2"});
    EXPECT_EQ(sweepFingerprint(a), sweepFingerprint(a));

    std::vector<ExperimentSpec> reordered{a[1], a[0]};
    EXPECT_NE(sweepFingerprint(a), sweepFingerprint(reordered));

    std::vector<ExperimentSpec> more_seeds = a;
    more_seeds[0].seeds = 4;
    EXPECT_NE(sweepFingerprint(a), sweepFingerprint(more_seeds));

    std::vector<ExperimentSpec> other_cfg = a;
    other_cfg[1].cfg.numNodes += 1;
    EXPECT_NE(sweepFingerprint(a), sweepFingerprint(other_cfg));

    std::vector<ExperimentSpec> relabeled = a;
    relabeled[0].label = "renamed";
    EXPECT_NE(sweepFingerprint(a), sweepFingerprint(relabeled));
}

} // namespace
} // namespace tokensim
