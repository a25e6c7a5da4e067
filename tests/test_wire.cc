/**
 * @file
 * Wire-format fuzz suite for the sweep runner's serialization layer
 * (harness/wire.hh), mirroring test_trace.cc's coverage style: every
 * spec/result field round-trips bit-exactly, truncation at every byte
 * offset yields a typed WireError (never a crash, never a silent
 * success), and each malformed-input class — bad magic, bad version,
 * oversized varints, out-of-range enums, non-0/1 bools, trailing
 * garbage, layout skew — names its problem.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "harness/snapshot.hh"
#include "harness/wire.hh"

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

/** A SystemConfig with every field moved off its default. */
SystemConfig
exhaustiveConfig()
{
    SystemConfig cfg;
    cfg.numNodes = 12;
    cfg.topology = "tree";
    cfg.protocol = ProtocolKind::tokenM;
    cfg.proto.migratoryOpt = false;
    cfg.proto.tokensPerBlock = 17;
    cfg.proto.maxReissues = 9;
    cfg.proto.reissueLatencyMultiple = 3.25;
    cfg.proto.reissueJitter = 0.125;
    cfg.proto.initialAvgMissLatency = 1234;
    cfg.proto.maxReissueTimeout = 987654;
    cfg.proto.reissueEnabled = false;
    cfg.proto.chaosDropFraction = 0.0625;
    cfg.proto.chaosMisdirectFraction = 0.03125;
    cfg.proto.perfectDirectory = true;
    cfg.proto.predictorEntries = 4096;
    cfg.proto.adaptiveThreshold = 0.75;
    cfg.proto.adaptiveWindow = 5555;
    cfg.net.linkLatency = 77;
    cfg.net.bytesPerNs = 6.4;
    cfg.net.unlimitedBandwidth = true;
    cfg.net.ctrlBytes = 16;
    cfg.net.dataBytes = 144;
    cfg.net.localDelay = 3;
    cfg.seq.maxOutstanding = 8;
    cfg.seq.thinkMean = 42;
    cfg.seq.l1 = CacheParams{64 * 1024, 2, 32, 5};
    cfg.seq.l1Enabled = false;
    cfg.l2 = CacheParams{1024 * 1024, 8, 32, 11};
    cfg.dram.latency = 321;
    cfg.dram.minGap = 7;
    cfg.ctrlLatency = 13;
    cfg.blockBytes = 32;
    cfg.workload = WorkloadSpec::trace("some/path.trace");
    cfg.workload.preset = "lock-ping";
    cfg.workload.uniformBlocks = 99;
    cfg.workload.storeFraction = 0.4375;
    cfg.workload.prodConsBlocks = 33;
    cfg.workload.lockBlocks = 21;
    cfg.workload.sectionOps = -3;
    cfg.workload.ycsbRecords = 777;
    cfg.workload.ycsbTheta = 0.9375;
    cfg.workload.ycsbReadFraction = 0.5625;
    cfg.workload.ycsbUpdateFraction = 0.1875;
    cfg.workload.ycsbScanLen = 23;
    cfg.workload.tpccWarehouses = 44;
    cfg.workload.tpccHomeFraction = 0.65625;
    cfg.workload.tpccOpsPerTxn = 31;
    cfg.workload.tpccThinkOps = -7;
    TenantSpec tenant_a;
    tenant_a.workload = WorkloadSpec("ycsb");
    tenant_a.workload.ycsbTheta = 0.59375;
    tenant_a.nodes = 5;
    TenantSpec tenant_b;
    tenant_b.workload = WorkloadSpec("tpcc");
    tenant_b.workload.tpccOpsPerTxn = 3;
    tenant_b.nodes = 7;
    cfg.tenants = {tenant_a, tenant_b};
    cfg.recordTrace = "out/rec.trace";
    cfg.sampling = SamplingSpec{5000, 250, 19};
    cfg.warmSnapshot =
        std::make_shared<const std::string>("opaque snapshot bytes");
    cfg.opsPerProcessor = 123456789;
    cfg.warmupOpsPerProcessor = 55;
    cfg.seed = 0xdeadbeefcafef00dULL;
    cfg.attachAuditor = true;
    cfg.maxTicks = std::numeric_limits<std::uint64_t>::max();
    return cfg;
}

void
expectSameConfig(const SystemConfig &a, const SystemConfig &b)
{
    EXPECT_EQ(a.numNodes, b.numNodes);
    EXPECT_EQ(a.topology, b.topology);
    EXPECT_EQ(a.protocol, b.protocol);
    EXPECT_EQ(a.proto.migratoryOpt, b.proto.migratoryOpt);
    EXPECT_EQ(a.proto.tokensPerBlock, b.proto.tokensPerBlock);
    EXPECT_EQ(a.proto.maxReissues, b.proto.maxReissues);
    expectSameBits(a.proto.reissueLatencyMultiple,
                   b.proto.reissueLatencyMultiple, "reissue multiple");
    expectSameBits(a.proto.reissueJitter, b.proto.reissueJitter,
                   "reissue jitter");
    EXPECT_EQ(a.proto.initialAvgMissLatency,
              b.proto.initialAvgMissLatency);
    EXPECT_EQ(a.proto.maxReissueTimeout, b.proto.maxReissueTimeout);
    EXPECT_EQ(a.proto.reissueEnabled, b.proto.reissueEnabled);
    expectSameBits(a.proto.chaosDropFraction,
                   b.proto.chaosDropFraction, "chaos drop");
    expectSameBits(a.proto.chaosMisdirectFraction,
                   b.proto.chaosMisdirectFraction, "chaos misdirect");
    EXPECT_EQ(a.proto.perfectDirectory, b.proto.perfectDirectory);
    EXPECT_EQ(a.proto.predictorEntries, b.proto.predictorEntries);
    expectSameBits(a.proto.adaptiveThreshold,
                   b.proto.adaptiveThreshold, "adaptive threshold");
    EXPECT_EQ(a.proto.adaptiveWindow, b.proto.adaptiveWindow);
    EXPECT_EQ(a.net.linkLatency, b.net.linkLatency);
    expectSameBits(a.net.bytesPerNs, b.net.bytesPerNs, "bytesPerNs");
    EXPECT_EQ(a.net.unlimitedBandwidth, b.net.unlimitedBandwidth);
    EXPECT_EQ(a.net.ctrlBytes, b.net.ctrlBytes);
    EXPECT_EQ(a.net.dataBytes, b.net.dataBytes);
    EXPECT_EQ(a.net.localDelay, b.net.localDelay);
    EXPECT_EQ(a.seq.maxOutstanding, b.seq.maxOutstanding);
    EXPECT_EQ(a.seq.thinkMean, b.seq.thinkMean);
    EXPECT_EQ(a.seq.l1.sizeBytes, b.seq.l1.sizeBytes);
    EXPECT_EQ(a.seq.l1.assoc, b.seq.l1.assoc);
    EXPECT_EQ(a.seq.l1.blockBytes, b.seq.l1.blockBytes);
    EXPECT_EQ(a.seq.l1.latency, b.seq.l1.latency);
    EXPECT_EQ(a.seq.l1Enabled, b.seq.l1Enabled);
    EXPECT_EQ(a.l2.sizeBytes, b.l2.sizeBytes);
    EXPECT_EQ(a.l2.assoc, b.l2.assoc);
    EXPECT_EQ(a.l2.blockBytes, b.l2.blockBytes);
    EXPECT_EQ(a.l2.latency, b.l2.latency);
    EXPECT_EQ(a.dram.latency, b.dram.latency);
    EXPECT_EQ(a.dram.minGap, b.dram.minGap);
    EXPECT_EQ(a.ctrlLatency, b.ctrlLatency);
    EXPECT_EQ(a.blockBytes, b.blockBytes);
    // WorkloadSpec::operator== covers every workload field (the
    // factory header documents it as the wire's serialization hook).
    EXPECT_TRUE(a.workload == b.workload);
    ASSERT_EQ(a.tenants.size(), b.tenants.size());
    for (std::size_t i = 0; i < a.tenants.size(); ++i)
        EXPECT_TRUE(a.tenants[i] == b.tenants[i]);
    EXPECT_EQ(a.recordTrace, b.recordTrace);
    EXPECT_EQ(a.sampling.ffOps, b.sampling.ffOps);
    EXPECT_EQ(a.sampling.measureOps, b.sampling.measureOps);
    EXPECT_EQ(a.sampling.windows, b.sampling.windows);
    // The snapshot blob ships by value; null and empty are the same
    // "no snapshot" state on the wire.
    EXPECT_EQ(a.warmSnapshot ? *a.warmSnapshot : std::string(),
              b.warmSnapshot ? *b.warmSnapshot : std::string());
    EXPECT_EQ(a.opsPerProcessor, b.opsPerProcessor);
    EXPECT_EQ(a.warmupOpsPerProcessor, b.warmupOpsPerProcessor);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.attachAuditor, b.attachAuditor);
    EXPECT_EQ(a.maxTicks, b.maxTicks);
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
// Struct round trips
// ---------------------------------------------------------------------

TEST(WireStructs, WorkloadSpecRoundTripsEveryField)
{
    WorkloadSpec spec = WorkloadSpec::trace("a/b/c.trace");
    spec.preset = "producer-consumer";
    spec.uniformBlocks = 5;
    spec.storeFraction = 0.875;
    spec.prodConsBlocks = 11;
    spec.lockBlocks = 13;
    spec.sectionOps = 42;
    spec.ycsbRecords = 4097;
    spec.ycsbTheta = 0.03125;
    spec.ycsbReadFraction = 0.28125;
    spec.ycsbUpdateFraction = 0.09375;
    spec.ycsbScanLen = -5;
    spec.tpccWarehouses = 129;
    spec.tpccHomeFraction = 0.40625;
    spec.tpccOpsPerTxn = -11;
    spec.tpccThinkOps = 77;

    WireWriter w;
    encodeWorkloadSpec(w, spec);
    WireReader r(w.buffer());
    const WorkloadSpec back = decodeWorkloadSpec(r);
    EXPECT_NO_THROW(r.expectEnd("workload spec"));
    EXPECT_TRUE(back == spec);
    EXPECT_FALSE(back != spec);
}

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

TEST(WireStructs, EachWorkloadKnobSurvivesTheWireAlone)
{
    // Round-trip each knob's perturbation independently: catches a
    // codec that serializes knob A into knob B's slot (a pure
    // round-trip of an all-perturbed spec could still pass if two
    // same-typed fields were swapped both ways).
    std::vector<WorkloadSpec> variants;
    const auto variant = [&](auto mutate) {
        WorkloadSpec s;
        mutate(s);
        variants.push_back(s);
    };
    variant([](WorkloadSpec &s) { s.uniformBlocks = 123; });
    variant([](WorkloadSpec &s) { s.storeFraction = 0.71875; });
    variant([](WorkloadSpec &s) { s.prodConsBlocks = 77; });
    variant([](WorkloadSpec &s) { s.lockBlocks = 3; });
    variant([](WorkloadSpec &s) { s.sectionOps = -9; });
    variant([](WorkloadSpec &s) { s.ycsbRecords = 31; });
    variant([](WorkloadSpec &s) { s.ycsbTheta = 1.25; });
    variant([](WorkloadSpec &s) { s.ycsbReadFraction = 0.15625; });
    variant([](WorkloadSpec &s) { s.ycsbUpdateFraction = 0.46875; });
    variant([](WorkloadSpec &s) { s.ycsbScanLen = 201; });
    variant([](WorkloadSpec &s) { s.tpccWarehouses = 513; });
    variant([](WorkloadSpec &s) { s.tpccHomeFraction = 0.21875; });
    variant([](WorkloadSpec &s) { s.tpccOpsPerTxn = 1001; });
    variant([](WorkloadSpec &s) { s.tpccThinkOps = -2; });
    for (const WorkloadSpec &spec : variants) {
        WireWriter w;
        encodeWorkloadSpec(w, spec);
        WireReader r(w.buffer());
        const WorkloadSpec back = decodeWorkloadSpec(r);
        EXPECT_NO_THROW(r.expectEnd("workload spec"));
        EXPECT_TRUE(back == spec);
    }
}

TEST(WireStructs, TenantListRoundTripsAndEmptyStaysEmpty)
{
    SystemConfig cfg;
    EXPECT_TRUE(cfg.tenants.empty());
    {
        WireWriter w;
        encodeSystemConfig(w, cfg);
        WireReader r(w.buffer());
        EXPECT_TRUE(decodeSystemConfig(r).tenants.empty());
    }
    TenantSpec a;
    a.workload = WorkloadSpec("ycsb");
    a.workload.ycsbRecords = 2048;
    a.nodes = 192;
    TenantSpec b;
    b.workload = WorkloadSpec("tpcc");
    b.workload.tpccThinkOps = 2;
    b.nodes = 64;
    cfg.numNodes = 256;
    cfg.tenants = {a, b};
    WireWriter w;
    encodeSystemConfig(w, cfg);
    WireReader r(w.buffer());
    const SystemConfig back = decodeSystemConfig(r);
    ASSERT_EQ(back.tenants.size(), 2u);
    EXPECT_TRUE(back.tenants[0] == a);
    EXPECT_TRUE(back.tenants[1] == b);
}

TEST(WireStructs, SystemConfigRoundTripsEveryField)
{
    const SystemConfig cfg = exhaustiveConfig();
    WireWriter w;
    encodeSystemConfig(w, cfg);
    WireReader r(w.buffer());
    const SystemConfig back = decodeSystemConfig(r);
    EXPECT_NO_THROW(r.expectEnd("config"));
    expectSameConfig(cfg, back);
}

TEST(WireStructs, DefaultSystemConfigRoundTrips)
{
    WireWriter w;
    encodeSystemConfig(w, SystemConfig{});
    WireReader r(w.buffer());
    expectSameConfig(SystemConfig{}, decodeSystemConfig(r));
}

TEST(WireStructs, ExperimentSpecRoundTrips)
{
    ExperimentSpec spec;
    spec.cfg = exhaustiveConfig();
    spec.seeds = 17;
    spec.label = "TokenB - torus (inf bw)";
    WireWriter w;
    encodeExperimentSpec(w, spec);
    WireReader r(w.buffer());
    const ExperimentSpec back = decodeExperimentSpec(r);
    EXPECT_NO_THROW(r.expectEnd("spec"));
    expectSameConfig(spec.cfg, back.cfg);
    EXPECT_EQ(back.seeds, 17);
    EXPECT_EQ(back.label, spec.label);
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

TEST(WireStructs, TruncationAtEveryByteOffsetIsATypedError)
{
    // The cornerstone fuzz property (same loop as test_trace.cc):
    // every proper prefix of a valid encoding must throw WireError —
    // no crash, no out-of-bounds read, no accidental success.
    WireWriter w;
    encodeExperimentSpec(w, ExperimentSpec{exhaustiveConfig(), 3,
                                           "trunc"});
    const std::string full = w.buffer();
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
        SCOPED_TRACE("cut=" + std::to_string(cut));
        WireReader r(full.data(), cut);
        EXPECT_THROW(decodeExperimentSpec(r), WireError);
    }
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

TEST(WireStructs, ProtocolByteOutOfRangeIsATypedError)
{
    WireWriter w;
    encodeSystemConfig(w, SystemConfig{});
    std::string buf = w.take();
    // The protocol byte follows numNodes (svarint 16 -> 1 byte) and
    // topology ("torus": varint len + 5 bytes).
    const std::size_t proto_at = 1 + 1 + 5;
    buf[proto_at] = char(200);
    WireReader r(buf);
    EXPECT_THROW(decodeSystemConfig(r), WireError);
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

TEST(WireSnapshot, EveryStateClassRoundTripsToIdenticalBytes)
{
    // Canonical-encoding property per protocol family: decoding a
    // snapshot and re-encoding the restored system reproduces the
    // byte-identical buffer. (tokenD/M/A/Null share TokenB's codec
    // path — test_sampling.cc covers them; the families with distinct
    // warm-state codecs are what matters here.)
    const ProtocolKind protos[] = {
        ProtocolKind::snooping, ProtocolKind::directory,
        ProtocolKind::hammer, ProtocolKind::tokenB,
    };
    for (ProtocolKind proto : protos) {
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

    std::string bad_version = warmedSnapshot(cfg);
    bad_version[sizeof snapshotMagic] =
        static_cast<char>(snapshotVersion + 1);
    EXPECT_THROW(peekSnapshotHeader(bad_version), SnapshotError);

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

TEST(WireSnapshot, TruncationAtEveryByteOffsetIsATypedError)
{
    const SystemConfig cfg = snapshotConfig(ProtocolKind::tokenB);
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
            // Truncation inside the fingerprint varint shortens it to
            // a valid smaller value: reads as a shape mismatch.
        }
    }
    ASSERT_TRUE(sys.reset(cfg));
    EXPECT_NO_THROW(loadWarmSnapshot(sys, full));
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
    const SystemConfig cfg = snapshotConfig(ProtocolKind::tokenB);
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
