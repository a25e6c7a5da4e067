/**
 * @file
 * Trace subsystem tests: binary format round trips, the recorder and
 * replayer reproduce live runs bit-identically, System::reset handles
 * preset↔trace switches, and every malformed-input class fails with a
 * clear TraceError instead of undefined behavior.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/system.hh"
#include "workload/factory.hh"
#include "workload/trace.hh"

namespace tokensim {
namespace {

/**
 * Scratch traces live under ./test_traces (the build dir when run via
 * ctest); CI uploads the directory as an artifact when a job fails.
 */
std::string
scratchPath(const std::string &name)
{
    std::filesystem::create_directories("test_traces");
    return "test_traces/" + name;
}

TraceHeader
headerFor(std::uint32_t nodes, const std::string &provenance = "unit")
{
    TraceHeader hdr;
    hdr.numNodes = nodes;
    hdr.seed = 42;
    hdr.provenance = provenance;
    return hdr;
}

void
expectRawIdentical(const System::Results &a, const System::Results &b)
{
    // The registry covers every metric of the run bit-exactly; a few
    // headline accessors are spot-checked so a mismatch names the
    // offending statistic instead of just "registries differ".
    EXPECT_EQ(a.runtimeTicks(), b.runtimeTicks());
    EXPECT_EQ(a.ops(), b.ops());
    EXPECT_EQ(a.misses(), b.misses());
    EXPECT_EQ(a.avgMissLatencyTicks(), b.avgMissLatencyTicks());
    EXPECT_EQ(a.totalLinkBytes(), b.totalLinkBytes());
    EXPECT_TRUE(a.metrics == b.metrics);
}

// ---------------------------------------------------------------------
// Format round trips
// ---------------------------------------------------------------------

TEST(TraceFormat, RoundTripsArbitraryOps)
{
    // Addresses jump forward and backward by large strides — the
    // zigzag delta coding must reproduce all of them exactly.
    TraceWriter w(headerFor(2, "fuzz"));
    std::vector<std::vector<WorkloadOp>> ops(2);
    Rng rng(7);
    for (NodeId n = 0; n < 2; ++n) {
        for (int i = 0; i < 5000; ++i) {
            WorkloadOp op;
            op.addr = rng.next() >> rng.below(40);
            op.op = rng.chance(0.4) ? MemOp::store : MemOp::load;
            op.endsTransaction = rng.chance(0.05);
            ops[n].push_back(op);
            w.append(n, op);
        }
    }

    const std::string buf = w.serialize();
    const TraceData t = TraceData::parse(buf.data(), buf.size());
    EXPECT_EQ(t.header().provenance, "fuzz");
    EXPECT_EQ(t.header().seed, 42u);
    EXPECT_EQ(t.numNodes(), 2u);
    EXPECT_EQ(t.totalOps(), 10000u);

    for (NodeId n = 0; n < 2; ++n) {
        TraceData::Reader r(t, n);
        for (const WorkloadOp &expect : ops[n]) {
            ASSERT_FALSE(r.done());
            const WorkloadOp got = r.next();
            ASSERT_EQ(got.addr, expect.addr);
            ASSERT_EQ(got.op, expect.op);
            ASSERT_EQ(got.endsTransaction, expect.endsTransaction);
        }
        EXPECT_TRUE(r.done());
        EXPECT_THROW(r.next(), TraceError);
    }
}

TEST(TraceFormat, FileRoundTrip)
{
    TraceWriter w(headerFor(1, "file"));
    w.append(0, WorkloadOp{MemOp::store, 0x1000, true});
    const std::string path = scratchPath("file_round_trip.trace");
    w.writeFile(path);

    const auto t = TraceData::load(path);
    EXPECT_EQ(t->opsForNode(0), 1u);
    TraceData::Reader r(*t, 0);
    const WorkloadOp op = r.next();
    EXPECT_EQ(op.addr, 0x1000u);
    EXPECT_EQ(op.op, MemOp::store);
    EXPECT_TRUE(op.endsTransaction);
}

TEST(TraceFormat, ReaderRewindReplaysFromStart)
{
    TraceWriter w(headerFor(1));
    w.append(0, WorkloadOp{MemOp::load, 0x40, false});
    w.append(0, WorkloadOp{MemOp::store, 0x80, true});
    const std::string buf = w.serialize();
    const TraceData t = TraceData::parse(buf.data(), buf.size());

    TraceData::Reader r(t, 0);
    EXPECT_EQ(r.next().addr, 0x40u);
    EXPECT_EQ(r.next().addr, 0x80u);
    r.rewind();
    EXPECT_EQ(r.next().addr, 0x40u);   // delta base restarts at 0
}

TEST(TraceWorkload, WrapsAroundWhenBudgetExceedsRecording)
{
    TraceWriter w(headerFor(1));
    w.append(0, WorkloadOp{MemOp::load, 0x40, false});
    w.append(0, WorkloadOp{MemOp::store, 0x80, true});
    const std::string buf = w.serialize();
    auto t = std::make_shared<const TraceData>(
        TraceData::parse(buf.data(), buf.size()));

    TraceWorkload wl(t, 0);
    for (int lap = 0; lap < 3; ++lap) {
        EXPECT_EQ(wl.next().addr, 0x40u);
        EXPECT_EQ(wl.next().addr, 0x80u);
    }
}

// ---------------------------------------------------------------------
// Malformed inputs: clear errors, never UB
// ---------------------------------------------------------------------

class MalformedTrace : public ::testing::Test
{
  protected:
    std::string
    goodBuffer()
    {
        TraceWriter w(headerFor(2, "bad"));
        for (NodeId n = 0; n < 2; ++n) {
            for (int i = 0; i < 50; ++i) {
                w.append(n, WorkloadOp{i % 3 ? MemOp::load
                                             : MemOp::store,
                                       static_cast<Addr>(i) * 64,
                                       i % 10 == 9});
            }
        }
        return w.serialize();
    }
};

TEST_F(MalformedTrace, TruncationAtEveryLengthThrows)
{
    const std::string buf = goodBuffer();
    // Every proper prefix must be rejected — header cuts, mid-array
    // cuts, and mid-stream cuts alike.
    for (std::size_t len = 0; len < buf.size(); ++len) {
        EXPECT_THROW(TraceData::parse(buf.data(), len), TraceError)
            << "prefix of " << len << " bytes parsed";
    }
    EXPECT_NO_THROW(TraceData::parse(buf.data(), buf.size()));
}

TEST_F(MalformedTrace, BadMagicThrows)
{
    std::string buf = goodBuffer();
    buf[0] = 'X';
    try {
        TraceData::parse(buf.data(), buf.size());
        FAIL() << "bad magic accepted";
    } catch (const TraceError &e) {
        EXPECT_NE(std::string(e.what()).find("magic"),
                  std::string::npos);
    }
}

TEST_F(MalformedTrace, UnsupportedVersionThrows)
{
    std::string buf = goodBuffer();
    buf[8] = 99;   // version field follows the 8-byte magic
    try {
        TraceData::parse(buf.data(), buf.size());
        FAIL() << "future version accepted";
    } catch (const TraceError &e) {
        EXPECT_NE(std::string(e.what()).find("version"),
                  std::string::npos);
    }
}

TEST_F(MalformedTrace, TrailingGarbageThrows)
{
    std::string buf = goodBuffer() + "junk";
    EXPECT_THROW(TraceData::parse(buf.data(), buf.size()),
                 TraceError);
}

TEST_F(MalformedTrace, ReservedFlagBitsThrow)
{
    // A one-op trace ends with [flags byte][1-byte varint]; setting
    // reserved flag bits must be rejected by the parse-time stream
    // validation.
    TraceWriter w(headerFor(1));
    w.append(0, WorkloadOp{MemOp::load, 0, false});
    std::string one = w.serialize();
    one[one.size() - 2] = '\x7c';
    EXPECT_THROW(TraceData::parse(one.data(), one.size()),
                 TraceError);
}

TEST_F(MalformedTrace, OverlongVarintThrows)
{
    // An 11-byte varint (ten continuation bytes) cannot encode a
    // 64-bit value; the decoder must reject it rather than shift past
    // the type width.
    TraceWriter w(headerFor(1));
    w.append(0, WorkloadOp{MemOp::load, 0, false});
    std::string buf = w.serialize();
    // Single node, so the layout ends: ...[opsPerNode u64]
    // [streamBytes u64][flags byte][1-byte varint]. Swap the stream
    // for flags + an overlong varint and patch streamBytes (LE).
    buf.resize(buf.size() - 2);
    buf[buf.size() - 8] = 12;
    buf.push_back('\0');
    for (int i = 0; i < 10; ++i)
        buf.push_back('\x80');
    buf.push_back('\x01');
    EXPECT_THROW(TraceData::parse(buf.data(), buf.size()),
                 TraceError);
}

TEST_F(MalformedTrace, HugeNodeCountInABareHeaderThrows)
{
    // A header alone (38 bytes, empty provenance) that claims 2^32 - 1
    // nodes: the per-node arrays it promises are missing, and parse
    // must say so before sizing anything by that count (32 GB each).
    std::string buf = TraceWriter(headerFor(1, "")).serialize();
    buf.resize(38);
    for (int i = 12; i < 16; ++i)   // node count follows magic, version
        buf[i] = '\xff';
    try {
        TraceData::parse(buf.data(), buf.size());
        FAIL() << "2^32 - 1 nodes accepted from a bare header";
    } catch (const TraceError &e) {
        EXPECT_NE(std::string(e.what()).find("truncated"),
                  std::string::npos)
            << e.what();
    }
}

TEST_F(MalformedTrace, MissingFileThrows)
{
    EXPECT_THROW(TraceData::load("test_traces/does_not_exist.trace"),
                 TraceError);
}

TEST_F(MalformedTrace, NodeCountMismatchThrowsAtSystemBuild)
{
    TraceWriter w(headerFor(4, "mismatch"));
    for (NodeId n = 0; n < 4; ++n)
        w.append(n, WorkloadOp{MemOp::load, 0x40, true});
    const std::string path = scratchPath("node_mismatch.trace");
    w.writeFile(path);

    SystemConfig cfg;
    cfg.numNodes = 8;   // trace fixes 4
    cfg.workload = WorkloadSpec::trace(path);
    cfg.opsPerProcessor = 1;
    try {
        System sys(cfg);
        FAIL() << "node-count mismatch accepted";
    } catch (const TraceError &e) {
        EXPECT_NE(std::string(e.what()).find("nodes"),
                  std::string::npos);
    }
}

TEST_F(MalformedTrace, UnknownPresetStillThrowsInvalidArgument)
{
    SystemConfig cfg;
    cfg.numNodes = 2;
    cfg.workload = "doom3";
    EXPECT_THROW(System{cfg}, std::invalid_argument);
}

TEST(TraceCacheTest, RewritingAPathInvalidatesTheCachedParse)
{
    // In-process record → replay → re-record → replay must see the
    // second recording, not the interned parse of the first.
    const std::string path = scratchPath("cache_invalidate.trace");
    TraceWriter a(headerFor(1, "first"));
    a.append(0, WorkloadOp{MemOp::load, 0x40, false});
    a.writeFile(path);
    EXPECT_EQ(TraceData::loadCached(path)->header().provenance,
              "first");

    TraceWriter b(headerFor(1, "second"));
    b.append(0, WorkloadOp{MemOp::store, 0x80, true});
    b.writeFile(path);
    EXPECT_EQ(TraceData::loadCached(path)->header().provenance,
              "second");
}

// ---------------------------------------------------------------------
// Record → replay fidelity
// ---------------------------------------------------------------------

SystemConfig
liveConfig(const std::string &preset)
{
    SystemConfig cfg;
    cfg.numNodes = 8;
    cfg.protocol = ProtocolKind::tokenB;
    cfg.workload = preset;
    cfg.opsPerProcessor = 400;
    cfg.warmupOpsPerProcessor = 100;
    cfg.seed = 17;
    return cfg;
}

TEST(TraceReplay, ReplayReproducesLiveRunBitIdentically)
{
    for (const char *preset : {"oltp", "producer-consumer",
                               "lock-ping", "ycsb", "tpcc"}) {
        SCOPED_TRACE(preset);
        SystemConfig live = liveConfig(preset);
        live.recordTrace =
            scratchPath(std::string("replay_") + preset + ".trace");
        System recorder(live);
        recorder.run();
        const System::Results live_results = recorder.results();

        // Every sequencer pulled exactly its budget — the contract
        // that makes the recorded stream lengths deterministic.
        for (int n = 0; n < live.numNodes; ++n) {
            EXPECT_EQ(recorder.sequencer(static_cast<NodeId>(n))
                          .opsPulled(),
                      live.opsPerProcessor +
                          live.warmupOpsPerProcessor);
        }

        SystemConfig replay = live;
        replay.recordTrace.clear();
        replay.workload = WorkloadSpec::trace(live.recordTrace);
        System replayer(replay);
        replayer.run();
        expectRawIdentical(replayer.results(), live_results);
    }
}

TEST(TraceReplay, RecordedBytesAreProtocolIndependent)
{
    // The pull-exactly-the-budget contract means the recorded streams
    // depend only on (workload, seed, budget) — never on protocol or
    // topology timing. Byte-identical traces prove it.
    std::string first;
    for (ProtocolKind proto : {ProtocolKind::tokenB,
                               ProtocolKind::directory,
                               ProtocolKind::hammer}) {
        SystemConfig cfg = liveConfig("oltp");
        cfg.protocol = proto;
        cfg.recordTrace = scratchPath(
            std::string("proto_indep_") + protocolName(proto) +
            ".trace");
        System sys(cfg);
        sys.run();

        std::FILE *f = std::fopen(cfg.recordTrace.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        std::string bytes;
        char chunk[4096];
        std::size_t got;
        while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
            bytes.append(chunk, got);
        std::fclose(f);

        if (first.empty())
            first = bytes;
        else
            EXPECT_EQ(bytes, first) << protocolName(proto);
    }
}

TEST(TraceReplay, ReplayRunsUnderDifferentProtocolAndTopology)
{
    SystemConfig live = liveConfig("oltp");
    live.recordTrace = scratchPath("cross_proto.trace");
    runOnce(live, live.seed);

    for (ProtocolKind proto : {ProtocolKind::directory,
                               ProtocolKind::snooping,
                               ProtocolKind::tokenM}) {
        SCOPED_TRACE(protocolName(proto));
        SystemConfig replay = live;
        replay.recordTrace.clear();
        replay.workload = WorkloadSpec::trace(live.recordTrace);
        replay.protocol = proto;
        replay.topology =
            proto == ProtocolKind::snooping ? "tree" : "torus";
        // Replay the whole recording (warmup included) as measured
        // ops: the trace is just an op stream, so the replay run may
        // slice it into warmup/measured windows differently.
        replay.warmupOpsPerProcessor = 0;
        replay.opsPerProcessor =
            live.opsPerProcessor + live.warmupOpsPerProcessor;
        const System::Results r = runOnce(replay, replay.seed);
        EXPECT_EQ(r.ops(), replay.opsPerProcessor *
                               static_cast<std::uint64_t>(
                                   replay.numNodes));
        EXPECT_GT(r.misses(), 0u);
    }
}

// ---------------------------------------------------------------------
// System::reset × trace workloads
// ---------------------------------------------------------------------

TEST(TraceReset, PresetAndTraceSwitchesStayBitIdenticalToFresh)
{
    // Record two different traces up front.
    SystemConfig rec_a = liveConfig("oltp");
    rec_a.recordTrace = scratchPath("reset_a.trace");
    runOnce(rec_a, rec_a.seed);
    SystemConfig rec_b = liveConfig("producer-consumer");
    rec_b.recordTrace = scratchPath("reset_b.trace");
    rec_b.seed = 99;
    runOnce(rec_b, rec_b.seed);

    // One reused System walks preset → trace A → trace B → preset;
    // every leg must match a fresh construction bit for bit.
    SystemConfig preset_cfg = liveConfig("uniform");
    SystemConfig trace_a = liveConfig("oltp");
    trace_a.workload = WorkloadSpec::trace(rec_a.recordTrace);
    SystemConfig trace_b = liveConfig("producer-consumer");
    trace_b.workload = WorkloadSpec::trace(rec_b.recordTrace);
    trace_b.seed = 7;

    std::unique_ptr<System> reused;
    int leg = 0;
    for (const SystemConfig *cfg : {&preset_cfg, &trace_a, &trace_b,
                                    &preset_cfg}) {
        SCOPED_TRACE("leg " + std::to_string(leg++) + ": " +
                     cfg->workload.name());
        expectRawIdentical(
            runOnceReusing(reused, *cfg, cfg->seed),
            runOnce(*cfg, cfg->seed));
        ASSERT_NE(reused, nullptr);
    }
}

TEST(TraceReset, ShapeMismatchFallsBackToFreshConstruction)
{
    SystemConfig rec = liveConfig("oltp");
    rec.numNodes = 4;
    rec.recordTrace = scratchPath("reset_shape.trace");
    runOnce(rec, rec.seed);

    SystemConfig trace_cfg = rec;
    trace_cfg.recordTrace.clear();
    trace_cfg.workload = WorkloadSpec::trace(rec.recordTrace);

    // Same shape: reset accepts the preset→trace switch.
    SystemConfig preset_cfg = trace_cfg;
    preset_cfg.workload = "oltp";
    System sys(preset_cfg);
    EXPECT_TRUE(sys.reset(trace_cfg));
    sys.run();

    // Different node count: reset declines, and the fallback path
    // (fresh construction, as runOnceReusing takes it) then reports
    // the trace/system mismatch loudly instead of misreplaying.
    SystemConfig wider = trace_cfg;
    wider.numNodes = 8;
    EXPECT_FALSE(sys.reset(wider));
    std::unique_ptr<System> reused;
    EXPECT_THROW(runOnceReusing(reused, wider, wider.seed),
                 TraceError);
    EXPECT_EQ(reused, nullptr);   // a half-built System is not reused
}

TEST(TraceReset, ResetToBadTracePathThrowsAndDropsSystem)
{
    SystemConfig cfg = liveConfig("oltp");
    cfg.opsPerProcessor = 50;
    cfg.warmupOpsPerProcessor = 0;
    std::unique_ptr<System> reused;
    runOnceReusing(reused, cfg, cfg.seed);
    ASSERT_NE(reused, nullptr);

    SystemConfig bad = cfg;
    bad.workload = WorkloadSpec::trace("test_traces/nope.trace");
    EXPECT_THROW(runOnceReusing(reused, bad, bad.seed), TraceError);
    EXPECT_EQ(reused, nullptr);
}

} // namespace
} // namespace tokensim
