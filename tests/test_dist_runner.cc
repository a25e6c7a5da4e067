/**
 * @file
 * Distributed-determinism suite for the process-sharded sweep runner:
 * resultDigest() equality across the serial loop, ParallelRunner
 * (threads), and DistRunner (worker subprocesses) at every
 * parallelism level, on mixed preset+trace sweeps and on the
 * committed golden traces — plus crash-recovery gates proving that a
 * SIGKILLed worker or a truncated reply frame reassigns the shard
 * with no effect on final digests.
 *
 * This is the process-level extension of test_parallel_runner.cc's
 * contract (and of the paper's thesis): which process runs a shard,
 * in what order, and through how many failures is performance policy;
 * the results are correctness, and must not move.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "harness/dist_runner.hh"
#include "harness/parallel_runner.hh"
#include "harness/wire.hh"
#include "workload/trace.hh"

namespace tokensim {
namespace {

/** A small but diverse spec matrix: protocol x topology x tokens. */
std::vector<ExperimentSpec>
smallMatrix()
{
    std::vector<ExperimentSpec> specs;
    struct Pt
    {
        ProtocolKind proto;
        const char *topo;
        int tokens;
    };
    const Pt pts[] = {
        {ProtocolKind::tokenB, "torus", 0},
        {ProtocolKind::tokenB, "tree", 19},
        {ProtocolKind::tokenD, "torus", 0},
        {ProtocolKind::snooping, "tree", 0},
        {ProtocolKind::directory, "torus", 0},
        {ProtocolKind::hammer, "torus", 0},
    };
    for (const Pt &p : pts) {
        SystemConfig cfg;
        cfg.numNodes = 8;
        cfg.topology = p.topo;
        cfg.protocol = p.proto;
        cfg.workload = "uniform";
        cfg.workload.uniformBlocks = 128;
        cfg.proto.tokensPerBlock = p.tokens;
        cfg.opsPerProcessor = 300;
        cfg.seed = 23;
        specs.push_back(ExperimentSpec{cfg, 2, protocolName(p.proto)});
    }
    return specs;
}

std::vector<std::string>
digestsOf(const std::vector<ExperimentResult> &results)
{
    std::vector<std::string> out;
    out.reserve(results.size());
    for (const ExperimentResult &r : results)
        out.push_back(resultDigest(r));
    return out;
}

void
expectSameDigests(const std::vector<ExperimentResult> &a,
                  const std::vector<ExperimentResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(a[i].label);
        EXPECT_EQ(resultDigest(a[i]), resultDigest(b[i]));
        EXPECT_TRUE(identicalResults(a[i], b[i]));
    }
}

DistRunner
makeRunner(int workers)
{
    DistRunnerOptions opts;
    opts.workers = workers;
    return DistRunner(std::move(opts));
}

TEST(DistRunner, WorkerCountResolvesToAtLeastOne)
{
    EXPECT_GE(DistRunner().workers(), 1);
    EXPECT_EQ(makeRunner(3).workers(), 3);
}

TEST(DistRunner, EmptySpecListIsFine)
{
    EXPECT_TRUE(
        makeRunner(2).run(std::vector<ExperimentSpec>{}).empty());
}

TEST(DistRunner, ZeroSeedsMatchesSerialZeroSeeds)
{
    SystemConfig cfg;
    cfg.numNodes = 4;
    cfg.opsPerProcessor = 50;
    const ExperimentSpec spec{cfg, 0, "empty"};
    const ExperimentResult serial = runExperiment(cfg, 0, "empty");
    const ExperimentResult dist = makeRunner(2).run(spec);
    EXPECT_EQ(dist.ops, 0u);
    EXPECT_EQ(resultDigest(dist), resultDigest(serial));
}

TEST(DistDeterminism, MatchesSerialAndParallelAtEveryWidth)
{
    // The differential gate: serial oracle vs ParallelRunner at
    // 1/2/4 threads vs DistRunner at 1/2/4 worker processes — every
    // combination must produce the same digest list, on a sweep that
    // mixes synthetic presets and a recorded-trace replay.
    std::filesystem::create_directories("test_traces");
    const std::string path = "test_traces/dist_mixed.trace";

    SystemConfig rec;
    rec.numNodes = 8;
    rec.protocol = ProtocolKind::tokenB;
    rec.workload = "producer-consumer";
    rec.opsPerProcessor = 300;
    rec.seed = 11;
    rec.recordTrace = path;
    runOnce(rec, rec.seed);

    std::vector<ExperimentSpec> specs = smallMatrix();
    SystemConfig replay = rec;
    replay.recordTrace.clear();
    replay.workload = WorkloadSpec::trace(path);
    specs.push_back(ExperimentSpec{replay, 2, "replay"});

    std::vector<ExperimentResult> serial;
    for (const ExperimentSpec &s : specs)
        serial.push_back(runExperiment(s.cfg, s.seeds, s.label));

    for (int threads : {1, 2, 4}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        expectSameDigests(
            ParallelRunner(ParallelRunnerOptions{threads}).run(specs),
            serial);
    }
    for (int workers : {1, 2, 4}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        expectSameDigests(makeRunner(workers).run(specs), serial);
    }
}

TEST(DistDeterminism, StreamingLinesArriveAndFinalOrderIsSpecOrder)
{
    // Streaming partial aggregates must not perturb the final merge:
    // one progress line per shard, one completion line per spec, and
    // the completion lines carry exactly the digests the run returns
    // (the partial aggregate IS the final aggregate).
    const std::vector<ExperimentSpec> specs = smallMatrix();
    std::size_t total_shards = 0;
    for (const ExperimentSpec &s : specs)
        total_shards += static_cast<std::size_t>(s.seeds);

    std::vector<std::string> lines;
    DistRunnerOptions opts;
    opts.workers = 3;
    opts.progress = [&](const std::string &line) {
        lines.push_back(line);
    };
    const std::vector<ExperimentResult> results =
        DistRunner(std::move(opts)).run(specs);

    std::size_t shard_lines = 0;
    std::size_t spec_lines = 0;
    for (const std::string &l : lines) {
        if (l.rfind("shard ", 0) == 0)
            ++shard_lines;
        if (l.rfind("spec ", 0) == 0) {
            ++spec_lines;
            // "spec <i> "<label>" complete: <digest>"
            const std::size_t colon = l.find(": ");
            ASSERT_NE(colon, std::string::npos);
            const std::string digest = l.substr(colon + 2);
            bool matched = false;
            for (const ExperimentResult &r : results)
                matched = matched || resultDigest(r) == digest;
            EXPECT_TRUE(matched)
                << "streamed partial aggregate differs from the "
                   "final merge: "
                << l;
        }
    }
    EXPECT_EQ(shard_lines, total_shards);
    EXPECT_EQ(spec_lines, specs.size());
    ASSERT_EQ(results.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(results[i].label, specs[i].label);
}

TEST(DistCrashRecovery, KilledWorkerShardIsRetriedWithSameDigests)
{
    // Worker 0 SIGKILLs itself after computing its second shard,
    // before replying — the parent must observe EOF with a job
    // outstanding, reassign the shard to a healthy worker, and merge
    // to exactly the serial oracle's digests.
    const std::vector<ExperimentSpec> specs = smallMatrix();
    std::vector<ExperimentResult> serial;
    for (const ExperimentSpec &s : specs)
        serial.push_back(runExperiment(s.cfg, s.seeds, s.label));

    DistRunnerOptions opts;
    opts.workers = 3;
    opts.workerFault.crashAfterShards = 1;
    expectSameDigests(DistRunner(std::move(opts)).run(specs), serial);
}

TEST(DistCrashRecovery, TruncatedResultFrameIsRetriedWithSameDigests)
{
    // Worker 0 replies to its first shard with half a result frame
    // and exits: the parent sees a partial frame then EOF — the
    // malformed-reply path — and must reassign, again bit-identical.
    const std::vector<ExperimentSpec> specs = smallMatrix();
    std::vector<ExperimentResult> serial;
    for (const ExperimentSpec &s : specs)
        serial.push_back(runExperiment(s.cfg, s.seeds, s.label));

    DistRunnerOptions opts;
    opts.workers = 2;
    opts.workerFault.truncateAfterShards = 0;
    expectSameDigests(DistRunner(std::move(opts)).run(specs), serial);
}

TEST(DistCrashRecovery, GarbageReplyFromAnyWorkerIndexIsRecovered)
{
    // Worker 2 — NOT worker 0, proving fault targeting reaches every
    // pool slot — replies to its first shard with 64 bytes of 0xee
    // (an invalid frame type) and exits. The parent's decoder throws,
    // the worker is killed and replaced, the shard reassigns.
    const std::vector<ExperimentSpec> specs = smallMatrix();
    std::vector<ExperimentResult> serial;
    for (const ExperimentSpec &s : specs)
        serial.push_back(runExperiment(s.cfg, s.seeds, s.label));

    DistRunnerOptions opts;
    opts.workers = 3;
    opts.workerFault.worker = 2;
    opts.workerFault.garbageAfterShards = 0;
    expectSameDigests(DistRunner(std::move(opts)).run(specs), serial);
}

TEST(DistCrashRecovery, HungWorkerIsKilledByDeadlineAndRecovered)
{
    // Worker 0 goes silent forever after its second shard — no exit,
    // no bytes, the one failure EOF can never report. The per-shard
    // deadline must SIGKILL it and reassign, digests untouched.
    const std::vector<ExperimentSpec> specs = smallMatrix();
    std::vector<ExperimentResult> serial;
    for (const ExperimentSpec &s : specs)
        serial.push_back(runExperiment(s.cfg, s.seeds, s.label));

    bool sawHangKill = false;
    DistRunnerOptions opts;
    opts.workers = 3;
    opts.shardTimeoutMs = 1500;
    opts.workerFault.hangAfterShards = 1;
    opts.progress = [&](const std::string &l) {
        if (l.find("hung") != std::string::npos)
            sawHangKill = true;
    };
    expectSameDigests(DistRunner(std::move(opts)).run(specs), serial);
    EXPECT_TRUE(sawHangKill);
}

TEST(DistCrashRecovery, PartialFrameThenHangIsRecoveredByDeadline)
{
    // Half a result frame, then silence: the buffered prefix never
    // completes a frame, so only the deadline can unstick the sweep.
    const std::vector<ExperimentSpec> specs = smallMatrix();
    std::vector<ExperimentResult> serial;
    for (const ExperimentSpec &s : specs)
        serial.push_back(runExperiment(s.cfg, s.seeds, s.label));

    DistRunnerOptions opts;
    opts.workers = 3;
    opts.shardTimeoutMs = 1500;
    opts.workerFault.partialFrameAfterShards = 0;
    expectSameDigests(DistRunner(std::move(opts)).run(specs), serial);
}

TEST(DistCrashRecovery, RespawnedWorkerCrashingAgainIsStillRecovered)
{
    // Every process spawned into slot 0 — the initial worker AND each
    // respawn — crashes after its second shard. The respawn budget
    // (2x workers = 6) absorbs the churn; healthy slots 1 and 2 plus
    // the retry budget carry the sweep to the same digests.
    const std::vector<ExperimentSpec> specs = smallMatrix();
    std::vector<ExperimentResult> serial;
    for (const ExperimentSpec &s : specs)
        serial.push_back(runExperiment(s.cfg, s.seeds, s.label));

    int respawns = 0;
    DistRunnerOptions opts;
    opts.workers = 3;
    opts.maxShardRetries = 20;
    opts.workerFault.worker = 0;
    opts.workerFault.spawnGeneration = -1;   // every spawn
    opts.workerFault.crashAfterShards = 1;
    opts.progress = [&](const std::string &l) {
        if (l.find("respawned") != std::string::npos)
            ++respawns;
    };
    expectSameDigests(DistRunner(std::move(opts)).run(specs), serial);
    EXPECT_GE(respawns, 1);
}

TEST(DistCrashRecovery, TotalWorkerChurnDegradesToInProcessRun)
{
    // Every worker, every spawn, crashes before its first reply: no
    // shard can EVER complete in a subprocess. Once the respawn
    // budget is spent and the pool empties, the parent must finish
    // the sweep in-process — same digests, not an exception.
    const std::vector<ExperimentSpec> specs = smallMatrix();
    std::vector<ExperimentResult> serial;
    for (const ExperimentSpec &s : specs)
        serial.push_back(runExperiment(s.cfg, s.seeds, s.label));

    bool degraded = false;
    DistRunnerOptions opts;
    opts.workers = 2;
    opts.maxWorkerRespawns = 2;
    opts.maxShardRetries = 100;
    opts.workerFault.worker = -1;            // every slot
    opts.workerFault.spawnGeneration = -1;   // every spawn
    opts.workerFault.crashAfterShards = 0;
    opts.progress = [&](const std::string &l) {
        if (l.find("in-process") != std::string::npos)
            degraded = true;
    };
    expectSameDigests(DistRunner(std::move(opts)).run(specs), serial);
    EXPECT_TRUE(degraded);
}

TEST(DistRunner, ShardExceptionPropagatesFromWorker)
{
    // An impossible topology throws inside the worker subprocess; the
    // worker reports it as an error frame (a deterministic failure,
    // not a worker death) and the parent rethrows with the message.
    SystemConfig cfg;
    cfg.topology = "moebius";
    cfg.opsPerProcessor = 10;
    std::vector<ExperimentSpec> specs{ExperimentSpec{cfg, 2, "bad"}};
    try {
        makeRunner(2).run(specs);
        FAIL() << "impossible topology ran successfully";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("bad"),
                  std::string::npos)
            << e.what();
    }
}

TEST(DistRunner, CustomWorkloadFactoryIsRejectedUpFront)
{
    SystemConfig cfg;
    cfg.workloadFactory = [](NodeId, int,
                             std::uint64_t) -> std::unique_ptr<Workload> {
        return nullptr;
    };
    std::vector<ExperimentSpec> specs{ExperimentSpec{cfg, 1, "f"}};
    EXPECT_THROW(makeRunner(2).run(specs), std::invalid_argument);
}

TEST(DistRunner, NonWorkerBinaryFailsHandshakeWithClearError)
{
    // Exec'ing something that does not speak the protocol (cat
    // echoes our own job frame back before any hello) must surface
    // as a handshake failure naming the problem — not burn the
    // retry budget and die as "workers keep dying".
    SystemConfig cfg;
    cfg.numNodes = 4;
    cfg.opsPerProcessor = 10;
    std::vector<ExperimentSpec> specs{ExperimentSpec{cfg, 1, "h"}};
    DistRunnerOptions opts;
    opts.workers = 2;
    opts.workerArgv = {"/bin/cat"};
    try {
        DistRunner(std::move(opts)).run(specs);
        FAIL() << "/bin/cat passed the worker handshake";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("handshake"),
                  std::string::npos)
            << e.what();
    }
}

TEST(DistRunner, VersionSkewedWorkerFailsHandshakeWithTypedMessage)
{
    // An exec'd worker from an older build: its hello is well-formed
    // in the previous wire version's layout (magic, version, and the
    // "host:pid" name string that version carried). The run must be
    // refused at the handshake with the typed version-mismatch
    // message, so the operator knows to rebuild the worker binary.
    WireWriter w;
    w.raw(wireMagic, sizeof(wireMagic));
    w.varint(wireVersion - 1);
    w.str("old-build:1");
    std::string frame;
    appendFrame(frame, FrameType::hello, w.take());
    std::string escaped;
    for (const unsigned char c : frame) {
        char oct[8];
        std::snprintf(oct, sizeof(oct), "\\%03o", c);
        escaped += oct;
    }

    SystemConfig cfg;
    cfg.numNodes = 4;
    cfg.opsPerProcessor = 10;
    std::vector<ExperimentSpec> specs{ExperimentSpec{cfg, 1, "v"}};
    DistRunnerOptions opts;
    opts.workers = 2;
    opts.workerArgv = {"/bin/sh", "-c",
                       "printf '" + escaped + "'; exec cat"};
    try {
        DistRunner(std::move(opts)).run(specs);
        FAIL() << "a version-skewed worker passed the handshake";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("handshake"), std::string::npos) << what;
        EXPECT_NE(what.find("version mismatch"), std::string::npos)
            << what;
    }
}

TEST(DistRunner, RecordTraceIsRejectedUpFront)
{
    SystemConfig cfg;
    cfg.recordTrace = "test_traces/should_not_race.trace";
    std::vector<ExperimentSpec> specs{ExperimentSpec{cfg, 1, "r"}};
    EXPECT_THROW(makeRunner(2).run(specs), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Checkpoint / resume
// ---------------------------------------------------------------------

std::string
ckptPath(const std::string &name)
{
    std::filesystem::create_directories("test_ckpt");
    const std::string path = "test_ckpt/" + name + ".ckpt";
    std::filesystem::remove(path);
    return path;
}

DistRunnerOptions
ckptOpts(const std::string &path, int workers)
{
    DistRunnerOptions opts;
    opts.workers = workers;
    opts.checkpointPath = path;
    return opts;
}

TEST(DistCheckpoint, ResumeFromCompleteAndTruncatedFilesIsIdentical)
{
    const std::vector<ExperimentSpec> specs = smallMatrix();
    std::vector<ExperimentResult> serial;
    for (const ExperimentSpec &s : specs)
        serial.push_back(runExperiment(s.cfg, s.seeds, s.label));
    const std::string path = ckptPath("resume");

    // Pass 1: fresh file, all 12 shards computed and recorded.
    expectSameDigests(
        DistRunner(ckptOpts(path, 3)).run(specs), serial);
    const std::uintmax_t full_size = std::filesystem::file_size(path);

    // Pass 2: full restore — zero recomputation, identical digests,
    // and the restore line says so (at a different worker count, to
    // prove restore is schedule-independent).
    std::string restore_line;
    DistRunnerOptions opts2 = ckptOpts(path, 2);
    opts2.progress = [&](const std::string &l) {
        if (l.rfind("checkpoint: restored", 0) == 0)
            restore_line = l;
    };
    expectSameDigests(DistRunner(std::move(opts2)).run(specs), serial);
    EXPECT_NE(restore_line.find("restored 12/12"), std::string::npos)
        << restore_line;

    // Pass 3: chop the file mid-record (a crash mid-append). The torn
    // tail must drop, the missing shards recompute, digests hold.
    std::filesystem::resize_file(path, full_size * 2 / 3);
    std::string torn_line;
    DistRunnerOptions opts3 = ckptOpts(path, 3);
    opts3.progress = [&](const std::string &l) {
        if (l.rfind("checkpoint: restored", 0) == 0)
            torn_line = l;
    };
    expectSameDigests(DistRunner(std::move(opts3)).run(specs), serial);
    EXPECT_NE(torn_line.find("torn tail"), std::string::npos)
        << torn_line;

    // Pass 4: pass 3's re-appended records must land where the next
    // resume can see them — a full restore again.
    std::string again;
    DistRunnerOptions opts4 = ckptOpts(path, 2);
    opts4.progress = [&](const std::string &l) {
        if (l.rfind("checkpoint: restored", 0) == 0)
            again = l;
    };
    expectSameDigests(DistRunner(std::move(opts4)).run(specs), serial);
    EXPECT_NE(again.find("restored 12/12"), std::string::npos)
        << again;
}

TEST(DistCheckpoint, CorruptTrailingByteReadsAsTornTail)
{
    const std::vector<ExperimentSpec> specs = smallMatrix();
    std::vector<ExperimentResult> serial;
    for (const ExperimentSpec &s : specs)
        serial.push_back(runExperiment(s.cfg, s.seeds, s.label));
    const std::string path = ckptPath("corrupt");
    expectSameDigests(
        DistRunner(ckptOpts(path, 3)).run(specs), serial);

    // Flip a byte inside the last record: its CRC fails, it drops as
    // a torn tail, and the shard recomputes to the same digest.
    const std::uintmax_t size = std::filesystem::file_size(path);
    std::fstream f(path, std::ios::in | std::ios::out |
                             std::ios::binary);
    f.seekg(static_cast<std::streamoff>(size - 10));
    char c = 0;
    f.get(c);
    f.seekp(static_cast<std::streamoff>(size - 10));
    f.put(static_cast<char>(c ^ 0x55));
    f.close();

    expectSameDigests(
        DistRunner(ckptOpts(path, 2)).run(specs), serial);
}

TEST(DistCheckpoint, DifferentSweepFingerprintIsRejected)
{
    const std::vector<ExperimentSpec> specs = smallMatrix();
    const std::string path = ckptPath("mismatch");
    DistRunner(ckptOpts(path, 2)).run(specs);

    // One more seed per point is a different sweep: resuming against
    // the old file must throw the typed mismatch, not merge garbage.
    std::vector<ExperimentSpec> other = specs;
    for (ExperimentSpec &s : other)
        s.seeds += 1;
    EXPECT_THROW(DistRunner(ckptOpts(path, 2)).run(other),
                 CheckpointMismatch);

    // A non-checkpoint file is a typed CheckpointError.
    const std::string junk = ckptPath("junk");
    std::ofstream(junk, std::ios::binary) << "not a checkpoint file";
    EXPECT_THROW(DistRunner(ckptOpts(junk, 2)).run(specs),
                 CheckpointError);
}

TEST(DistCheckpoint, SigkilledSweepResumesBitIdentically)
{
    // The end-to-end crash gate: a whole DistRunner — parent and
    // workers — is SIGKILLed mid-sweep, then the sweep reruns against
    // the surviving checkpoint. The resume must restore whatever was
    // recorded (any torn trailing record dropped), recompute the
    // rest, and match the serial oracle exactly.
    const std::vector<ExperimentSpec> specs = smallMatrix();
    std::vector<ExperimentResult> serial;
    for (const ExperimentSpec &s : specs)
        serial.push_back(runExperiment(s.cfg, s.seeds, s.label));
    const std::string path = ckptPath("sigkill");

    int progress_pipe[2];
    ASSERT_EQ(::pipe(progress_pipe), 0);
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        // Victim process: run the checkpointed sweep with forked
        // workers, ticking a byte into the pipe per completed shard
        // so the parent can kill us provably mid-sweep. Only _exit
        // from here — this is a forked copy of the test binary.
        ::close(progress_pipe[0]);
        DistRunnerOptions opts = ckptOpts(path, 2);
        const int wfd = progress_pipe[1];
        opts.progress = [wfd](const std::string &l) {
            if (l.rfind("shard ", 0) == 0)
                (void)!::write(wfd, "x", 1);
        };
        try {
            DistRunner(std::move(opts)).run(specs);
        } catch (...) {
            _exit(1);
        }
        _exit(0);
    }
    ::close(progress_pipe[1]);

    // Let a few shards land, then kill without warning. (If the child
    // somehow finishes first, read returns 0 and the resume below
    // simply restores everything — the assertion still holds.)
    std::size_t ticks = 0;
    char c;
    while (ticks < 3 && ::read(progress_pipe[0], &c, 1) == 1)
        ++ticks;
    ::kill(child, SIGKILL);
    int status = 0;
    ::waitpid(child, &status, 0);
    ::close(progress_pipe[0]);

    ASSERT_TRUE(std::filesystem::exists(path))
        << "checkpoint never materialized";
    std::size_t restored = 0;
    DistRunnerOptions opts = ckptOpts(path, 3);
    opts.progress = [&](const std::string &l) {
        if (l.find("restored") != std::string::npos)
            ++restored;
    };
    expectSameDigests(DistRunner(std::move(opts)).run(specs), serial);
}

// ---------------------------------------------------------------------
// Golden-trace replay through the DistRunner
// ---------------------------------------------------------------------

std::string
goldenDir()
{
    return std::string(TOKENSIM_TESTS_DIR) + "/golden";
}

/** Mirrors test_golden_traces.cc's reference config. */
SystemConfig
goldenConfig(ProtocolKind proto, const std::string &workload)
{
    SystemConfig cfg;
    cfg.numNodes = 8;
    cfg.protocol = proto;
    cfg.topology = proto == ProtocolKind::snooping ? "tree" : "torus";
    cfg.opsPerProcessor = 400;
    cfg.warmupOpsPerProcessor = 4400;
    cfg.seed = 20260701;
    cfg.attachAuditor = isTokenProtocol(proto);
    cfg.workload = WorkloadSpec::trace(goldenDir() + "/golden_" +
                                       workload + ".trace");
    return cfg;
}

std::map<std::string, std::string>
loadGoldenDigests()
{
    std::map<std::string, std::string> out;
    std::ifstream in(goldenDir() + "/golden_digests.txt");
    EXPECT_TRUE(in) << "missing golden digests";
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const std::size_t space = line.find(' ');
        if (space == std::string::npos)
            continue;
        out[line.substr(0, space)] = line.substr(space + 1);
    }
    return out;
}

TEST(DistGolden, ReplayThroughWorkersReproducesCommittedDigests)
{
    // The strongest cross-process oracle available: the committed
    // golden digests were produced by in-process serial replays, so
    // matching them from worker subprocesses proves the entire
    // pipeline — spec encode, worker-side System build, result
    // encode, streaming merge — adds exactly zero drift.
    const ProtocolKind protos[] = {
        ProtocolKind::snooping, ProtocolKind::directory,
        ProtocolKind::hammer,   ProtocolKind::tokenB,
        ProtocolKind::tokenD,   ProtocolKind::tokenM,
        ProtocolKind::tokenA,   ProtocolKind::tokenNull,
    };
    const char *const workloads[] = {"oltp", "producer-consumer",
                                     "ycsb", "tpcc"};

    std::vector<ExperimentSpec> specs;
    for (ProtocolKind proto : protos) {
        for (const char *w : workloads) {
            specs.push_back(ExperimentSpec{
                goldenConfig(proto, w), 1,
                std::string(protocolName(proto)) + "/" + w});
            // The sampled variants ride along (mirrors
            // test_golden_traces.cc): fast-forward spans and window
            // pooling must survive the worker round-trip bit for bit
            // too.
            SystemConfig sampled = goldenConfig(proto, w);
            sampled.warmupOpsPerProcessor = 0;
            sampled.opsPerProcessor = 0;
            sampled.sampling = SamplingSpec{1000, 200, 4};
            specs.push_back(ExperimentSpec{
                sampled, 1,
                "sampled-" + std::string(protocolName(proto)) + "/" +
                    w});
        }
    }

    const std::map<std::string, std::string> expected =
        loadGoldenDigests();
    ASSERT_EQ(expected.size(), specs.size());

    const std::vector<ExperimentResult> results =
        makeRunner(4).run(specs);
    ASSERT_EQ(results.size(), specs.size());
    for (const ExperimentResult &r : results) {
        SCOPED_TRACE(r.label);
        const auto it = expected.find(r.label);
        ASSERT_NE(it, expected.end());
        EXPECT_EQ(resultDigest(r), it->second)
            << "distributed replay drifted from the committed "
               "golden digest";
    }
}

TEST(DistDeterminism, RepeatedDistRunsAreIdentical)
{
    const std::vector<ExperimentSpec> specs = smallMatrix();
    const std::vector<std::string> a =
        digestsOf(makeRunner(3).run(specs));
    const std::vector<std::string> b =
        digestsOf(makeRunner(3).run(specs));
    EXPECT_EQ(a, b);
}

} // namespace
} // namespace tokensim
