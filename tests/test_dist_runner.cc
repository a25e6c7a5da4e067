/**
 * @file
 * Executor-determinism suite for the sweep runner: resultDigest()
 * equality across the serial loop and the ParallelRunner's thread and
 * forked-process executors at every width, on mixed preset+trace
 * sweeps and on the committed golden traces — plus crash-recovery
 * gates proving that every injected worker fault reassigns the shard
 * with no effect on final digests, checkpoints that resume across
 * executors, and failure reports that never depend on timing.
 *
 * This is the process-level extension of test_parallel_runner.cc's
 * contract (and of the paper's thesis): which thread or process runs
 * a shard, in what order, and through how many failures is
 * performance policy; the results are correctness, and must not move.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

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

std::vector<ExperimentResult>
serialRun(const std::vector<ExperimentSpec> &specs)
{
    std::vector<ExperimentResult> out;
    for (const ExperimentSpec &s : specs)
        out.push_back(runExperiment(s.cfg, s.seeds, s.label));
    return out;
}

/** The serial oracle for smallMatrix(), computed once per binary. */
const std::vector<ExperimentResult> &
smallOracle()
{
    static const std::vector<ExperimentResult> oracle =
        serialRun(smallMatrix());
    return oracle;
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

ParallelRunnerOptions
opts(int width, bool processes = true)
{
    ParallelRunnerOptions o;
    o.threads = width;
    o.processes = processes;
    return o;
}

ParallelRunner
processes(int workers)
{
    return ParallelRunner(opts(workers));
}

/** Run smallMatrix() on @p o and compare against the oracle. */
void
expectOracle(ParallelRunnerOptions o)
{
    expectSameDigests(ParallelRunner(std::move(o)).run(smallMatrix()),
                      smallOracle());
}

ParallelRunnerOptions
faulted(int workers, WorkerFault::Kind kind, int after)
{
    ParallelRunnerOptions o = opts(workers);
    o.workerFault.kind = kind;
    o.workerFault.afterShards = after;
    return o;
}

TEST(ProcessRunner, WidthResolvesToAtLeastOne)
{
    EXPECT_GE(ParallelRunner(opts(0)).threads(), 1);
    EXPECT_EQ(processes(3).threads(), 3);
}

TEST(ProcessRunner, EmptySpecListIsFine)
{
    EXPECT_TRUE(processes(2).run(std::vector<ExperimentSpec>{}).empty());
}

TEST(ProcessRunner, ZeroSeedsMatchesSerialZeroSeeds)
{
    SystemConfig cfg;
    cfg.numNodes = 4;
    cfg.opsPerProcessor = 50;
    const ExperimentSpec spec{cfg, 0, "empty"};
    const ExperimentResult serial = runExperiment(cfg, 0, "empty");
    const ExperimentResult dist = processes(2).run(spec);
    EXPECT_EQ(dist.ops, 0u);
    EXPECT_EQ(resultDigest(dist), resultDigest(serial));
}

TEST(ExecutorDeterminism, MatchesSerialOnBothExecutorsAtEveryWidth)
{
    // The differential gate: serial oracle vs threads at 1/2/4 vs
    // worker processes at 1/2/4 — every combination must produce the
    // same digest list, on a sweep that mixes synthetic presets and a
    // recorded-trace replay.
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
    const std::vector<ExperimentResult> serial = serialRun(specs);

    for (const bool procs : {false, true}) {
        for (int width : {1, 2, 4}) {
            SCOPED_TRACE(std::string(procs ? "processes=" : "threads=") +
                         std::to_string(width));
            expectSameDigests(
                ParallelRunner(opts(width, procs)).run(specs), serial);
        }
    }
}

TEST(ExecutorDeterminism, StreamingLinesArriveAndFinalOrderIsSpecOrder)
{
    // Streaming partial aggregates must not perturb the final merge,
    // on either executor: one progress line per shard, one completion
    // line per spec, and the completion lines carry exactly the
    // digests the run returns (the partial aggregate IS the final
    // aggregate).
    const std::vector<ExperimentSpec> specs = smallMatrix();
    std::size_t total_shards = 0;
    for (const ExperimentSpec &s : specs)
        total_shards += static_cast<std::size_t>(s.seeds);

    for (const bool procs : {false, true}) {
        SCOPED_TRACE(procs ? "processes" : "threads");
        std::vector<std::string> lines;
        ParallelRunnerOptions o = opts(3, procs);
        o.progress = [&](const std::string &line) {
            lines.push_back(line);
        };
        const std::vector<ExperimentResult> results =
            ParallelRunner(std::move(o)).run(specs);

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
}

TEST(ExecutorDeterminism, LowestFailedShardIsReportedOnBothExecutors)
{
    // Two design points fail. "bad-first" runs for a while before
    // exceeding maxTicks; "bad-second" throws at construction, so at
    // any width > 1 it fails first in wall-clock time. The report
    // must still name the lowest (spec, seed) shard, every time.
    SystemConfig slow;
    slow.numNodes = 8;
    slow.protocol = ProtocolKind::tokenB;
    slow.workload = "oltp";
    slow.opsPerProcessor = 4000;
    slow.maxTicks = nsToTicks(150'000);
    slow.seed = 5;
    SystemConfig instant;
    instant.topology = "moebius";
    instant.opsPerProcessor = 10;
    const std::vector<ExperimentSpec> specs{
        ExperimentSpec{slow, 2, "bad-first"},
        ExperimentSpec{instant, 2, "bad-second"},
    };

    for (const bool procs : {false, true}) {
        for (int width : {1, 4}) {
            SCOPED_TRACE(std::string(procs ? "processes=" : "threads=") +
                         std::to_string(width));
            try {
                ParallelRunner(opts(width, procs)).run(specs);
                ADD_FAILURE() << "failing sweep ran successfully";
            } catch (const std::runtime_error &e) {
                const std::string what = e.what();
                EXPECT_NE(what.find("\"bad-first\", seed 0"),
                          std::string::npos)
                    << what;
                EXPECT_NE(what.find("maxTicks"), std::string::npos)
                    << what;
            }
        }
    }
}

TEST(ProcessCrashRecovery, KilledWorkerShardIsRetriedWithSameDigests)
{
    // Worker 0 SIGKILLs itself after computing its second shard,
    // before replying — the parent must observe EOF with a job
    // outstanding, reassign the shard to a healthy worker, and merge
    // to exactly the serial oracle's digests.
    expectOracle(faulted(3, WorkerFault::Kind::crash, 1));
}

TEST(ProcessCrashRecovery, TruncatedResultFrameIsRetriedWithSameDigests)
{
    // Worker 0 replies to its first shard with half a result frame
    // and exits: the parent sees a partial frame then EOF — the
    // malformed-reply path — and must reassign, again bit-identical.
    expectOracle(faulted(2, WorkerFault::Kind::truncate, 0));
}

TEST(ProcessCrashRecovery, GarbageReplyFromAnyWorkerIndexIsRecovered)
{
    // Worker 2 — NOT worker 0, proving fault targeting reaches every
    // pool slot — replies to its first shard with 64 bytes of 0xee
    // (an invalid frame type) and exits. The parent's decoder throws,
    // the worker is killed and replaced, the shard reassigns.
    ParallelRunnerOptions o = faulted(3, WorkerFault::Kind::garbage, 0);
    o.workerFault.worker = 2;
    expectOracle(std::move(o));
}

TEST(ProcessCrashRecovery, HungWorkerIsKilledByDeadlineAndRecovered)
{
    // Worker 0 goes silent forever after its second shard — no exit,
    // no bytes, the one failure EOF can never report. The per-shard
    // deadline must SIGKILL it and reassign, digests untouched.
    bool sawHangKill = false;
    ParallelRunnerOptions o = faulted(3, WorkerFault::Kind::hang, 1);
    o.shardTimeoutMs = 1500;
    o.progress = [&](const std::string &l) {
        if (l.find("hung") != std::string::npos)
            sawHangKill = true;
    };
    expectOracle(std::move(o));
    EXPECT_TRUE(sawHangKill);
}

TEST(ProcessCrashRecovery, PartialFrameThenHangIsRecoveredByDeadline)
{
    // Half a result frame, then silence: the buffered prefix never
    // completes a frame, so only the deadline can unstick the sweep.
    ParallelRunnerOptions o =
        faulted(3, WorkerFault::Kind::partialFrame, 0);
    o.shardTimeoutMs = 1500;
    expectOracle(std::move(o));
}

TEST(ProcessCrashRecovery, RespawnedWorkerCrashingAgainIsStillRecovered)
{
    // Every process spawned into slot 0 — the initial worker AND each
    // respawn — crashes on its first shard. Slot 0 is handed the
    // sweep's first shard before any worker has run, so the initial
    // worker always crashes and is always respawned, however fast the
    // healthy slots are; each respawn that is handed a shard crashes
    // again. The respawn budget (2x workers = 6) absorbs the churn;
    // healthy slots 1 and 2 plus the retry budget carry the sweep to
    // the same digests.
    int respawns = 0;
    ParallelRunnerOptions o = faulted(3, WorkerFault::Kind::crash, 0);
    o.maxShardRetries = 20;
    o.workerFault.spawnGeneration = -1;   // every spawn
    o.progress = [&](const std::string &l) {
        if (l.find("respawned") != std::string::npos)
            ++respawns;
    };
    expectOracle(std::move(o));
    EXPECT_GE(respawns, 1);
}

TEST(ProcessCrashRecovery, TotalWorkerChurnDegradesToInProcessRun)
{
    // Every worker, every spawn, crashes before its first reply: no
    // shard can EVER complete in a subprocess. Once the respawn
    // budget (2x width) is spent and the pool empties, the parent
    // must finish the sweep in-process — same digests, not an
    // exception.
    bool degraded = false;
    ParallelRunnerOptions o = faulted(2, WorkerFault::Kind::crash, 0);
    o.maxShardRetries = 100;
    o.workerFault.worker = -1;            // every slot
    o.workerFault.spawnGeneration = -1;   // every spawn
    o.progress = [&](const std::string &l) {
        if (l.find("in-process") != std::string::npos)
            degraded = true;
    };
    expectOracle(std::move(o));
    EXPECT_TRUE(degraded);
}

TEST(ProcessRunner, ShardExceptionPropagatesFromWorker)
{
    // An impossible topology throws inside the worker subprocess; the
    // worker reports it as an error frame (a deterministic failure,
    // not a worker death) and the parent rethrows with the message.
    SystemConfig cfg;
    cfg.topology = "moebius";
    cfg.opsPerProcessor = 10;
    std::vector<ExperimentSpec> specs{ExperimentSpec{cfg, 2, "bad"}};
    try {
        processes(2).run(specs);
        FAIL() << "impossible topology ran successfully";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("bad"),
                  std::string::npos)
            << e.what();
    }
}

/** A stream no WorkloadSpec can name: it exists only as a factory. */
class HashedWorkload : public Workload
{
  public:
    explicit HashedWorkload(std::uint64_t state) : state_(state) {}

    WorkloadOp
    next() override
    {
        // SplitMix64: a store one time in four over 64 shared blocks.
        state_ += 0x9e3779b97f4a7c15ull;
        std::uint64_t z = state_;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        z ^= z >> 31;
        WorkloadOp op;
        op.op = (z & 3) == 0 ? MemOp::store : MemOp::load;
        op.addr = 0x40000 + 64 * ((z >> 8) % 64);
        return op;
    }

    std::string name() const override { return "hashed"; }

  private:
    std::uint64_t state_;
};

TEST(ProcessRunner, CustomWorkloadFactoryRunsAndMatchesSerial)
{
    // Forked workers inherit the spec list, factory and all, so a
    // spec the wire cannot encode still runs — bit-identically.
    SystemConfig cfg;
    cfg.numNodes = 8;
    cfg.protocol = ProtocolKind::tokenB;
    cfg.opsPerProcessor = 300;
    cfg.seed = 3;
    cfg.workloadFactory = [](NodeId node, int,
                             std::uint64_t seed)
        -> std::unique_ptr<Workload> {
        return std::make_unique<HashedWorkload>(seed * 1000 + node);
    };
    const std::vector<ExperimentSpec> specs{
        ExperimentSpec{cfg, 3, "hashed"}};
    const std::vector<ExperimentResult> serial = serialRun(specs);
    EXPECT_GT(serial.front().ops, 0u);
    for (int workers : {1, 3}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        expectSameDigests(processes(workers).run(specs), serial);
    }
}

TEST(ProcessRunner, RecordTraceIsRejectedUpFront)
{
    SystemConfig cfg;
    cfg.recordTrace = "test_traces/should_not_race.trace";
    std::vector<ExperimentSpec> specs{ExperimentSpec{cfg, 1, "r"}};
    EXPECT_THROW(processes(2).run(specs), std::invalid_argument);
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

ParallelRunnerOptions
ckptOpts(const std::string &path, int width, bool procs = true)
{
    ParallelRunnerOptions o = opts(width, procs);
    o.checkpointPath = path;
    return o;
}

/** Run with @p o and return the "checkpoint: restored" line. */
std::string
runCapturingRestore(ParallelRunnerOptions o)
{
    std::string line;
    o.progress = [&](const std::string &l) {
        if (l.rfind("checkpoint: restored", 0) == 0)
            line = l;
    };
    expectOracle(std::move(o));
    return line;
}

TEST(Checkpoint, ResumeFromCompleteAndTruncatedFilesIsIdentical)
{
    // The passes alternate executors and widths: a record does not
    // care which executor wrote it or which one restores it.
    const std::string path = ckptPath("resume");

    // Pass 1: fresh file, all 12 shards computed and recorded.
    expectOracle(ckptOpts(path, 3));
    const std::uintmax_t full_size = std::filesystem::file_size(path);

    // Pass 2: full restore — zero recomputation, identical digests,
    // and the restore line says so.
    const std::string restore_line =
        runCapturingRestore(ckptOpts(path, 2, false));
    EXPECT_NE(restore_line.find("restored 12/12"), std::string::npos)
        << restore_line;

    // Pass 3: chop the file mid-record (a crash mid-append). The torn
    // tail must drop, the missing shards recompute, digests hold.
    std::filesystem::resize_file(path, full_size * 2 / 3);
    const std::string torn_line =
        runCapturingRestore(ckptOpts(path, 3, false));
    EXPECT_NE(torn_line.find("torn tail"), std::string::npos)
        << torn_line;

    // Pass 4: pass 3's re-appended records must land where the next
    // resume can see them — a full restore again.
    const std::string again = runCapturingRestore(ckptOpts(path, 2));
    EXPECT_NE(again.find("restored 12/12"), std::string::npos) << again;
}

TEST(Checkpoint, CorruptTrailingByteReadsAsTornTail)
{
    const std::string path = ckptPath("corrupt");
    expectOracle(ckptOpts(path, 3));

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

    expectOracle(ckptOpts(path, 2));
}

TEST(Checkpoint, DifferentSweepFingerprintIsRejected)
{
    const std::vector<ExperimentSpec> specs = smallMatrix();
    const std::string path = ckptPath("mismatch");
    ParallelRunner(ckptOpts(path, 2)).run(specs);

    // One more seed per point is a different sweep: resuming against
    // the old file must throw the typed mismatch, not merge garbage.
    std::vector<ExperimentSpec> other = specs;
    for (ExperimentSpec &s : other)
        s.seeds += 1;
    EXPECT_THROW(ParallelRunner(ckptOpts(path, 2)).run(other),
                 CheckpointMismatch);

    // A non-checkpoint file is a typed CheckpointError.
    const std::string junk = ckptPath("junk");
    std::ofstream(junk, std::ios::binary) << "not a checkpoint file";
    EXPECT_THROW(ParallelRunner(ckptOpts(junk, 2, false)).run(specs),
                 CheckpointError);
}

TEST(Checkpoint, ReadErrorIsACheckpointErrorNotATornTail)
{
    // /proc/self/mem opens read-write, but reading offset 0 (never
    // mapped) fails with EIO: a real read error from a real path. It
    // must surface as a CheckpointError naming the failed read —
    // never as an empty file whose "torn tail" gets truncated away.
    const char *mem = "/proc/self/mem";
    const int fd = ::open(mem, O_RDWR | O_CLOEXEC);
    char byte;
    const bool readFails = fd >= 0 && ::read(fd, &byte, 1) < 0;
    if (fd >= 0)
        ::close(fd);
    if (!readFails)
        GTEST_SKIP() << mem << " is not readable-with-EIO here";

    for (const bool procs : {false, true}) {
        SCOPED_TRACE(procs ? "processes" : "threads");
        try {
            ParallelRunner(ckptOpts(mem, 2, procs)).run(smallMatrix());
            ADD_FAILURE() << "an unreadable checkpoint was accepted";
        } catch (const CheckpointError &e) {
            EXPECT_NE(std::string(e.what()).find("cannot read"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(Checkpoint, CustomWorkloadFactoryCannotBeCheckpointed)
{
    SystemConfig cfg;
    cfg.workloadFactory = [](NodeId, int,
                             std::uint64_t) -> std::unique_ptr<Workload> {
        return std::make_unique<HashedWorkload>(1);
    };
    const std::vector<ExperimentSpec> specs{ExperimentSpec{cfg, 1, "f"}};
    const std::string path = ckptPath("factory");
    EXPECT_THROW(ParallelRunner(ckptOpts(path, 2, false)).run(specs),
                 std::invalid_argument);
    EXPECT_FALSE(std::filesystem::exists(path));
}

/**
 * The end-to-end crash gate: a whole runner — parent and any workers
 * — is SIGKILLed mid-sweep on one executor, then the sweep reruns
 * against the surviving checkpoint on @p resume_procs' executor. The
 * resume must restore whatever was recorded (any torn trailing record
 * dropped), recompute the rest, and match the serial oracle exactly.
 */
void
killMidSweepThenResume(const std::string &name, bool victim_procs,
                       bool resume_procs)
{
    const std::string path = ckptPath(name);

    int progress_pipe[2];
    ASSERT_EQ(::pipe(progress_pipe), 0);
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        // Victim process: run the checkpointed sweep, ticking a byte
        // into the pipe per completed shard so the parent can kill us
        // provably mid-sweep. Only _exit from here — this is a forked
        // copy of the test binary.
        ::close(progress_pipe[0]);
        ParallelRunnerOptions o = ckptOpts(path, 2, victim_procs);
        const int wfd = progress_pipe[1];
        o.progress = [wfd](const std::string &l) {
            if (l.rfind("shard ", 0) == 0)
                (void)!::write(wfd, "x", 1);
        };
        try {
            ParallelRunner(std::move(o)).run(smallMatrix());
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
    const std::string restored =
        runCapturingRestore(ckptOpts(path, 3, resume_procs));
    EXPECT_NE(restored.find("restored"), std::string::npos) << restored;
}

TEST(Checkpoint, SigkilledSweepResumesBitIdentically)
{
    killMidSweepThenResume("sigkill", true, true);
}

TEST(Checkpoint, ThreadSweepKilledResumesUnderProcesses)
{
    killMidSweepThenResume("threads_to_procs", false, true);
}

TEST(Checkpoint, ProcessSweepKilledResumesUnderThreads)
{
    killMidSweepThenResume("procs_to_threads", true, false);
}

// ---------------------------------------------------------------------
// Golden-trace replay through worker processes
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

TEST(ProcessGolden, ReplayThroughWorkersReproducesCommittedDigests)
{
    // The strongest cross-process oracle available: the committed
    // golden digests were produced by in-process serial replays, so
    // matching them from worker subprocesses proves the entire
    // pipeline — worker-side System build, result encode, streaming
    // merge — adds exactly zero drift.
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
        processes(4).run(specs);
    ASSERT_EQ(results.size(), specs.size());
    for (const ExperimentResult &r : results) {
        SCOPED_TRACE(r.label);
        const auto it = expected.find(r.label);
        ASSERT_NE(it, expected.end());
        EXPECT_EQ(resultDigest(r), it->second)
            << "process replay drifted from the committed golden "
               "digest";
    }
}

TEST(ExecutorDeterminism, RepeatedProcessRunsAreIdentical)
{
    const std::vector<ExperimentSpec> specs = smallMatrix();
    EXPECT_EQ(digestsOf(processes(3).run(specs)),
              digestsOf(processes(3).run(specs)));
}

} // namespace
} // namespace tokensim
