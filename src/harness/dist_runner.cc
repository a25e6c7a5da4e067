#include "harness/dist_runner.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstring>
#include <deque>
#include <memory>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "harness/argparse.hh"
#include "harness/wire.hh"
#include "sim/stats.hh"

namespace tokensim {

namespace {

int
defaultWorkers()
{
    if (const int v = envInt("TOKENSIM_WORKERS", 0, 0); v >= 1)
        return v;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? static_cast<int>(hw) : 1;
}

/** One unit of distributed work: seed @p seed of spec @p spec. */
struct Shard
{
    std::size_t spec;
    int seed;
};

/** Parent-side state of one worker: a forked/exec'd child on a pipe pair. */
struct WorkerProc
{
    pid_t pid = -1;
    int in = -1;             ///< parent writes job frames here
    int out = -1;            ///< parent reads replies here
    std::string rbuf;        ///< partially received reply bytes
    std::size_t rpos = 0;
    bool alive = false;
    bool helloSeen = false;
    long shard = -1;         ///< outstanding shard index, -1 if idle
    long long assignMs = 0;  ///< when the outstanding shard was sent
};

/** Monotonic milliseconds, for shard deadlines. */
long long
monoMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Slurp an fd from its current offset to EOF. */
std::string
readAll(int fd)
{
    std::string data;
    char chunk[1 << 16];
    for (;;) {
        const ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n > 0) {
            data.append(chunk, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        return data;
    }
}

/**
 * A dead worker's write end raises SIGPIPE in the parent; we want the
 * EPIPE errno (handled as "worker died, reassign") instead of process
 * death. Scoped so library users' dispositions are restored.
 */
struct SigpipeIgnore
{
    struct sigaction old;

    SigpipeIgnore()
    {
        struct sigaction sa;
        std::memset(&sa, 0, sizeof(sa));
        sa.sa_handler = SIG_IGN;
        sigemptyset(&sa.sa_mask);
        sigaction(SIGPIPE, &sa, &old);
    }

    ~SigpipeIgnore() { sigaction(SIGPIPE, &old, nullptr); }
};

bool
writeAll(int fd, const std::string &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n =
            ::write(fd, data.data() + off, data.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/**
 * Fork (and optionally exec) one worker. @p parent_fds lists every
 * parent-side pipe fd currently open: the child must close them all,
 * or a sibling's death would never read as EOF in the parent (the
 * child's copy of the write end keeps the pipe alive).
 */
WorkerProc
spawnWorker(const std::vector<std::string> &worker_argv,
            const DistWorkerFault &fault, std::vector<int> &parent_fds)
{
    int job[2];
    int res[2];
    if (::pipe(job) != 0)
        throw std::runtime_error("DistRunner: pipe() failed");
    if (::pipe(res) != 0) {
        ::close(job[0]);
        ::close(job[1]);
        throw std::runtime_error("DistRunner: pipe() failed");
    }

    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(job[0]);
        ::close(job[1]);
        ::close(res[0]);
        ::close(res[1]);
        throw std::runtime_error("DistRunner: fork() failed");
    }

    if (pid == 0) {
        // Child. Only _exit() from here: no atexit handlers, no
        // flushing of stdio buffers inherited mid-write.
        ::close(job[1]);
        ::close(res[0]);
        for (int fd : parent_fds)
            ::close(fd);
        if (!worker_argv.empty()) {
            ::dup2(job[0], 0);
            ::dup2(res[1], 1);
            if (job[0] > 2)
                ::close(job[0]);
            if (res[1] > 2)
                ::close(res[1]);
            std::vector<char *> argv;
            argv.reserve(worker_argv.size() + 1);
            for (const std::string &a : worker_argv)
                argv.push_back(const_cast<char *>(a.c_str()));
            argv.push_back(nullptr);
            ::execv(argv[0], argv.data());
            _exit(127);
        }
        _exit(runDistWorker(job[0], res[1], fault));
    }

    ::close(job[0]);
    ::close(res[1]);
    // Replies are drained opportunistically from a poll loop.
    const int fl = ::fcntl(res[0], F_GETFL, 0);
    ::fcntl(res[0], F_SETFL, fl | O_NONBLOCK);
    parent_fds.push_back(job[1]);
    parent_fds.push_back(res[0]);

    WorkerProc w;
    w.pid = pid;
    w.in = job[1];
    w.out = res[0];
    w.alive = true;
    return w;
}

void
closeAndReap(WorkerProc &w, std::vector<int> &parent_fds)
{
    if (!w.alive)
        return;
    w.alive = false;
    for (int fd : {w.in, w.out}) {
        ::close(fd);
        parent_fds.erase(
            std::remove(parent_fds.begin(), parent_fds.end(), fd),
            parent_fds.end());
    }
    w.in = w.out = -1;
    int status = 0;
    ::waitpid(w.pid, &status, 0);
}

} // namespace

DistRunner::DistRunner(DistRunnerOptions opts)
    : opts_(std::move(opts)),
      workers_(opts_.workers >= 1 ? opts_.workers : defaultWorkers())
{}

std::vector<ExperimentResult>
DistRunner::run(const std::vector<ExperimentSpec> &specs) const
{
    for (const ExperimentSpec &s : specs) {
        if (s.cfg.workloadFactory) {
            throw std::invalid_argument(
                "DistRunner: spec '" + s.label +
                "' has a custom workloadFactory, which cannot be "
                "shipped to a worker process (use a WorkloadSpec "
                "preset or trace)");
        }
        if (!s.cfg.recordTrace.empty()) {
            throw std::invalid_argument(
                "DistRunner: spec '" + s.label +
                "' sets recordTrace; worker processes would race on "
                "the output file (record serially instead)");
        }
    }

    // Flatten the matrix into shards; raw results land in a fixed
    // (spec, seed)-indexed grid so the merge ignores completion order
    // — the same grid discipline as ParallelRunner.
    std::vector<Shard> shards;
    std::vector<std::vector<System::Results>> raw(specs.size());
    std::vector<ExperimentResult> out(specs.size());
    std::vector<std::size_t> remainingSeeds(specs.size());
    std::vector<std::size_t> shardBase(specs.size(), 0);
    std::vector<char> specErrored(specs.size(), 0);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const int seeds = std::max(specs[i].seeds, 0);
        shardBase[i] = shards.size();
        raw[i].resize(static_cast<std::size_t>(seeds));
        remainingSeeds[i] = static_cast<std::size_t>(seeds);
        for (int s = 0; s < seeds; ++s)
            shards.push_back(Shard{i, s});
        if (seeds == 0)
            out[i] = aggregateResults(raw[i], specs[i].label);
    }
    if (shards.empty())
        return out;

    const auto emit = [&](const std::string &line) {
        if (opts_.progress)
            opts_.progress(line);
    };

    SigpipeIgnore sigpipe_guard;
    std::vector<int> parentFds;
    std::vector<WorkerProc> pool;

    std::deque<std::size_t> pending;
    std::vector<int> retries(shards.size(), 0);
    std::size_t resolved = 0;
    std::exception_ptr firstError;

    // Incremental fold: a shard's raw results drop into the grid the
    // moment its reply arrives (or is restored from the checkpoint),
    // and a design point aggregates (and streams its partial line) as
    // soon as its last seed lands — the aggregate only ever reads the
    // grid in seed order, so computing it early is bit-identical to
    // computing it at the end.
    const auto resolveShard = [&](std::size_t sh, const char *how) {
        ++resolved;
        const std::size_t spec = shards[sh].spec;
        emit(strformat("shard %zu/%zu %s (spec %zu \"%s\" seed %d)",
                       resolved, shards.size(), how, spec,
                       specs[spec].label.c_str(), shards[sh].seed));
        if (--remainingSeeds[spec] == 0 && !specErrored[spec]) {
            out[spec] = aggregateResults(raw[spec], specs[spec].label);
            emit(strformat("spec %zu \"%s\" complete: %s", spec,
                           specs[spec].label.c_str(),
                           resultDigest(out[spec]).c_str()));
        }
    };

    // ----- Checkpoint: restore completed shards, open for append ---
    int ckptFd = -1;
    struct FdGuard
    {
        int &fd;
        ~FdGuard()
        {
            if (fd >= 0)
                ::close(fd);
        }
    } ckptGuard{ckptFd};

    std::vector<char> restored(shards.size(), 0);
    if (!opts_.checkpointPath.empty()) {
        const std::string &path = opts_.checkpointPath;
        const std::uint64_t fp = sweepFingerprint(specs);
        ckptFd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
        if (ckptFd >= 0) {
            // Resume. Header first (bad magic/version is fatal, and a
            // foreign sweep's fingerprint must never merge), then
            // records until the first torn or corrupt one — an
            // append-only writer can only damage the tail, so
            // everything before it is trusted and everything from it
            // on is dropped and re-run.
            const std::string data = readAll(ckptFd);
            std::size_t pos = 0;
            const CheckpointHeader hdr =
                decodeCheckpointHeader(data, pos);
            if (hdr.fingerprint != fp) {
                throw CheckpointMismatch(strformat(
                    "%s was recorded for a different sweep "
                    "(fingerprint %016llx, this sweep is %016llx): "
                    "its specs, seed counts, or wire format differ",
                    path.c_str(),
                    static_cast<unsigned long long>(hdr.fingerprint),
                    static_cast<unsigned long long>(fp)));
            }
            std::size_t validEnd = pos;
            std::size_t nrestored = 0;
            CheckpointRecord rec;
            try {
                while (tryExtractCheckpointRecord(data, pos, rec)) {
                    if (rec.spec >= specs.size() ||
                        rec.seed >= raw[rec.spec].size()) {
                        throw WireError(
                            "checkpoint shard key out of range");
                    }
                    validEnd = pos;
                    const std::size_t sh =
                        shardBase[rec.spec] +
                        static_cast<std::size_t>(rec.seed);
                    if (!restored[sh]) {
                        raw[rec.spec][rec.seed] =
                            std::move(rec.results);
                        restored[sh] = 1;
                        ++nrestored;
                    }
                }
            } catch (const WireError &) {
                // A complete-but-corrupt trailing record gets the
                // same treatment as an incomplete one: torn tail.
            }
            const std::size_t dropped = data.size() - validEnd;
            if (dropped) {
                // Truncate the torn tail on disk too — records
                // appended after it would be unreachable to the next
                // resume.
                (void)::ftruncate(ckptFd,
                                  static_cast<off_t>(validEnd));
            }
            ::lseek(ckptFd, static_cast<off_t>(validEnd), SEEK_SET);
            std::string tail;
            if (dropped) {
                tail = strformat(" (dropped a %zu-byte torn tail)",
                                 dropped);
            }
            emit(strformat("checkpoint: restored %zu/%zu shards "
                           "from %s%s",
                           nrestored, shards.size(), path.c_str(),
                           tail.c_str()));
        } else {
            // Fresh checkpoint: the header appears atomically via
            // write + fsync + rename, so a run killed here never
            // leaves a headerless file behind.
            const std::string tmp = path + ".tmp";
            ckptFd = ::open(tmp.c_str(),
                            O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC,
                            0644);
            if (ckptFd < 0) {
                throw std::runtime_error(
                    "DistRunner: cannot create checkpoint " + tmp +
                    ": " + std::strerror(errno));
            }
            if (!writeAll(ckptFd,
                          encodeCheckpointHeader(fp, shards.size())) ||
                ::fsync(ckptFd) != 0 ||
                ::rename(tmp.c_str(), path.c_str()) != 0) {
                throw std::runtime_error(
                    "DistRunner: cannot initialize checkpoint " +
                    path + ": " + std::strerror(errno));
            }
            emit(strformat("checkpoint: recording %zu shards to %s",
                           shards.size(), path.c_str()));
        }
        // Forked children must close the checkpoint fd like any other
        // parent-side fd (exec'd ones drop it via O_CLOEXEC).
        parentFds.push_back(ckptFd);
    }

    const auto ckptAppend = [&](std::size_t sh,
                                const System::Results &res) {
        if (ckptFd < 0)
            return;
        const Shard &s = shards[sh];
        if (!writeAll(ckptFd,
                      encodeCheckpointRecord(
                          s.spec,
                          static_cast<std::uint64_t>(s.seed), res))) {
            // A full disk must not kill a sweep that would otherwise
            // finish: drop checkpointing, keep computing.
            emit(strformat("checkpoint: write to %s failed (%s); "
                           "further shards will not be checkpointed",
                           opts_.checkpointPath.c_str(),
                           std::strerror(errno)));
            parentFds.erase(std::remove(parentFds.begin(),
                                        parentFds.end(), ckptFd),
                            parentFds.end());
            ::close(ckptFd);
            ckptFd = -1;
        }
    };

    // Restored shards resolve immediately, in shard order (so the
    // emitted lines and partial aggregates are deterministic); the
    // rest form the work queue.
    for (std::size_t k = 0; k < shards.size(); ++k) {
        if (restored[k])
            resolveShard(k, "restored");
        else
            pending.push_back(k);
    }
    if (pending.empty())
        return out;   // fully restored: nothing to spawn

    const std::size_t nworkers = std::min<std::size_t>(
        static_cast<std::size_t>(workers_), pending.size());
    const int respawnBudget =
        opts_.maxWorkerRespawns >= 0
            ? opts_.maxWorkerRespawns
            : 2 * static_cast<int>(nworkers);
    int respawnsUsed = 0;
    int workerDeaths = 0;
    std::vector<int> spawnGen(nworkers, 0);
    std::vector<long> maxObservedMs(specs.size(), -1);
    std::unique_ptr<System> parentArena;   // in-process degradation

    // Fault injection (tests): applies only to forked workers whose
    // (slot, spawn generation) the fault targets.
    const auto faultFor = [&](std::size_t slot,
                              int gen) -> DistWorkerFault {
        if (!opts_.workerArgv.empty())
            return DistWorkerFault{};   // exec'd workers start clean
        const DistWorkerFault &f = opts_.workerFault;
        if ((f.worker >= 0 &&
             static_cast<std::size_t>(f.worker) != slot) ||
            (f.spawnGeneration >= 0 && f.spawnGeneration != gen))
            return DistWorkerFault{};
        return f;
    };

    // A failed shard goes back to the FRONT of the queue: it is the
    // sweep's oldest outstanding work and downstream consumers wait
    // on whole design points, not individual seeds.
    const auto failShard = [&](long sh) {
        if (sh < 0)
            return;
        if (++retries[sh] > opts_.maxShardRetries) {
            // The same shard keeps taking workers down: a shard
            // poison, not worker flakiness. Surface the first
            // recorded error if any shard reported one.
            if (firstError)
                std::rethrow_exception(firstError);
            const Shard &s = shards[static_cast<std::size_t>(sh)];
            throw std::runtime_error(strformat(
                "DistRunner: shard (spec \"%s\", seed %d) failed %d "
                "times (workers keep dying on it); giving up",
                specs[s.spec].label.c_str(), s.seed, retries[sh]));
        }
        pending.push_front(static_cast<std::size_t>(sh));
    };

    const auto workerDied = [&](std::size_t slot) {
        WorkerProc &w = pool[slot];
        if (!w.alive)
            return;
        const long sh = w.shard;
        w.shard = -1;
        closeAndReap(w, parentFds);
        ++workerDeaths;
        failShard(sh);
        // Replace the dead worker while the churn budget lasts: a
        // sweep should survive flaky workers without shrinking its
        // parallelism (and tests can fault the replacement too, via
        // DistWorkerFault::spawnGeneration).
        if (resolved < shards.size() &&
            respawnsUsed < respawnBudget) {
            ++respawnsUsed;
            const int gen = ++spawnGen[slot];
            pool[slot] = spawnWorker(opts_.workerArgv,
                                     faultFor(slot, gen), parentFds);
            emit(strformat("worker %zu died (death %d); respawned "
                           "(%d/%d respawns used)",
                           slot, workerDeaths, respawnsUsed,
                           respawnBudget));
        } else if (resolved < shards.size()) {
            emit(strformat(
                "worker %zu died (death %d); respawn budget spent",
                slot, workerDeaths));
        }
    };

    const auto assignIdle = [&]() {
        for (std::size_t k = 0; k < pool.size(); ++k) {
            WorkerProc &w = pool[k];
            if (!w.alive || w.shard >= 0 || pending.empty())
                continue;
            const std::size_t sh = pending.front();
            pending.pop_front();
            const Shard &s = shards[sh];
            const SystemConfig &cfg = specs[s.spec].cfg;
            std::string job;
            appendFrame(job, FrameType::job,
                        encodeJobPayload(
                            sh, cfg,
                            cfg.seed +
                                static_cast<std::uint64_t>(s.seed)));
            w.shard = static_cast<long>(sh);
            w.assignMs = monoMs();
            if (!writeAll(w.in, job))
                workerDied(k);
        }
    };

    /**
     * The live deadline for a shard of @p spec: fixed when
     * configured, derived from the slowest completed shard of the
     * SAME design point in auto mode (no estimate until that spec's
     * first completion), -1 when detection is off. Per-spec because
     * shard cost is a property of the design point — at kilonode
     * geometries a broadcast protocol runs 100x longer than a
     * directory one in the same sweep, and a global estimate seeded
     * by the cheap spec would kill every healthy shard of the
     * expensive one. Seeds of one spec are near-identical in cost,
     * so 10x its own slowest shard stays a safe hang bound.
     */
    const auto currentDeadlineMs = [&](std::size_t spec) -> long {
        if (opts_.shardTimeoutMs > 0)
            return opts_.shardTimeoutMs;
        if (opts_.shardTimeoutMs < 0 || maxObservedMs[spec] < 0)
            return -1;
        return std::max<long>(10000, 10 * maxObservedMs[spec]);
    };

    /** currentDeadlineMs for the shard @p w is running, -1 if idle. */
    const auto workerDeadlineMs = [&](const WorkerProc &w) -> long {
        if (w.shard < 0)
            return -1;
        return currentDeadlineMs(
            shards[static_cast<std::size_t>(w.shard)].spec);
    };

    /** Decode every complete frame buffered for @p w. Throws
     *  WireError on a malformed or out-of-protocol reply. */
    const auto processBuffer = [&](WorkerProc &w) {
        Frame f;
        while (w.alive && tryExtractFrame(w.rbuf, w.rpos, f)) {
            switch (f.type) {
              case FrameType::hello:
                checkHelloPayload(f.payload);
                w.helloSeen = true;
                break;
              case FrameType::result: {
                if (!w.helloSeen || w.shard < 0)
                    throw WireError("unexpected result frame");
                const ResultFrame rf = decodeResultPayload(f.payload);
                if (rf.jobId !=
                    static_cast<std::uint64_t>(w.shard))
                    throw WireError("result frame for wrong job");
                const std::size_t sh =
                    static_cast<std::size_t>(w.shard);
                const Shard &s = shards[sh];
                raw[s.spec][static_cast<std::size_t>(s.seed)] =
                    rf.results;
                w.shard = -1;
                maxObservedMs[s.spec] = std::max<long>(
                    maxObservedMs[s.spec],
                    static_cast<long>(monoMs() - w.assignMs));
                ckptAppend(sh, rf.results);
                resolveShard(sh, "done");
                break;
              }
              case FrameType::error: {
                // The shard itself threw (e.g. an invalid config) —
                // a deterministic failure every worker would repeat,
                // so record it instead of reassigning, mirroring
                // ParallelRunner's first-exception semantics.
                if (!w.helloSeen || w.shard < 0)
                    throw WireError("unexpected error frame");
                const ErrorFrame ef = decodeErrorPayload(f.payload);
                if (ef.jobId !=
                    static_cast<std::uint64_t>(w.shard))
                    throw WireError("error frame for wrong job");
                const std::size_t sh =
                    static_cast<std::size_t>(w.shard);
                const Shard &s = shards[sh];
                specErrored[s.spec] = 1;
                if (!firstError) {
                    firstError = std::make_exception_ptr(
                        std::runtime_error(
                            "DistRunner: shard (spec \"" +
                            specs[s.spec].label + "\", seed " +
                            std::to_string(s.seed) +
                            ") failed in worker: " + ef.message));
                }
                w.shard = -1;
                resolveShard(sh, "errored");
                break;
              }
              default:
                throw WireError("unexpected frame type from worker");
            }
        }
        if (w.rpos) {
            w.rbuf.erase(0, w.rpos);
            w.rpos = 0;
        }
    };

    const auto serviceWorker = [&](std::size_t slot) {
        WorkerProc &w = pool[slot];
        bool eof = false;
        for (;;) {
            char chunk[1 << 16];
            const ssize_t n = ::read(w.out, chunk, sizeof(chunk));
            if (n > 0) {
                w.rbuf.append(chunk, static_cast<std::size_t>(n));
                continue;
            }
            if (n == 0) {
                eof = true;
                break;
            }
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            eof = true;
            break;
        }
        try {
            processBuffer(w);
        } catch (const WireError &e) {
            ::kill(w.pid, SIGKILL);
            if (!w.helloSeen) {
                // Out of protocol before a valid hello: not a flaky
                // worker but a wrong or version-skewed binary, which
                // every reassignment would hit identically — reject
                // the run with the actionable message (e.g. "version
                // mismatch") instead of burning the retry budget.
                closeAndReap(w, parentFds);
                throw std::runtime_error(
                    std::string(
                        "DistRunner: worker handshake failed: ") +
                    e.what());
            }
            // Malformed reply after a good handshake: the worker is
            // corrupt, not slow. Its shard reassigns to a healthy
            // worker.
            workerDied(slot);
            return;
        }
        if (eof)
            workerDied(slot);
    };

    try {
        // Slots are fixed; a dead worker respawns IN PLACE.
        pool.reserve(nworkers);
        for (std::size_t k = 0; k < nworkers; ++k) {
            pool.push_back(spawnWorker(opts_.workerArgv, faultFor(k, 0),
                                       parentFds));
        }

        while (resolved < shards.size()) {
            assignIdle();

            std::vector<struct pollfd> fds;
            std::vector<std::size_t> who;
            for (std::size_t k = 0; k < pool.size(); ++k) {
                if (!pool[k].alive)
                    continue;
                struct pollfd p;
                p.fd = pool[k].out;
                p.events = POLLIN;
                p.revents = 0;
                fds.push_back(p);
                who.push_back(k);
            }

            if (fds.empty()) {
                // Respawn budget spent and the pool is gone, but the
                // sweep is not: degrade to in-process execution. The
                // results are identical by construction — a shard's
                // outcome depends only on (spec, seed).
                emit(strformat(
                    "worker pool exhausted after %d deaths; running "
                    "%zu remaining shards in-process",
                    workerDeaths, pending.size()));
                while (!pending.empty()) {
                    const std::size_t sh = pending.front();
                    pending.pop_front();
                    const Shard &s = shards[sh];
                    const SystemConfig &cfg = specs[s.spec].cfg;
                    try {
                        const System::Results res = runOnceReusing(
                            parentArena, cfg,
                            cfg.seed +
                                static_cast<std::uint64_t>(s.seed));
                        raw[s.spec]
                           [static_cast<std::size_t>(s.seed)] = res;
                        ckptAppend(sh, res);
                    } catch (const std::exception &e) {
                        specErrored[s.spec] = 1;
                        if (!firstError) {
                            firstError = std::make_exception_ptr(
                                std::runtime_error(strformat(
                                    "DistRunner: shard (spec \"%s\", "
                                    "seed %d) failed in-process: %s",
                                    specs[s.spec].label.c_str(),
                                    s.seed, e.what())));
                        }
                    }
                    resolveShard(sh, "done");
                }
                break;
            }

            // Poll no longer than the nearest shard deadline.
            int timeoutMs = -1;
            {
                const long long now = monoMs();
                long long nearest = LLONG_MAX;
                for (const std::size_t k : who) {
                    const long deadline = workerDeadlineMs(pool[k]);
                    if (deadline > 0) {
                        nearest = std::min(
                            nearest, pool[k].assignMs + deadline - now);
                    }
                }
                if (nearest != LLONG_MAX) {
                    timeoutMs = static_cast<int>(std::min<long long>(
                        std::max<long long>(nearest, 0), INT_MAX));
                }
            }

            const int rc =
                ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                       timeoutMs);
            if (rc < 0) {
                if (errno == EINTR)
                    continue;
                throw std::runtime_error(
                    std::string("DistRunner: poll(): ") +
                    std::strerror(errno));
            }
            for (std::size_t i = 0; i < fds.size(); ++i) {
                if (fds[i].revents)
                    serviceWorker(who[i]);
            }

            // Reap hung workers: alive, a shard outstanding, and
            // silent past the deadline. SIGKILL converts "hung" into
            // the crash path — reassign + respawn within budget.
            const long long now = monoMs();
            for (std::size_t k = 0; k < pool.size(); ++k) {
                const WorkerProc &w = pool[k];
                if (!w.alive || w.shard < 0)
                    continue;
                const long deadline = workerDeadlineMs(w);
                if (deadline <= 0 || now - w.assignMs < deadline)
                    continue;
                const Shard &s =
                    shards[static_cast<std::size_t>(w.shard)];
                emit(strformat(
                    "worker %zu hung on shard (spec \"%s\" seed %d) "
                    "for %lld ms (deadline %ld ms); killing",
                    k, specs[s.spec].label.c_str(), s.seed,
                    static_cast<long long>(now - w.assignMs),
                    deadline));
                ::kill(w.pid, SIGKILL);
                workerDied(k);
            }
        }

        // Clean shutdown: EOF on each worker's job pipe makes its
        // serve loop return 0.
        for (WorkerProc &w : pool)
            closeAndReap(w, parentFds);
    } catch (...) {
        for (WorkerProc &w : pool) {
            if (w.alive)
                ::kill(w.pid, SIGKILL);
            closeAndReap(w, parentFds);
        }
        throw;
    }

    if (firstError)
        std::rethrow_exception(firstError);
    return out;
}

ExperimentResult
DistRunner::run(const ExperimentSpec &spec) const
{
    return run(std::vector<ExperimentSpec>{spec}).front();
}

std::vector<ExperimentResult>
runExperimentsDist(const std::vector<ExperimentSpec> &specs,
                   int workers)
{
    DistRunnerOptions opts;
    opts.workers = workers;
    return DistRunner(std::move(opts)).run(specs);
}

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

int
runDistWorker(int in_fd, int out_fd, const DistWorkerFault &fault)
{
    std::string hello;
    appendFrame(hello, FrameType::hello, encodeHelloPayload());
    if (!writeAll(out_fd, hello))
        return 2;

    // Reusable System arena, exactly like a ParallelRunner worker:
    // consecutive shards whose configs share a structural shape reset
    // in place. Reset is bit-identical to fresh construction, so the
    // reuse policy cannot leak into results.
    std::unique_ptr<System> arena;
    std::string buf;
    std::size_t pos = 0;
    int served = 0;

    for (;;) {
        Frame f;
        bool have = false;
        try {
            have = tryExtractFrame(buf, pos, f);
        } catch (const WireError &) {
            return 2;   // corrupt input stream: parent-side bug
        }
        if (!have) {
            if (pos) {
                buf.erase(0, pos);
                pos = 0;
            }
            char chunk[1 << 16];
            const ssize_t n = ::read(in_fd, chunk, sizeof(chunk));
            if (n == 0)
                return 0;   // EOF: sweep complete, clean shutdown
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                return 2;
            }
            buf.append(chunk, static_cast<std::size_t>(n));
            continue;
        }

        if (f.type != FrameType::job)
            return 2;
        std::string reply;
        std::uint64_t job_id = 0;
        try {
            const JobFrame job = decodeJobPayload(f.payload);
            job_id = job.jobId;
            const System::Results res =
                runOnceReusing(arena, job.cfg, job.seed);
            appendFrame(reply, FrameType::result,
                        encodeResultPayload(job.jobId, res));
        } catch (const WireError &) {
            return 2;   // malformed job frame
        } catch (const std::exception &e) {
            appendFrame(reply, FrameType::error,
                        encodeErrorPayload(job_id, e.what()));
        } catch (...) {
            appendFrame(reply, FrameType::error,
                        encodeErrorPayload(job_id, "unknown error"));
        }

        if (fault.crashAfterShards >= 0 &&
            served == fault.crashAfterShards) {
            ::raise(SIGKILL);
        }
        if (fault.truncateAfterShards >= 0 &&
            served == fault.truncateAfterShards) {
            writeAll(out_fd, reply.substr(0, reply.size() / 2));
            return 3;
        }
        if (fault.hangAfterShards >= 0 &&
            served == fault.hangAfterShards) {
            // Alive but silent: the shape only a deadline can catch.
            for (;;)
                ::pause();
        }
        if (fault.partialFrameAfterShards >= 0 &&
            served == fault.partialFrameAfterShards) {
            writeAll(out_fd, reply.substr(0, reply.size() / 2));
            for (;;)
                ::pause();
        }
        if (fault.garbageAfterShards >= 0 &&
            served == fault.garbageAfterShards) {
            // 0xee is not a frame type: the parent's decoder throws.
            writeAll(out_fd, std::string(64, '\xee'));
            return 3;
        }
        if (!writeAll(out_fd, reply))
            return 2;
        ++served;
    }
}

} // namespace tokensim
