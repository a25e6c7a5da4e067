#include "harness/parallel_runner.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "harness/argparse.hh"
#include "harness/wire.hh"
#include "sim/stats.hh"

namespace tokensim {

namespace {

int
defaultThreads()
{
    if (const int v = envInt("TOKENSIM_THREADS", 0, 0); v >= 1)
        return v;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? static_cast<int>(hw) : 1;
}

/** One unit of work: seed @p seed of spec @p spec. */
struct Shard
{
    std::size_t spec;
    int seed;
};

/**
 * Per-worker reusable System arena. Consecutive shards a worker pulls
 * reuse one System via System::reset() whenever the config shape
 * matches (always true for seeds of the same spec, and common across
 * the specs of one sweep), so the dominant per-shard cost — building
 * caches, queues, and network state — is paid once per worker, not
 * once per shard. Results stay bit-identical to fresh construction;
 * the determinism tests enforce it.
 */
struct WorkerArena
{
    std::unique_ptr<System> sys;
    std::size_t lastSpec = ~std::size_t{0};
};

/** Monotonic milliseconds, for shard deadlines. */
long long
monoMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

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
 * Slurp a checkpoint from its current offset to EOF. A failed read
 * throws: returning the prefix would make restore treat the unread
 * rest as a torn tail and truncate valid records off the disk.
 */
std::string
readCheckpoint(int fd, const std::string &path)
{
    std::string data;
    char chunk[1 << 16];
    for (;;) {
        const ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n > 0) {
            data.append(chunk, static_cast<std::size_t>(n));
            continue;
        }
        if (n == 0)
            return data;
        if (errno != EINTR) {
            throw CheckpointError("cannot read " + path + ": " +
                                  std::strerror(errno));
        }
    }
}

/**
 * The scheduler state both executors share: the shard list, the
 * (spec, seed) result grid, the checkpoint file, the progress lines,
 * and the lowest failed shard. complete() and fail() may be called
 * from any worker thread; they serialize on one lock.
 */
class Sweep
{
  public:
    Sweep(const std::vector<ExperimentSpec> &specs,
          const ParallelRunnerOptions &opts)
        : specs(specs), opts_(opts), raw_(specs.size()),
          out_(specs.size()), shardBase_(specs.size()),
          remainingSeeds_(specs.size()), specErrored_(specs.size(), 0)
    {
        for (std::size_t i = 0; i < specs.size(); ++i) {
            // seeds <= 0 runs nothing, exactly like the serial loop.
            const int seeds = std::max(specs[i].seeds, 0);
            shardBase_[i] = shards.size();
            raw_[i].resize(static_cast<std::size_t>(seeds));
            remainingSeeds_[i] = static_cast<std::size_t>(seeds);
            for (int s = 0; s < seeds; ++s)
                shards.push_back(Shard{i, s});
            if (seeds == 0)
                out_[i] = aggregateResults(raw_[i], specs[i].label);
        }
    }

    ~Sweep()
    {
        if (ckptFd_ >= 0)
            ::close(ckptFd_);
    }

    Sweep(const Sweep &) = delete;
    Sweep &operator=(const Sweep &) = delete;

    const std::vector<ExperimentSpec> &specs;
    std::vector<Shard> shards;

    /**
     * Open the checkpoint (if any), resolve the shards it already
     * holds in shard order — so the emitted lines and aggregates are
     * deterministic — and return the rest, in shard order.
     */
    std::vector<std::size_t> restore();

    /** Run shard @p sh on @p arena; throws whatever the shard threw. */
    System::Results
    compute(WorkerArena &arena, std::size_t sh) const
    {
        const Shard &s = shards[sh];
        const SystemConfig &cfg = specs[s.spec].cfg;
        // Within one spec the config object is literally the same, so
        // its (incomparable) workloadFactory is trivially unchanged.
        const bool same_spec = arena.lastSpec == s.spec;
        arena.lastSpec = s.spec;
        return runOnceReusing(
            arena.sys, cfg, cfg.seed + static_cast<std::uint64_t>(s.seed),
            same_spec);
    }

    /** Record a completed shard: grid, checkpoint, progress. */
    void
    complete(std::size_t sh, System::Results res)
    {
        std::lock_guard<std::mutex> g(lock_);
        const Shard &s = shards[sh];
        appendCheckpoint(sh, res);
        raw_[s.spec][static_cast<std::size_t>(s.seed)] = std::move(res);
        resolve(sh, "done");
    }

    /** Record a shard that threw @p what. */
    void
    fail(std::size_t sh, const std::string &what)
    {
        std::lock_guard<std::mutex> g(lock_);
        const Shard &s = shards[sh];
        specErrored_[s.spec] = 1;
        if (sh < firstFailed_) {
            firstFailed_ = sh;
            firstError_ = strformat(
                "ParallelRunner: shard (spec \"%s\", seed %d) failed: "
                "%s",
                specs[s.spec].label.c_str(), s.seed, what.c_str());
        }
        resolve(sh, "errored");
    }

    void
    note(const std::string &line)
    {
        std::lock_guard<std::mutex> g(lock_);
        emit(line);
    }

    /** Single-threaded callers only (the process executor). */
    bool done() const { return resolved_ == shards.size(); }

    /** Rethrow the lowest failed shard's error, if any. */
    void
    throwIfFailed() const
    {
        if (firstFailed_ != ~std::size_t{0})
            throw std::runtime_error(firstError_);
    }

    std::vector<ExperimentResult>
    finish()
    {
        throwIfFailed();
        return std::move(out_);
    }

  private:
    void
    emit(const std::string &line)
    {
        if (opts_.progress)
            opts_.progress(line);
    }

    // Incremental fold: a design point aggregates (and streams its
    // line) as soon as its last seed lands. The aggregate only ever
    // reads the grid in seed order, so computing it early is
    // bit-identical to computing it at the end.
    void
    resolve(std::size_t sh, const char *how)
    {
        ++resolved_;
        const std::size_t spec = shards[sh].spec;
        emit(strformat("shard %zu/%zu %s (spec %zu \"%s\" seed %d)",
                       resolved_, shards.size(), how, spec,
                       specs[spec].label.c_str(), shards[sh].seed));
        if (--remainingSeeds_[spec] == 0 && !specErrored_[spec]) {
            out_[spec] = aggregateResults(raw_[spec], specs[spec].label);
            emit(strformat("spec %zu \"%s\" complete: %s", spec,
                           specs[spec].label.c_str(),
                           resultDigest(out_[spec]).c_str()));
        }
    }

    void
    appendCheckpoint(std::size_t sh, const System::Results &res)
    {
        if (ckptFd_ < 0)
            return;
        const Shard &s = shards[sh];
        if (!writeAll(ckptFd_,
                      encodeCheckpointRecord(
                          s.spec, static_cast<std::uint64_t>(s.seed),
                          res))) {
            // A full disk must not kill a sweep that would otherwise
            // finish: drop checkpointing, keep computing.
            emit(strformat("checkpoint: write to %s failed (%s); "
                           "further shards will not be checkpointed",
                           opts_.checkpointPath.c_str(),
                           std::strerror(errno)));
            ::close(ckptFd_);
            ckptFd_ = -1;
        }
    }

    const ParallelRunnerOptions &opts_;
    // Guards everything below. The progress callback runs under it
    // too, so its "shard k/N" lines come out in resolve order.
    std::mutex lock_;
    std::vector<std::vector<System::Results>> raw_;
    std::vector<ExperimentResult> out_;
    std::vector<std::size_t> shardBase_;
    std::vector<std::size_t> remainingSeeds_;
    std::vector<char> specErrored_;
    std::size_t resolved_ = 0;
    std::size_t firstFailed_ = ~std::size_t{0};
    std::string firstError_;
    int ckptFd_ = -1;
};

std::vector<std::size_t>
Sweep::restore()
{
    std::vector<char> restored(shards.size(), 0);
    const std::string &path = opts_.checkpointPath;
    if (!path.empty()) {
        const std::uint64_t fp = sweepFingerprint(specs);
        ckptFd_ = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
        if (ckptFd_ >= 0) {
            // Resume. Header first (bad magic/version is fatal, and a
            // foreign sweep's fingerprint must never merge), then
            // records until the first torn or corrupt one — an
            // append-only writer can only damage the tail, so
            // everything before it is trusted and everything from it
            // on is dropped and re-run.
            const std::string data = readCheckpoint(ckptFd_, path);
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
                        rec.seed >= raw_[rec.spec].size()) {
                        throw WireError(
                            "checkpoint shard key out of range");
                    }
                    validEnd = pos;
                    const std::size_t sh =
                        shardBase_[rec.spec] +
                        static_cast<std::size_t>(rec.seed);
                    if (!restored[sh]) {
                        raw_[rec.spec][rec.seed] =
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
            std::string tail;
            if (dropped) {
                // Truncate the torn tail on disk too — records
                // appended after it would be unreachable to the next
                // resume.
                (void)::ftruncate(ckptFd_,
                                  static_cast<off_t>(validEnd));
                tail = strformat(" (dropped a %zu-byte torn tail)",
                                 dropped);
            }
            ::lseek(ckptFd_, static_cast<off_t>(validEnd), SEEK_SET);
            emit(strformat("checkpoint: restored %zu/%zu shards "
                           "from %s%s",
                           nrestored, shards.size(), path.c_str(),
                           tail.c_str()));
        } else {
            // Fresh checkpoint: the header appears atomically via
            // write + fsync + rename, so a run killed here never
            // leaves a headerless file behind.
            const std::string tmp = path + ".tmp";
            ckptFd_ = ::open(tmp.c_str(),
                             O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC,
                             0644);
            if (ckptFd_ < 0) {
                throw std::runtime_error(
                    "ParallelRunner: cannot create checkpoint " + tmp +
                    ": " + std::strerror(errno));
            }
            if (!writeAll(ckptFd_,
                          encodeCheckpointHeader(fp, shards.size())) ||
                ::fsync(ckptFd_) != 0 ||
                ::rename(tmp.c_str(), path.c_str()) != 0) {
                throw std::runtime_error(
                    "ParallelRunner: cannot initialize checkpoint " +
                    path + ": " + std::strerror(errno));
            }
            emit(strformat("checkpoint: recording %zu shards to %s",
                           shards.size(), path.c_str()));
        }
    }

    std::vector<std::size_t> todo;
    for (std::size_t k = 0; k < shards.size(); ++k) {
        if (restored[k])
            resolve(k, "restored");
        else
            todo.push_back(k);
    }
    return todo;
}

// ---------------------------------------------------------------------
// Thread executor
// ---------------------------------------------------------------------

void
runThreads(Sweep &sweep, const std::vector<std::size_t> &todo,
           std::size_t width)
{
    std::atomic<std::size_t> cursor{0};
    const auto worker = [&]() {
        WorkerArena arena;
        for (;;) {
            const std::size_t k =
                cursor.fetch_add(1, std::memory_order_relaxed);
            if (k >= todo.size())
                return;
            const std::size_t sh = todo[k];
            try {
                sweep.complete(sh, sweep.compute(arena, sh));
            } catch (const std::exception &e) {
                sweep.fail(sh, e.what());
            } catch (...) {
                sweep.fail(sh, "unknown error");
            }
        }
    };

    width = std::min(width, todo.size());
    if (width <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(width);
        for (std::size_t t = 0; t < width; ++t)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }
}

// ---------------------------------------------------------------------
// Process executor
// ---------------------------------------------------------------------

/** Parent-side state of one worker: a forked child on a pipe pair. */
struct WorkerProc
{
    pid_t pid = -1;
    int in = -1;             ///< parent writes job frames here
    int out = -1;            ///< parent reads replies here
    std::string rbuf;        ///< partially received reply bytes
    bool alive = false;
    long shard = -1;         ///< outstanding shard index, -1 if idle
    long long assignMs = 0;  ///< when the outstanding shard was sent
};

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

/**
 * A forked worker's serve loop: read job frames (a shard index each)
 * from @p in_fd, run the shard, and reply on @p out_fd with a result
 * frame, or an error frame if the shard threw, until EOF. Returns the
 * process exit code (0 on a clean EOF shutdown).
 */
int
serveShards(const Sweep &sweep, int in_fd, int out_fd,
            const WorkerFault &fault)
{
    WorkerArena arena;
    std::string buf;
    std::size_t pos = 0;
    int served = 0;

    for (;;) {
        Frame f;
        std::uint64_t sh = 0;
        try {
            if (!tryExtractFrame(buf, pos, f)) {
                buf.erase(0, pos);
                pos = 0;
                char chunk[1 << 16];
                const ssize_t n = ::read(in_fd, chunk, sizeof(chunk));
                if (n == 0)
                    return 0;   // EOF: sweep complete, clean shutdown
                if (n < 0 && errno != EINTR)
                    return 2;
                if (n > 0)
                    buf.append(chunk, static_cast<std::size_t>(n));
                continue;
            }
            if (f.type != FrameType::job)
                return 2;
            sh = decodeJobPayload(f.payload);
        } catch (const WireError &) {
            return 2;   // corrupt input stream: parent-side bug
        }
        if (sh >= sweep.shards.size())
            return 2;

        std::string reply;
        try {
            appendFrame(reply, FrameType::result,
                        encodeResultPayload(
                            sh, sweep.compute(
                                    arena, static_cast<std::size_t>(sh))));
        } catch (const std::exception &e) {
            appendFrame(reply, FrameType::error,
                        encodeErrorPayload(sh, e.what()));
        } catch (...) {
            appendFrame(reply, FrameType::error,
                        encodeErrorPayload(sh, "unknown error"));
        }

        if (fault.kind != WorkerFault::Kind::none &&
            served == fault.afterShards) {
            const std::string half = reply.substr(0, reply.size() / 2);
            switch (fault.kind) {
              case WorkerFault::Kind::none:
                break;
              case WorkerFault::Kind::crash:
                ::raise(SIGKILL);
                break;
              case WorkerFault::Kind::truncate:
                writeAll(out_fd, half);
                return 3;
              case WorkerFault::Kind::hang:
                for (;;)
                    ::pause();
              case WorkerFault::Kind::partialFrame:
                writeAll(out_fd, half);
                for (;;)
                    ::pause();
              case WorkerFault::Kind::garbage:
                // 0xee is not a frame type: the parent's decoder throws.
                writeAll(out_fd, std::string(64, '\xee'));
                return 3;
            }
        }
        if (!writeAll(out_fd, reply))
            return 2;
        ++served;
    }
}

/**
 * Fork one worker. @p parent_fds lists every parent-side pipe fd
 * currently open: the child must close them all, or a sibling's death
 * would never read as EOF in the parent (the child's copy of the
 * write end keeps the pipe alive).
 */
WorkerProc
spawnWorker(const Sweep &sweep, const WorkerFault &fault,
            std::vector<int> &parent_fds)
{
    int job[2];
    int res[2];
    if (::pipe(job) != 0)
        throw std::runtime_error("ParallelRunner: pipe() failed");
    if (::pipe(res) != 0) {
        ::close(job[0]);
        ::close(job[1]);
        throw std::runtime_error("ParallelRunner: pipe() failed");
    }

    const pid_t pid = ::fork();
    if (pid < 0) {
        for (int fd : {job[0], job[1], res[0], res[1]})
            ::close(fd);
        throw std::runtime_error("ParallelRunner: fork() failed");
    }

    if (pid == 0) {
        // Child. Only _exit() from here: no atexit handlers, no
        // flushing of stdio buffers inherited mid-write.
        ::close(job[1]);
        ::close(res[0]);
        for (int fd : parent_fds)
            ::close(fd);
        _exit(serveShards(sweep, job[0], res[1], fault));
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

void
runProcesses(Sweep &sweep, const std::vector<std::size_t> &todo,
             std::size_t width, const ParallelRunnerOptions &opts)
{
    const std::vector<ExperimentSpec> &specs = sweep.specs;
    const std::vector<Shard> &shards = sweep.shards;

    SigpipeIgnore sigpipe_guard;
    std::vector<int> parentFds;
    std::vector<WorkerProc> pool;
    std::deque<std::size_t> pending(todo.begin(), todo.end());
    std::vector<int> retries(shards.size(), 0);

    const std::size_t nworkers = std::min(width, pending.size());
    const int respawnBudget = 2 * static_cast<int>(nworkers);
    int respawnsUsed = 0;
    int workerDeaths = 0;
    std::vector<int> spawnGen(nworkers, 0);
    std::vector<long> maxObservedMs(specs.size(), -1);

    // Fault injection (tests): applies only to the workers whose
    // (slot, spawn generation) the fault targets.
    const auto faultFor = [&](std::size_t slot, int gen) -> WorkerFault {
        const WorkerFault &f = opts.workerFault;
        if ((f.worker >= 0 && static_cast<std::size_t>(f.worker) != slot) ||
            (f.spawnGeneration >= 0 && f.spawnGeneration != gen))
            return WorkerFault{};
        return f;
    };

    // A failed shard goes back to the FRONT of the queue: it is the
    // sweep's oldest outstanding work and downstream consumers wait
    // on whole design points, not individual seeds.
    const auto failShard = [&](long sh) {
        if (sh < 0)
            return;
        if (++retries[sh] > opts.maxShardRetries) {
            // The same shard keeps taking workers down: a shard
            // poison, not worker flakiness. Surface a shard's own
            // error if one was recorded.
            sweep.throwIfFailed();
            const Shard &s = shards[static_cast<std::size_t>(sh)];
            throw std::runtime_error(strformat(
                "ParallelRunner: shard (spec \"%s\", seed %d) failed %d "
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
        // WorkerFault::spawnGeneration).
        if (sweep.done())
            return;
        if (respawnsUsed < respawnBudget) {
            ++respawnsUsed;
            const int gen = ++spawnGen[slot];
            pool[slot] = spawnWorker(sweep, faultFor(slot, gen), parentFds);
            sweep.note(strformat("worker %zu died (death %d); respawned "
                                 "(%d/%d respawns used)",
                                 slot, workerDeaths, respawnsUsed,
                                 respawnBudget));
        } else {
            sweep.note(strformat(
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
            std::string job;
            appendFrame(job, FrameType::job, encodeJobPayload(sh));
            w.shard = static_cast<long>(sh);
            w.assignMs = monoMs();
            if (!writeAll(w.in, job))
                workerDied(k);
        }
    };

    /**
     * The live deadline for the shard @p w is running: fixed when
     * configured, derived from the slowest completed shard of the
     * SAME design point in auto mode (no estimate until that spec's
     * first completion), -1 when idle or detection is off. Per-spec
     * because shard cost is a property of the design point — at
     * kilonode geometries a broadcast protocol runs 100x longer than
     * a directory one in the same sweep, and a global estimate seeded
     * by the cheap spec would kill every healthy shard of the
     * expensive one. Seeds of one spec are near-identical in cost,
     * so 10x its own slowest shard stays a safe hang bound.
     */
    const auto deadlineMs = [&](const WorkerProc &w) -> long {
        if (w.shard < 0)
            return -1;
        const std::size_t spec =
            shards[static_cast<std::size_t>(w.shard)].spec;
        if (opts.shardTimeoutMs > 0)
            return opts.shardTimeoutMs;
        if (opts.shardTimeoutMs < 0 || maxObservedMs[spec] < 0)
            return -1;
        return std::max<long>(10000, 10 * maxObservedMs[spec]);
    };

    /** Decode every complete frame buffered for @p w. Throws
     *  WireError on a malformed or out-of-protocol reply. */
    const auto processBuffer = [&](WorkerProc &w) {
        Frame f;
        std::size_t pos = 0;
        while (w.alive && tryExtractFrame(w.rbuf, pos, f)) {
            if (w.shard < 0)
                throw WireError("reply with no job outstanding");
            const std::size_t sh = static_cast<std::size_t>(w.shard);
            switch (f.type) {
              case FrameType::result: {
                ResultFrame rf = decodeResultPayload(f.payload);
                if (rf.jobId != sh)
                    throw WireError("result frame for wrong job");
                w.shard = -1;
                const std::size_t spec = shards[sh].spec;
                maxObservedMs[spec] = std::max<long>(
                    maxObservedMs[spec],
                    static_cast<long>(monoMs() - w.assignMs));
                sweep.complete(sh, std::move(rf.results));
                break;
              }
              case FrameType::error: {
                // The shard itself threw (e.g. an invalid config): a
                // deterministic failure every worker would repeat, so
                // record it instead of reassigning.
                const ErrorFrame ef = decodeErrorPayload(f.payload);
                if (ef.jobId != sh)
                    throw WireError("error frame for wrong job");
                w.shard = -1;
                sweep.fail(sh, ef.message);
                break;
              }
              default:
                throw WireError("unexpected frame type from worker");
            }
        }
        w.rbuf.erase(0, pos);
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
            if (n < 0 && errno == EINTR)
                continue;
            eof = n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
            break;
        }
        try {
            processBuffer(w);
        } catch (const WireError &) {
            // Malformed reply: the worker is corrupt, not slow. Its
            // shard reassigns to a healthy worker.
            ::kill(w.pid, SIGKILL);
            workerDied(slot);
            return;
        }
        if (eof)
            workerDied(slot);
    };

    try {
        // Slots are fixed; a dead worker respawns IN PLACE.
        pool.reserve(nworkers);
        for (std::size_t k = 0; k < nworkers; ++k)
            pool.push_back(spawnWorker(sweep, faultFor(k, 0), parentFds));

        while (!sweep.done()) {
            assignIdle();

            std::vector<struct pollfd> fds;
            std::vector<std::size_t> who;
            // Poll no longer than the nearest shard deadline.
            const long long now = monoMs();
            long long nearest = LLONG_MAX;
            for (std::size_t k = 0; k < pool.size(); ++k) {
                if (!pool[k].alive)
                    continue;
                fds.push_back(pollfd{pool[k].out, POLLIN, 0});
                who.push_back(k);
                if (const long d = deadlineMs(pool[k]); d > 0) {
                    nearest =
                        std::min(nearest, pool[k].assignMs + d - now);
                }
            }

            if (fds.empty()) {
                // Respawn budget spent and the pool is gone, but the
                // sweep is not: degrade to in-process execution. The
                // results are identical by construction — a shard's
                // outcome depends only on (spec, seed).
                sweep.note(strformat(
                    "worker pool exhausted after %d deaths; running "
                    "%zu remaining shards in-process",
                    workerDeaths, pending.size()));
                runThreads(sweep,
                           std::vector<std::size_t>(pending.begin(),
                                                    pending.end()),
                           1);
                break;
            }

            const int timeoutMs = nearest == LLONG_MAX
                ? -1
                : static_cast<int>(std::min<long long>(
                      std::max<long long>(nearest, 0), INT_MAX));
            const int rc = ::poll(
                fds.data(), static_cast<nfds_t>(fds.size()), timeoutMs);
            if (rc < 0) {
                if (errno == EINTR)
                    continue;
                throw std::runtime_error(
                    std::string("ParallelRunner: poll(): ") +
                    std::strerror(errno));
            }
            for (std::size_t i = 0; i < fds.size(); ++i) {
                if (fds[i].revents)
                    serviceWorker(who[i]);
            }

            // Reap hung workers: alive, a shard outstanding, and
            // silent past the deadline. SIGKILL converts "hung" into
            // the crash path — reassign + respawn within budget.
            const long long later = monoMs();
            for (std::size_t k = 0; k < pool.size(); ++k) {
                const WorkerProc &w = pool[k];
                const long deadline = deadlineMs(w);
                if (!w.alive || deadline <= 0 ||
                    later - w.assignMs < deadline)
                    continue;
                const Shard &s = shards[static_cast<std::size_t>(w.shard)];
                sweep.note(strformat(
                    "worker %zu hung on shard (spec \"%s\" seed %d) "
                    "for %lld ms (deadline %ld ms); killing",
                    k, specs[s.spec].label.c_str(), s.seed,
                    static_cast<long long>(later - w.assignMs),
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
}

} // namespace

ParallelRunner::ParallelRunner(ParallelRunnerOptions opts)
    : opts_(std::move(opts))
{
    if (opts_.threads < 1)
        opts_.threads = defaultThreads();
}

std::vector<ExperimentResult>
ParallelRunner::run(const std::vector<ExperimentSpec> &specs) const
{
    for (const ExperimentSpec &s : specs) {
        if (opts_.processes && !s.cfg.recordTrace.empty()) {
            throw std::invalid_argument(
                "ParallelRunner: spec '" + s.label +
                "' sets recordTrace; worker processes would race on "
                "the output file (record serially instead)");
        }
        if (!opts_.checkpointPath.empty() && s.cfg.workloadFactory) {
            throw std::invalid_argument(
                "ParallelRunner: spec '" + s.label +
                "' has a custom workloadFactory, which a checkpoint "
                "cannot fingerprint (use a WorkloadSpec preset or "
                "trace)");
        }
    }

    Sweep sweep(specs, opts_);
    if (!sweep.shards.empty()) {
        const std::vector<std::size_t> todo = sweep.restore();
        const auto width = static_cast<std::size_t>(opts_.threads);
        if (opts_.processes)
            runProcesses(sweep, todo, width, opts_);
        else
            runThreads(sweep, todo, width);
    }
    return sweep.finish();
}

ExperimentResult
ParallelRunner::run(const ExperimentSpec &spec) const
{
    return run(std::vector<ExperimentSpec>{spec}).front();
}

} // namespace tokensim
