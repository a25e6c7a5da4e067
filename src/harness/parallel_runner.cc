#include "harness/parallel_runner.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include <fcntl.h>
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
 * once per shard. On a shape change runOnceReusing() drops the old
 * System before building the new one, so a worker holds at most one
 * System and a sweep of width N at most N. Results stay bit-identical
 * to fresh construction; the determinism tests enforce it.
 */
struct WorkerArena
{
    std::unique_ptr<System> sys;
    std::size_t lastSpec = ~std::size_t{0};
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
 * The scheduler state: the shard list, the (spec, seed) result grid,
 * the checkpoint file, the progress lines, and the lowest failed
 * shard. start(), complete() and fail() may be called from any worker
 * thread; they serialize on one lock.
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

    /** Name shard @p sh as taken, so a crash or hang leaves it last. */
    void
    start(std::size_t sh)
    {
        if (!opts_.progress)
            return;
        std::lock_guard<std::mutex> g(lock_);
        const Shard &s = shards[sh];
        emit(strformat("shard (spec %zu \"%s\" seed %d) started", s.spec,
                       specs[s.spec].label.c_str(), s.seed));
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
        errors_.emplace(
            sh, strformat("ParallelRunner: shard (spec \"%s\", seed %d) "
                          "failed: %s",
                          specs[s.spec].label.c_str(), s.seed,
                          what.c_str()));
        resolve(sh, "errored");
    }

    /** The results; see ParallelRunner::run for @p failures. */
    std::vector<ExperimentResult>
    finish(std::vector<std::string> *failures)
    {
        if (!failures) {
            // The lowest failed shard's error, whatever finished first.
            if (!errors_.empty())
                throw std::runtime_error(errors_.begin()->second);
            return std::move(out_);
        }
        failures->assign(specs.size(), std::string());
        for (const auto &[sh, what] : errors_) {
            std::string &first = (*failures)[shards[sh].spec];
            if (first.empty())
                first = what;
        }
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
    /** Every failed shard's error, by shard (so lowest first). */
    std::map<std::size_t, std::string> errors_;
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
            sweep.start(sh);
            try {
                sweep.complete(sh, sweep.compute(arena, sh));
            } catch (const std::exception &e) {
                sweep.fail(sh, e.what());
            } catch (...) {
                sweep.fail(sh, "unknown error");
            }
        }
    };

    // The calling thread is worker 0, so width N starts N - 1 threads.
    // Worker 0's Systems then live in the caller's malloc arena, whose
    // freed pages the caller's later Systems reuse; a thread's arena
    // keeps a dead System's pages resident after the thread ends.
    width = std::min(width, todo.size());
    std::vector<std::thread> pool;
    for (std::size_t t = 1; t < width; ++t)
        pool.emplace_back(worker);
    worker();
    for (std::thread &t : pool)
        t.join();
}

} // namespace

ParallelRunner::ParallelRunner(ParallelRunnerOptions opts)
    : opts_(std::move(opts))
{
    if (opts_.threads < 1)
        opts_.threads = defaultThreads();
}

std::vector<ExperimentResult>
ParallelRunner::run(const std::vector<ExperimentSpec> &specs,
                    std::vector<std::string> *failures) const
{
    std::set<std::string> tracePaths;
    for (const ExperimentSpec &s : specs) {
        // Every shard of a recording spec writes its trace file, so
        // two shards on one path would keep only the last one's ops.
        if (!s.cfg.recordTrace.empty() && s.seeds != 1) {
            throw std::invalid_argument(strformat(
                "ParallelRunner: spec '%s' records %s over %d seeds; "
                "a recorded trace needs exactly one seed",
                s.label.c_str(), s.cfg.recordTrace.c_str(), s.seeds));
        }
        if (!s.cfg.recordTrace.empty() &&
            !tracePaths.insert(s.cfg.recordTrace).second) {
            throw std::invalid_argument(
                "ParallelRunner: spec '" + s.label + "' records to " +
                s.cfg.recordTrace +
                ", which another spec records to as well");
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
        runThreads(sweep, sweep.restore(),
                   static_cast<std::size_t>(opts_.threads));
    }
    return sweep.finish(failures);
}

ExperimentResult
ParallelRunner::run(const ExperimentSpec &spec) const
{
    return run(std::vector<ExperimentSpec>{spec}).front();
}

} // namespace tokensim
