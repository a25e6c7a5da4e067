#include "harness/parallel_runner.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "harness/argparse.hh"

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

/** One unit of parallel work: seed @p seed of spec @p spec. */
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

} // namespace

ParallelRunner::ParallelRunner(ParallelRunnerOptions opts)
    : threads_(opts.threads >= 1 ? opts.threads : defaultThreads())
{}

std::vector<ExperimentResult>
ParallelRunner::run(const std::vector<ExperimentSpec> &specs) const
{
    // Flatten the matrix into shards; raw results land in a fixed
    // (spec, seed)-indexed grid so the merge ignores execution order.
    std::vector<Shard> shards;
    std::vector<std::vector<System::Results>> raw(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        // seeds <= 0 runs nothing, exactly like the serial loop.
        const int seeds = std::max(specs[i].seeds, 0);
        raw[i].resize(static_cast<std::size_t>(seeds));
        for (int s = 0; s < seeds; ++s)
            shards.push_back(Shard{i, s});
    }

    const auto work = [&](WorkerArena &arena, const Shard &sh) {
        const ExperimentSpec &spec = specs[sh.spec];
        // Within one spec the config object is literally the same, so
        // its (incomparable) workloadFactory is trivially unchanged.
        const bool same_spec = arena.lastSpec == sh.spec;
        arena.lastSpec = sh.spec;
        raw[sh.spec][static_cast<std::size_t>(sh.seed)] =
            runOnceReusing(
                arena.sys, spec.cfg,
                spec.cfg.seed + static_cast<std::uint64_t>(sh.seed),
                same_spec);
    };

    const std::size_t nworkers = std::min<std::size_t>(
        static_cast<std::size_t>(threads_), shards.size());
    if (nworkers <= 1) {
        WorkerArena arena;
        for (const Shard &sh : shards)
            work(arena, sh);
    } else {
        std::atomic<std::size_t> cursor{0};
        std::exception_ptr firstError;
        std::mutex errorLock;
        const auto worker = [&]() {
            WorkerArena arena;
            for (;;) {
                const std::size_t k =
                    cursor.fetch_add(1, std::memory_order_relaxed);
                if (k >= shards.size())
                    return;
                try {
                    work(arena, shards[k]);
                } catch (...) {
                    std::lock_guard<std::mutex> g(errorLock);
                    if (!firstError)
                        firstError = std::current_exception();
                }
            }
        };
        std::vector<std::thread> pool;
        pool.reserve(nworkers);
        for (std::size_t t = 0; t < nworkers; ++t)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
        if (firstError)
            std::rethrow_exception(firstError);
    }

    std::vector<ExperimentResult> out;
    out.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        out.push_back(aggregateResults(raw[i], specs[i].label));
    return out;
}

ExperimentResult
ParallelRunner::run(const ExperimentSpec &spec) const
{
    return run(std::vector<ExperimentSpec>{spec}).front();
}

std::vector<ExperimentResult>
runExperimentsParallel(const std::vector<ExperimentSpec> &specs,
                       int threads)
{
    return ParallelRunner(ParallelRunnerOptions{threads}).run(specs);
}

} // namespace tokensim
