/**
 * @file
 * Multi-threaded experiment runner.
 *
 * A paper-figure sweep is a matrix of independent design points
 * (protocol x topology x processor count x token count), each run
 * across several seeds. Every (spec, seed) pair — a *shard* — builds
 * its own System with its own EventQueue and RNG streams, so shards
 * share no mutable state and can execute on any worker thread.
 *
 * Determinism: shard s of spec i always runs with seed
 * specs[i].cfg.seed + s, and the merge step folds raw results in
 * (spec, seed) order. The output is therefore bit-identical to a
 * serial runExperiment() loop over the same specs, regardless of
 * thread count or scheduling order. This is the harness-level echo of
 * the paper's thesis: correctness (the result) is decoupled from the
 * performance policy (how shards are scheduled).
 *
 * Each worker keeps one reusable System arena: consecutive shards
 * whose configs share a structural shape re-initialize it in place
 * (System::reset) instead of rebuilding caches, queues, and network
 * state per shard — reset is bit-identical to fresh construction
 * (tests/test_parallel_runner.cc enforces both properties).
 */

#ifndef TOKENSIM_HARNESS_PARALLEL_RUNNER_HH
#define TOKENSIM_HARNESS_PARALLEL_RUNNER_HH

#include <vector>

#include "harness/experiment.hh"

namespace tokensim {

/** Tuning knobs for the ParallelRunner. */
struct ParallelRunnerOptions
{
    /**
     * Worker thread count. 0 picks the TOKENSIM_THREADS environment
     * variable if set to >= 1, else
     * std::thread::hardware_concurrency(); a malformed value throws
     * ArgError.
     * 1 runs everything on the calling thread (no threads spawned).
     */
    int threads = 0;
};

/** Shards experiment configurations across worker threads. */
class ParallelRunner
{
  public:
    explicit ParallelRunner(ParallelRunnerOptions opts = {});

    /** Resolved worker count (>= 1). */
    int threads() const { return threads_; }

    /**
     * Run every spec and return aggregated results in spec order.
     * Shards execute in parallel; the merge is deterministic (see
     * file comment). The first exception thrown by any shard is
     * rethrown on the calling thread after all workers join.
     */
    std::vector<ExperimentResult>
    run(const std::vector<ExperimentSpec> &specs) const;

    /** Convenience: run one spec (its seeds still parallelize). */
    ExperimentResult run(const ExperimentSpec &spec) const;

  private:
    int threads_;
};

/** One-shot helper: ParallelRunner({threads}).run(specs). */
std::vector<ExperimentResult>
runExperimentsParallel(const std::vector<ExperimentSpec> &specs,
                       int threads = 0);

} // namespace tokensim

#endif // TOKENSIM_HARNESS_PARALLEL_RUNNER_HH
