/**
 * @file
 * The sweep runner: one scheduler for a (spec, seed) grid, run on
 * threads.
 *
 * A paper-figure sweep is a matrix of independent design points
 * (protocol x topology x processor count x token count), each run
 * across several seeds. Every (spec, seed) pair — a *shard* — builds
 * its own System with its own EventQueue and RNG streams, so shards
 * share no mutable state and can execute anywhere.
 *
 * Determinism: shard s of spec i always runs with seed
 * specs[i].cfg.seed + s, raw results land in a fixed (spec, seed)
 * grid, and a design point aggregates by reading that grid in seed
 * order. The output is therefore bit-identical to a serial
 * runExperiment() loop over the same specs, whatever the width or the
 * order shards finish in. This is the harness-level echo of the
 * paper's thesis: correctness (the result) is decoupled from the
 * performance policy (how shards are scheduled).
 *
 * Workers pull shards off a shared cursor; the calling thread is
 * worker 0, so width N starts N - 1 threads. The scheduler owns the
 * grid, checkpoint restore and append, the streaming progress lines
 * (one as a worker takes a shard, one as it resolves, one per design
 * point as its last seed lands, carrying the aggregate's digest), and
 * failure reporting: a shard that throws (a DeadlockError, a maxTicks
 * overrun, an invalid config) is recorded for that shard alone, and
 * the error of the lowest failed (spec, seed) shard is rethrown once
 * every shard has run, so the message never depends on timing.
 *
 * Each worker keeps one reusable System arena: consecutive shards
 * whose configs share a structural shape re-initialize it in place
 * (System::reset) instead of rebuilding caches, queues, and network
 * state per shard — reset is bit-identical to fresh construction
 * (tests/test_parallel_runner.cc enforces both properties). On a
 * shape change the old System is destroyed before the new one is
 * built, so a sweep of width N holds at most N Systems at any moment.
 *
 * Crash safety: with a checkpointPath, every completed shard is
 * appended to an on-disk checkpoint (CRC-framed records behind an
 * atomically created header — see wire.hh), and a rerun of the same
 * sweep against the same path restores completed shards instead of
 * recomputing them. A killed sweep loses only the shards in flight;
 * with progress on, the last "started" line of a killed or hung
 * sweep names the shard it was in.
 */

#ifndef TOKENSIM_HARNESS_PARALLEL_RUNNER_HH
#define TOKENSIM_HARNESS_PARALLEL_RUNNER_HH

#include <functional>
#include <string>
#include <vector>

#include "harness/experiment.hh"

namespace tokensim {

/**
 * Tuning knobs for the ParallelRunner. Class-type members carry `{}`
 * so the common `ParallelRunnerOptions{width}` stays free of
 * -Wmissing-field-initializers warnings.
 */
struct ParallelRunnerOptions
{
    /**
     * Worker threads. 0 picks the TOKENSIM_THREADS environment
     * variable if set to >= 1, else
     * std::thread::hardware_concurrency(); a malformed value throws
     * ArgError. The calling thread is worker 0: width N starts N - 1
     * threads, and width 1 runs everything on the caller.
     */
    int threads = 0;

    /**
     * Crash-safe checkpoint file (empty disables): completed shards
     * append here as CRC-framed records, and a rerun of the same
     * sweep against an existing file restores them instead of
     * recomputing (a torn trailing record from a killed writer is
     * dropped and re-run). Resuming against a file recorded for a
     * different sweep throws CheckpointMismatch.
     */
    std::string checkpointPath{};

    /**
     * Streaming observer: called as a worker takes a shard ("shard
     * (spec i \"label\" seed s) started"), once per resolved shard,
     * and once per completed design point (with its aggregate's
     * digest line), as they happen — i.e. out of spec order — plus
     * checkpoint lines. Calls are serialized but may come from any
     * worker thread. Null disables. Must not throw.
     */
    std::function<void(const std::string &line)> progress{};
};

/** Shards experiment configurations across threads. */
class ParallelRunner
{
  public:
    explicit ParallelRunner(ParallelRunnerOptions opts = {});

    /** Resolved width (>= 1). */
    int threads() const { return opts_.threads; }

    /**
     * Run every spec and return aggregated results in spec order,
     * bit-identical to the serial loop (see file comment).
     *
     * @throws std::invalid_argument up front for a recordTrace spec
     *         with seeds != 1 or a path another spec also records to
     *         (its shards would overwrite one file), or a checkpointed
     *         sweep whose specs cannot be fingerprinted (a custom
     *         workloadFactory).
     * @throws CheckpointMismatch / CheckpointError when checkpointPath
     *         names a file recorded for a different sweep, one too
     *         corrupt to use, or one that cannot be read (a torn tail
     *         is NOT that — it is dropped and re-run).
     * With @p failures, a shard that throws does not fail the run:
     * (*failures)[i] is then the error of spec i's lowest failed
     * seed, or empty, and a failed spec's result is default-built.
     *
     * @throws std::runtime_error naming the lowest (spec, seed) shard
     *         that threw, once every shard has run (unless
     *         @p failures).
     */
    std::vector<ExperimentResult>
    run(const std::vector<ExperimentSpec> &specs,
        std::vector<std::string> *failures = nullptr) const;

    /** Convenience: run one spec (its seeds still shard). */
    ExperimentResult run(const ExperimentSpec &spec) const;

  private:
    ParallelRunnerOptions opts_;
};

} // namespace tokensim

#endif // TOKENSIM_HARNESS_PARALLEL_RUNNER_HH
