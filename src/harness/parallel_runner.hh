/**
 * @file
 * The sweep runner: one scheduler for a (spec, seed) grid, two
 * executors.
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
 * runExperiment() loop over the same specs, whatever the executor,
 * its width, or the order shards finish in. This is the harness-level
 * echo of the paper's thesis: correctness (the result) is decoupled
 * from the performance policy (how shards are scheduled, even across
 * failures).
 *
 * The scheduler owns what both executors share: the grid, checkpoint
 * restore and append, the streaming progress lines (one per shard,
 * one per design point as its last seed lands, carrying the
 * aggregate's digest), and failure reporting (the error of the
 * lowest failed (spec, seed) shard is rethrown, so the message never
 * depends on timing).
 *
 * Executors:
 *  - threads (the default): workers pull shards off a shared cursor;
 *    the calling thread is worker 0, so width N starts N - 1 threads.
 *  - forked worker processes (ParallelRunnerOptions::processes): each
 *    child inherits the spec list and serves shard indices from a
 *    pipe pair, replying with raw System::Results frames
 *    (harness/wire.hh). A child that dies mid-shard, replies with a
 *    malformed frame, or stays silent past its shard deadline (and is
 *    SIGKILLed as hung) is replaced while a churn budget of 2x width
 *    lasts, and its shard is reassigned. When the budget is spent and
 *    the pool empties, the remaining shards run in-process on the
 *    thread executor at width 1. What processes buy is crash
 *    isolation; on one host they add no throughput.
 *
 * Each worker (thread or child) keeps one reusable System arena:
 * consecutive shards whose configs share a structural shape
 * re-initialize it in place (System::reset) instead of rebuilding
 * caches, queues, and network state per shard — reset is
 * bit-identical to fresh construction (tests/test_parallel_runner.cc
 * enforces both properties). On a shape change the old System is
 * destroyed before the new one is built, so a sweep of width N holds
 * at most N Systems at any moment.
 *
 * Crash safety: with a checkpointPath, every completed shard is
 * appended to an on-disk checkpoint (CRC-framed records behind an
 * atomically created header — see wire.hh), and a rerun of the same
 * sweep against the same path restores completed shards instead of
 * recomputing them, on either executor. The only unsurvivable loss
 * is the checkpoint file itself.
 */

#ifndef TOKENSIM_HARNESS_PARALLEL_RUNNER_HH
#define TOKENSIM_HARNESS_PARALLEL_RUNNER_HH

#include <functional>
#include <string>
#include <vector>

#include "harness/experiment.hh"

namespace tokensim {

/**
 * Test-only fault injection for the process executor, applied inside
 * a worker's serve loop after it computes its shard number
 * `afterShards` (0-based, counting shards that worker served). The
 * crash-recovery suite uses it to prove every failure shape is
 * recovered from with digests untouched.
 *
 * Targeting: `worker` picks the pool slot and `spawnGeneration` which
 * process spawned into that slot (0 = the initial worker, n = the nth
 * respawn after a death); -1 in either field means "every".
 */
struct WorkerFault
{
    enum class Kind
    {
        none,
        /** SIGKILL instead of replying: EOF with a job outstanding. */
        crash,
        /** Write half the result frame, then exit. */
        truncate,
        /** Write nothing and block forever: only the deadline helps. */
        hang,
        /** Write half the result frame, then block forever. */
        partialFrame,
        /** Write bytes that are no frame type, then exit. */
        garbage,
    };

    /** Target pool slot (-1: every slot). */
    int worker = 0;

    /** Target spawn into the slot (-1: every spawn, incl. respawns). */
    int spawnGeneration = 0;

    Kind kind = Kind::none;

    int afterShards = 0;
};

/**
 * Tuning knobs for the ParallelRunner. Class-type members carry `{}`
 * so the common `ParallelRunnerOptions{width}` stays free of
 * -Wmissing-field-initializers warnings.
 */
struct ParallelRunnerOptions
{
    /**
     * Executor width: worker threads, or worker processes when
     * `processes` is set. 0 picks the TOKENSIM_THREADS environment
     * variable if set to >= 1, else
     * std::thread::hardware_concurrency(); a malformed value throws
     * ArgError. The calling thread is worker 0: threads at width N
     * start N - 1 threads, and width 1 runs everything on the caller.
     */
    int threads = 0;

    /** Run shards in forked worker processes instead of threads. */
    bool processes = false;

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
     * Streaming observer: called once per completed shard and once
     * per completed design point (with its aggregate's digest line),
     * as completions arrive — i.e. out of spec order — plus
     * checkpoint and worker-lifecycle lines. Calls are serialized but
     * may come from any worker thread. Null disables. Must not throw.
     */
    std::function<void(const std::string &line)> progress{};

    /**
     * Processes only: how many times one shard may be reassigned
     * after worker deaths before the run gives up. Bounds the case
     * where the shard itself crashes every worker it lands on.
     */
    int maxShardRetries = 2;

    /**
     * Processes only: per-shard deadline in milliseconds. A worker
     * still silent on one shard past it is presumed hung, SIGKILLed,
     * and its shard reassigned exactly like a crash. 0 (default)
     * derives it from observed shard times — 10x the slowest
     * completed shard of the same design point, floored at 10 s,
     * unbounded until that design point's first completion
     * (per-spec, because shard cost varies ~100x across specs in one
     * sweep at kilonode geometries). < 0 disables detection.
     */
    long shardTimeoutMs = 0;

    /** Processes only: fault injection (tests). */
    WorkerFault workerFault{};
};

/** Shards experiment configurations across threads or processes. */
class ParallelRunner
{
  public:
    explicit ParallelRunner(ParallelRunnerOptions opts = {});

    /** Resolved executor width (>= 1). */
    int threads() const { return opts_.threads; }

    /**
     * Run every spec and return aggregated results in spec order,
     * bit-identical to the serial loop (see file comment).
     *
     * @throws std::invalid_argument for specs the process executor
     *         cannot run (a recordTrace path: workers would race on
     *         the file), or a checkpointed sweep whose specs cannot
     *         be fingerprinted (a custom workloadFactory).
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
     *         @p failures); or, on the process executor, when a shard
     *         exhausts its retry budget.
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
