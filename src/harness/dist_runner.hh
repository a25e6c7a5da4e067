/**
 * @file
 * Multi-process experiment runner.
 *
 * Where ParallelRunner shards a sweep across threads, DistRunner
 * shards the same (spec, seed) grid across worker *subprocesses*:
 * each worker is fed one shard at a time over a pipe (job frames in
 * the harness/wire.hh format), runs it in a private System, and
 * streams the raw System::Results back. The parent folds raw results
 * into the fixed (spec, seed) grid incrementally as shards complete —
 * emitting streaming progress / partial-aggregate lines through an
 * optional callback — but the merge itself always happens in (spec,
 * seed) order, so the output is bit-identical to a serial
 * runExperiment() loop and to ParallelRunner at any worker count.
 *
 * Fault tolerance: a worker that dies mid-shard (crash, kill, EOF
 * with a job outstanding), returns a malformed reply, or goes silent
 * past its per-shard deadline (SIGKILLed as hung) is discarded, its
 * shard is reassigned to a healthy worker, and — within a churn
 * budget — a replacement worker is spawned into its slot. When the
 * budget is spent and the pool empties with work remaining, the
 * parent degrades gracefully: it runs the remaining shards in-process
 * rather than failing the sweep. Because a shard's result depends
 * only on (spec, seed) — never on which process ran it or how many
 * times it was attempted — none of this can perturb the final
 * digests. This is the process-level restatement of the paper's
 * thesis: the performance substrate (how work is scheduled, even
 * across failures) is decoupled from correctness (the results).
 *
 * Crash safety: with DistRunnerOptions::checkpointPath set, every
 * completed shard is appended to an on-disk checkpoint (CRC-framed
 * records behind an atomically-created header — see wire.hh), and a
 * rerun of the same sweep against the same path restores completed
 * shards instead of recomputing them. The only unsurvivable loss is
 * the checkpoint file itself.
 *
 * Workers are forked children running the worker loop in-process
 * (works from any binary: tests, benches) or, with workerArgv set,
 * exec'd external workers — `sweep_tool worker` speaks exactly this
 * protocol on stdin/stdout. Either way the transport is one pipe pair
 * per worker; the frame layer itself only sees an (in fd, out fd)
 * pair.
 */

#ifndef TOKENSIM_HARNESS_DIST_RUNNER_HH
#define TOKENSIM_HARNESS_DIST_RUNNER_HH

#include <functional>
#include <string>
#include <vector>

#include "harness/experiment.hh"

namespace tokensim {

/**
 * Test-only fault injection, applied inside a worker's serve loop.
 * The crash-recovery suite uses these to prove that every failure
 * shape — crash, truncated reply, hang, partial frame, garbage — is
 * recovered from with digests untouched.
 *
 * Targeting: `worker` picks the pool slot the fault applies to and
 * `spawnGeneration` which process spawned into that slot (0 = the
 * initial worker, n = the nth respawn after a death); -1 in either
 * field means "every". Faults only apply to forked workers — an
 * exec'd worker starts clean.
 *
 * Each trigger fires after computing shard number N (0-based,
 * counting jobs this worker served); -1 disables it.
 */
struct DistWorkerFault
{
    /** Target pool slot (-1: every slot). */
    int worker = 0;

    /** Target spawn into the slot (-1: every spawn, incl. respawns). */
    int spawnGeneration = 0;

    /**
     * SIGKILL instead of replying — the parent sees EOF with a job
     * outstanding.
     */
    int crashAfterShards = -1;

    /**
     * Write only the first half of the result frame and exit — the
     * parent sees a truncated reply then EOF (exit mid-frame).
     */
    int truncateAfterShards = -1;

    /**
     * Write nothing and block forever — alive but silent, the hung
     * worker the per-shard deadline exists to catch.
     */
    int hangAfterShards = -1;

    /**
     * Write the first half of the result frame, then block forever —
     * a partial frame the parent can only escape via the deadline.
     */
    int partialFrameAfterShards = -1;

    /**
     * Write garbage bytes (an invalid frame type) instead of the
     * reply, then exit — the malformed-reply path.
     */
    int garbageAfterShards = -1;
};

/** Tuning knobs for the DistRunner. */
struct DistRunnerOptions
{
    /**
     * Worker process count. 0 picks the TOKENSIM_WORKERS environment
     * variable if set to >= 1, else
     * std::thread::hardware_concurrency(); a malformed value throws
     * ArgError.
     */
    int workers = 0;

    /**
     * How many times one shard may be reassigned after worker
     * failures before the run gives up (surfacing the first recorded
     * error, if any). Bounds the pathological case where the shard
     * itself crashes every worker it lands on.
     */
    int maxShardRetries = 2;

    /**
     * Per-shard deadline in milliseconds: a worker still silent on
     * one shard past this is presumed hung, SIGKILLed, and its shard
     * reassigned exactly like a crash. 0 (default) derives the
     * deadline from observed shard times — 10x the slowest completed
     * shard of the same design point, floored at 10 s, unbounded
     * until that design point's first completion (per-spec, because
     * shard cost varies ~100x across specs in one sweep at kilonode
     * geometries) — so it needs no tuning yet still unsticks a sweep
     * whose tail worker wedges. < 0 disables detection entirely.
     */
    long shardTimeoutMs = 0;

    /**
     * Worker-churn budget: how many replacement workers may be
     * spawned after deaths (crash / malformed reply / hang) before
     * the runner stops replacing them. When the pool then empties
     * with shards remaining, the parent runs them in-process instead
     * of failing the sweep. -1 (default) resolves to 2x the worker
     * count.
     */
    int maxWorkerRespawns = -1;

    /**
     * Crash-safe checkpoint file (empty disables): completed shards
     * append here as CRC-framed records, and a rerun of the same
     * sweep against an existing file restores them instead of
     * recomputing (a torn trailing record from a killed writer is
     * dropped and re-run). Resuming against a file recorded for a
     * different sweep throws CheckpointMismatch.
     */
    std::string checkpointPath;

    /**
     * Exec this argv as each worker (it must speak the worker
     * protocol on stdin/stdout, e.g. {"/path/to/sweep_tool",
     * "worker"}). Empty: fork-only children run the in-process
     * worker loop — no external binary needed.
     */
    std::vector<std::string> workerArgv;

    /**
     * Streaming observer: called once per completed shard and once
     * per completed design point (with its partial-aggregate digest
     * line), as completions arrive — i.e. out of spec order. Null
     * disables. Must not throw.
     */
    std::function<void(const std::string &line)> progress;

    /** Fault injection (tests only); see DistWorkerFault targeting. */
    DistWorkerFault workerFault;
};

/** Shards experiment configurations across worker subprocesses. */
class DistRunner
{
  public:
    explicit DistRunner(DistRunnerOptions opts = {});

    /** Resolved worker count (>= 1). */
    int workers() const { return workers_; }

    /**
     * Run every spec and return aggregated results in spec order,
     * bit-identical to the serial loop (see file comment).
     *
     * @throws std::invalid_argument for specs a subprocess cannot
     *         run: a custom workloadFactory (not serializable) or a
     *         recordTrace path (workers would race on the file).
     * @throws CheckpointMismatch / CheckpointError when checkpointPath
     *         names a file recorded for a different sweep, or one too
     *         corrupt to use (a torn tail is NOT that — it is dropped
     *         and re-run).
     * @throws std::runtime_error when a shard fails deterministically
     *         (the worker reports the shard's exception) or exhausts
     *         its retry budget. A dying worker pool is no longer
     *         fatal: remaining shards degrade to in-process runs.
     */
    std::vector<ExperimentResult>
    run(const std::vector<ExperimentSpec> &specs) const;

    /** Convenience: run one spec (its seeds still shard). */
    ExperimentResult run(const ExperimentSpec &spec) const;

  private:
    DistRunnerOptions opts_;
    int workers_;
};

/** One-shot helper, mirroring runExperimentsParallel(). */
std::vector<ExperimentResult>
runExperimentsDist(const std::vector<ExperimentSpec> &specs,
                   int workers = 0);

/**
 * The worker side of the protocol: send hello, then serve job frames
 * from @p in_fd — one System run per job, reusing the System across
 * jobs exactly like a ParallelRunner worker arena — replying on
 * @p out_fd until EOF. Returns the process exit code (0 on a clean EOF
 * shutdown). Runs in forked DistRunner children and under `sweep_tool
 * worker` (fds 0/1).
 */
int runDistWorker(int in_fd, int out_fd,
                  const DistWorkerFault &fault = {});

} // namespace tokensim

#endif // TOKENSIM_HARNESS_DIST_RUNNER_HH
