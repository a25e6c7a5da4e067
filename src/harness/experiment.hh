/**
 * @file
 * Experiment runner: executes a SystemConfig across multiple seeds
 * (the paper perturbs each design point and reports error bars) and
 * aggregates the metrics the figures use.
 */

#ifndef TOKENSIM_HARNESS_EXPERIMENT_HH
#define TOKENSIM_HARNESS_EXPERIMENT_HH

#include <string>
#include <vector>

#include "harness/system.hh"

namespace tokensim {

/**
 * Aggregated metrics for one design point. The registry holds every
 * metric of every run, merged by each metric's rule (sum /
 * Welford-combine / bucket-add); the named fields below are the
 * figure-ready aggregates derived from it, kept as plain doubles so
 * resultDigest() stays pinned to a fixed field set and order.
 */
struct ExperimentResult
{
    std::string label;

    /** Union of the per-run registries, merged in seed order. */
    MetricRegistry metrics;

    double cyclesPerTransaction = 0;
    double cyclesPerTransactionStddev = 0;
    double bytesPerMiss = 0;
    double bytesPerMissByClass[numMsgClasses] = {};

    std::uint64_t ops = 0;
    std::uint64_t misses = 0;
    double missRate = 0;            ///< misses / L2 accesses
    double cacheToCacheFrac = 0;    ///< of completed misses
    double avgMissLatencyNs = 0;

    // Token Coherence reissue percentages (Table 2).
    double pctNotReissued = 0;
    double pctReissuedOnce = 0;
    double pctReissuedMore = 0;
    double pctPersistent = 0;

    /**
     * Dispatched simulation events per completed operation, summed
     * over the aggregated runs. A diagnostic of simulator cost (the
     * per-miss event storm the timer wheel and cut-through routing
     * collapse), NOT of simulated behavior — deliberately excluded
     * from resultDigest() so kernel bookkeeping changes never churn
     * golden digests; identicalResults() still covers it.
     */
    double eventsPerOp = 0;
};

/**
 * Exact (bit-identical) equality of every statistic, label excluded.
 * The determinism gates (tests/test_parallel_runner.cc and the
 * runner-matrix benchmark) use this; keeping it next to the struct
 * means a new field extends every gate in one place.
 */
bool identicalResults(const ExperimentResult &a,
                      const ExperimentResult &b);

/**
 * One-line, bit-exact textual digest of every statistic (label
 * excluded): integers in decimal, doubles as raw IEEE-754 bit
 * patterns in hex. Comparison is strictly bitwise — stricter than
 * identicalResults() for -0.0 vs +0.0 and, unlike operator!=, stable
 * for NaN — which is what a stored regression oracle needs: the
 * golden-trace suite commits digests next to its traces and
 * sweep_tool prints them for ad-hoc comparison.
 */
std::string resultDigest(const ExperimentResult &r);

/**
 * One design point for a runner: a configuration, how many seeds to
 * perturb it with, and a display label. Seed s of the spec runs with
 * cfg.seed + s, so results depend only on the spec — never on which
 * worker thread executes it.
 */
struct ExperimentSpec
{
    SystemConfig cfg;
    int seeds = 3;
    std::string label;
};

/**
 * Build and run one System with @p cfg.seed replaced by @p seed and
 * return its raw results. This is the unit of work both the serial
 * runner and the ParallelRunner shard over.
 */
System::Results runOnce(SystemConfig cfg, std::uint64_t seed);

/**
 * Like runOnce(), but reuse @p sys when possible: if it exists and
 * System::reset() accepts the config shape, the run reinitializes it
 * in place (no per-shard allocation churn); otherwise the old System
 * is destroyed first and a fresh one is constructed into @p sys, so
 * at most one System per @p sys is ever alive. Either way @p sys
 * holds the ran System afterwards — except on error, where it is
 * dropped (a half-run System must not be reused) and the exception
 * propagates.
 * @p trust_factory is forwarded to System::reset() — pass true only
 * when @p cfg is the very config object @p sys last ran.
 */
System::Results runOnceReusing(std::unique_ptr<System> &sys,
                               SystemConfig cfg, std::uint64_t seed,
                               bool trust_factory = false);

/**
 * Fold per-seed raw results into the aggregated metrics the figures
 * use. Deterministic: depends only on @p runs order, which callers fix
 * to seed order regardless of execution order.
 */
ExperimentResult aggregateResults(const std::vector<System::Results> &runs,
                                  const std::string &label);

/**
 * Run @p cfg once per seed in [cfg.seed, cfg.seed + seeds) and
 * average. Traffic and miss statistics are summed before normalizing;
 * runtime variability feeds the stddev (the paper's error bars).
 */
ExperimentResult runExperiment(SystemConfig cfg, int seeds = 3,
                               const std::string &label = "");

} // namespace tokensim

#endif // TOKENSIM_HARNESS_EXPERIMENT_HH
