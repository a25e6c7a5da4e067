/**
 * @file
 * Shared helpers for the paper-reproduction benchmark binaries:
 * standard configurations (Table 1), run sizing, and table/bar
 * printing in the style of the paper's figures.
 *
 * Environment knobs:
 *   TOKENSIM_BENCH_OPS    operations per processor (default 6000)
 *   TOKENSIM_BENCH_SEEDS  seeds per design point   (default 2)
 *   TOKENSIM_THREADS      ParallelRunner threads   (default all cores)
 *
 * Figures are bit-identical at any thread count; sweep_tool's
 * --workers runs the same specs on forked processes, equally
 * identical (the determinism ctest gates enforce both).
 *
 * A malformed knob (TOKENSIM_BENCH_OPS=abc) exits with status 2 and a
 * message naming it, instead of running a silently wrong size.
 */

#ifndef TOKENSIM_BENCH_BENCH_UTIL_HH
#define TOKENSIM_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness/argparse.hh"
#include "harness/experiment.hh"
#include "harness/parallel_runner.hh"
#include "harness/system.hh"

namespace tokensim {
namespace bench {

/** Evaluate @p read; a malformed knob's ArgError exits with status 2. */
template <class Read>
auto
envKnob(Read read)
{
    try {
        return read();
    } catch (const ArgError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        std::exit(2);
    }
}

inline std::uint64_t
benchOps()
{
    return envKnob([] { return envU64("TOKENSIM_BENCH_OPS", 6000, 1); });
}

inline int
benchSeeds()
{
    return envKnob([] { return envInt("TOKENSIM_BENCH_SEEDS", 2, 1); });
}

/** The paper's 16-processor target system (Table 1). */
inline SystemConfig
paperConfig(ProtocolKind proto, const std::string &topology,
            const std::string &workload)
{
    SystemConfig cfg;
    cfg.numNodes = 16;
    cfg.topology = topology;
    cfg.protocol = proto;
    cfg.workload = workload;
    cfg.opsPerProcessor = benchOps();
    // The paper measures from warmed checkpoints; warm the caches
    // and sharing state before the measured window.
    cfg.warmupOpsPerProcessor = benchOps();
    cfg.seed = 7;
    return cfg;
}

/** Print a section header. */
inline void
header(const std::string &title)
{
    std::printf("\n%s\n", title.c_str());
    for (std::size_t i = 0; i < title.size(); ++i)
        std::putchar('-');
    std::putchar('\n');
}

/** Print one normalized bar with a text gauge. */
inline void
bar(const std::string &label, double value, double norm,
    const std::string &extra = "")
{
    const double rel = norm > 0 ? value / norm : 0.0;
    std::printf("  %-28s %6.3f |", label.c_str(), rel);
    const int width = static_cast<int>(rel * 32.0 + 0.5);
    for (int i = 0; i < width && i < 64; ++i)
        std::putchar('#');
    if (!extra.empty())
        std::printf("  %s", extra.c_str());
    std::putchar('\n');
}

/** A labelled runtime/traffic result. */
struct Row
{
    std::string label;
    ExperimentResult r;
};

/**
 * Run a whole figure's design points in one invocation across threads
 * (ParallelRunner, thread count from TOKENSIM_THREADS). Results come
 * back in spec order, bit-identical to running each spec serially
 * with runExperiment() — the thread count is pure performance policy
 * and can never change a figure.
 */
inline std::vector<ExperimentResult>
runAll(const std::vector<ExperimentSpec> &specs)
{
    // ParallelRunner reads TOKENSIM_THREADS when it is constructed.
    const ParallelRunner threads =
        envKnob([] { return ParallelRunner(); });
    return threads.run(specs);
}

} // namespace bench
} // namespace tokensim

#endif // TOKENSIM_BENCH_BENCH_UTIL_HH
