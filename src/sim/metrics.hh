/**
 * @file
 * Named-metric registry: the typed, self-describing container behind
 * System::Results ("results v2").
 *
 * Every run statistic is one Metric — a monotonic counter, a
 * RunningStat, or a sparse log-bucket histogram — registered under a
 * stable string name with a merge rule implied by its kind (sum /
 * Welford-combine / bucket-add) and a pinned-vs-diagnostic flag.
 * Aggregation (harness/experiment.cc), parallel sharding
 * (harness/parallel_runner.cc), and the checkpoint wire format
 * (harness/wire.cc) all operate on the registry generically: adding a
 * metric is a one-line registration in System::results(), not a
 * six-file plumbing change.
 *
 * ## Pinned vs diagnostic
 *
 * `pinned` metrics feed the aggregates that resultDigest() prints —
 * the golden-trace oracle pins their values, so changing how one is
 * collected or merged requires a golden regeneration with written
 * justification (tests/golden/README.md policy). `diagnostic` metrics
 * (event-kernel counters, traffic breakdowns, latency histograms)
 * describe simulator cost or extra detail: they must still be
 * deterministic — identicalResults() and the parallel-vs-serial
 * differential gates compare the *whole* registry — but they stay out
 * of the digest so bookkeeping changes never churn goldens.
 *
 * ## Determinism contract
 *
 * A registry is an ordered sequence, not a map: two registries are
 * equal only if they hold the same metrics in the same order with
 * bit-identical payloads. System::results() registers metrics in one
 * fixed order, so serial, threaded, and checkpoint-restored results
 * compare with a plain operator==.
 */

#ifndef TOKENSIM_SIM_METRICS_HH
#define TOKENSIM_SIM_METRICS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/stats.hh"

namespace tokensim {

/** What a Metric holds; doubles as its wire tag and merge rule. */
enum class MetricKind : std::uint8_t
{
    counter = 0,    ///< u64, merges by sum
    stat = 1,       ///< RunningStat, merges by Welford-combine
    histogram = 2,  ///< LogHistogram, merges by bucket-wise add
};

/** Readability constants for the registration flag. */
constexpr bool metricPinned = true;
constexpr bool metricDiagnostic = false;

/** One named statistic. Exactly one payload is live, per `kind`. */
struct Metric
{
    std::string name;
    MetricKind kind = MetricKind::counter;
    bool pinned = false;

    std::uint64_t value = 0;  ///< kind == counter
    RunningStat stat;         ///< kind == stat
    LogHistogram hist;        ///< kind == histogram

    bool operator==(const Metric &o) const;
    bool operator!=(const Metric &o) const { return !(*this == o); }
};

/** Insertion-ordered collection of uniquely named metrics. */
class MetricRegistry
{
  public:
    /** @throws std::invalid_argument on an empty or duplicate name. */
    void addCounter(const std::string &name, bool pinned,
                    std::uint64_t value);
    void addStat(const std::string &name, bool pinned,
                 const RunningStat &stat);
    void addHistogram(const std::string &name, bool pinned,
                      const LogHistogram &hist);

    /** The metric named @p name, or nullptr. Linear scan: a run
     *  produces ~45 metrics and lookups happen at reporting time, not
     *  on the simulation hot path. */
    const Metric *find(const std::string &name) const;

    /** Counter value, or 0 if absent (absent ≡ never incremented —
     *  what a default-constructed Results reports for every field). */
    std::uint64_t counterValue(const std::string &name) const;

    /** Stat payload, or an empty RunningStat if absent. */
    RunningStat statValue(const std::string &name) const;

    /** Histogram payload, or nullptr if absent. */
    const LogHistogram *histogram(const std::string &name) const;

    /**
     * Fold @p o into this registry: shared names merge by kind (sum /
     * combine / bucket-add), names only in @p o are appended. This is
     * the one merge every aggregation path uses — cross-seed
     * (aggregateResults) and cross-thread (ParallelRunner) — so they
     * cannot drift apart.
     *
     * @throws std::logic_error if a shared name disagrees on kind or
     * pinned flag: that means two builds registered the same metric
     * differently, a bug to surface, not to paper over.
     */
    void merge(const MetricRegistry &o);

    /** Order-sensitive, bit-exact equality (see file comment). */
    bool operator==(const MetricRegistry &o) const;
    bool operator!=(const MetricRegistry &o) const
    {
        return !(*this == o);
    }

    const std::vector<Metric> &all() const { return metrics_; }
    std::size_t size() const { return metrics_.size(); }
    bool empty() const { return metrics_.empty(); }

  private:
    Metric &addMetric(const std::string &name, MetricKind kind,
                      bool pinned);

    std::vector<Metric> metrics_;
};

} // namespace tokensim

#endif // TOKENSIM_SIM_METRICS_HH
