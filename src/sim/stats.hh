/**
 * @file
 * Lightweight statistics utilities.
 *
 * Components accumulate counters and distributions during simulation; the
 * harness reads them out at the end of a run to assemble the paper's
 * tables and figures. Nothing here is thread-aware: the simulator is
 * single-threaded and deterministic.
 */

#ifndef TOKENSIM_SIM_STATS_HH
#define TOKENSIM_SIM_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace tokensim {

/**
 * Streaming mean/variance accumulator (Welford's algorithm).
 *
 * Used for miss latencies (TokenB's adaptive reissue timeout needs a
 * recent average) and for run-to-run error bars.
 */
class RunningStat
{
  public:
    void
    add(double x)
    {
        ++n_;
        const double delta = x - mean_;
        mean_ += delta / static_cast<double>(n_);
        m2_ += delta * (x - mean_);
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }

    /**
     * Fold @p o into this stat as if every sample @p o absorbed had
     * been add()ed here directly (Chan et al.'s parallel combine).
     * This is the registry merge rule for stat metrics: it pools
     * miss-latency stats across nodes and seeds, so a run (or seed)
     * with more samples weighs proportionally more — the old
     * mean-of-per-group-means aggregation weighed every group
     * equally.
     *
     * When @p o holds exactly one sample the update is performed as
     * add(o.mean()), which is the bit-exact sequential path: merging
     * a sequence of single-sample stats therefore reproduces a plain
     * add() loop double-for-double. The cross-seed cycles-per-
     * transaction aggregation (one sample per run) relies on this to
     * keep its digest-pinned mean/stddev unchanged under the generic
     * registry merge.
     */
    void
    combine(const RunningStat &o)
    {
        if (o.n_ == 0)
            return;
        if (n_ == 0) {
            *this = o;
            return;
        }
        if (o.n_ == 1) {
            add(o.mean_);
            return;
        }
        const double na = static_cast<double>(n_);
        const double nb = static_cast<double>(o.n_);
        const double n = na + nb;
        const double delta = o.mean_ - mean_;
        mean_ += delta * (nb / n);
        m2_ += o.m2_ + delta * delta * (na * nb / n);
        n_ += o.n_;
        min_ = std::min(min_, o.min_);
        max_ = std::max(max_, o.max_);
    }

    void
    reset()
    {
        *this = RunningStat();
    }

    /**
     * Bit-exact equality of the complete internal state (IEEE-754 bit
     * patterns, not numeric comparison — NaN == NaN, -0.0 != +0.0).
     * This is the comparison the determinism tests need: two stats are
     * interchangeable iff every future mean()/stddev() they can report
     * is identical.
     */
    bool
    operator==(const RunningStat &o) const
    {
        return n_ == o.n_ && sameBits(mean_, o.mean_) &&
            sameBits(m2_, o.m2_) && sameBits(min_, o.min_) &&
            sameBits(max_, o.max_);
    }
    bool operator!=(const RunningStat &o) const { return !(*this == o); }

    static bool
    sameBits(double a, double b)
    {
        std::uint64_t ua, ub;
        std::memcpy(&ua, &a, sizeof(ua));
        std::memcpy(&ub, &b, sizeof(ub));
        return ua == ub;
    }

    std::uint64_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }

    double
    variance() const
    {
        return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
    }

    double stddev() const { return std::sqrt(variance()); }

    /**
     * The complete internal state, exposed so a RunningStat can be
     * encoded losslessly (harness/wire.cc writes System::Results
     * into sweep checkpoints). An empty stat's min/max are the
     * +/-infinity sentinels; they round-trip as IEEE-754 bit patterns
     * like any other double.
     */
    struct Snapshot
    {
        std::uint64_t count = 0;
        double mean = 0.0;
        double m2 = 0.0;
        double min = std::numeric_limits<double>::infinity();
        double max = -std::numeric_limits<double>::infinity();
    };

    Snapshot
    snapshot() const
    {
        return Snapshot{n_, mean_, m2_, min_, max_};
    }

    static RunningStat
    fromSnapshot(const Snapshot &s)
    {
        RunningStat r;
        r.n_ = s.count;
        r.mean_ = s.mean;
        r.m2_ = s.m2;
        r.min_ = s.min;
        r.max_ = s.max;
        return r;
    }

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Exponentially-weighted moving average.
 *
 * TokenB sizes its reissue timeout from the *recent* average miss
 * latency (Section 4.2); an EWMA captures "recent" without storing a
 * window.
 */
class Ewma
{
  public:
    /** @param alpha weight of each new sample, in (0, 1]. */
    explicit Ewma(double alpha = 0.1, double initial = 0.0)
        : alpha_(alpha), value_(initial)
    {}

    void
    add(double x)
    {
        if (!primed_) {
            value_ = x;
            primed_ = true;
        } else {
            value_ += alpha_ * (x - value_);
        }
    }

    double value() const { return value_; }
    bool primed() const { return primed_; }

    void
    reset(double initial = 0.0)
    {
        value_ = initial;
        primed_ = false;
    }

  private:
    double alpha_;
    double value_;
    bool primed_ = false;
};

/**
 * Sparse power-of-two histogram for long-tailed distributions (miss
 * latencies span ~20 ticks for an L2 hit to tens of thousands under
 * persistent-request starvation, so linear buckets either blur the
 * head or truncate the tail).
 *
 * Bucket b holds samples x with 2^(b-1) <= x < 2^b; bucket 0 collects
 * everything below 1.0 plus the clamped junk (negatives, NaN), and
 * bucket kMaxBucket is the overflow for anything >= 2^63. Only
 * occupied buckets are stored, as (bucket, count) pairs kept sorted by
 * bucket index — the registry merges and serializes these generically,
 * and a typical run occupies well under a dozen buckets.
 */
class LogHistogram
{
  public:
    /** Highest bucket index; also the overflow bucket. */
    static constexpr std::int32_t kMaxBucket = 64;

    /** Bucket index for a sample; total function, never UB. */
    static std::int32_t
    bucketOf(double x)
    {
        if (std::isnan(x) || x < 1.0)
            return 0;
        if (x >= 0x1p63)
            return kMaxBucket;
        return 1 + std::ilogb(x);
    }

    void add(double x) { addCount(bucketOf(x), 1); }

    /**
     * Add @p count samples to bucket @p bucket directly; the merge
     * rule and the wire decoder both enter through here. Out-of-range
     * bucket indices are clamped, preserving total counts.
     */
    void
    addCount(std::int32_t bucket, std::uint64_t count)
    {
        if (count == 0)
            return;
        bucket = std::min(std::max(bucket, std::int32_t{0}), kMaxBucket);
        auto it = std::lower_bound(
            buckets_.begin(), buckets_.end(), bucket,
            [](const auto &p, std::int32_t b) { return p.first < b; });
        if (it != buckets_.end() && it->first == bucket)
            it->second += count;
        else
            buckets_.insert(it, {bucket, count});
    }

    /** Bucket-wise addition; the registry merge rule for histograms. */
    void
    merge(const LogHistogram &o)
    {
        for (const auto &[bucket, count] : o.buckets_)
            addCount(bucket, count);
    }

    std::uint64_t
    total() const
    {
        std::uint64_t t = 0;
        for (const auto &[bucket, count] : buckets_) {
            (void)bucket;
            t += count;
        }
        return t;
    }

    bool empty() const { return buckets_.empty(); }

    /** Occupied buckets, sorted ascending by bucket index. */
    const std::vector<std::pair<std::int32_t, std::uint64_t>> &
    buckets() const
    {
        return buckets_;
    }

    bool
    operator==(const LogHistogram &o) const
    {
        return buckets_ == o.buckets_;
    }
    bool operator!=(const LogHistogram &o) const { return !(*this == o); }

  private:
    std::vector<std::pair<std::int32_t, std::uint64_t>> buckets_;
};

/** printf-style std::string formatting helper. */
std::string strformat(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace tokensim

#endif // TOKENSIM_SIM_STATS_HH
