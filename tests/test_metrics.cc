/**
 * @file
 * Unit tests for the named-metric registry behind System::Results
 * ("results v2") and the two precision bugfixes it exposed:
 *
 *  - merge-rule equivalence: the generic registry merge (counter sum,
 *    Welford stat combine, histogram bucket-add) reproduces the old
 *    hand-written aggregation bit-for-bit where the digest pins it
 *    (cpt/cptSd), and fixes it where it was wrong (miss latency);
 *  - fractional-tick latency: the cross-seed average miss latency is
 *    a miss-count-weighted pooled mean and is never truncated to a
 *    whole Tick before the ns conversion;
 *  - histogram clamping: LogHistogram::bucketOf is a total function
 *    — negative, NaN, and huge samples clamp instead of hitting
 *    float-to-integer UB (this suite runs under the CI ubsan job);
 *  - wire: the registry codec round-trips adversarial payloads
 *    bit-exactly, throws a typed WireError at every truncation
 *    offset, and rejects each malformed-input class.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hh"
#include "harness/wire.hh"
#include "net/message.hh"
#include "sim/metrics.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace tokensim {
namespace {

void
expectSameBits(double a, double b, const char *what)
{
    std::uint64_t ab, bb;
    std::memcpy(&ab, &a, sizeof(ab));
    std::memcpy(&bb, &b, sizeof(bb));
    EXPECT_EQ(ab, bb) << what;
}

// ---------------------------------------------------------------------
// Registry API
// ---------------------------------------------------------------------

TEST(MetricRegistry, LookupAndAbsentDefaults)
{
    MetricRegistry m;
    EXPECT_TRUE(m.empty());
    m.addCounter("ops", metricPinned, 42);
    RunningStat s;
    s.add(3.0);
    m.addStat("lat", metricDiagnostic, s);
    LogHistogram h;
    h.add(5.0);
    m.addHistogram("hist", metricDiagnostic, h);

    EXPECT_EQ(m.size(), 3u);
    ASSERT_NE(m.find("ops"), nullptr);
    EXPECT_EQ(m.find("ops")->kind, MetricKind::counter);
    EXPECT_TRUE(m.find("ops")->pinned);
    EXPECT_EQ(m.counterValue("ops"), 42u);
    EXPECT_EQ(m.statValue("lat").count(), 1u);
    ASSERT_NE(m.histogram("hist"), nullptr);
    EXPECT_EQ(m.histogram("hist")->total(), 1u);

    // Absent names report what a default-constructed Results would:
    // zero / empty / missing — never a throw.
    EXPECT_EQ(m.find("nope"), nullptr);
    EXPECT_EQ(m.counterValue("nope"), 0u);
    EXPECT_EQ(m.statValue("nope").count(), 0u);
    EXPECT_EQ(m.histogram("nope"), nullptr);
}

TEST(MetricRegistry, EmptyOrDuplicateNameThrows)
{
    MetricRegistry m;
    m.addCounter("x", metricPinned, 1);
    EXPECT_THROW(m.addCounter("", metricPinned, 1),
                 std::invalid_argument);
    EXPECT_THROW(m.addCounter("x", metricPinned, 1),
                 std::invalid_argument);
    EXPECT_THROW(m.addStat("x", metricPinned, RunningStat{}),
                 std::invalid_argument);
    EXPECT_THROW(m.addHistogram("x", metricPinned, LogHistogram{}),
                 std::invalid_argument);
}

TEST(MetricRegistry, MergeAppliesPerKindRulesAndAppendsNewNames)
{
    MetricRegistry a;
    a.addCounter("c", metricPinned, 10);
    RunningStat sa;
    sa.add(1.0);
    sa.add(2.0);
    a.addStat("s", metricPinned, sa);
    LogHistogram ha;
    ha.add(2.0);
    a.addHistogram("h", metricDiagnostic, ha);

    MetricRegistry b;
    b.addCounter("c", metricPinned, 32);
    RunningStat sb;
    sb.add(3.0);
    b.addStat("s", metricPinned, sb);
    LogHistogram hb;
    hb.add(2.5);
    hb.add(1000.0);
    b.addHistogram("h", metricDiagnostic, hb);
    b.addCounter("only_in_b", metricDiagnostic, 7);

    a.merge(b);
    EXPECT_EQ(a.counterValue("c"), 42u);
    EXPECT_EQ(a.statValue("s").count(), 3u);
    EXPECT_DOUBLE_EQ(a.statValue("s").mean(), 2.0);
    EXPECT_EQ(a.histogram("h")->total(), 3u);
    // Unknown names append at the end, preserving insertion order.
    EXPECT_EQ(a.counterValue("only_in_b"), 7u);
    EXPECT_EQ(a.all().back().name, "only_in_b");
}

TEST(MetricRegistry, MergeRefusesKindOrPinnedMismatch)
{
    MetricRegistry a;
    a.addCounter("m", metricPinned, 1);

    MetricRegistry kind_clash;
    kind_clash.addStat("m", metricPinned, RunningStat{});
    EXPECT_THROW(a.merge(kind_clash), std::logic_error);

    MetricRegistry flag_clash;
    flag_clash.addCounter("m", metricDiagnostic, 1);
    EXPECT_THROW(a.merge(flag_clash), std::logic_error);
}

TEST(MetricRegistry, EqualityIsOrderSensitiveAndBitExact)
{
    MetricRegistry a, b;
    a.addCounter("x", metricPinned, 1);
    a.addCounter("y", metricPinned, 2);
    b.addCounter("y", metricPinned, 2);
    b.addCounter("x", metricPinned, 1);
    EXPECT_TRUE(a != b);   // same content, different order

    MetricRegistry c, d;
    RunningStat plus, minus;
    plus.add(0.0);
    minus.add(-0.0);
    c.addStat("s", metricPinned, plus);
    d.addStat("s", metricPinned, minus);
    EXPECT_TRUE(c != d);   // -0.0 and +0.0 differ as bit patterns

    MetricRegistry e, f;
    RunningStat nan1, nan2;
    nan1.add(std::nan(""));
    nan2.add(std::nan(""));
    e.addStat("s", metricPinned, nan1);
    f.addStat("s", metricPinned, nan2);
    EXPECT_TRUE(e == f);   // identical NaN payloads compare equal
}

// ---------------------------------------------------------------------
// Merge-rule semantics (the digest-pinning guarantees)
// ---------------------------------------------------------------------

TEST(RunningStatCombine, SingleSampleStatsReplaySequentialAddExactly)
{
    // aggregateResults merges one cpt_ns sample per run; the digest
    // pins the resulting mean/stddev, so the combine of single-sample
    // stats must be bit-identical to the add() loop it replaced.
    const double samples[] = {1234.0625, 980.5,  1111.125, 1023.75,
                              997.03125, 1342.5, 1200.0,   1005.25};
    RunningStat sequential, merged;
    for (double x : samples) {
        sequential.add(x);
        RunningStat one;
        one.add(x);
        merged.combine(one);
    }
    EXPECT_TRUE(sequential == merged);
    expectSameBits(sequential.mean(), merged.mean(), "mean");
    expectSameBits(sequential.stddev(), merged.stddev(), "stddev");
}

TEST(RunningStatCombine, EmptyIsIdentityOnBothSides)
{
    RunningStat s;
    s.add(4.0);
    s.add(8.0);
    const RunningStat before = s;
    s.combine(RunningStat{});
    EXPECT_TRUE(s == before);

    RunningStat empty;
    empty.combine(before);
    EXPECT_TRUE(empty == before);
}

TEST(RunningStatCombine, PooledMomentsMatchFlatAccumulation)
{
    RunningStat left, right, flat;
    for (int i = 0; i < 10; ++i) {
        const double x = 3.25 * i - 7.0;
        left.add(x);
        flat.add(x);
    }
    for (int i = 0; i < 25; ++i) {
        const double x = 0.5 * i + 100.0;
        right.add(x);
        flat.add(x);
    }
    left.combine(right);
    EXPECT_EQ(left.count(), flat.count());
    EXPECT_NEAR(left.mean(), flat.mean(), 1e-9);
    EXPECT_NEAR(left.variance(), flat.variance(), 1e-6);
    EXPECT_EQ(left.min(), flat.min());
    EXPECT_EQ(left.max(), flat.max());
}

TEST(Aggregation, CrossSeedMissLatencyIsWeightedByMissCount)
{
    // The second latency bug: run A has 1 miss at 10 ticks, run B has
    // 3 misses at 20 ticks. The old unweighted mean of per-seed means
    // reported (1.0 + 2.0) / 2 = 1.5 ns; pooling the samples weights
    // seed B 3x and gives 17.5 ticks = 1.75 ns.
    System::Results a, b;
    RunningStat la;
    la.add(10.0);
    a.metrics.addStat("miss_latency_ticks", metricPinned, la);
    RunningStat lb;
    lb.add(20.0);
    lb.add(20.0);
    lb.add(20.0);
    b.metrics.addStat("miss_latency_ticks", metricPinned, lb);

    const ExperimentResult r = aggregateResults({a, b}, "weighted");
    EXPECT_DOUBLE_EQ(r.avgMissLatencyNs, 1.75);
}

TEST(Aggregation, AvgMissLatencyKeepsFractionalTicks)
{
    // The first latency bug: a pooled mean of 3.5 ticks used to be
    // cast to Tick (3) before the ns conversion, quantizing the
    // reported latency to 0.1-ns steps. 3.5 ticks is 0.35 ns.
    System::Results run;
    RunningStat lat;
    lat.add(3.0);
    lat.add(4.0);
    run.metrics.addStat("miss_latency_ticks", metricPinned, lat);

    const ExperimentResult r = aggregateResults({run}, "frac");
    EXPECT_DOUBLE_EQ(r.avgMissLatencyNs, 0.35);
    // The old truncating path really would have differed.
    EXPECT_NE(r.avgMissLatencyNs,
              ticksToNsF(static_cast<Tick>(lat.mean())));
}

TEST(Aggregation, RegistryMergeMatchesHandWrittenAggregate)
{
    // Three synthetic runs with every digest-feeding metric set;
    // aggregateResults must reproduce the old per-field arithmetic.
    struct RunSpec
    {
        std::uint64_t ops, misses, l2, c2c;
        std::uint64_t none, once, more, pers;
        double cpt;
        std::uint64_t bytes[numMsgClasses];
    };
    const RunSpec specs[] = {
        {12000, 700, 9000, 120, 650, 30, 15, 5, 812.5,
         {1000, 2000, 30000, 400, 50}},
        {12000, 900, 9500, 260, 820, 50, 20, 10, 777.25,
         {1100, 2200, 33000, 440, 55}},
        {12000, 500, 8800, 90, 470, 20, 8, 2, 905.0625,
         {900, 1800, 27000, 360, 45}},
    };

    std::vector<System::Results> runs;
    for (const RunSpec &s : specs) {
        System::Results r;
        MetricRegistry &m = r.metrics;
        m.addCounter("ops", metricPinned, s.ops);
        m.addCounter("misses", metricPinned, s.misses);
        m.addCounter("l2_accesses", metricPinned, s.l2);
        m.addCounter("cache_to_cache", metricPinned, s.c2c);
        m.addCounter("miss_reissue_none", metricPinned, s.none);
        m.addCounter("miss_reissue_once", metricPinned, s.once);
        m.addCounter("miss_reissue_more", metricPinned, s.more);
        m.addCounter("miss_persistent", metricPinned, s.pers);
        RunningStat cpt;
        cpt.add(s.cpt);
        m.addStat("cpt_ns", metricPinned, cpt);
        for (std::size_t c = 0; c < numMsgClasses; ++c) {
            m.addCounter(std::string("link_bytes_") +
                             msgClassName(static_cast<MsgClass>(c)),
                         metricPinned, s.bytes[c]);
        }
        runs.push_back(std::move(r));
    }

    const ExperimentResult r = aggregateResults(runs, "equiv");

    // The hand-written version: sum counters, sequential-add cpt.
    std::uint64_t ops = 0, misses = 0, l2 = 0, c2c = 0, none = 0,
                  bytes = 0;
    RunningStat cpt;
    for (const RunSpec &s : specs) {
        ops += s.ops;
        misses += s.misses;
        l2 += s.l2;
        c2c += s.c2c;
        none += s.none;
        cpt.add(s.cpt);
        for (std::size_t c = 0; c < numMsgClasses; ++c)
            bytes += s.bytes[c];
    }
    EXPECT_EQ(r.ops, ops);
    EXPECT_EQ(r.misses, misses);
    expectSameBits(r.cyclesPerTransaction, cpt.mean(), "cpt");
    expectSameBits(r.cyclesPerTransactionStddev, cpt.stddev(),
                   "cptSd");
    expectSameBits(r.bytesPerMiss,
                   static_cast<double>(bytes) /
                       static_cast<double>(misses),
                   "bpm");
    expectSameBits(r.missRate,
                   static_cast<double>(misses) /
                       static_cast<double>(l2),
                   "missRate");
    expectSameBits(r.cacheToCacheFrac,
                   static_cast<double>(c2c) /
                       static_cast<double>(misses),
                   "c2c");
    expectSameBits(r.pctNotReissued,
                   100.0 * static_cast<double>(none) /
                       static_cast<double>(misses),
                   "pNot");
}

// ---------------------------------------------------------------------
// Histogram clamping (runs under the CI ubsan job)
// ---------------------------------------------------------------------

TEST(LogHistogram, BucketBoundariesAreExact)
{
    EXPECT_EQ(LogHistogram::bucketOf(std::nan("")), 0);
    EXPECT_EQ(LogHistogram::bucketOf(-5.0), 0);
    EXPECT_EQ(LogHistogram::bucketOf(0.0), 0);
    EXPECT_EQ(LogHistogram::bucketOf(0.999), 0);
    EXPECT_EQ(LogHistogram::bucketOf(1.0), 1);
    EXPECT_EQ(LogHistogram::bucketOf(1.999), 1);
    EXPECT_EQ(LogHistogram::bucketOf(2.0), 2);
    EXPECT_EQ(LogHistogram::bucketOf(3.999), 2);
    EXPECT_EQ(LogHistogram::bucketOf(4.0), 3);
    EXPECT_EQ(LogHistogram::bucketOf(0x1p62), 63);
    EXPECT_EQ(LogHistogram::bucketOf(0x1p63), LogHistogram::kMaxBucket);
    EXPECT_EQ(LogHistogram::bucketOf(
                  std::numeric_limits<double>::infinity()),
              LogHistogram::kMaxBucket);
}

TEST(LogHistogram, AddCountClampsOutOfRangeBuckets)
{
    LogHistogram h;
    h.addCount(-7, 3);
    h.addCount(1000, 2);
    h.addCount(5, 1);
    h.addCount(5, 4);
    EXPECT_EQ(h.total(), 10u);
    const auto &b = h.buckets();
    ASSERT_EQ(b.size(), 3u);
    EXPECT_EQ(b[0], (std::pair<std::int32_t, std::uint64_t>{0, 3}));
    EXPECT_EQ(b[1], (std::pair<std::int32_t, std::uint64_t>{5, 5}));
    EXPECT_EQ(b[2],
              (std::pair<std::int32_t, std::uint64_t>{
                  LogHistogram::kMaxBucket, 2}));
}

// ---------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------

MetricRegistry
adversarialRegistry()
{
    MetricRegistry m;
    m.addCounter("max_counter", metricPinned,
                 std::numeric_limits<std::uint64_t>::max());
    m.addCounter("zero", metricDiagnostic, 0);

    RunningStat::Snapshot weird;
    weird.count = 5;
    weird.mean = -0.0;
    weird.m2 = std::nan("");
    weird.min = -std::numeric_limits<double>::infinity();
    weird.max = std::numeric_limits<double>::infinity();
    m.addStat("weird", metricDiagnostic,
              RunningStat::fromSnapshot(weird));
    m.addStat("empty_stat", metricPinned, RunningStat{});

    LogHistogram h;
    h.addCount(0, 9);
    h.addCount(7, 123456789);
    h.addCount(LogHistogram::kMaxBucket, 1);
    m.addHistogram("hist", metricDiagnostic, h);
    m.addHistogram("empty_hist", metricDiagnostic, LogHistogram{});
    return m;
}

TEST(MetricsWire, AdversarialRegistryRoundTripsBitExactly)
{
    const MetricRegistry m = adversarialRegistry();
    WireWriter w;
    encodeMetrics(w, m);
    WireReader r(w.buffer());
    const MetricRegistry back = decodeMetrics(r);
    EXPECT_NO_THROW(r.expectEnd("metrics"));
    EXPECT_TRUE(m == back);
}

TEST(MetricsWire, TruncationAtEveryByteOffsetIsATypedError)
{
    WireWriter w;
    encodeMetrics(w, adversarialRegistry());
    const std::string full = w.buffer();
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
        SCOPED_TRACE("cut=" + std::to_string(cut));
        WireReader r(full.data(), cut);
        EXPECT_THROW(decodeMetrics(r), WireError);
    }
}

/** One-histogram registry with hand-chosen (bucket, count) pairs. */
std::string
histogramWire(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>> &buckets)
{
    WireWriter w;
    w.varint(1);
    w.str("h");
    w.u8(static_cast<std::uint8_t>(MetricKind::histogram));
    w.boolean(false);
    w.varint(buckets.size());
    for (const auto &[idx, count] : buckets) {
        w.varint(idx);
        w.varint(count);
    }
    return w.take();
}

TEST(MetricsWire, NonAscendingHistogramBucketsAreATypedError)
{
    {
        const std::string buf = histogramWire({{3, 1}, {2, 1}});
        WireReader r(buf);
        EXPECT_THROW(decodeMetrics(r), WireError);
    }
    {
        const std::string buf = histogramWire({{3, 1}, {3, 1}});
        WireReader r(buf);
        EXPECT_THROW(decodeMetrics(r), WireError);
    }
}

TEST(MetricsWire, HistogramBucketIndexOutOfRangeIsATypedError)
{
    const std::string buf = histogramWire(
        {{static_cast<std::uint64_t>(LogHistogram::kMaxBucket) + 1,
          1}});
    WireReader r(buf);
    EXPECT_THROW(decodeMetrics(r), WireError);
}

TEST(MetricsWire, HistogramZeroCountBucketIsATypedError)
{
    const std::string buf = histogramWire({{2, 0}});
    WireReader r(buf);
    EXPECT_THROW(decodeMetrics(r), WireError);
}

TEST(MetricsWire, HistogramBucketCountOverRangeIsATypedError)
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> too_many;
    for (std::uint64_t i = 0;
         i <= static_cast<std::uint64_t>(LogHistogram::kMaxBucket) + 1;
         ++i)
        too_many.emplace_back(i, 1);
    const std::string buf = histogramWire(too_many);
    WireReader r(buf);
    EXPECT_THROW(decodeMetrics(r), WireError);
}

} // namespace
} // namespace tokensim
