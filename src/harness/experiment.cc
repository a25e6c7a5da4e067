#include "harness/experiment.hh"

#include <cinttypes>
#include <cstdio>
#include <cstring>

namespace tokensim {

namespace {

/** IEEE-754 bit pattern of @p v (digests must be bit-exact). */
std::uint64_t
doubleBits(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v), "");
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

void
appendField(std::string &out, const char *key, std::uint64_t value,
            bool hex)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf),
                  hex ? "%s=%016" PRIx64 " " : "%s=%" PRIu64 " ", key,
                  value);
    out += buf;
}

} // namespace

std::string
resultDigest(const ExperimentResult &r)
{
    std::string out;
    appendField(out, "ops", r.ops, false);
    appendField(out, "misses", r.misses, false);
    appendField(out, "cpt", doubleBits(r.cyclesPerTransaction), true);
    appendField(out, "cptSd",
                doubleBits(r.cyclesPerTransactionStddev), true);
    appendField(out, "bpm", doubleBits(r.bytesPerMiss), true);
    for (std::size_t c = 0; c < numMsgClasses; ++c) {
        const std::string key = "bpm" + std::to_string(c);
        appendField(out, key.c_str(),
                    doubleBits(r.bytesPerMissByClass[c]), true);
    }
    appendField(out, "missRate", doubleBits(r.missRate), true);
    appendField(out, "c2c", doubleBits(r.cacheToCacheFrac), true);
    appendField(out, "lat", doubleBits(r.avgMissLatencyNs), true);
    appendField(out, "pNot", doubleBits(r.pctNotReissued), true);
    appendField(out, "pOnce", doubleBits(r.pctReissuedOnce), true);
    appendField(out, "pMore", doubleBits(r.pctReissuedMore), true);
    appendField(out, "pPers", doubleBits(r.pctPersistent), true);
    out.pop_back();   // trailing space
    return out;
}

bool
identicalResults(const ExperimentResult &a, const ExperimentResult &b)
{
    // The registries cover every metric (diagnostic ones included)
    // with bit-exact payload comparison; the derived-field checks
    // below would be implied, but stay as a cheap cross-check that
    // derivation itself is deterministic.
    if (a.metrics != b.metrics)
        return false;
    if (a.ops != b.ops || a.misses != b.misses)
        return false;
    if (a.cyclesPerTransaction != b.cyclesPerTransaction ||
        a.cyclesPerTransactionStddev != b.cyclesPerTransactionStddev ||
        a.bytesPerMiss != b.bytesPerMiss ||
        a.missRate != b.missRate ||
        a.cacheToCacheFrac != b.cacheToCacheFrac ||
        a.avgMissLatencyNs != b.avgMissLatencyNs ||
        a.pctNotReissued != b.pctNotReissued ||
        a.pctReissuedOnce != b.pctReissuedOnce ||
        a.pctReissuedMore != b.pctReissuedMore ||
        a.pctPersistent != b.pctPersistent ||
        a.eventsPerOp != b.eventsPerOp)
        return false;
    for (std::size_t c = 0; c < numMsgClasses; ++c)
        if (a.bytesPerMissByClass[c] != b.bytesPerMissByClass[c])
            return false;
    return true;
}

System::Results
runOnce(SystemConfig cfg, std::uint64_t seed)
{
    cfg.seed = seed;
    System sys(cfg);
    sys.run();
    return sys.results();
}

System::Results
runOnceReusing(std::unique_ptr<System> &sys, SystemConfig cfg,
               std::uint64_t seed, bool trust_factory)
{
    cfg.seed = seed;
    try {
        if (!sys || !sys->reset(cfg, trust_factory)) {
            // Drop the old System before building the new one, so a
            // shape change never holds two at once.
            sys.reset();
            sys = std::make_unique<System>(cfg);
        }
        sys->run();
        return sys->results();
    } catch (...) {
        // A System that threw mid-construction or mid-run is not in a
        // reusable state.
        sys.reset();
        throw;
    }
}

ExperimentResult
aggregateResults(const std::vector<System::Results> &runs,
                 const std::string &label)
{
    ExperimentResult out;
    out.label = label;

    // One generic merge replaces the old per-field accumulation: each
    // metric folds in by its kind's rule (counters sum, stats
    // Welford-combine, histograms add bucket-wise). Seed order is
    // fixed by the caller, so the merged registry — and everything
    // derived from it — is independent of execution order.
    for (const System::Results &r : runs)
        out.metrics.merge(r.metrics);
    const MetricRegistry &m = out.metrics;

    // cpt_ns holds one sample per run; combining single-sample stats
    // is bit-identical to the sequential add() loop this replaced
    // (RunningStat::combine's documented guarantee), so the pinned
    // cpt/cptSd digest fields are unchanged.
    const RunningStat cpt = m.statValue("cpt_ns");
    out.cyclesPerTransaction = cpt.mean();
    out.cyclesPerTransactionStddev = cpt.stddev();

    out.ops = m.counterValue("ops");
    const std::uint64_t total_misses = m.counterValue("misses");
    out.misses = total_misses;

    std::uint64_t total_byte_links = 0;
    for (std::size_t c = 0; c < numMsgClasses; ++c) {
        total_byte_links += m.counterValue(
            std::string("link_bytes_") +
            msgClassName(static_cast<MsgClass>(c)));
    }

    if (total_misses) {
        const double denom = static_cast<double>(total_misses);
        out.bytesPerMiss =
            static_cast<double>(total_byte_links) / denom;
        for (std::size_t c = 0; c < numMsgClasses; ++c) {
            out.bytesPerMissByClass[c] =
                static_cast<double>(m.counterValue(
                    std::string("link_bytes_") +
                    msgClassName(static_cast<MsgClass>(c)))) /
                denom;
        }
        out.cacheToCacheFrac =
            static_cast<double>(m.counterValue("cache_to_cache")) /
            denom;

        out.pctNotReissued = 100.0 *
            static_cast<double>(m.counterValue("miss_reissue_none")) /
            denom;
        out.pctReissuedOnce = 100.0 *
            static_cast<double>(m.counterValue("miss_reissue_once")) /
            denom;
        out.pctReissuedMore = 100.0 *
            static_cast<double>(m.counterValue("miss_reissue_more")) /
            denom;
        out.pctPersistent = 100.0 *
            static_cast<double>(m.counterValue("miss_persistent")) /
            denom;
    }
    const std::uint64_t total_l2_accesses =
        m.counterValue("l2_accesses");
    if (total_l2_accesses) {
        out.missRate = static_cast<double>(total_misses) /
            static_cast<double>(total_l2_accesses);
    }

    // The merged miss-latency stat pools every miss of every run, so
    // the cross-seed mean is weighted by miss count (a seed with more
    // misses counts proportionally more; it used to be an unweighted
    // mean of per-seed means). The mean is fractional ticks and must
    // stay fractional through the ns conversion — casting it to Tick
    // first quantized the reported latency to 0.1 ns steps.
    out.avgMissLatencyNs =
        ticksToNsF(m.statValue("miss_latency_ticks").mean());

    if (out.ops) {
        out.eventsPerOp =
            static_cast<double>(m.counterValue("events_dispatched")) /
            static_cast<double>(out.ops);
    }
    return out;
}

ExperimentResult
runExperiment(SystemConfig cfg, int seeds, const std::string &label)
{
    std::vector<System::Results> runs;
    runs.reserve(static_cast<std::size_t>(seeds));
    const std::uint64_t base_seed = cfg.seed;
    for (int s = 0; s < seeds; ++s)
        runs.push_back(runOnce(cfg, base_seed +
                                        static_cast<std::uint64_t>(s)));
    return aggregateResults(runs, label);
}

} // namespace tokensim
