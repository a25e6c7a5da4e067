/**
 * @file
 * Whole-registry fingerprints: FNV-1a over encodeResults() of small
 * 16-node runs, one per protocol on the detailed and on the sampled
 * engine, plus TokenB under transient-request sabotage and under a
 * persistent-request storm.
 *
 * The golden digests (test_golden_traces.cc) pin only the metrics
 * flagged as pinned. These fingerprints also cover every diagnostic
 * counter — messages and link bytes per class and type,
 * net_deliveries, net_latency_ticks, the event-kernel counters, the
 * miss-latency histogram — so a change to the delivery path that must
 * not alter simulated behaviour (skipping copies a controller would
 * ignore, re-batching deliveries) is caught even where no pinned
 * metric moves.
 *
 * The constants were computed from the code before the token-holder
 * delivery skip existed. If simulated behaviour changes on purpose,
 * print the new values with TOKENSIM_PRINT_FINGERPRINTS=1 and justify
 * the update with the change.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness/experiment.hh"
#include "harness/system.hh"
#include "harness/wire.hh"

namespace tokensim {
namespace {

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
    }
    return h;
}

std::uint64_t
fingerprint(const System::Results &r)
{
    WireWriter w;
    encodeResults(w, r);
    return fnv1a(w.buffer());
}

SystemConfig
baseConfig(ProtocolKind proto)
{
    SystemConfig cfg;
    cfg.numNodes = 16;
    cfg.protocol = proto;
    cfg.topology = proto == ProtocolKind::snooping ? "tree" : "torus";
    cfg.l2 = CacheParams{256 * 1024, 4, 64, nsToTicks(6)};
    cfg.seed = 20261017;
    return cfg;
}

/** Detailed engine: tpcc past a short warm-up. */
SystemConfig
detailedConfig(ProtocolKind proto)
{
    SystemConfig cfg = baseConfig(proto);
    cfg.workload = "tpcc";
    cfg.warmupOpsPerProcessor = 300;
    cfg.opsPerProcessor = 600;
    return cfg;
}

/** Sampled engine: fast-forward spans between detailed windows. */
SystemConfig
sampledConfig(ProtocolKind proto)
{
    SystemConfig cfg = baseConfig(proto);
    cfg.workload = "ycsb";
    cfg.opsPerProcessor = 0;
    cfg.sampling = SamplingSpec{1000, 200, 3};
    return cfg;
}

/** A small hot set, so transient requests race for every block. */
SystemConfig
contendedConfig()
{
    SystemConfig cfg = baseConfig(ProtocolKind::tokenB);
    cfg.workload = "uniform";
    cfg.workload.uniformBlocks = 64;
    cfg.workload.storeFraction = 0.5;
    cfg.opsPerProcessor = 500;
    return cfg;
}

struct Pinned
{
    const char *name;
    SystemConfig cfg;
    std::uint64_t expected;
    /** Least share of misses that must reissue or go persistent, so
     *  the run keeps exercising what it is named for. */
    double minRecoveredFrac = 0.0;
};

std::vector<Pinned>
pinnedRuns()
{
    std::vector<Pinned> out = {
        {"detailed-Snooping", detailedConfig(ProtocolKind::snooping),
         0xa9c80ead92bf2622ULL},
        {"detailed-Directory", detailedConfig(ProtocolKind::directory),
         0x4646a1c75ef6ef68ULL},
        {"detailed-Hammer", detailedConfig(ProtocolKind::hammer),
         0x68a6b12980d33ed0ULL},
        {"detailed-TokenB", detailedConfig(ProtocolKind::tokenB),
         0xbb2a83f95bc76c55ULL},
        {"detailed-TokenD", detailedConfig(ProtocolKind::tokenD),
         0x5729cd50ce9d42a5ULL},
        {"detailed-TokenM", detailedConfig(ProtocolKind::tokenM),
         0x96b66c5bbdcd1827ULL},
        {"detailed-TokenA", detailedConfig(ProtocolKind::tokenA),
         0x2598023da0bf23e0ULL},
        {"detailed-TokenNull", detailedConfig(ProtocolKind::tokenNull),
         0x2a8d8db45f14b4daULL},
        {"sampled-Snooping", sampledConfig(ProtocolKind::snooping),
         0xb8d8d1d45260d54bULL},
        {"sampled-Directory", sampledConfig(ProtocolKind::directory),
         0xc5b74f13d14119a3ULL},
        {"sampled-Hammer", sampledConfig(ProtocolKind::hammer),
         0x53599c3055836a4bULL},
        {"sampled-TokenB", sampledConfig(ProtocolKind::tokenB),
         0x9768867d7b82ea20ULL},
        {"sampled-TokenD", sampledConfig(ProtocolKind::tokenD),
         0x7be40afc6d8b8b70ULL},
        {"sampled-TokenM", sampledConfig(ProtocolKind::tokenM),
         0xf56177d5892acf2bULL},
        {"sampled-TokenA", sampledConfig(ProtocolKind::tokenA),
         0xf39e75ca606f65eeULL},
        {"sampled-TokenNull", sampledConfig(ProtocolKind::tokenNull),
         0x75d3626017c0def2ULL},
    };

    // Dropped and misdirected transient requests: reissues and
    // persistent requests recover, and the unicast misdirects mix
    // with the broadcasts in the same delivery batches.
    SystemConfig chaos = contendedConfig();
    chaos.proto.chaosDropFraction = 0.3;
    chaos.proto.chaosMisdirectFraction = 0.2;
    out.push_back({"chaos-TokenB", chaos, 0xfaae45327997f635ULL, 0.2});

    // Timeouts far below the miss latency: nearly every miss escalates
    // to a persistent request, so activations, forwarded tokens and
    // ignored transients at persistent-table entries dominate.
    SystemConfig storm = contendedConfig();
    storm.proto.maxReissues = 1;
    storm.proto.initialAvgMissLatency = nsToTicks(20);
    storm.proto.maxReissueTimeout = nsToTicks(40);
    out.push_back(
        {"persistent-TokenB", storm, 0x4ef2599f6c1c4fceULL, 0.5});
    return out;
}

bool
printRequested()
{
    const char *v = std::getenv("TOKENSIM_PRINT_FINGERPRINTS");
    return v && *v && std::string(v) != "0";
}

TEST(RegistryFingerprints, WholeRegistriesMatchPinnedValues)
{
    const bool print = printRequested();
    for (const Pinned &p : pinnedRuns()) {
        SCOPED_TRACE(p.name);
        const System::Results r = runOnce(p.cfg, p.cfg.seed);
        ASSERT_GT(r.misses(), 0u);
        const std::uint64_t recovered = r.missesReissuedOnce() +
            r.missesReissuedMore() + r.missesPersistent();
        EXPECT_GE(static_cast<double>(recovered),
                  p.minRecoveredFrac * static_cast<double>(r.misses()));
        const std::uint64_t got = fingerprint(r);
        if (print) {
            std::printf("%-20s 0x%016llxULL\n", p.name,
                        static_cast<unsigned long long>(got));
            continue;
        }
        EXPECT_EQ(got, p.expected)
            << "the registry of " << p.name << " changed";
    }
}

} // namespace
} // namespace tokensim
