/**
 * @file
 * Golden-trace regression suite: committed recorded traces replayed
 * under every protocol must reproduce committed ExperimentResult
 * digests bit for bit. This is the drift detector for hot-path
 * refactors — any change that perturbs protocol behavior, event
 * ordering, timing arithmetic, or statistics accounting shows up here
 * as a digest mismatch, even when every invariant test still passes.
 *
 * Artifacts live in tests/golden/ (located via the TOKENSIM_TESTS_DIR
 * compile definition):
 *   - golden_<workload>.trace (oltp, producer-consumer, ycsb,
 *     tpcc): recorded on
 *     the reference config below. Trace content is protocol-
 *     independent (sequencers pull exactly their budget regardless of
 *     protocol — tests/test_trace.cc proves it), so one trace per
 *     workload covers every protocol.
 *   - golden_digests.txt: one "<protocol>/<workload> <digest>" line
 *     per combination, produced by resultDigest().
 *
 * The trace writer is pinned as well: re-recording each workload on
 * the reference config must reproduce its committed file byte for
 * byte.
 *
 * Regenerating after an INTENDED behavior change:
 *   TOKENSIM_UPDATE_GOLDEN=1 ./test_golden_traces
 * then commit the rewritten artifacts with a justification — a golden
 * update is a reviewable statement that the simulation's behavior
 * changed on purpose.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/system.hh"
#include "workload/trace.hh"

namespace tokensim {
namespace {

const char *const kWorkloads[] = {"oltp", "producer-consumer",
                                  "ycsb", "tpcc"};

const ProtocolKind kProtocols[] = {
    ProtocolKind::snooping, ProtocolKind::directory,
    ProtocolKind::hammer,   ProtocolKind::tokenB,
    ProtocolKind::tokenD,   ProtocolKind::tokenM,
    ProtocolKind::tokenA,   ProtocolKind::tokenNull,
};

std::string
goldenDir()
{
    return std::string(TOKENSIM_TESTS_DIR) + "/golden";
}

std::string
tracePath(const std::string &workload)
{
    return goldenDir() + "/golden_" + workload + ".trace";
}

std::string
digestsPath()
{
    return goldenDir() + "/golden_digests.txt";
}

/**
 * The reference configuration: small enough that all 16 replays run
 * in seconds, large enough that every protocol's machinery (reissues,
 * persistent requests, evictions) is exercised.
 */
SystemConfig
goldenConfig(ProtocolKind proto)
{
    SystemConfig cfg;
    cfg.numNodes = 8;
    cfg.protocol = proto;
    cfg.topology =
        proto == ProtocolKind::snooping ? "tree" : "torus";
    // The warmup window covers the commercial generators' warm-scan
    // preamble (4096 blocks for oltp) plus margin, so the measured
    // window — what the digests pin down — is the steady-state
    // sharing mix, not the cold scan.
    cfg.opsPerProcessor = 400;
    cfg.warmupOpsPerProcessor = 4400;
    cfg.seed = 20260701;
    cfg.attachAuditor = isTokenProtocol(proto);
    return cfg;
}

std::string
comboKey(ProtocolKind proto, const std::string &workload)
{
    return std::string(protocolName(proto)) + "/" + workload;
}

ExperimentResult
replayCombo(ProtocolKind proto, const std::string &workload)
{
    SystemConfig cfg = goldenConfig(proto);
    cfg.workload = WorkloadSpec::trace(tracePath(workload));
    return aggregateResults({runOnce(cfg, cfg.seed)},
                            comboKey(proto, workload));
}

/**
 * Sampled variants of the same replays: SMARTS-style fast-forward
 * between detailed measurement windows, sized so the sampled run
 * consumes exactly the committed traces' 4800 ops per node
 * (4 windows x (1000 fast-forwarded + 200 detailed), no warmup).
 * These digests pin the whole sampled machinery — the functional
 * fast-forward path of every protocol, the phase scheduling, and the
 * per-window metric pooling — separately from the detailed digests,
 * so drift in either engine is attributed to the right one.
 */
std::string
sampledComboKey(ProtocolKind proto, const std::string &workload)
{
    return "sampled-" + comboKey(proto, workload);
}

ExperimentResult
sampledReplayCombo(ProtocolKind proto, const std::string &workload)
{
    SystemConfig cfg = goldenConfig(proto);
    cfg.workload = WorkloadSpec::trace(tracePath(workload));
    cfg.warmupOpsPerProcessor = 0;
    cfg.opsPerProcessor = 0;
    cfg.sampling = SamplingSpec{1000, 200, 4};
    return aggregateResults({runOnce(cfg, cfg.seed)},
                            sampledComboKey(proto, workload));
}

bool
updateRequested()
{
    const char *v = std::getenv("TOKENSIM_UPDATE_GOLDEN");
    return v && *v && std::string(v) != "0";
}

/** Record @p workload's golden trace on the reference config to @p path. */
void
recordGolden(const std::string &workload, const std::string &path)
{
    SystemConfig cfg = goldenConfig(ProtocolKind::tokenB);
    cfg.workload = workload;
    cfg.recordTrace = path;
    runOnce(cfg, cfg.seed);
}

std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "cannot read " << path;
    return std::string(std::istreambuf_iterator<char>(in), {});
}

/** Record the golden traces and rewrite every digest line. */
void
regenerate()
{
    for (const char *workload : kWorkloads)
        recordGolden(workload, tracePath(workload));
    std::ofstream out(digestsPath(), std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << digestsPath();
    out << "# <protocol>/<workload> <resultDigest()>\n"
        << "# regenerate: TOKENSIM_UPDATE_GOLDEN=1 "
           "./test_golden_traces\n";
    for (ProtocolKind proto : kProtocols) {
        for (const char *workload : kWorkloads) {
            out << comboKey(proto, workload) << " "
                << resultDigest(replayCombo(proto, workload)) << "\n";
        }
    }
    for (ProtocolKind proto : kProtocols) {
        for (const char *workload : kWorkloads) {
            out << sampledComboKey(proto, workload) << " "
                << resultDigest(sampledReplayCombo(proto, workload))
                << "\n";
        }
    }
}

std::map<std::string, std::string>
loadDigests()
{
    std::map<std::string, std::string> out;
    std::ifstream in(digestsPath());
    EXPECT_TRUE(in) << "missing golden artifact " << digestsPath();
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const std::size_t space = line.find(' ');
        if (space == std::string::npos) {
            ADD_FAILURE() << "bad digest line: " << line;
            continue;
        }
        out[line.substr(0, space)] = line.substr(space + 1);
    }
    return out;
}

TEST(GoldenTraces, ReplayReproducesCommittedDigests)
{
    if (updateRequested()) {
        regenerate();
        SUCCEED() << "golden artifacts regenerated";
        return;
    }

    const std::map<std::string, std::string> expected = loadDigests();
    ASSERT_EQ(expected.size(),
              2 * std::size(kProtocols) * std::size(kWorkloads));

    const auto check = [&expected](const std::string &key,
                                   const ExperimentResult &r) {
        SCOPED_TRACE(key);
        const auto it = expected.find(key);
        ASSERT_NE(it, expected.end())
            << "no committed digest for " << key;
        EXPECT_EQ(resultDigest(r), it->second)
            << "behavioral drift detected: the replayed golden "
               "trace no longer reproduces the committed result. "
               "If this change is intentional, regenerate with "
               "TOKENSIM_UPDATE_GOLDEN=1 and commit the new "
               "artifacts.";
    };
    for (ProtocolKind proto : kProtocols) {
        for (const char *workload : kWorkloads) {
            check(comboKey(proto, workload),
                  replayCombo(proto, workload));
            check(sampledComboKey(proto, workload),
                  sampledReplayCombo(proto, workload));
        }
    }
}

TEST(GoldenTraces, CommittedTracesAreWellFormed)
{
    for (const char *workload : kWorkloads) {
        SCOPED_TRACE(workload);
        if (updateRequested())
            continue;
        const auto trace = TraceData::load(tracePath(workload));
        EXPECT_EQ(trace->numNodes(), 8u);
        EXPECT_EQ(trace->header().provenance, workload);
        EXPECT_EQ(trace->minOpsPerNode(), 4800u);
        EXPECT_EQ(trace->header().warmupOpsPerProcessor, 4400u);
    }
}

TEST(GoldenTraces, RecordingReproducesCommittedTraceBytes)
{
    // The reader side is pinned by the digests above; this pins the
    // writer: re-recording each workload must give the committed file
    // byte for byte.
    if (updateRequested())
        return;
    std::filesystem::create_directories("test_traces");
    for (const char *workload : kWorkloads) {
        SCOPED_TRACE(workload);
        const std::string path =
            std::string("test_traces/golden_rerecord_") + workload +
            ".trace";
        recordGolden(workload, path);
        const std::string got = readBytes(path);
        const std::string want = readBytes(tracePath(workload));
        EXPECT_TRUE(got == want)
            << "re-recorded trace (" << got.size()
            << " bytes) differs from the committed one (" << want.size()
            << " bytes)";
    }
}

} // namespace
} // namespace tokensim
