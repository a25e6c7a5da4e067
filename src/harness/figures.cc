#include "harness/figures.hh"

#include <algorithm>
#include <map>
#include <memory>

#include "core/token_state.hh"
#include "harness/wire.hh"
#include "net/topology.hh"

namespace tokensim {

namespace {

using R = ExperimentResult;

/** What a column reads: a row, its group's first row, its reference. */
struct Cell
{
    const R &r, &first, &ref;

    double
    bytes(MsgClass c) const
    {
        return r.bytesPerMissByClass[static_cast<int>(c)];
    }
};

/** A header (may name the reference row), a format, a value. */
struct Column
{
    const char *header;
    const char *format;
    double (*value)(Cell x);
};

/** Indexed by FigureColumn. */
const Column kColumns[] = {
    {"cyc/txn", "%.1f", [](Cell x) { return x.r.cyclesPerTransaction; }},
    {"+/-", "%.1f", [](Cell x) { return x.r.cyclesPerTransactionStddev; }},
    {"norm", "%.3f",
     [](Cell x) {
         const double norm = x.first.cyclesPerTransaction;
         return norm > 0 ? x.r.cyclesPerTransaction / norm : 0.0;
     }},
    {"%s saves", "%.1f%%",
     [](Cell x) {
         const double cpt = x.r.cyclesPerTransaction;
         const double ref = x.ref.cyclesPerTransaction;
         return ref > 0 ? 100.0 * (cpt - ref) / cpt : 0.0;
     }},
    {"evt/op", "%.1f", [](Cell x) { return x.r.eventsPerOp; }},
    {"req", "%.1f", [](Cell x) { return x.bytes(MsgClass::request); }},
    {"reissue+p", "%.1f",
     [](Cell x) {
         return x.bytes(MsgClass::reissue) + x.bytes(MsgClass::persistent);
     }},
    {"req+reissue", "%.1f",
     [](Cell x) {
         return x.bytes(MsgClass::request) + x.bytes(MsgClass::reissue);
     }},
    {"nonData", "%.1f", [](Cell x) { return x.bytes(MsgClass::nonData); }},
    {"data", "%.1f", [](Cell x) { return x.bytes(MsgClass::data); }},
    {"total", "%.1f", [](Cell x) { return x.r.bytesPerMiss; }},
    {"vs %s", "%.2fx",
     [](Cell x) { return x.r.bytesPerMiss / x.ref.bytesPerMiss; }},
    {"misses", "%.0f", [](Cell x) { return static_cast<double>(x.r.misses); }},
    {"miss ns", "%.0f", [](Cell x) { return x.r.avgMissLatencyNs; }},
    {"not reissued", "%.2f%%", [](Cell x) { return x.r.pctNotReissued; }},
    {"once", "%.2f%%", [](Cell x) { return x.r.pctReissuedOnce; }},
    {">once", "%.2f%%", [](Cell x) { return x.r.pctReissuedMore; }},
    {"reissued", "%.2f%%",
     [](Cell x) { return x.r.pctReissuedOnce + x.r.pctReissuedMore; }},
    {"persistent", "%.2f%%", [](Cell x) { return x.r.pctPersistent; }},
};
static_assert(sizeof(kColumns) / sizeof(kColumns[0]) ==
                  static_cast<std::size_t>(FigureColumn::pctPersistent) + 1,
              "kColumns must list every FigureColumn, in order");

const Column &
column(FigureColumn c)
{
    return kColumns[static_cast<std::size_t>(c)];
}

std::string
header(const std::string &title)
{
    return "\n" + title + "\n" + std::string(title.size(), '-') + "\n";
}

/** One section's rows, formatted and aligned under its columns. */
std::string
renderSection(const FigureSection &s,
              const std::vector<const R *> &byPoint)
{
    // Each line is a label and its cells; a group title has no cells.
    std::vector<std::pair<std::string, std::vector<std::string>>> lines;
    const std::string ref = s.groups.front().rows.at(s.refRow).label;
    std::vector<std::string> headers;
    for (FigureColumn c : s.columns)
        headers.push_back(strformat(column(c).header, ref.c_str()));
    lines.emplace_back("", headers);

    std::vector<double> sums(s.columns.size(), 0.0);
    std::size_t rows = 0;
    const auto cells = [&](const std::vector<double> &values) {
        std::vector<std::string> out;
        for (std::size_t c = 0; c < values.size(); ++c)
            out.push_back(
                strformat(column(s.columns[c]).format, values[c]));
        return out;
    };
    for (const FigureGroup &g : s.groups) {
        if (!g.title.empty())
            lines.emplace_back(g.title + ":", std::vector<std::string>());
        const R &first = *byPoint.at(g.rows.front().point);
        const R &base = *byPoint.at(g.rows.at(s.refRow).point);
        for (const FigureRow &row : g.rows) {
            const Cell x{*byPoint.at(row.point), first, base};
            std::vector<double> values;
            for (std::size_t c = 0; c < s.columns.size(); ++c) {
                values.push_back(column(s.columns[c]).value(x));
                sums[c] += values.back();
            }
            ++rows;
            lines.emplace_back(row.label, cells(values));
        }
    }
    if (s.average) {
        for (double &sum : sums)
            sum /= static_cast<double>(rows);
        lines.emplace_back("Average", cells(sums));
    }

    std::size_t label_width = 0;
    std::vector<std::size_t> width(s.columns.size(), 0);
    for (const auto &[label, texts] : lines) {
        if (texts.empty())
            continue;
        label_width = std::max(label_width, label.size());
        for (std::size_t c = 0; c < texts.size(); ++c)
            width[c] = std::max(width[c], texts[c].size());
    }
    std::string out = header(s.title);
    for (const auto &[label, texts] : lines) {
        if (texts.empty()) {   // a group title, after a blank line
            out += "\n" + label + "\n";
            continue;
        }
        out += strformat("  %-*s", static_cast<int>(label_width),
                         label.c_str());
        for (std::size_t c = 0; c < texts.size(); ++c) {
            out += strformat("  %*s", static_cast<int>(width[c]),
                             texts[c].c_str());
        }
        out += "\n";
    }
    if (!s.note.empty())
        out += "\n  " + s.note + "\n";
    return out;
}

/**
 * Table 1, Figure 1's interconnects and the Section 3.1 token
 * encoding: the configured constants beside the paper's values.
 */
std::string
table1Text()
{
    const SystemConfig cfg;   // defaults are the paper's Table 1
    const CacheParams &l1 = cfg.seq.l1;
    std::string out = header("Table 1: Target System Parameters "
                             "(paper value / this simulator)");
    const auto param = [&](const char *name, const char *paper,
                           const std::string &ours) {
        out += strformat("  %-28s %-22s %s\n", name, paper, ours.c_str());
    };
    param("parameter", "paper", "tokensim");
    param("split L1 I & D caches", "128kB, 4-way, 2ns",
          strformat("%u kB, %u-way, %.0f ns",
                    static_cast<unsigned>(l1.sizeBytes / 1024), l1.assoc,
                    ticksToNsF(l1.latency)));
    param("unified L2 cache", "4MB, 4-way, 6ns",
          strformat("%u MB, %u-way, %.0f ns",
                    static_cast<unsigned>(cfg.l2.sizeBytes >> 20),
                    cfg.l2.assoc, ticksToNsF(cfg.l2.latency)));
    param("cache block size", "64 Bytes",
          strformat("%u bytes", cfg.blockBytes));
    param("DRAM/directory latency", "80ns",
          strformat("%.0f ns", ticksToNsF(cfg.dram.latency)));
    param("memory/dir controllers", "6ns",
          strformat("%.0f ns", ticksToNsF(cfg.ctrlLatency)));
    param("network link bandwidth", "3.2 GBytes/sec",
          strformat("%.1f GB/s", cfg.net.bytesPerNs));
    param("network link latency", "15ns",
          strformat("%.0f ns", ticksToNsF(cfg.net.linkLatency)));
    param("processors", "16", strformat("%d", cfg.numNodes));
    out += "\n  message sizes: control 8 B, data 72 B "
           "(8 B header + 64 B block)\n";

    out += header("Figure 1: interconnect characteristics (16 nodes)");
    for (const char *kind : {"tree", "torus"}) {
        const std::unique_ptr<Topology> t(makeTopology(kind, 16));
        out += strformat("  %-28s avg %.2f link crossings, ordered=%s\n",
                         t->name().c_str(), t->averageHops(),
                         t->totallyOrdered() ? "yes" : "no");
    }
    out += "\n  (paper: four crossings on the tree, two on average on "
           "the 4x4 torus)\n";

    out += header("Token storage encoding (Section 3.1)");
    out += strformat("  %6s %6s %18s\n", "T", "bits", "overhead (64B blk)");
    for (int t : {16, 17, 32, 64, 128}) {
        const TokenCoding c(t);
        out += strformat("  %6d %6d %17.2f%%\n", t, c.bits(),
                         100.0 * c.overhead(64));
    }
    out += "\n  (paper: 64 tokens with 64-byte blocks adds one byte, "
           "1.6% overhead)\n";
    return out;
}

/** Builds one figure's points and rows. */
struct Builder
{
    Figure f;
    const FigureSize &size;

    /** Append a row reading @p cfg to section @p s, under @p group. */
    void
    row(std::size_t s, const std::string &group, const std::string &label,
        const SystemConfig &cfg)
    {
        const ExperimentSpec spec{cfg, size.seeds, ""};
        const std::string key = designPointKey(spec);
        std::size_t p = 0;
        while (p < f.points.size() && designPointKey(f.points[p]) != key)
            ++p;
        if (p == f.points.size()) {
            f.points.push_back(spec);
            f.points.back().label =
                f.name + " " + (group.empty() ? "" : group + "/") + label;
        }
        std::vector<FigureGroup> &groups = f.sections.at(s).groups;
        if (groups.empty() || groups.back().title != group)
            groups.push_back(FigureGroup{group, {}});
        groups.back().rows.push_back(FigureRow{label, p});
    }
};

const char *const kCommercial[] = {"apache", "oltp", "specjbb"};

/** The paper's 16-processor target system (Table 1), warmed. */
SystemConfig
paperConfig(ProtocolKind proto, const char *topology, const char *workload,
            const FigureSize &size)
{
    SystemConfig cfg;
    cfg.numNodes = 16;
    cfg.topology = topology;
    cfg.protocol = proto;
    cfg.workload = workload;
    cfg.opsPerProcessor = size.ops;
    // The paper measures from warmed checkpoints; warm the caches
    // and sharing state before the measured window.
    cfg.warmupOpsPerProcessor = size.ops;
    cfg.seed = 7;
    return cfg;
}

/** One runtime bar of Figures 4a and 5a. */
struct Bar
{
    const char *label;
    ProtocolKind proto;
    const char *topo;
    bool perfectDir;
    bool unlimited;

    SystemConfig
    config(const char *workload, const FigureSize &size) const
    {
        SystemConfig cfg = paperConfig(proto, topo, workload, size);
        cfg.proto.perfectDirectory = perfectDir;
        cfg.net.unlimitedBandwidth = unlimited;
        return cfg;
    }
};

using C = FigureColumn;

/** Figure 4: Snooping v. TokenB, runtime (4a) and traffic (4b). */
Figure
figure4(const FigureSize &size)
{
    const Bar bars[] = {
        {"TokenB - tree", ProtocolKind::tokenB, "tree", false, false},
        {"TokenB - tree (inf bw)", ProtocolKind::tokenB, "tree", false, true},
        {"Snooping - tree", ProtocolKind::snooping, "tree", false, false},
        {"Snooping - tree (inf bw)", ProtocolKind::snooping, "tree", false,
         true},
        {"TokenB - torus", ProtocolKind::tokenB, "torus", false, false},
        {"TokenB - torus (inf bw)", ProtocolKind::tokenB, "torus", false,
         true},
    };
    Builder b{Figure{"fig4", {}, {}, nullptr}, size};
    b.f.sections = {
        {"Figure 4a: runtime, snooping v. token coherence (normalized "
         "cycles/transaction; lower is better)",
         {C::cptNorm, C::cpt, C::cptSd, C::eventsPerOp},
         "(no Snooping - torus row: the torus provides no total order.\n"
         "   paper: on the tree Snooping is 1-5% faster than TokenB; "
         "TokenB on the torus\n   beats Snooping on the tree by 15-28% "
         "(inf bw) / 26-65% (limited))"},
        {"Figure 4b: traffic, snooping v. token coherence (bytes per "
         "miss on the tree, by category)",
         {C::reqBytes, C::reissuePersistBytes, C::nonDataBytes,
          C::dataBytes, C::totalBytes},
         "(paper: both protocols use approximately the same bandwidth "
         "on the tree)"},
    };
    for (const char *w : kCommercial) {
        for (const Bar &bar : bars)
            b.row(0, w, bar.label, bar.config(w, size));
        for (ProtocolKind p : {ProtocolKind::tokenB, ProtocolKind::snooping})
            b.row(1, w, protocolName(p), paperConfig(p, "tree", w, size));
    }
    return b.f;
}

/** Figure 5: Directory and Hammer v. TokenB on the torus. */
Figure
figure5(const FigureSize &size)
{
    const Bar bars[] = {
        {"TokenB", ProtocolKind::tokenB, "torus", false, false},
        {"TokenB (inf bw)", ProtocolKind::tokenB, "torus", false, true},
        {"Hammer", ProtocolKind::hammer, "torus", false, false},
        {"Hammer (inf bw)", ProtocolKind::hammer, "torus", false, true},
        {"Directory (DRAM dir)", ProtocolKind::directory, "torus", false,
         false},
        {"Directory (perfect dir)", ProtocolKind::directory, "torus", true,
         false},
        {"Directory (perfect+inf)", ProtocolKind::directory, "torus", true,
         true},
    };
    Builder b{Figure{"fig5", {}, {}, nullptr}, size};
    b.f.sections = {
        {"Figure 5a: runtime, directory/hammer v. token coherence on "
         "torus (normalized cycles/transaction)",
         {C::cptNorm, C::cpt, C::missLatencyNs, C::eventsPerOp},
         "(paper: TokenB 17-54% faster than Directory and 8-29% faster "
         "than Hammer;\n   6-18% ahead of a perfect directory; Hammer "
         "7-17% faster than Directory,\n   but a perfect directory "
         "beats Hammer by 2-9%)"},
        {"Figure 5b: traffic on torus (bytes per miss, by category)",
         {C::reqBytes, C::reissuePersistBytes, C::nonDataBytes,
          C::dataBytes, C::totalBytes, C::totalBytesVsRef},
         "(paper: Hammer 1.79-1.90x TokenB; Directory 0.75-0.79x "
         "TokenB; data messages\n   dominate Directory traffic)"},
    };
    for (const char *w : kCommercial) {
        for (const Bar &bar : bars)
            b.row(0, w, bar.label, bar.config(w, size));
        for (ProtocolKind p : {ProtocolKind::tokenB, ProtocolKind::hammer,
                               ProtocolKind::directory})
            b.row(1, w, protocolName(p), paperConfig(p, "torus", w, size));
    }
    return b.f;
}

/** Table 2: how often TokenB reissues. */
Figure
table2(const FigureSize &size)
{
    Builder b{Figure{"table2", {}, {}, nullptr}, size};
    b.f.sections = {
        {"Table 2: Percentage of TokenB misses (torus, 16 procs)",
         {C::pctNotReissued, C::pctReissuedOnce, C::pctReissuedMore,
          C::pctPersistent},
         "(paper average: 96.97 / 2.36 / 0.48 / 0.19; the claim is that "
         "reissued and\n   persistent requests are rare on commercial "
         "workloads)",
         0, true},
    };
    for (const char *w : kCommercial)
        b.row(0, "", w, paperConfig(ProtocolKind::tokenB, "torus", w, size));
    return b.f;
}

/** Question 5: traffic per miss as the torus grows. */
Figure
question5(const FigureSize &size)
{
    Builder b{Figure{"q5", {}, {}, nullptr}, size};
    b.f.sections = {
        {"Question 5: interconnect traffic scaling (uniform-sharing "
         "microbenchmark, torus, bytes per miss)",
         {C::totalBytes, C::totalBytesVsRef},
         "(paper: at 64 processors TokenB uses ~2x the interconnect "
         "bandwidth of Directory;\n   broadcast cost grows Theta(n) vs "
         "Theta(sqrt n) for unicast — TokenB is a poor choice\n   for "
         "larger or bandwidth-limited systems, motivating Section 7's "
         "TokenD/TokenM)",
         1},   // against Directory
    };
    for (int nodes : {4, 8, 16, 32, 64}) {
        for (ProtocolKind p : {ProtocolKind::tokenB, ProtocolKind::directory,
                               ProtocolKind::hammer}) {
            SystemConfig cfg;
            cfg.numNodes = nodes;
            cfg.topology = "torus";
            cfg.protocol = p;
            cfg.workload = "uniform";
            cfg.workload.uniformBlocks =
                64 * static_cast<std::uint64_t>(nodes);
            cfg.workload.storeFraction = 0.3;
            cfg.opsPerProcessor = size.ops / 2;
            cfg.seed = 11;
            b.row(0, strformat("%d processors", nodes), protocolName(p), cfg);
        }
    }
    return b.f;
}

/** Token count T, and the Section 7 performance protocols. */
Figure
tokens(const FigureSize &size)
{
    Builder b{Figure{"tokens", {}, {}, nullptr}, size};
    b.f.sections = {
        {"Sensitivity to tokens per block (TokenB, OLTP, 16 procs)",
         {C::cpt, C::misses, C::pctReissued}},
        {"Section 7 performance-protocol spectrum (OLTP, 16 procs, "
         "torus)",
         {C::cpt, C::reqReissueBytes, C::totalBytes, C::pctPersistent},
         "(expected: TokenB has the lowest latency; TokenM cuts request "
         "traffic via destination-set\n   prediction at a modest latency "
         "cost; TokenD adds the home indirection for directory-like\n"
         "   behavior — all three share the unchanged correctness "
         "substrate)"},
    };
    for (int t : {16, 32, 64}) {
        SystemConfig cfg =
            paperConfig(ProtocolKind::tokenB, "torus", "oltp", size);
        cfg.proto.tokensPerBlock = t;
        b.row(0, "", strformat("T=%d", t), cfg);
    }
    for (ProtocolKind p : {ProtocolKind::tokenB, ProtocolKind::tokenM,
                           ProtocolKind::tokenA, ProtocolKind::tokenD})
        b.row(1, "", protocolName(p), paperConfig(p, "torus", "oltp", size));
    return b.f;
}

/** TokenB's reissue and persistent-request policy (Sections 3.2, 4.2). */
Figure
reissue(const FigureSize &size)
{
    struct Policy
    {
        const char *label;
        ProtocolKind proto;
        double multiple;
        int maxReissues;
        bool enabled;
    };
    const Policy policies[] = {
        {"paper (2x avg, 4 reissues)", ProtocolKind::tokenB, 2.0, 4, true},
        {"aggressive (1x avg)", ProtocolKind::tokenB, 1.0, 4, true},
        {"conservative (8x avg)", ProtocolKind::tokenB, 8.0, 4, true},
        {"no reissues (persist only)", ProtocolKind::tokenB, 2.0, 0, false},
        {"null protocol (TokenNull)", ProtocolKind::tokenNull, 2.0, 0,
         false},
    };
    Builder b{Figure{"reissue", {}, {}, nullptr}, size};
    b.f.sections = {
        {"Ablation: reissue & persistent-request policy (hot 64-block "
         "set, 50% stores, 16 procs)",
         {C::cpt, C::pctReissued, C::pctPersistent, C::missLatencyNs},
         "(every policy is *correct* — the substrate guarantees safety "
         "and liveness;\n   the policy only moves the latency/traffic "
         "point, which is the decoupling claim)"},
    };
    for (const Policy &p : policies) {
        SystemConfig cfg;
        cfg.numNodes = 16;
        cfg.topology = "torus";
        cfg.protocol = p.proto;
        cfg.workload = "uniform";
        cfg.workload.uniformBlocks = 64;   // hot: races are common
        cfg.workload.storeFraction = 0.5;
        // The null protocol resolves every miss through the arbiter;
        // keep its op count modest so the figure stays quick.
        cfg.opsPerProcessor = p.proto == ProtocolKind::tokenNull
            ? size.ops / 2 / 20
            : size.ops / 2;
        cfg.proto.reissueLatencyMultiple = p.multiple;
        cfg.proto.maxReissues = p.maxReissues;
        cfg.proto.reissueEnabled = p.enabled;
        cfg.seed = 13;
        b.row(0, "", p.label, cfg);
    }
    return b.f;
}

/** The migratory-sharing optimization on and off (Section 4.2). */
Figure
migratory(const FigureSize &size)
{
    Builder b{Figure{"migratory", {}, {}, nullptr}, size};
    b.f.sections = {
        {"Ablation: migratory-sharing optimization (OLTP, 16 procs)",
         {C::cpt, C::misses, C::missLatencyNs, C::cptGainOfRef},
         "(expected: disabling the optimization increases misses — "
         "every migratory handoff\n   costs an extra upgrade transaction "
         "— and all protocols lose comparably)"},
    };
    const std::pair<ProtocolKind, const char *> protos[] = {
        {ProtocolKind::tokenB, "torus"},
        {ProtocolKind::snooping, "tree"},
        {ProtocolKind::directory, "torus"},
        {ProtocolKind::hammer, "torus"},
    };
    for (const auto &[proto, topo] : protos) {
        for (bool opt : {true, false}) {
            SystemConfig cfg = paperConfig(proto, topo, "oltp", size);
            cfg.proto.migratoryOpt = opt;
            b.row(0, strformat("%s (%s)", protocolName(proto), topo),
                  opt ? "opt on" : "opt off", cfg);
        }
    }
    return b.f;
}

} // namespace

std::vector<Figure>
paperFigures(const FigureSize &size)
{
    return {Figure{"table1", {}, {}, table1Text},
            figure4(size),
            figure5(size),
            table2(size),
            question5(size),
            tokens(size),
            reissue(size),
            migratory(size)};
}

std::string
designPointKey(const ExperimentSpec &spec)
{
    WireWriter w;
    encodeSystemConfig(w, spec.cfg);
    w.svarint(spec.seeds);
    return w.buffer();
}

FigurePlan
planFigures(const std::vector<Figure> &figures)
{
    FigurePlan plan;
    std::map<std::string, std::size_t> index;
    for (const Figure &f : figures) {
        std::vector<std::size_t> &slots = plan.slots.emplace_back();
        for (const ExperimentSpec &p : f.points) {
            const auto it =
                index.emplace(designPointKey(p), plan.specs.size()).first;
            if (it->second == plan.specs.size())
                plan.specs.push_back(p);
            slots.push_back(it->second);
        }
    }
    return plan;
}

std::string
renderFigure(const Figure &fig, const std::vector<ExperimentResult> &results,
             const std::vector<std::size_t> &slot)
{
    std::vector<const R *> byPoint;
    for (std::size_t s : slot)
        byPoint.push_back(&results.at(s));
    std::string out = fig.text ? fig.text() : std::string();
    for (const FigureSection &s : fig.sections)
        out += renderSection(s, byPoint);
    return out;
}

} // namespace tokensim
