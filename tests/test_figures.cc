/**
 * @file
 * The figure table (harness/figures.hh): every figure runs exactly the
 * design points the per-figure bench programs it replaced ran, lists
 * each of them once, and its sections read them from one sweep.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/figures.hh"
#include "harness/parallel_runner.hh"
#include "harness/wire.hh"

using namespace tokensim;

namespace {

const Figure &
byName(const std::vector<Figure> &figs, const std::string &name)
{
    for (const Figure &f : figs) {
        if (f.name == name)
            return f;
    }
    throw std::invalid_argument("no figure " + name);
}

/**
 * sweepFingerprint over each figure's distinct design points, labels
 * cleared, recorded from the bench programs the table replaced
 * (bench_fig4_snooping, bench_fig5_directory, bench_table2_reissue,
 * bench_q5_scaling, bench_ablation_tokens, bench_ablation_reissue and
 * bench_ablation_migratory): every spec each one ran, deduplicated in
 * first-use order. `paper` is their default size (6000 ops, 2 seeds),
 * `smoke` is 4200 ops and 1 seed. Question 5 ran one seed whatever
 * the seed count said, so its `paper` value is at one seed.
 */
struct Pinned
{
    const char *name;
    std::uint64_t paper;
    std::uint64_t smoke;
};

const Pinned kPinned[] = {
    {"fig4", 0x690031b31a158a68ull, 0x3aeb619fd1f5ce18ull},
    {"fig5", 0x0e897e31c7791572ull, 0xfad685e72c464378ull},
    {"table2", 0x8d012093de0acca9ull, 0xdfce85f12120829full},
    {"q5", 0x48b8b6583a93cab0ull, 0x69e3f2f61d8bf61dull},
    {"tokens", 0xa1ae7d84d6024b2eull, 0x2ca09f42c862323cull},
    {"reissue", 0xbe2a3b81d894796aull, 0xee4bcb9bdccbd6dcull},
    {"migratory", 0x1dc448c9bbfe168dull, 0x53823707ac585659ull},
};

std::uint64_t
fingerprint(const Figure &f)
{
    std::vector<ExperimentSpec> points = f.points;
    for (ExperimentSpec &p : points)
        p.label.clear();
    return sweepFingerprint(points);
}

TEST(Figures, DesignPointsMatchTheReplacedBenches)
{
    const std::vector<Figure> paper = paperFigures(FigureSize{6000, 2});
    const std::vector<Figure> paper_q5 = paperFigures(FigureSize{6000, 1});
    const std::vector<Figure> smoke = paperFigures(FigureSize{4200, 1});
    for (const Pinned &p : kPinned) {
        SCOPED_TRACE(p.name);
        const std::vector<Figure> &at_paper =
            std::string(p.name) == "q5" ? paper_q5 : paper;
        EXPECT_EQ(fingerprint(byName(at_paper, p.name)), p.paper);
        EXPECT_EQ(fingerprint(byName(smoke, p.name)), p.smoke);
    }
}

TEST(Figures, NoFigureListsAConfigTwice)
{
    for (const Figure &f : paperFigures(FigureSize{})) {
        SCOPED_TRACE(f.name);
        std::set<std::string> keys;
        for (const ExperimentSpec &p : f.points) {
            EXPECT_EQ(p.label.rfind(f.name + " ", 0), 0u) << p.label;
            EXPECT_TRUE(keys.insert(designPointKey(p)).second) << p.label;
        }
    }
}

TEST(Figures, EveryRowResolvesToADesignPoint)
{
    for (const Figure &f : paperFigures(FigureSize{})) {
        SCOPED_TRACE(f.name);
        EXPECT_EQ(f.text != nullptr, f.sections.empty());
        std::vector<bool> read(f.points.size(), false);
        for (const FigureSection &s : f.sections) {
            SCOPED_TRACE(s.title);
            EXPECT_FALSE(s.columns.empty());
            ASSERT_FALSE(s.groups.empty());
            for (const FigureGroup &g : s.groups) {
                ASSERT_FALSE(g.rows.empty());
                EXPECT_LT(s.refRow, g.rows.size());
                for (const FigureRow &r : g.rows) {
                    ASSERT_LT(r.point, f.points.size()) << r.label;
                    read[r.point] = true;
                }
            }
        }
        // And no point runs that no row prints.
        for (std::size_t p = 0; p < read.size(); ++p)
            EXPECT_TRUE(read[p]) << "point " << p;
    }
}

/**
 * The benches ran one spec per printed row: 92 runs. The table runs
 * each figure's distinct points (77), and one plan over every figure
 * runs the 63 distinct across figures.
 */
TEST(Figures, OnePlanRunsEachDistinctPointOnce)
{
    const std::vector<Figure> figs = paperFigures(FigureSize{});
    std::size_t rows = 0, points = 0;
    for (const Figure &f : figs) {
        points += f.points.size();
        for (const FigureSection &s : f.sections) {
            for (const FigureGroup &g : s.groups)
                rows += g.rows.size();
        }
    }
    EXPECT_EQ(rows, 92u);
    EXPECT_EQ(points, 77u);
    EXPECT_EQ(byName(figs, "fig4").points.size(), 18u);
    EXPECT_EQ(byName(figs, "fig5").points.size(), 21u);

    const FigurePlan plan = planFigures(figs);
    EXPECT_EQ(plan.specs.size(), 63u);
    ASSERT_EQ(plan.slots.size(), figs.size());
    std::set<std::string> keys;
    for (const ExperimentSpec &s : plan.specs) {
        EXPECT_FALSE(s.label.empty());
        EXPECT_TRUE(keys.insert(designPointKey(s)).second);
    }
    for (std::size_t f = 0; f < figs.size(); ++f) {
        ASSERT_EQ(plan.slots[f].size(), figs[f].points.size());
        for (std::size_t p = 0; p < figs[f].points.size(); ++p) {
            EXPECT_EQ(designPointKey(plan.specs[plan.slots[f][p]]),
                      designPointKey(figs[f].points[p]));
        }
    }
}

/** The row of @p s whose group is @p group and label @p label. */
const FigureRow &
row(const FigureSection &s, const std::string &group,
    const std::string &label)
{
    for (const FigureGroup &g : s.groups) {
        for (const FigureRow &r : g.rows) {
            if (g.title == group && r.label == label)
                return r;
        }
    }
    throw std::invalid_argument("no row " + group + "/" + label);
}

TEST(Figures, Figure4bReadsTheResultsOf4a)
{
    const std::vector<Figure> figs{
        byName(paperFigures(FigureSize{40, 1}), "fig4")};
    const Figure &fig4 = figs.front();
    ASSERT_EQ(fig4.sections.size(), 2u);
    const FigureSection &runtime = fig4.sections[0];
    const FigureSection &traffic = fig4.sections[1];

    const FigurePlan plan = planFigures(figs);
    ASSERT_EQ(plan.specs.size(), 18u);
    const std::vector<ExperimentResult> results =
        ParallelRunner(ParallelRunnerOptions{2}).run(plan.specs);
    const std::string text = renderFigure(fig4, results, plan.slots[0]);
    const std::string traffic_text = text.substr(text.find("Figure 4b"));

    for (const char *w : {"apache", "oltp", "specjbb"}) {
        SCOPED_TRACE(w);
        for (const auto &[bar, proto] :
             {std::pair<const char *, const char *>{"TokenB - tree",
                                                    "TokenB"},
              {"Snooping - tree", "Snooping"}}) {
            const std::size_t slot =
                plan.slots[0][row(runtime, w, bar).point];
            EXPECT_EQ(plan.slots[0][row(traffic, w, proto).point], slot);

            // The printed traffic row carries that result's total.
            const std::string group = traffic_text.substr(
                traffic_text.find(std::string(w) + ":\n"));
            const std::size_t at = group.find("  " + std::string(proto));
            ASSERT_NE(at, std::string::npos);
            const std::string line =
                group.substr(at, group.find('\n', at) - at);
            const std::string total =
                strformat("%.1f", results[slot].bytesPerMiss);
            EXPECT_EQ(line.substr(line.size() - total.size()), total)
                << line;
        }
    }
}

TEST(Figures, Table1PrintsConfigurationWithoutDesignPoints)
{
    const std::vector<Figure> figs{
        byName(paperFigures(FigureSize{}), "table1")};
    const FigurePlan plan = planFigures(figs);
    EXPECT_TRUE(plan.specs.empty());
    const std::string text = renderFigure(figs[0], {}, plan.slots[0]);
    EXPECT_NE(text.find("Table 1: Target System Parameters"),
              std::string::npos);
    EXPECT_NE(text.find("torus4x4"), std::string::npos);
    EXPECT_NE(text.find("      64      8              1.56%"),
              std::string::npos);
}

} // namespace
