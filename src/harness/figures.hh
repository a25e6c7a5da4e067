/**
 * @file
 * The paper's tables and figures as data. A Figure lists its design
 * points (a SystemConfig plus a seed count, each once) and sections
 * whose rows name them: a title, columns read from ExperimentResult,
 * rows grouped as the paper groups its bars, and the paper's band as
 * a note. `sweep_tool figures` runs the distinct points of the
 * figures it prints as one sweep (planFigures), so a point that
 * several rows, sections or figures name runs once, and renders every
 * section with one renderer. Table 1 alone has no design points.
 */

#ifndef TOKENSIM_HARNESS_FIGURES_HH
#define TOKENSIM_HARNESS_FIGURES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.hh"

namespace tokensim {

/** How large every figure's runs are (`figures --ops/--seeds`). */
struct FigureSize
{
    /**
     * Measured ops per processor of the paper figures, which warm up
     * for as many. Question 5 and the reissue ablation measure ops/2
     * with no warm-up, and TokenNull in that ablation ops/2/20.
     */
    std::uint64_t ops = 6000;

    /** The smallest ops that gives every point at least one measured
     *  op: the reissue ablation's TokenNull runs ops/2/20. */
    static constexpr std::uint64_t minOps = 40;

    /** Seeds per design point. */
    int seeds = 2;
};

/**
 * A value a section prints per row. cptNorm divides by the group's
 * first row; the Ref columns compare with its reference row.
 */
enum class FigureColumn
{
    cpt, cptSd, cptNorm, cptGainOfRef, eventsPerOp,
    reqBytes, reissuePersistBytes, reqReissueBytes, nonDataBytes,
    dataBytes, totalBytes, totalBytesVsRef,
    misses, missLatencyNs,
    pctNotReissued, pctReissuedOnce, pctReissuedMore, pctReissued,
    pctPersistent,
};

struct FigureRow
{
    std::string label;
    std::size_t point = 0;   ///< index into Figure::points
};

/** Rows printed together under an optional title ("oltp:"). */
struct FigureGroup
{
    std::string title;
    std::vector<FigureRow> rows;
};

struct FigureSection
{
    std::string title{};
    std::vector<FigureColumn> columns{};

    /** What the paper reports, printed under the table. */
    std::string note{};

    /** Every group's reference row for the Ref columns. */
    std::size_t refRow = 0;

    /** Close the table with the mean of each column over all rows. */
    bool average = false;

    std::vector<FigureGroup> groups{};
};

struct Figure
{
    /** The `figures` argument: table1, fig4, q5, ... */
    std::string name;

    /**
     * Distinct design points in first-use order, each labelled after
     * the first row that reads it.
     */
    std::vector<ExperimentSpec> points{};

    std::vector<FigureSection> sections{};

    /** Table 1's printer: configuration text instead of sections. */
    std::string (*text)() = nullptr;
};

/** Every figure, in print order, sized by @p size. */
std::vector<Figure> paperFigures(const FigureSize &size);

/** A design point's identity: encoded SystemConfig and seed count. */
std::string designPointKey(const ExperimentSpec &spec);

/** One sweep over the distinct design points of several figures. */
struct FigurePlan
{
    /** Distinct across all figures, in first-use order. */
    std::vector<ExperimentSpec> specs;

    /** slots[f][p]: the spec that runs figure f's point p. */
    std::vector<std::vector<std::size_t>> slots;
};

FigurePlan planFigures(const std::vector<Figure> &figures);

/**
 * Print @p fig: its point p reads results[slot[p]], where @p results
 * are a plan's specs' results and @p slot is the plan's slots entry
 * for @p fig.
 */
std::string renderFigure(const Figure &fig,
                         const std::vector<ExperimentResult> &results,
                         const std::vector<std::size_t> &slot);

} // namespace tokensim

#endif // TOKENSIM_HARNESS_FIGURES_HH
