/**
 * @file
 * Tests for the declarative figure table (bench/figure_table.hh):
 * each artifact submits exactly the points its figure was drawn from,
 * the ids are unique, and every cross-over pair names series of its
 * own panel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "figure_table.hh"
#include "obs/manifest.hh"

namespace hrsim::bench
{
namespace
{

/** Submitted points per artifact, in table order. */
const std::vector<std::pair<std::string, std::size_t>> kPointCounts = {
    {"fig06", 120},          {"fig07", 39},
    {"fig08", 35},           {"fig09", 25},
    {"fig10", 21},           {"fig11", 40},
    {"fig12", 120},          {"fig13", 40},
    {"fig14", 240},          {"fig15", 60},
    {"fig16", 60},           {"fig17", 232},
    {"fig18", 58},           {"fig19", 38},
    {"fig20", 38},           {"fig21", 60},
    {"abl_bypass", 20},      {"abl_arbitration", 20},
    {"abl_neighborhood", 20}, {"abl_iri_queue", 30},
    {"ext_speed_sweep", 24}, {"ext_slotted", 40},
};

std::size_t
pointCount(const Figure &fig)
{
    std::size_t count = 0;
    for (const Panel &panel : fig.panels) {
        for (const Series &series : panel.series)
            count += series.points.size();
    }
    return count;
}

/** Distinct configKeys over the first @a count figures. */
std::set<std::string>
distinctKeys(const std::vector<Figure> &figs, std::size_t count)
{
    std::set<std::string> keys;
    for (std::size_t i = 0; i < count; ++i) {
        for (const Panel &panel : figs[i].panels) {
            for (const Series &series : panel.series) {
                for (const SystemConfig &cfg : series.points)
                    keys.insert(configKey(cfg));
            }
        }
    }
    return keys;
}

TEST(FigureTable, PointCountsMatchTheFigures)
{
    const std::vector<Figure> &figs = figureTable();
    ASSERT_EQ(figs.size(), kPointCounts.size());
    std::size_t paper = 0;
    for (std::size_t i = 0; i < figs.size(); ++i) {
        EXPECT_EQ(figs[i].id, kPointCounts[i].first);
        EXPECT_EQ(pointCount(figs[i]), kPointCounts[i].second)
            << figs[i].id;
        if (i < 16)
            paper += pointCount(figs[i]);
    }
    // Figs. 6-21 share many points (Figs. 12-16 reuse the same mesh
    // and ring sweeps); bench_figures simulates each config once.
    EXPECT_EQ(paper, 1226u);
    EXPECT_EQ(distinctKeys(figs, 16).size(), 828u);
    EXPECT_EQ(distinctKeys(figs, figs.size()).size(), 910u);
}

TEST(FigureTable, IdsAreUniqueAndFindable)
{
    std::set<std::string> ids;
    for (const Figure &fig : figureTable()) {
        EXPECT_TRUE(ids.insert(fig.id).second) << fig.id;
        EXPECT_EQ(findFigure(fig.id), &fig);
    }
    EXPECT_EQ(findFigure("fig99"), nullptr);
    EXPECT_EQ(findFigure(""), nullptr);
}

TEST(FigureTable, CrossoversNameSeriesOfTheirPanel)
{
    for (const Figure &fig : figureTable()) {
        for (const Panel &panel : fig.panels) {
            std::set<std::string> names;
            for (const Series &series : panel.series)
                names.insert(series.name);
            for (const Crossover &pair : panel.crossovers) {
                EXPECT_TRUE(names.count(pair.mesh)) << fig.id << ": "
                                                    << pair.mesh;
                EXPECT_TRUE(names.count(pair.ring)) << fig.id << ": "
                                                    << pair.ring;
            }
        }
    }
}

TEST(FigureTable, EveryPanelPlotsNonEmptySeries)
{
    for (const Figure &fig : figureTable()) {
        EXPECT_FALSE(fig.panels.empty()) << fig.id;
        EXPECT_FALSE(fig.footer.empty()) << fig.id;
        for (const Panel &panel : fig.panels) {
            EXPECT_FALSE(panel.plots.empty()) << fig.id;
            std::set<std::string> names;
            for (const Series &series : panel.series) {
                EXPECT_FALSE(series.points.empty())
                    << fig.id << ": " << series.name;
                EXPECT_TRUE(names.insert(series.name).second)
                    << fig.id << ": duplicate series " << series.name;
            }
        }
    }
}

TEST(FigureTable, ProjectionsReadTheirResultFields)
{
    RunResult result;
    result.avgLatency = 42.5;
    result.ringLevelUtilization = {0.25, 0.5};
    result.networkUtilization = 0.125;
    EXPECT_DOUBLE_EQ(project(Projection::Latency, result), 42.5);
    EXPECT_DOUBLE_EQ(project(Projection::GlobalRingUtil, result), 25.0);
    EXPECT_DOUBLE_EQ(project(Projection::LocalRingUtil, result), 50.0);
    EXPECT_DOUBLE_EQ(project(Projection::NetworkUtil, result), 12.5);
}

} // namespace
} // namespace hrsim::bench
