/**
 * @file
 * The paper's point-sweep figures, ablations and sweep extensions as
 * data: curves against node count (x = cfg.numProcessors()), each a
 * series of configs in submission order, plus the tables drawn from
 * them, the cross-over pairs and the closing line. bench_figures runs
 * and prints them; hrsim_tests pins the point lists.
 */

#ifndef HRSIM_BENCH_FIGURE_TABLE_HH
#define HRSIM_BENCH_FIGURE_TABLE_HH

#include <string>
#include <vector>

#include "core/system.hh"

namespace hrsim::bench
{

/** What a table plots on y. */
enum class Projection
{
    Latency,        //!< avgLatency
    GlobalRingUtil, //!< 100 * ringLevelUtilization[0]
    LocalRingUtil,  //!< 100 * ringLevelUtilization[1]
    NetworkUtil,    //!< 100 * networkUtilization
};

double project(Projection y, const RunResult &result);

struct Series
{
    std::string name;
    std::vector<SystemConfig> points;
};

/** One printed table over its panel's series. */
struct Plot
{
    std::string title;
    Projection y = Projection::Latency;
};

/** Where series @a mesh first undercuts series @a ring. */
struct Crossover
{
    std::string mesh;
    std::string ring;
};

/** Series printed as one table per plot (Fig. 8 draws two), then
 *  the cross-overs, computed on the first plot. */
struct Panel
{
    std::vector<Plot> plots;
    std::vector<Series> series{};
    std::vector<Crossover> crossovers{};
    bool blankLineAfter = false; //!< after the cross-overs
};

struct Figure
{
    std::string id;
    std::vector<Panel> panels;
    std::string footer; //!< the closing "paper check:" line
};

/** Every point-sweep artifact: Figs. 6-21, ablations, extensions. */
const std::vector<Figure> &figureTable();

/** The entry named @a id, or nullptr. */
const Figure *findFigure(const std::string &id);

} // namespace hrsim::bench

#endif // HRSIM_BENCH_FIGURE_TABLE_HH
