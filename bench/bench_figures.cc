/**
 * @file
 * bench_figures [ID...]: prints the figures of bench/figure_table.hh
 * named by ID, or all in table order; an unknown ID exits 1 before
 * anything runs. Every point of the selected figures runs as one
 * batch on the bench runner (HRSIM_JOBS workers), whose memo
 * simulates a config that several figures plot once: a run is a pure
 * function of its config, so each figure prints exactly what a run
 * of its own would.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "core/analysis.hh"
#include "figure_table.hh"

namespace
{

using namespace hrsim;
using namespace hrsim::bench;

template <typename Fn>
void
forEachPoint(const Figure &fig, Fn fn)
{
    for (const Panel &panel : fig.panels) {
        for (const Series &series : panel.series) {
            for (const SystemConfig &cfg : series.points)
                fn(series, cfg);
        }
    }
}

void
printCrossover(const Report &report, const Crossover &pair)
{
    const auto x = crossoverPoint(report.seriesPoints(pair.ring),
                                  report.seriesPoints(pair.mesh));
    if (x) {
        std::printf("cross-over (%s vs %s): mesh wins above ~%.0f "
                    "nodes\n",
                    pair.mesh.c_str(), pair.ring.c_str(), *x);
    } else {
        std::printf("cross-over (%s vs %s): none up to the largest "
                    "size (rings keep winning or never win)\n",
                    pair.mesh.c_str(), pair.ring.c_str());
    }
}

/** Print @a fig from @a result, the result of its first point;
 *  returns one past the result of its last point. */
const RunResult *
printFigure(const Figure &fig, const RunResult *result)
{
    for (const Panel &panel : fig.panels) {
        std::vector<Report> reports;
        for (const Plot &plot : panel.plots) {
            Report &report = reports.emplace_back(
                plot.title, "nodes",
                plot.y == Projection::Latency ? "latency, cycles"
                                              : "% of max");
            const RunResult *point = result;
            for (const Series &series : panel.series) {
                for (const SystemConfig &cfg : series.points) {
                    report.add(series.name, cfg.numProcessors(),
                               project(plot.y, *point++));
                }
            }
            emit(report);
        }
        for (const Series &series : panel.series)
            result += series.points.size();
        for (const Crossover &pair : panel.crossovers)
            printCrossover(reports.front(), pair);
        if (panel.blankLineAfter)
            std::printf("\n");
    }
    std::printf("%s\n", fig.footer.c_str());
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<const Figure *> figs;
    for (int i = 1; i < argc; ++i) {
        const Figure *fig = findFigure(argv[i]);
        if (fig == nullptr) {
            std::string known;
            for (const Figure &entry : figureTable())
                known += " " + entry.id;
            std::fprintf(stderr,
                         "bench_figures: unknown figure id \"%s\" "
                         "(known:%s)\n",
                         argv[i], known.c_str());
            return 1;
        }
        figs.push_back(fig);
    }
    if (figs.empty()) {
        for (const Figure &fig : figureTable())
            figs.push_back(&fig);
    }

    // Constructed first, so the artifact's wall clock covers the runs.
    BenchMetricsDump &dump = BenchMetricsDump::instance();
    dump.setJobs(benchRunner().jobs());
    std::vector<SystemConfig> batch;
    for (const Figure *fig : figs) {
        forEachPoint(*fig, [&](const Series &, const SystemConfig &cfg) {
            batch.push_back(cfg);
        });
    }
    const std::vector<RunResult> results = benchRunner().run(batch);

    const RunResult *result = results.data();
    for (const Figure *fig : figs) {
        const RunResult *point = result;
        forEachPoint(*fig, [&](const Series &series,
                               const SystemConfig &cfg) {
            dump.add(fig->id + "/" + series.name, cfg, *point++);
        });
        result = printFigure(*fig, result);
    }
    return 0;
}
