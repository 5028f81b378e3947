/**
 * @file
 * bench_figures [ID...]: prints the figures of bench/figure_table.hh
 * named by ID, or all in table order; an unknown ID exits 1 before
 * anything runs. The points run as one batch on the bench runner
 * (HRSIM_JOBS workers), keeping the first point of each configKey: a
 * run is a pure function of its config, so each figure prints exactly
 * what a run of its own would.
 */

#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_common.hh"
#include "core/analysis.hh"
#include "figure_table.hh"

namespace
{

using namespace hrsim;
using namespace hrsim::bench;

using Slots = std::unordered_map<std::string, std::size_t>; // by configKey

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

void
printFigure(const Figure &fig, const Slots &slots,
            const std::vector<RunResult> &results)
{
    for (const Panel &panel : fig.panels) {
        std::vector<Report> reports;
        for (const Plot &plot : panel.plots) {
            Report &report = reports.emplace_back(
                plot.title, "nodes",
                plot.y == Projection::Latency ? "latency, cycles"
                                              : "% of max");
            for (const Series &series : panel.series) {
                for (const SystemConfig &cfg : series.points) {
                    const RunResult &result =
                        results[slots.at(configKey(cfg))];
                    report.add(series.name, cfg.numProcessors(),
                               project(plot.y, result));
                }
            }
            emit(report);
        }
        for (const Crossover &pair : panel.crossovers)
            printCrossover(reports.front(), pair);
        if (panel.blankLineAfter)
            std::printf("\n");
    }
    std::printf("%s\n", fig.footer.c_str());
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
    Slots slots;
    std::vector<SystemConfig> batch;
    for (const Figure *fig : figs) {
        forEachPoint(*fig, [&](const Series &, const SystemConfig &cfg) {
            if (slots.try_emplace(configKey(cfg), batch.size()).second)
                batch.push_back(cfg);
        });
    }
    const std::vector<RunResult> results = benchRunner().run(batch);

    std::vector<bool> dumped(batch.size(), false);
    for (const Figure *fig : figs) {
        forEachPoint(*fig, [&](const Series &series,
                               const SystemConfig &cfg) {
            const std::size_t slot = slots.at(configKey(cfg));
            dump.add(fig->id + "/" + series.name, cfg, results[slot],
                     !dumped[slot]);
            dumped[slot] = true;
        });
        printFigure(*fig, slots, results);
    }
    return 0;
}
