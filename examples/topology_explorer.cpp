/**
 * @file
 * Topology explorer: enumerate every hierarchical ring topology for a
 * processor budget, simulate them all, and print the ranking — the
 * machinery behind the paper's Table 2, as a runnable example.
 *
 * Usage: topology_explorer [processors] [cache_line_bytes]
 * Defaults: 24 processors, 64 B lines.
 */

#include <cstdio>
#include <cstdlib>

#include "core/analysis.hh"
#include "core/sweep.hh"
#include "core/topology_search.hh"

int
main(int argc, char **argv)
{
    using namespace hrsim;

    const int processors = argc > 1 ? std::atoi(argv[1]) : 24;
    const int line = argc > 2 ? std::atoi(argv[2]) : 64;
    if (processors < 2 || line < 16) {
        std::fprintf(stderr,
                     "usage: %s [processors>=2] [line_bytes>=16]\n",
                     argv[0]);
        return 1;
    }

    SystemConfig base;
    base.cacheLineBytes = static_cast<std::uint32_t>(line);
    base.workload.localityR = 1.0;
    base.workload.outstandingT = 4;
    base.sim.warmupCycles = 3000;
    base.sim.batchCycles = 3000;
    base.sim.numBatches = 4;

    // Every candidate is an independent run: simulate them all in
    // parallel on one sweep runner (one worker per hardware thread).
    SweepRunner runner;
    std::printf("ranking ring hierarchies for %d processors, %dB "
                "lines (R=1.0, C=0.04, T=4) on %u workers...\n\n",
                processors, line, runner.jobs());

    const auto ranked = rankHierarchies(processors, base, runner);
    std::printf("%-4s %-12s %12s %14s\n", "#", "topology",
                "latency(cyc)", "global util");
    int rank = 1;
    for (const TopologyCandidate &candidate : ranked) {
        std::printf("%-4d %-12s %12.1f %13.1f%%\n", rank++,
                    candidate.topology.c_str(), candidate.latency,
                    100.0 * candidate.utilizationGlobal);
    }

    const auto paper = paperTable2Topology(processors, line);
    if (paper) {
        std::printf("\npaper's Table 2 entry for this cell: %s\n",
                    paper->c_str());
    }
    return 0;
}
