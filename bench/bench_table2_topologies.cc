/**
 * @file
 * Table 2: optimal hierarchical ring topology per processor count and
 * cache-line size for the no-locality workload (R = 1.0, C = 0.04,
 * T = 4), regenerated by exhaustively simulating every ordered
 * factorization of the processor count into up to four levels. Each
 * cell's candidates run as one batch on a runner of its own
 * (HRSIM_JOBS workers, default all cores; HRSIM_JOBS=1 is serial):
 * no two cells share a candidate (P and the line size are part of
 * every point), so a runner's point memo would only hold results
 * that are never looked up again.
 *
 * Prints our measured winner next to the paper's entry. Exact
 * agreement is not required — near-optimal hierarchies often sit
 * within the simulation noise — but level counts and the flat-ring
 * cutoffs should match.
 */

#include <cstdio>

#include "bench_common.hh"
#include "core/analysis.hh"
#include "core/sweep.hh"
#include "core/topology_search.hh"

int
main()
{
    using namespace hrsim;

    SystemConfig base;
    base.workload.localityR = 1.0;
    base.workload.outstandingT = 4;
    base.sim.warmupCycles = 2500;
    base.sim.batchCycles = 2500;
    base.sim.numBatches = 4;

    std::printf("== Table 2: optimal ring topology per P and cache "
                "line (R=1.0, C=0.04, T=4) ==\n");
    std::printf("%-6s %-8s %-12s %-10s %-14s %-10s\n", "P", "line",
                "paper", "(levels)", "measured-best", "latency");
    for (const int p : paperTable2Sizes()) {
        for (const int line : {16, 32, 64, 128}) {
            base.cacheLineBytes = static_cast<std::uint32_t>(line);
            SweepOptions opts;
            opts.jobs = bench::benchJobs();
            SweepRunner runner(opts);
            const auto ranked = rankHierarchies(p, base, runner);
            const auto paper = paperTable2Topology(p, line);
            const int paper_levels = static_cast<int>(
                RingTopology::parse(*paper).numLevels());
            std::printf("%-6d %-8d %-12s %-10d %-14s %-10.1f\n", p,
                        line, paper->c_str(), paper_levels,
                        ranked.front().topology.c_str(),
                        ranked.front().latency);
        }
    }
    std::printf("\npaper check: hierarchies appear once P exceeds the "
                "single-ring capacity (12/8/6/4) and deepen with P\n");
    return 0;
}
