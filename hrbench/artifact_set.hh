/**
 * @file
 * The point lists of the paper's figure benches (bench/bench_fig06 ..
 * bench_fig21), rebuilt without running them, so the figures slice's
 * share of repeated points can be compared with the real artifact
 * set's. Each list follows its bench's loops and helpers
 * (bench_common.hh ringConfig, meshConfig, runRingLadder,
 * runMeshSweep) in submission order; a change to a figure bench's
 * point list must be copied here.
 */

#ifndef HRBENCH_ARTIFACT_SET_HH
#define HRBENCH_ARTIFACT_SET_HH

#include <string>
#include <utility>
#include <vector>

#include "core/system.hh"

namespace hrbench
{

/** bench_common.hh benchSim(): the figure benches' protocol. */
hrsim::SimConfig benchSim();

/** One figure bench's submitted points, named after its binary. */
using ArtifactFigure =
    std::pair<std::string, std::vector<hrsim::SystemConfig>>;

/** Figs. 6-21 of the artifact set (Table 2 runs through
 *  rankHierarchies, not as figure points, and is left out). */
std::vector<ArtifactFigure> artifactFigures();

} // namespace hrbench

#endif // HRBENCH_ARTIFACT_SET_HH
