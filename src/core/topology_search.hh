/**
 * @file
 * Exhaustive search for the best ring hierarchy (Table 2 machinery).
 *
 * Enumerates every ordered factorization of the processor count into
 * up to four levels and simulates each candidate under a given
 * workload on a SweepRunner's pool, returning them ranked by measured
 * latency. This is how the paper's Table 2 ("optimal hierarchical ring
 * topology for a given number of processors and cache line size") is
 * regenerated.
 */

#ifndef HRSIM_CORE_TOPOLOGY_SEARCH_HH
#define HRSIM_CORE_TOPOLOGY_SEARCH_HH

#include <string>
#include <vector>

#include "core/sweep.hh"
#include "core/system.hh"

namespace hrsim
{

/** One evaluated candidate hierarchy. */
struct TopologyCandidate
{
    std::string topology;
    double latency = 0.0;
    double utilizationGlobal = 0.0;
};

/**
 * All ordered factorizations of @a processors into 1..max_levels
 * factors, each >= 2, in the paper's top-down notation.
 */
std::vector<std::string> enumerateHierarchies(int processors,
                                              int max_levels = 4);

/**
 * Simulate every candidate hierarchy of @a processors under the
 * workload in @a base (its ring topology field is overridden) as one
 * batch on @a runner, and return them sorted by ascending latency.
 * The ranking is the same at any runner width (SweepRunner's
 * determinism contract).
 */
std::vector<TopologyCandidate>
rankHierarchies(int processors, const SystemConfig &base,
                SweepRunner &runner, int max_levels = 4);

/** As above, on a local runner of hardware_concurrency() workers. */
std::vector<TopologyCandidate>
rankHierarchies(int processors, const SystemConfig &base,
                int max_levels = 4);

} // namespace hrsim

#endif // HRSIM_CORE_TOPOLOGY_SEARCH_HH
