#include "core/topology_search.hh"

#include <algorithm>

#include "common/log.hh"

namespace hrsim
{

namespace
{

void
enumerate(int remaining, int max_levels, std::vector<int> &prefix,
          std::vector<std::string> &out)
{
    if (remaining == 1) {
        if (!prefix.empty()) {
            RingTopology topo{prefix};
            out.push_back(topo.toString());
        }
        return;
    }
    if (static_cast<int>(prefix.size()) == max_levels)
        return;
    for (int factor = 2; factor <= remaining; ++factor) {
        if (remaining % factor != 0)
            continue;
        prefix.push_back(factor);
        enumerate(remaining / factor, max_levels, prefix, out);
        prefix.pop_back();
    }
}

} // namespace

std::vector<std::string>
enumerateHierarchies(int processors, int max_levels)
{
    HRSIM_ASSERT(processors >= 2);
    std::vector<std::string> out;
    std::vector<int> prefix;
    enumerate(processors, max_levels, prefix, out);
    return out;
}

std::vector<TopologyCandidate>
rankHierarchies(int processors, const SystemConfig &base,
                SweepRunner &runner, int max_levels)
{
    const std::vector<std::string> topologies =
        enumerateHierarchies(processors, max_levels);
    std::vector<SystemConfig> points;
    points.reserve(topologies.size());
    for (const std::string &topo : topologies) {
        SystemConfig cfg = base;
        cfg.kind = NetworkKind::HierarchicalRing;
        cfg.ringTopo = RingTopology::parse(topo);
        points.push_back(std::move(cfg));
    }
    const std::vector<RunResult> results = runner.run(points);

    std::vector<TopologyCandidate> ranked;
    ranked.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        TopologyCandidate candidate;
        candidate.topology = topologies[i];
        candidate.latency = results[i].avgLatency;
        if (!results[i].ringLevelUtilization.empty())
            candidate.utilizationGlobal =
                results[i].ringLevelUtilization.front();
        ranked.push_back(candidate);
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const TopologyCandidate &a, const TopologyCandidate &b) {
                  return a.latency < b.latency;
              });
    return ranked;
}

std::vector<TopologyCandidate>
rankHierarchies(int processors, const SystemConfig &base,
                int max_levels)
{
    SweepRunner runner;
    return rankHierarchies(processors, base, runner, max_levels);
}

} // namespace hrsim
