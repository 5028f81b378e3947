/**
 * @file
 * Unit tests for hierarchy enumeration and the topology search.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "core/topology_search.hh"

namespace hrsim
{
namespace
{

TEST(EnumerateHierarchies, TwelveProcessors)
{
    const auto all = enumerateHierarchies(12);
    const std::set<std::string> got(all.begin(), all.end());
    const std::set<std::string> expected = {
        "12",    "2:6",   "2:2:3", "2:3:2", "3:4",  "3:2:2",
        "4:3",   "6:2",   "2:2:3", "3:2:2", "2:3:2",
    };
    EXPECT_EQ(got, expected);
}

TEST(EnumerateHierarchies, PrimeHasOnlySingleRing)
{
    const auto all = enumerateHierarchies(13);
    ASSERT_EQ(all.size(), 1u);
    EXPECT_EQ(all[0], "13");
}

TEST(EnumerateHierarchies, RespectsMaxLevels)
{
    const auto two = enumerateHierarchies(16, 2);
    for (const auto &topo : two) {
        EXPECT_LE(std::count(topo.begin(), topo.end(), ':'), 1)
            << topo;
    }
    const auto four = enumerateHierarchies(16, 4);
    EXPECT_GT(four.size(), two.size());
    EXPECT_NE(std::find(four.begin(), four.end(), "2:2:2:2"),
              four.end());
}

TEST(EnumerateHierarchies, AllProductsMatch)
{
    for (const int p : {8, 24, 36}) {
        for (const auto &topo : enumerateHierarchies(p)) {
            EXPECT_EQ(RingTopology::parse(topo).numProcessors(), p)
                << topo;
        }
    }
}

TEST(RankHierarchies, PicksAHierarchyOverASaturatedSingleRing)
{
    // 24 processors with 128 B lines: the paper's Table 2 says a
    // single ring is hopeless (single rings sustain ~4 PMs) and a
    // 3-level hierarchy wins.
    SystemConfig base;
    base.cacheLineBytes = 128;
    base.workload.localityR = 1.0;
    base.workload.outstandingT = 4;
    base.sim.warmupCycles = 1500;
    base.sim.batchCycles = 1500;
    base.sim.numBatches = 3;

    const auto ranked = rankHierarchies(24, base);
    ASSERT_FALSE(ranked.empty());
    // Every enumerated hierarchy was evaluated.
    EXPECT_EQ(ranked.size(), enumerateHierarchies(24).size());
    // The winner is a multi-level hierarchy, not "24".
    EXPECT_NE(ranked.front().topology, "24");
    // And "24" is measurably worse than the winner.
    const auto single = std::find_if(
        ranked.begin(), ranked.end(),
        [](const TopologyCandidate &c) { return c.topology == "24"; });
    ASSERT_NE(single, ranked.end());
    EXPECT_GT(single->latency, 1.25 * ranked.front().latency);
}

TEST(RankHierarchies, SortedAscending)
{
    SystemConfig base;
    base.cacheLineBytes = 32;
    base.sim.warmupCycles = 800;
    base.sim.batchCycles = 800;
    base.sim.numBatches = 2;
    const auto ranked = rankHierarchies(8, base, 2);
    for (std::size_t i = 1; i < ranked.size(); ++i)
        EXPECT_LE(ranked[i - 1].latency, ranked[i].latency);
}

TEST(RankHierarchies, RunnerWidthDoesNotChangeRanking)
{
    SystemConfig base;
    base.cacheLineBytes = 64;
    base.workload.localityR = 1.0;
    base.workload.outstandingT = 4;
    base.sim.warmupCycles = 800;
    base.sim.batchCycles = 800;
    base.sim.numBatches = 2;

    SweepOptions serial_opts;
    serial_opts.jobs = 1;
    SweepRunner serial(serial_opts);
    SweepOptions parallel_opts;
    parallel_opts.jobs = 4;
    SweepRunner parallel(parallel_opts);

    const auto a = rankHierarchies(24, base, serial);
    const auto b = rankHierarchies(24, base, parallel);
    ASSERT_EQ(a.size(), enumerateHierarchies(24).size());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("rank " + std::to_string(i));
        EXPECT_EQ(a[i].topology, b[i].topology);
        EXPECT_EQ(a[i].latency, b[i].latency);
        EXPECT_EQ(a[i].utilizationGlobal, b[i].utilizationGlobal);
    }
}

} // namespace
} // namespace hrsim
