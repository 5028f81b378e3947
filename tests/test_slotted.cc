/**
 * @file
 * Tests for the slotted (Hector-style) ring switching mode: routing,
 * rotation invariants, retry behaviour and the comparison against
 * wormhole switching the paper alludes to.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/system.hh"
#include "proto/packet_factory.hh"
#include "ring/slotted_network.hh"

namespace hrsim
{
namespace
{

struct Delivery
{
    Packet pkt;
    Cycle when;
};

class SlottedHarness
{
  public:
    explicit SlottedHarness(const std::string &topo,
                            std::uint32_t line_bytes = 64,
                            std::uint32_t global_speed = 1)
        : net_(makeParams(topo, line_bytes, global_speed)),
          factory_(ChannelSpec::ring(), line_bytes)
    {
        net_.setDeliveryHandler([this](const Packet &pkt, Cycle now) {
            deliveries_.push_back({pkt, now});
        });
    }

    static SlottedRingNetwork::Params
    makeParams(const std::string &topo, std::uint32_t line_bytes,
               std::uint32_t global_speed)
    {
        SlottedRingNetwork::Params params;
        params.topo = RingTopology::parse(topo);
        params.cacheLineBytes = line_bytes;
        params.globalRingSpeed = global_speed;
        return params;
    }

    void
    send(NodeId src, NodeId dst, bool is_read)
    {
        const Packet pkt = factory_.makeRequest(src, dst, is_read, now_);
        ASSERT_TRUE(net_.canInject(src, pkt));
        net_.inject(src, pkt);
    }

    void
    runUntilDelivered(std::size_t count, Cycle limit = 10000)
    {
        while (deliveries_.size() < count && now_ < limit)
            net_.tick(now_++);
        ASSERT_GE(deliveries_.size(), count);
    }

    SlottedRingNetwork net_;
    PacketFactory factory_;
    std::vector<Delivery> deliveries_;
    Cycle now_ = 0;
};

TEST(Slotted, AdjacentCellLatency)
{
    // A 1-flit read request between neighbors: injected before cycle
    // 0, fills the slot in cycle 0, sunk in cycle 1... measured from
    // queue visibility: delivered by cycle 2.
    SlottedHarness h("4");
    h.send(0, 1, true);
    h.runUntilDelivered(1);
    EXPECT_LE(h.deliveries_[0].when, 2u);
}

TEST(Slotted, AllPairsDeliverAcrossThreeLevels)
{
    SlottedHarness h("2:2:2");
    std::size_t expected = 0;
    for (NodeId src = 0; src < 8; ++src) {
        for (NodeId dst = 0; dst < 8; ++dst) {
            if (src == dst)
                continue;
            h.send(src, dst, (src + dst) % 2);
            ++expected;
            h.runUntilDelivered(expected);
        }
    }
    EXPECT_EQ(h.deliveries_.size(), expected);
}

TEST(Slotted, MultiCellPacketReassembles)
{
    // A 5-flit write is delivered exactly once, after all its cells.
    SlottedHarness h("2:4", 64);
    h.send(0, 6, false);
    h.runUntilDelivered(1);
    EXPECT_EQ(h.deliveries_.size(), 1u);
    EXPECT_EQ(h.deliveries_[0].pkt.sizeFlits, 5u);
    // Earliest possible: 5 cells serialized + distance.
    EXPECT_GE(h.deliveries_[0].when, 5u);
}

TEST(Slotted, CellsDrainCompletely)
{
    SlottedHarness h("2:3:4", 32);
    h.send(0, 23, false);
    h.send(13, 2, true);
    h.runUntilDelivered(2);
    for (int i = 0; i < 5; ++i)
        h.net_.tick(h.now_++);
    EXPECT_EQ(h.net_.flitsInFlight(), 0u);
}

TEST(Slotted, DoubleSpeedGlobalRingWorks)
{
    SlottedHarness normal("2:2:2", 64, 1);
    SlottedHarness fast("2:2:2", 64, 2);
    normal.send(0, 7, false);
    fast.send(0, 7, false);
    normal.runUntilDelivered(1);
    fast.runUntilDelivered(1);
    EXPECT_LE(fast.deliveries_[0].when, normal.deliveries_[0].when);
}

TEST(Slotted, SystemIntegrationConservation)
{
    SystemConfig cfg = SystemConfig::ring("2:3:4", 64);
    cfg.ringSlotted = true;
    cfg.sim.warmupCycles = 1500;
    cfg.sim.batchCycles = 1500;
    cfg.sim.numBatches = 3;
    System system(cfg);
    system.step(4000);
    const WorkloadCounters &c = system.counters();
    const auto in_flight =
        static_cast<std::uint64_t>(system.totalOutstanding());
    EXPECT_EQ(c.remoteIssued + c.localIssued,
              c.remoteCompleted + c.localCompleted + in_flight);
    EXPECT_GT(c.remoteCompleted, 0u);
}

TEST(Slotted, OversaturatedHierarchyStaysLive)
{
    SystemConfig cfg = SystemConfig::ring("6:3:6", 64);
    cfg.ringSlotted = true;
    cfg.workload.outstandingT = 4;
    cfg.sim.warmupCycles = 4000;
    cfg.sim.batchCycles = 4000;
    cfg.sim.numBatches = 3;
    cfg.sim.watchdogCycles = 4000;
    RunResult result;
    ASSERT_NO_THROW(result = runSystem(cfg));
    EXPECT_GT(result.samples, 0u);
}

TEST(Slotted, RetriesHappenOnlyUnderPressure)
{
    // Zero-ish load: no cell should ever need another lap.
    SlottedHarness h("2:3:4", 64);
    h.send(0, 23, true);
    h.send(5, 11, false);
    h.runUntilDelivered(2);
    EXPECT_EQ(h.net_.totalRetries(), 0u);
}

TEST(Slotted, ComparableToWormholeAtTheBisectionLimit)
{
    // The paper (citing its companion study) notes slotted rings
    // perform somewhat better; at minimum the two modes must agree
    // within ~25% at the paper's 3-ring operating point.
    SimConfig sim;
    sim.warmupCycles = 3000;
    sim.batchCycles = 3000;
    sim.numBatches = 3;

    SystemConfig worm = SystemConfig::ring("3:3:6", 64);
    worm.workload.outstandingT = 4;
    worm.sim = sim;
    SystemConfig slot = worm;
    slot.ringSlotted = true;

    const double worm_lat = runSystem(worm).avgLatency;
    const double slot_lat = runSystem(slot).avgLatency;
    EXPECT_LT(slot_lat, worm_lat * 1.25);
    EXPECT_GT(slot_lat, worm_lat * 0.6);
}

TEST(Slotted, DeterministicRuns)
{
    SystemConfig cfg = SystemConfig::ring("3:3:4", 32);
    cfg.ringSlotted = true;
    cfg.sim.warmupCycles = 1000;
    cfg.sim.batchCycles = 1000;
    cfg.sim.numBatches = 2;
    const RunResult a = runSystem(cfg);
    const RunResult b = runSystem(cfg);
    EXPECT_DOUBLE_EQ(a.avgLatency, b.avgLatency);
    EXPECT_EQ(a.samples, b.samples);
}

TEST(Slotted, LevelUtilizationReported)
{
    SystemConfig cfg = SystemConfig::ring("2:2:2", 32);
    cfg.ringSlotted = true;
    cfg.sim.warmupCycles = 1000;
    cfg.sim.batchCycles = 1000;
    cfg.sim.numBatches = 2;
    System system(cfg);
    EXPECT_EQ(system.network().numLevels(), 3);
    const RunResult result = system.run();
    ASSERT_EQ(result.ringLevelUtilization.size(), 3u);
    for (const double u : result.ringLevelUtilization) {
        EXPECT_GE(u, 0.0);
        EXPECT_LE(u, 1.0);
    }
}

} // namespace
} // namespace hrsim
