/**
 * @file
 * Behavioral tests for the 2D mesh: e-cube routing, zero-load
 * latencies, arbitration, buffer-size effects and wormhole blocking.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mesh/mesh_network.hh"
#include "proto/packet_factory.hh"

namespace hrsim
{
namespace
{

struct Delivery
{
    Packet pkt;
    Cycle when;
};

class MeshHarness
{
  public:
    explicit MeshHarness(int width, std::uint32_t line_bytes = 32,
                         std::uint32_t buffer_flits = 4)
        : net_(MeshNetwork::Params{width, line_bytes, buffer_flits}),
          factory_(ChannelSpec::mesh(), line_bytes)
    {
        net_.setDeliveryHandler([this](const Packet &pkt, Cycle now) {
            deliveries_.push_back({pkt, now});
        });
    }

    Packet
    sendRead(NodeId src, NodeId dst)
    {
        const Packet pkt = factory_.makeRequest(src, dst, true, now_);
        EXPECT_TRUE(net_.canInject(src, pkt));
        net_.inject(src, pkt);
        return pkt;
    }

    Packet
    sendWrite(NodeId src, NodeId dst)
    {
        const Packet pkt = factory_.makeRequest(src, dst, false, now_);
        EXPECT_TRUE(net_.canInject(src, pkt));
        net_.inject(src, pkt);
        return pkt;
    }

    void
    run(Cycle cycles)
    {
        for (Cycle i = 0; i < cycles; ++i)
            net_.tick(now_++);
    }

    void
    runUntilDelivered(std::size_t count, Cycle limit = 10000)
    {
        while (deliveries_.size() < count && now_ < limit)
            net_.tick(now_++);
        ASSERT_GE(deliveries_.size(), count)
            << "undelivered after " << limit << " cycles";
    }

    MeshNetwork net_;
    PacketFactory factory_;
    std::vector<Delivery> deliveries_;
    Cycle now_ = 0;
};

TEST(MeshRouterUnit, OppositePorts)
{
    EXPECT_EQ(oppositePort(PortEast), PortWest);
    EXPECT_EQ(oppositePort(PortWest), PortEast);
    EXPECT_EQ(oppositePort(PortNorth), PortSouth);
    EXPECT_EQ(oppositePort(PortSouth), PortNorth);
}

TEST(MeshRouterUnit, EcubeRoutesXFirst)
{
    MeshNetwork net(MeshNetwork::Params{3, 32, 4});
    MeshRouter &center = net.router(4); // (1,1) of a 3x3
    EXPECT_EQ(center.routeOf(5), PortEast);  // (2,1)
    EXPECT_EQ(center.routeOf(3), PortWest);  // (0,1)
    EXPECT_EQ(center.routeOf(7), PortSouth); // (1,2)
    EXPECT_EQ(center.routeOf(1), PortNorth); // (1,0)
    EXPECT_EQ(center.routeOf(4), PortLocal);
    // Diagonal destinations leave on X first (e-cube).
    EXPECT_EQ(center.routeOf(8), PortEast); // (2,2)
    EXPECT_EQ(center.routeOf(0), PortWest); // (0,0)
    EXPECT_EQ(center.routeOf(2), PortEast); // (2,0)
}

TEST(MeshRouterUnit, MaskArbiterMatchesStepScan)
{
    // The step scan the mask arbiter replaces: from base, wrapping,
    // grant the first requesting input. The zero mask never reaches
    // the arbiter (an output no head wants is not visited).
    const auto step_scan = [](unsigned requests, int base) {
        for (int step = 0; step < NumMeshPorts; ++step) {
            const int in = (base + step) % NumMeshPorts;
            if (requests & (1u << in))
                return in;
        }
        return -1;
    };
    for (unsigned requests = 1; requests < 32; ++requests) {
        const auto mask = static_cast<PortMask>(requests);
        for (int base = 0; base < NumMeshPorts; ++base) {
            // Round-robin scans from the port's pointer...
            EXPECT_EQ(arbitrateInputs(mask, base),
                      step_scan(requests, base))
                << "requests " << requests << " base " << base;
        }
        // ...fixed priority always from input 0.
        EXPECT_EQ(arbitrateInputs(mask, 0), step_scan(requests, 0))
            << "requests " << requests;
    }
}

TEST(MeshRouterUnit, RouteLutMatchesCoordinateExhaustive)
{
    // The LUT rows built by MeshNetwork must agree with the
    // coordinate computation they cache for every (router, dst)
    // pair. The width grid covers the degenerate 1x1 mesh (every
    // destination is Local and no ports exist), widths where a
    // router sits on every distinct edge/corner/interior
    // configuration, and the paper's odd 11x11 (MeshLarge) plus a
    // larger power of two.
    for (const int width : {1, 2, 3, 4, 5, 6, 7, 8, 11, 16}) {
        MeshNetwork net(MeshNetwork::Params{width, 32, 4});
        const int p = width * width;
        for (NodeId r = 0; r < p; ++r) {
            MeshRouter &router = net.router(r);
            for (NodeId dst = 0; dst < p; ++dst) {
                ASSERT_EQ(router.routeOf(dst),
                          router.routeOfCoordinate(dst))
                    << "width " << width << " router " << r
                    << " dst " << dst;
            }
        }
    }
}

TEST(MeshNetwork, AdjacentZeroLoadLatency)
{
    // 4-flit read request between neighbors: head crosses in cycle 1,
    // tail (flit 4) crosses in cycle 4 and ejects in cycle 5.
    MeshHarness h(2);
    h.sendRead(0, 1);
    h.runUntilDelivered(1);
    EXPECT_EQ(h.deliveries_[0].when, 5u);
}

TEST(MeshNetwork, ZeroLoadLatencyIsSizePlusHops)
{
    // Corner to corner on 3x3: 4 hops; 4-flit packet -> 8 cycles.
    MeshHarness h(3);
    h.sendRead(0, 8);
    h.runUntilDelivered(1);
    EXPECT_EQ(h.deliveries_[0].when, 8u);
}

TEST(MeshNetwork, DataPacketLatency)
{
    // 64 B line -> 20-flit write; 2 hops on 3x3 from 0 to 2.
    MeshHarness h(3, 64);
    h.sendWrite(0, 2);
    h.runUntilDelivered(1);
    EXPECT_EQ(h.deliveries_[0].when, 22u);
}

TEST(MeshNetwork, AllPairsDeliver)
{
    MeshHarness h(3);
    const int pms = h.net_.numProcessors();
    std::size_t expected = 0;
    for (NodeId src = 0; src < pms; ++src) {
        for (NodeId dst = 0; dst < pms; ++dst) {
            if (src == dst)
                continue;
            h.sendRead(src, dst);
            ++expected;
            h.runUntilDelivered(expected);
        }
    }
    EXPECT_EQ(h.deliveries_.size(), expected);
}

TEST(MeshNetwork, EcubePathIsDeterministic)
{
    // The same (src, dst) pair always takes the same time at zero
    // load: deterministic routing.
    Cycle first = 0;
    for (int trial = 0; trial < 3; ++trial) {
        MeshHarness h(4);
        h.sendRead(1, 14);
        h.runUntilDelivered(1);
        if (trial == 0)
            first = h.deliveries_[0].when;
        else
            EXPECT_EQ(h.deliveries_[0].when, first);
    }
}

TEST(MeshNetwork, OneFlitBuffersSlowWorms)
{
    // The same transfer takes longer through 1-flit buffers than
    // 4-flit buffers (registered flow control halves the link rate).
    MeshHarness big(3, 64, 4);
    MeshHarness tiny(3, 64, 1);
    big.sendWrite(0, 8);
    tiny.sendWrite(0, 8);
    big.runUntilDelivered(1);
    tiny.runUntilDelivered(1);
    EXPECT_GT(tiny.deliveries_[0].when, big.deliveries_[0].when);
}

TEST(MeshNetwork, ClBuffersAreNoFasterAtZeroLoad)
{
    // At zero load a worm streams through 4-flit buffers at full
    // rate; cl-sized buffers only help under contention.
    MeshHarness cl(3, 64, 0);
    MeshHarness four(3, 64, 4);
    cl.sendWrite(0, 8);
    four.sendWrite(0, 8);
    cl.runUntilDelivered(1);
    four.runUntilDelivered(1);
    EXPECT_EQ(cl.deliveries_[0].when, four.deliveries_[0].when);
}

TEST(MeshNetwork, ContendingWormsShareAnOutput)
{
    // Two worms from opposite sides converge on the same column and
    // destination; both must arrive, one after the other.
    MeshHarness h(3, 64);
    h.sendWrite(3, 5); // eastbound along row 1
    h.sendWrite(4, 5); // same output link at router 4
    h.runUntilDelivered(2);
    EXPECT_EQ(h.deliveries_.size(), 2u);
    EXPECT_NE(h.deliveries_[0].pkt.src, h.deliveries_[1].pkt.src);
}

TEST(MeshNetwork, RoundRobinSharesFairly)
{
    // Keep two inputs competing for one output for a long time; both
    // make progress (round-robin, no starvation).
    MeshHarness h(3, 16);
    // Many small writes from 0 (via router 1) and from 1 to 2.
    int from0 = 0;
    int from1 = 0;
    for (int wave = 0; wave < 10; ++wave) {
        h.sendWrite(0, 2);
        h.sendWrite(1, 2);
        h.runUntilDelivered(2 * (wave + 1), 100000);
    }
    for (const auto &d : h.deliveries_) {
        if (d.pkt.src == 0)
            ++from0;
        else
            ++from1;
    }
    EXPECT_EQ(from0, 10);
    EXPECT_EQ(from1, 10);
}

TEST(MeshNetwork, SplitQueuesLetResponsesPassRequests)
{
    MeshHarness h(2, 32);
    const Packet w1 = h.factory_.makeRequest(0, 1, false, 0);
    h.net_.inject(0, w1);
    const Packet w2 = h.factory_.makeRequest(0, 1, false, 0);
    EXPECT_FALSE(h.net_.canInject(0, w2)); // request queue is full
    Packet fake_req = h.factory_.makeRequest(1, 0, true, 0);
    std::swap(fake_req.src, fake_req.dst);
    const Packet resp = h.factory_.makeResponse(fake_req);
    EXPECT_TRUE(h.net_.canInject(0, resp)); // response queue is free
}

TEST(MeshNetwork, FlitsDrainAfterDelivery)
{
    MeshHarness h(3, 32);
    h.sendWrite(0, 8);
    h.sendRead(8, 0);
    h.runUntilDelivered(2);
    h.run(5);
    EXPECT_EQ(h.net_.flitsInFlight(), 0u);
}

TEST(MeshNetwork, UtilizationCountsLinkTraffic)
{
    MeshHarness h(3, 32);
    h.net_.utilization().startMeasurement(0);
    h.sendWrite(0, 8);
    h.runUntilDelivered(1);
    h.net_.utilization().stopMeasurement(h.now_);
    EXPECT_GT(h.net_.networkUtilization(), 0.0);
    EXPECT_LT(h.net_.networkUtilization(), 1.0);
}

TEST(MeshNetwork, BufferFlitsZeroSelectsClSize)
{
    MeshNetwork net(MeshNetwork::Params{2, 128, 0});
    EXPECT_EQ(net.bufferFlits(), 36u);
    MeshNetwork net4(MeshNetwork::Params{2, 128, 4});
    EXPECT_EQ(net4.bufferFlits(), 4u);
}

TEST(MeshNetwork, RejectsBadWidth)
{
    EXPECT_THROW(MeshNetwork net(MeshNetwork::Params{0, 32, 4}),
                 ConfigError);
}

} // namespace
} // namespace hrsim
