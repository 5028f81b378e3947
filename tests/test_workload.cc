/**
 * @file
 * Unit tests for the M-MRP processor and memory models, using a fake
 * loop-back network to isolate them from the real interconnects.
 */

#include <gtest/gtest.h>

#include <deque>

#include "proto/packet_factory.hh"
#include "sim/network.hh"
#include "workload/memory.hh"
#include "workload/processor.hh"

namespace hrsim
{
namespace
{

/**
 * A network stub: injected packets are recorded and, optionally,
 * "delivered" back by the test at a chosen time. Injection can be
 * throttled to exercise processor blocking.
 */
class FakeNetwork : public Network
{
  public:
    explicit FakeNetwork(int pms) : pms_(pms) {}

    int numProcessors() const override { return pms_; }

    bool
    canInject(NodeId, const Packet &) const override
    {
        return allowInjection;
    }

    void
    inject(NodeId, const Packet &pkt) override
    {
        injected.push_back(pkt);
    }

    void tick(Cycle) override {}

    std::uint64_t flitsInFlight() const override { return 0; }

    bool allowInjection = true;
    std::deque<Packet> injected;

  private:
    int pms_;
};

struct ProcessorFixture : public ::testing::Test
{
    ProcessorFixture()
        : factory(ChannelSpec::ring(), 32), net(4),
          latency(0, 1000, 4)
    {
        cfg.missRateC = 1.0; // a miss every cycle: deterministic-ish
        cfg.outstandingT = 2;
        cfg.readFraction = 1.0;
        cfg.memoryLatency = 5;
    }

    Processor
    makeProcessor(std::vector<NodeId> targets)
    {
        return Processor(0, std::move(targets), cfg, factory, net,
                         latency, counters, 42);
    }

    WorkloadConfig cfg;
    PacketFactory factory;
    FakeNetwork net;
    BatchMeans latency;
    WorkloadCounters counters;
};

TEST_F(ProcessorFixture, IssuesRemoteMisses)
{
    Processor proc = makeProcessor({0, 1}); // remote target only 1
    // With C=1 and the local PM in the region, some accesses are
    // local; force remote by giving a two-element region and
    // checking both kinds are counted.
    for (Cycle c = 0; c < 50; ++c)
        proc.tick(c);
    EXPECT_GT(counters.missesGenerated, 0u);
    // Every remote issue reaches the network exactly once.
    EXPECT_EQ(counters.remoteIssued, net.injected.size());
}

TEST_F(ProcessorFixture, BlocksAtOutstandingLimit)
{
    Processor proc = makeProcessor({0, 1});
    // Never deliver responses: after T issues the processor stalls.
    Cycle c = 0;
    for (; c < 100; ++c)
        proc.tick(c);
    EXPECT_LE(proc.outstanding(), 2);
    EXPECT_LE(net.injected.size(), 2u); // remote slots never free
    EXPECT_TRUE(proc.blocked());
    EXPECT_GT(counters.blockedCycles, 0u);
}

TEST_F(ProcessorFixture, ResponseFreesASlot)
{
    cfg.outstandingT = 1;
    Processor proc = makeProcessor({0, 1});
    Cycle c = 0;
    // Run until something was issued.
    while (net.injected.empty() && counters.localIssued == 0 && c < 20)
        proc.tick(c++);
    // Make every issue remote for determinism of this test: the
    // region has the local PM, so allow either kind. Deliver if
    // remote.
    if (!net.injected.empty()) {
        ASSERT_EQ(proc.outstanding(), 1);
        const Packet req = net.injected.front();
        net.injected.pop_front();
        const Packet resp = factory.makeResponse(req);
        proc.onResponse(resp, c);
        EXPECT_EQ(proc.outstanding(), 0);
    }
}

TEST_F(ProcessorFixture, LocalAccessesCompleteViaMemoryLatency)
{
    Processor proc = makeProcessor({0}); // purely local region
    proc.tick(0);
    EXPECT_EQ(counters.localIssued, 1u);
    EXPECT_EQ(proc.outstanding(), 1);
    // Completes at cycle 0 + memoryLatency.
    for (Cycle c = 1; c <= cfg.memoryLatency; ++c)
        proc.tick(c);
    EXPECT_EQ(counters.localCompleted, 1u);
    EXPECT_EQ(net.injected.size(), 0u); // never touched the network
}

TEST_F(ProcessorFixture, StalledMissIsRetriedNotDropped)
{
    cfg.outstandingT = 4;
    net.allowInjection = false;
    Processor proc = makeProcessor({0, 1, 2, 3});
    Cycle c = 0;
    while (!proc.blocked() && c < 100)
        proc.tick(c++);
    // Blocked on a remote miss (injection refused) or local slots;
    // with injection refused, remote misses stall.
    if (proc.blocked()) {
        const auto generated = counters.missesGenerated;
        net.allowInjection = true;
        proc.tick(c++);
        // The stalled miss was issued without generating a new one.
        EXPECT_EQ(counters.missesGenerated, generated);
        EXPECT_FALSE(proc.blocked());
    }
}

TEST_F(ProcessorFixture, MissRateMatchesC)
{
    cfg.missRateC = 0.04;
    cfg.outstandingT = 1000000; // never block
    Processor proc = makeProcessor({0, 1, 2, 3});
    const Cycle n = 200000;
    for (Cycle c = 0; c < n; ++c)
        proc.tick(c);
    // Binomial(200000, 0.04): mean 8000, sigma ~88. Allow 5 sigma.
    EXPECT_NEAR(static_cast<double>(counters.missesGenerated), 8000.0,
                440.0);
}

TEST_F(ProcessorFixture, ReadFractionRespected)
{
    cfg.readFraction = 0.7;
    cfg.missRateC = 1.0;
    cfg.outstandingT = 1000000;
    Processor proc = makeProcessor({0, 1});
    for (Cycle c = 0; c < 20000; ++c)
        proc.tick(c);
    std::uint64_t reads = 0;
    for (const Packet &pkt : net.injected) {
        if (pkt.type == PacketType::ReadRequest)
            ++reads;
    }
    const double frac = static_cast<double>(reads) /
                        static_cast<double>(net.injected.size());
    EXPECT_NEAR(frac, 0.7, 0.05);
}

TEST_F(ProcessorFixture, LatencyIsRecordedOnResponse)
{
    Processor proc = makeProcessor({0, 1});
    Cycle c = 0;
    while (net.injected.empty() && c < 50)
        proc.tick(c++);
    ASSERT_FALSE(net.injected.empty());
    const Packet req = net.injected.front();
    const Packet resp = factory.makeResponse(req);
    proc.onResponse(resp, req.issueCycle + 123);
    EXPECT_EQ(latency.sampleCount(), 1u);
    EXPECT_DOUBLE_EQ(latency.mean(), 123.0);
}

TEST(MemoryModule, RespondsAfterFixedLatency)
{
    PacketFactory factory(ChannelSpec::ring(), 32);
    FakeNetwork net(4);
    MemoryModule mem(1, 10, factory, net);

    const Packet req = factory.makeRequest(0, 1, true, 5);
    mem.onRequest(req, 5);
    EXPECT_EQ(mem.pendingResponses(), 1u);

    for (Cycle c = 6; c < 15; ++c) {
        mem.tick(c);
        EXPECT_TRUE(net.injected.empty()) << "early at " << c;
    }
    mem.tick(15);
    ASSERT_EQ(net.injected.size(), 1u);
    EXPECT_EQ(net.injected.front().type, PacketType::ReadResponse);
    EXPECT_EQ(net.injected.front().dst, 0);
    EXPECT_EQ(mem.pendingResponses(), 0u);
}

TEST(MemoryModule, PipelinedModeOverlapsRequests)
{
    PacketFactory factory(ChannelSpec::ring(), 32);
    FakeNetwork net(4);
    MemoryModule mem(1, 10, factory, net, /*serialized=*/false);
    // Three back-to-back requests complete back-to-back.
    for (Cycle c = 0; c < 3; ++c)
        mem.onRequest(factory.makeRequest(0, 1, true, c), c);
    for (Cycle c = 0; c <= 12; ++c)
        mem.tick(c);
    EXPECT_EQ(net.injected.size(), 3u);
}

TEST(MemoryModule, SerializedModeQueuesRequests)
{
    PacketFactory factory(ChannelSpec::ring(), 32);
    FakeNetwork net(4);
    MemoryModule mem(1, 10, factory, net, /*serialized=*/true);
    // Three simultaneous requests finish 10 cycles apart.
    for (int i = 0; i < 3; ++i)
        mem.onRequest(factory.makeRequest(0, 1, true, 0), 0);
    std::size_t done_at_10 = 0;
    std::size_t done_at_20 = 0;
    for (Cycle c = 0; c <= 30; ++c) {
        mem.tick(c);
        if (c == 10)
            done_at_10 = net.injected.size();
        if (c == 20)
            done_at_20 = net.injected.size();
    }
    EXPECT_EQ(done_at_10, 1u);
    EXPECT_EQ(done_at_20, 2u);
    EXPECT_EQ(net.injected.size(), 3u);
}

TEST(MemoryModule, SerializedIdleMemoryStartsImmediately)
{
    PacketFactory factory(ChannelSpec::ring(), 32);
    FakeNetwork net(4);
    MemoryModule mem(1, 10, factory, net, /*serialized=*/true);
    mem.onRequest(factory.makeRequest(0, 1, true, 100), 100);
    for (Cycle c = 100; c <= 110; ++c)
        mem.tick(c);
    ASSERT_EQ(net.injected.size(), 1u); // ready at 110, not 10+busy
}

TEST(MemoryModule, HoldsResponsesUnderBackpressure)
{
    PacketFactory factory(ChannelSpec::ring(), 32);
    FakeNetwork net(4);
    net.allowInjection = false;
    MemoryModule mem(1, 2, factory, net);
    mem.onRequest(factory.makeRequest(0, 1, true, 0), 0);
    mem.onRequest(factory.makeRequest(2, 1, false, 0), 0);
    for (Cycle c = 0; c < 20; ++c)
        mem.tick(c);
    EXPECT_TRUE(net.injected.empty());
    EXPECT_EQ(mem.pendingResponses(), 2u);
    net.allowInjection = true;
    mem.tick(21);
    // Injected in FIFO order once the queue frees.
    ASSERT_EQ(net.injected.size(), 2u);
    EXPECT_EQ(net.injected[0].type, PacketType::ReadResponse);
    EXPECT_EQ(net.injected[1].type, PacketType::WriteResponse);
    EXPECT_EQ(mem.pendingResponses(), 0u);
}

TEST(MemoryModule, WriteGetsWriteResponse)
{
    PacketFactory factory(ChannelSpec::mesh(), 64);
    FakeNetwork net(2);
    MemoryModule mem(1, 1, factory, net);
    mem.onRequest(factory.makeRequest(0, 1, false, 7), 7);
    mem.tick(8);
    ASSERT_EQ(net.injected.size(), 1u);
    EXPECT_EQ(net.injected.front().type, PacketType::WriteResponse);
    EXPECT_EQ(net.injected.front().sizeFlits, 4u); // header-only
    EXPECT_EQ(net.injected.front().issueCycle, 7u);
}

} // namespace
} // namespace hrsim
