/**
 * @file
 * Fault-injection and graceful-degradation tests (DESIGN.md s13).
 *
 * Pinned contracts:
 *  1. Spec grammar — every target/action/window form parses, the
 *     canonical rendering round-trips, and malformed specs fail with
 *     a diagnostic instead of a partial parse.
 *  2. Validation — a plan naming a component the topology does not
 *     have is a ConfigError at System construction, and the slotted
 *     ring rejects fault plans outright.
 *  3. Determinism — a faulted run is a pure function of config +
 *     seed: reruns, the every-cycle driver (idleSkip off) and
 *     parallel sweeps all reproduce it bit for bit.
 *  4. Empty-plan identity — without fault events no fault state
 *     exists: no fault.* metrics are registered and results are
 *     identical to a config that never mentions the subsystem.
 *  5. Conservation — injected == delivered + dropped + in-flight at
 *     every cycle boundary, for link-down and corrupt windows on
 *     both fabrics; the fabric drains rather than wedges. On the
 *     mesh the packet table holds one live slot per packet with a
 *     buffered flit, kill tokens and poisoned worms included, and
 *     none once the fabric drained.
 *  6. Degradation — timeouts reissue lost transactions, abandonment
 *     frees their slots, and stale (duplicate) responses are
 *     swallowed without corrupting the outstanding count.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/log.hh"
#include "core/sweep.hh"
#include "core/system.hh"
#include "fault/fault_plan.hh"
#include "mesh/mesh_network.hh"
#include "proto/packet_factory.hh"

namespace hrsim
{
namespace
{

FaultEvent
spec(const std::string &text)
{
    FaultEvent event;
    std::string err;
    EXPECT_TRUE(parseFaultSpec(text, event, err)) << err;
    return event;
}

SimConfig
quickSim()
{
    SimConfig sim;
    sim.warmupCycles = 2000;
    sim.batchCycles = 2000;
    sim.numBatches = 3;
    return sim;
}

void
expectIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.avgLatency, b.avgLatency);
    EXPECT_EQ(a.latencyCI95, b.latencyCI95);
    EXPECT_EQ(a.samples, b.samples);
    EXPECT_EQ(a.latencyP50, b.latencyP50);
    EXPECT_EQ(a.latencyP95, b.latencyP95);
    EXPECT_EQ(a.latencyP99, b.latencyP99);
    EXPECT_EQ(a.networkUtilization, b.networkUtilization);
    EXPECT_EQ(a.ringLevelUtilization, b.ringLevelUtilization);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.throughputPerPm, b.throughputPerPm);
    EXPECT_EQ(a.counters.missesGenerated, b.counters.missesGenerated);
    EXPECT_EQ(a.counters.remoteIssued, b.counters.remoteIssued);
    EXPECT_EQ(a.counters.remoteCompleted, b.counters.remoteCompleted);
    EXPECT_EQ(a.counters.localIssued, b.counters.localIssued);
    EXPECT_EQ(a.counters.localCompleted, b.counters.localCompleted);
    EXPECT_EQ(a.counters.blockedCycles, b.counters.blockedCycles);
}

// ---------------------------------------------------------------
// 1. Spec grammar
// ---------------------------------------------------------------

TEST(FaultParser, ParsesEveryTargetKind)
{
    FaultEvent e = spec("mesh.r3.east:down@100..200");
    EXPECT_EQ(e.target.kind, FaultTargetKind::MeshPort);
    EXPECT_EQ(e.target.id, 3);
    EXPECT_EQ(e.target.port, 0);
    EXPECT_EQ(e.action, FaultAction::LinkDown);
    EXPECT_EQ(e.start, 100u);
    EXPECT_EQ(e.end, 200u);

    e = spec("mesh.r7:stall@5..9");
    EXPECT_EQ(e.target.kind, FaultTargetKind::MeshRouter);
    EXPECT_EQ(e.target.id, 7);
    EXPECT_EQ(e.action, FaultAction::Stall);

    e = spec("ring.nic12:corrupt@1..2");
    EXPECT_EQ(e.target.kind, FaultTargetKind::RingNic);
    EXPECT_EQ(e.target.id, 12);
    EXPECT_EQ(e.action, FaultAction::Corrupt);

    e = spec("ring.l1.iri2.upper:down@10..");
    EXPECT_EQ(e.target.kind, FaultTargetKind::RingIri);
    EXPECT_EQ(e.target.level, 1);
    EXPECT_EQ(e.target.id, 2);
    EXPECT_TRUE(e.target.upper);
    EXPECT_EQ(e.end, FaultEvent::foreverCycle);
}

TEST(FaultParser, CanonicalRoundTrips)
{
    const std::vector<std::string> specs = {
        "mesh.r3.east:down@100..200",
        "mesh.r0.north:corrupt@1..2",
        "mesh.r15:stall@7..",
        "ring.nic5:down@0..1000000",
        "ring.l0.iri3.upper:stall@42..43",
        "ring.l2.iri0.lower:corrupt@9..18",
    };
    for (const std::string &text : specs) {
        SCOPED_TRACE(text);
        EXPECT_EQ(spec(text).canonical(), text);
        // Parsing the canonical form again is a fixed point.
        EXPECT_EQ(spec(spec(text).canonical()).canonical(), text);
    }
}

TEST(FaultParser, RejectsMalformedSpecs)
{
    const std::vector<std::string> bad = {
        "",                            // nothing
        "disk.r1:down@1..2",           // unknown target family
        "mesh.r:down@1..2",            // missing router id
        "mesh.r1.up:down@1..2",        // bad port name
        "mesh.r1.east:melt@1..2",      // unknown action
        "mesh.r1:down@1..2",           // down needs a port
        "mesh.r1.east:stall@1..2",     // stall takes a whole router
        "ring.nic2:down",              // no window
        "ring.nic2:down@5",            // no '..'
        "ring.nic2:down@5..5",         // empty window
        "ring.nic2:down@9..4",         // inverted window
        "ring.l1.iri0:down@1..2",      // IRI needs a side
        "ring.nic2:down@1..2extra",    // trailing garbage
    };
    for (const std::string &text : bad) {
        SCOPED_TRACE(text);
        FaultEvent event;
        std::string err;
        EXPECT_FALSE(parseFaultSpec(text, event, err));
        EXPECT_FALSE(err.empty());
    }
}

TEST(FaultParser, PlanTextWithDirectivesAndComments)
{
    const char *text =
        "# outage study\n"
        "timeout 500\n"
        "retries 2\n"
        "ring.nic1:down@100..200   # first outage\n"
        "\n"
        "ring.nic2:stall@300..\n";
    FaultPlan plan;
    std::string err;
    ASSERT_TRUE(parseFaultPlanText(text, plan, err)) << err;
    ASSERT_EQ(plan.events.size(), 2u);
    EXPECT_EQ(plan.retry.timeoutCycles, 500u);
    EXPECT_EQ(plan.retry.maxRetries, 2u);
    EXPECT_EQ(plan.events[0].canonical(), "ring.nic1:down@100..200");
    EXPECT_EQ(plan.events[1].canonical(), "ring.nic2:stall@300..");
}

TEST(FaultParser, PlanTextReportsLineNumbers)
{
    FaultPlan plan;
    std::string err;
    EXPECT_FALSE(parseFaultPlanText(
        "ring.nic1:down@1..2\nbogus line\n", plan, err));
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;
}

// ---------------------------------------------------------------
// 2. Validation
// ---------------------------------------------------------------

TEST(FaultValidation, UnknownTargetsAreConfigErrors)
{
    SystemConfig cfg = SystemConfig::ring("2:4", 64);
    cfg.sim = quickSim();

    cfg.faultPlan.events = {spec("ring.nic99:down@1..2")};
    EXPECT_THROW(System{cfg}, ConfigError);

    cfg.faultPlan.events = {spec("mesh.r0.east:down@1..2")};
    EXPECT_THROW(System{cfg}, ConfigError); // mesh target, ring net

    cfg.faultPlan.events = {spec("ring.l7.iri0.lower:stall@1..2")};
    EXPECT_THROW(System{cfg}, ConfigError); // no such level

    SystemConfig mesh = SystemConfig::mesh(4, 64, 4);
    mesh.sim = quickSim();
    mesh.faultPlan.events = {spec("mesh.r0.north:down@1..2")};
    EXPECT_THROW(System{mesh}, ConfigError); // edge router, no link
    mesh.faultPlan.events = {spec("ring.nic0:down@1..2")};
    EXPECT_THROW(System{mesh}, ConfigError); // ring target, mesh net
}

TEST(FaultValidation, SlottedRingRejectsFaultPlans)
{
    SystemConfig cfg = SystemConfig::ring("2:4", 64);
    cfg.ringSlotted = true;
    cfg.sim = quickSim();
    cfg.faultPlan.events = {spec("ring.nic1:down@1..2")};
    EXPECT_THROW(System{cfg}, ConfigError);
}

// ---------------------------------------------------------------
// 3. + 4. Determinism and empty-plan identity
// ---------------------------------------------------------------

SystemConfig
faultedRing()
{
    SystemConfig cfg = SystemConfig::ring("3:6", 64);
    cfg.sim = quickSim();
    cfg.sim.seed = 17;
    cfg.faultPlan.events = {
        spec("ring.nic2:down@2500..4000"),
        spec("ring.l0.iri1.lower:stall@4500..5000"),
        spec("ring.nic7:corrupt@5200..5600"),
    };
    cfg.faultPlan.retry.timeoutCycles = 600;
    return cfg;
}

SystemConfig
faultedMesh()
{
    SystemConfig cfg = SystemConfig::mesh(4, 64, 4);
    cfg.sim = quickSim();
    cfg.sim.seed = 17;
    cfg.faultPlan.events = {
        spec("mesh.r5.east:down@2500..4000"),
        spec("mesh.r10:stall@4500..5000"),
        spec("mesh.r5.north:corrupt@5200..5600"),
    };
    cfg.faultPlan.retry.timeoutCycles = 600;
    return cfg;
}

TEST(FaultDeterminism, RerunsAndEveryCycleDriverAgree)
{
    for (const SystemConfig &base : {faultedRing(), faultedMesh()}) {
        const RunResult first = runSystem(base);
        expectIdentical(first, runSystem(base));

        // idleSkip off selects the reference engine, so this
        // crosses the faulted production engine against the faulted
        // reference engine in-process.
        SystemConfig reference = base;
        reference.sim.idleSkip = false;
        expectIdentical(first, runSystem(reference));
    }
}

TEST(FaultDeterminism, ParallelSweepReproducesSerial)
{
    std::vector<SystemConfig> points = {faultedRing(), faultedMesh()};
    const std::vector<RunResult> serial = runSweep(points, 1);
    const std::vector<RunResult> parallel = runSweep(points, 4);
    ASSERT_EQ(serial.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        expectIdentical(serial[i], parallel[i]);
        expectIdentical(serial[i], runSystem(points[i]));
    }
}

TEST(FaultGating, EmptyPlanRegistersNothingAndChangesNothing)
{
    SystemConfig plain = SystemConfig::ring("2:4", 64);
    plain.sim = quickSim();

    // Touching the retry policy without scheduling any event keeps
    // the plan empty: no controller, no metrics, identical results.
    SystemConfig tweaked = plain;
    tweaked.faultPlan.retry.timeoutCycles = 7;
    tweaked.faultPlan.retry.maxRetries = 1;

    System probe(plain);
    EXPECT_EQ(probe.faults(), nullptr);
    for (const MetricSample &sample : probe.metrics().snapshot()) {
        EXPECT_EQ(sample.name.find("fault."), std::string::npos);
        EXPECT_EQ(sample.name.find("drop."), std::string::npos);
        EXPECT_EQ(sample.name.find("retry."), std::string::npos);
    }

    expectIdentical(runSystem(plain), runSystem(tweaked));
}

TEST(FaultGating, ActivePlanRegistersTheFaultMetrics)
{
    System system(faultedRing());
    ASSERT_NE(system.faults(), nullptr);
    bool saw_drop = false, saw_fault = false, saw_retry = false;
    for (const MetricSample &sample : system.metrics().snapshot()) {
        saw_drop |= sample.name.rfind("drop.", 0) == 0;
        saw_fault |= sample.name.rfind("fault.", 0) == 0;
        saw_retry |= sample.name.rfind("retry.", 0) == 0;
    }
    EXPECT_TRUE(saw_drop);
    EXPECT_TRUE(saw_fault);
    EXPECT_TRUE(saw_retry);
}

// ---------------------------------------------------------------
// 5. Conservation
// ---------------------------------------------------------------

/**
 * Mesh packet-table conservation at a tick boundary: one live slot
 * per distinct packet among the buffered flits (no-op on rings).
 */
void
expectTableMatchesBuffers(Network &network)
{
    auto *mesh = dynamic_cast<MeshNetwork *>(&network);
    if (mesh == nullptr)
        return;
    std::set<PacketId> packets;
    for (NodeId id = 0; id < mesh->numProcessors(); ++id) {
        mesh->router(id).forEachFlit([&](const FlitHandle &flit) {
            packets.insert(mesh->packets().packet(flit.slot).id);
        });
    }
    EXPECT_EQ(mesh->packets().liveSlots(), packets.size());
}

void
expectConservation(const SystemConfig &cfg)
{
    System system(cfg);
    ASSERT_NE(system.faults(), nullptr);
    // Walk through the windows in slices, checking the ledger at
    // every boundary: a violation is caught near the cycle that
    // caused it, not at the horizon.
    for (int slice = 0; slice < 40; ++slice) {
        system.step(250);
        const FaultAccounting &acct = system.faults()->accounting();
        ASSERT_EQ(acct.injectedFlits,
                  acct.deliveredFlits + acct.droppedFlits +
                      system.network().flitsInFlight())
            << "cycle " << system.now();
        SCOPED_TRACE("cycle " + std::to_string(system.now()));
        expectTableMatchesBuffers(system.network());
    }
    // The windows are long past: the fabric must have drained and
    // kept delivering (no wedge, no watchdog stall).
    const FaultAccounting &acct = system.faults()->accounting();
    EXPECT_GT(acct.droppedWorms, 0u);
    EXPECT_GT(acct.deliveredFlits, 0u);
}

TEST(FaultConservation, RingLinkDownDrainsWithoutLoss)
{
    SystemConfig cfg = SystemConfig::ring("3:6", 64);
    cfg.sim = quickSim();
    cfg.faultPlan.events = {
        spec("ring.nic2:down@1000..3000"),
        spec("ring.l0.iri0.lower:down@2000..3500"),
    };
    cfg.faultPlan.retry.timeoutCycles = 800;
    expectConservation(cfg);
}

TEST(FaultConservation, MeshLinkDownDrainsWithoutLoss)
{
    SystemConfig cfg = SystemConfig::mesh(4, 64, 4);
    cfg.sim = quickSim();
    cfg.faultPlan.events = {
        spec("mesh.r5.east:down@1000..3000"),
        spec("mesh.r9.south:down@2000..3500"),
    };
    cfg.faultPlan.retry.timeoutCycles = 800;
    expectConservation(cfg);
}

TEST(FaultConservation, CorruptWindowsPoisonButConserve)
{
    SystemConfig cfg = SystemConfig::ring("3:6", 64);
    cfg.sim = quickSim();
    cfg.faultPlan.events = {spec("ring.nic1:corrupt@1000..2500")};
    System system(cfg);
    for (int slice = 0; slice < 30; ++slice) {
        system.step(250);
        const FaultAccounting &acct = system.faults()->accounting();
        ASSERT_EQ(acct.injectedFlits,
                  acct.deliveredFlits + acct.droppedFlits +
                      system.network().flitsInFlight())
            << "cycle " << system.now();
    }
    const FaultAccounting &acct = system.faults()->accounting();
    EXPECT_GT(acct.poisonedWorms, 0u);
    EXPECT_GT(acct.droppedFlits, 0u);
    // Corruption never truncates worms — they travel whole and die
    // at ejection.
    EXPECT_EQ(acct.droppedWorms, 0u);
}

TEST(FaultConservation, StallWindowsDelayButDropNothing)
{
    SystemConfig cfg = SystemConfig::mesh(3, 64, 4);
    cfg.sim = quickSim();
    cfg.faultPlan.events = {spec("mesh.r4:stall@1000..1400")};
    System system(cfg);
    system.step(1200); // inside the stall window
    expectTableMatchesBuffers(system.network());
    system.step(6800);
    expectTableMatchesBuffers(system.network());
    const FaultAccounting &acct = system.faults()->accounting();
    EXPECT_EQ(acct.droppedFlits, 0u);
    EXPECT_EQ(acct.droppedWorms, 0u);
    EXPECT_GT(acct.deliveredFlits, 0u);
    EXPECT_EQ(acct.injectedFlits,
              acct.deliveredFlits + system.network().flitsInFlight());
}

TEST(FaultConservation, MeshPacketTableDrainsToZero)
{
    // Network-level, so the traffic can stop and the fabric drain:
    // every PM sends to every other through a link-down window (kill
    // tokens truncate worms mid-flight) and a corrupt window
    // (poisoned worms eject undelivered). Each tick boundary must
    // keep the table equal to the buffered packets; the drained
    // fabric must hold no slot at all.
    MeshNetwork net(MeshNetwork::Params{4, 64, 4});
    FaultAccounting acct;
    net.setFaultAccounting(&acct);
    net.setActiveScheduling(true);
    net.setDeliveryHandler([](const Packet &, Cycle) {});
    PacketFactory factory(ChannelSpec::mesh(), 64);
    const FaultEvent down = spec("mesh.r5.east:down@1..2");
    const FaultEvent corrupt = spec("mesh.r9.north:corrupt@1..2");

    Cycle now = 0;
    std::vector<std::pair<NodeId, Packet>> backlog;
    for (int round = 0; round < 3; ++round) {
        for (NodeId src = 0; src < 16; ++src) {
            for (NodeId dst = 0; dst < 16; ++dst) {
                if (dst != src) {
                    backlog.emplace_back(
                        src, factory.makeRequest(src, dst, round != 1,
                                                 now));
                }
            }
        }
    }
    std::size_t next = 0;
    while ((next < backlog.size() || net.flitsInFlight() != 0) &&
           now < 100000) {
        if (now == 40) {
            net.applyFault(down, true);
            net.applyFault(corrupt, true);
        } else if (now == 400) {
            net.applyFault(down, false);
            net.applyFault(corrupt, false);
        }
        while (next < backlog.size() &&
               net.canInject(backlog[next].first,
                             backlog[next].second)) {
            net.inject(backlog[next].first, backlog[next].second);
            ++next;
        }
        net.tick(now++);
        if (now % 16 == 0) {
            SCOPED_TRACE("cycle " + std::to_string(now));
            expectTableMatchesBuffers(net);
        }
    }
    ASSERT_EQ(next, backlog.size());
    ASSERT_EQ(net.flitsInFlight(), 0u);
    EXPECT_GT(acct.droppedWorms, 0u);
    EXPECT_GT(acct.poisonedWorms, 0u);
    EXPECT_EQ(acct.injectedFlits, acct.deliveredFlits + acct.droppedFlits);
    EXPECT_EQ(net.packets().liveSlots(), 0u);
}

// ---------------------------------------------------------------
// 6. Graceful degradation
// ---------------------------------------------------------------

TEST(FaultRetry, TimeoutsReissueAndOutagesAreSurvived)
{
    SystemConfig cfg = SystemConfig::ring("3:6", 64);
    cfg.sim = quickSim();
    cfg.faultPlan.events = {spec("ring.nic2:down@2500..4500")};
    cfg.faultPlan.retry.timeoutCycles = 500;
    cfg.faultPlan.retry.maxRetries = 8;
    System system(cfg);
    system.step(12000);
    EXPECT_GT(system.retryCounters().reissued, 0u);
    EXPECT_GT(system.faults()->accounting().droppedWorms, 0u);
    // With the window long closed and generous retries, everything
    // lost was re-driven: traffic still flows and nothing is wedged.
    EXPECT_GT(system.counters().remoteCompleted, 0u);
}

TEST(FaultRetry, AbandonmentFreesOutstandingSlots)
{
    // A permanently dead NIC link with a stingy retry budget: the
    // PMs behind it must abandon lost transactions instead of
    // saturating forever.
    SystemConfig cfg = SystemConfig::ring("3:6", 64);
    cfg.sim = quickSim();
    cfg.sim.watchdogCycles = 0; // quiescent gaps are expected here
    cfg.faultPlan.events = {spec("ring.nic2:down@1000..")};
    cfg.faultPlan.retry.timeoutCycles = 300;
    cfg.faultPlan.retry.maxRetries = 2;
    System system(cfg);
    system.step(30000);
    EXPECT_GT(system.retryCounters().abandoned, 0u);
    // Abandonment released the slots: the system is not pinned at
    // full occupancy.
    EXPECT_LT(system.totalOutstanding(),
              cfg.workload.outstandingT *
                  cfg.numProcessors());
    EXPECT_GT(system.counters().remoteCompleted, 0u);
}

TEST(FaultRetry, StaleResponsesDoNotCorruptAccounting)
{
    // A short timeout against an undamaged but congested fabric:
    // originals race their reissues, so the loser of each race
    // arrives stale. The outstanding count must survive this.
    SystemConfig cfg = SystemConfig::mesh(4, 64, 4);
    cfg.sim = quickSim();
    cfg.workload.missRateC = 0.2; // congest
    cfg.faultPlan.events = {spec("mesh.r5.east:corrupt@1..2")};
    cfg.faultPlan.retry.timeoutCycles = 40;
    cfg.faultPlan.retry.maxRetries = 10;
    System system(cfg);
    system.step(10000);
    EXPECT_GT(system.retryCounters().stale, 0u);
    EXPECT_GE(cfg.workload.outstandingT * cfg.numProcessors(),
              system.totalOutstanding());
    EXPECT_GT(system.counters().remoteCompleted, 0u);
}

} // namespace
} // namespace hrsim
