/**
 * @file
 * Engine tests: the bit-identity contract between the production
 * engine (SimConfig::idleSkip = true: active-mask scheduling,
 * worm-streaming evaluate, fast-forward) and the reference engine
 * (idleSkip = false: every component every cycle, straight-line
 * per-node network code) across network kinds, clock speeds,
 * workloads and observability settings, serially, under a --jobs 4
 * sweep and on trace replay. The full RunResult is compared —
 * counters, latency statistics, the materialized metric registry
 * and mid-run snapshots — with only the engine-gated metrics
 * (sched.*, *.streamed_flits, which the production engine alone
 * registers) excluded. Also the ActiveMask scan-order contract
 * (LayoutSmoke) the production tick relies on. See DESIGN.md
 * sections 10 and 14 for the invariants under test.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/sweep.hh"
#include "core/system.hh"
#include "obs/manifest.hh"
#include "sim/columns.hh"
#include "workload/trace.hh"

namespace hrsim
{
namespace
{

bool
isModeGatedMetric(const std::string &name)
{
    // sched.* and *.streamed_flits are registered only on the
    // production engine, by design (so artifacts carry no
    // engine-specific names); everything else must match.
    static const std::string kStreamed = ".streamed_flits";
    return name.rfind("sched.", 0) == 0 ||
           (name.size() >= kStreamed.size() &&
            name.compare(name.size() - kStreamed.size(),
                         kStreamed.size(), kStreamed) == 0);
}

std::vector<MetricSample>
withoutSchedMetrics(const std::vector<MetricSample> &metrics)
{
    std::vector<MetricSample> kept;
    kept.reserve(metrics.size());
    for (const MetricSample &sample : metrics) {
        if (!isModeGatedMetric(sample.name))
            kept.push_back(sample);
    }
    return kept;
}

/** Full RunResult equality, modulo the engine-gated metrics. */
void
expectSameResult(const RunResult &prod, const RunResult &ref)
{
    EXPECT_EQ(prod.avgLatency, ref.avgLatency);
    EXPECT_EQ(prod.latencyCI95, ref.latencyCI95);
    EXPECT_EQ(prod.samples, ref.samples);
    EXPECT_EQ(prod.latencyP50, ref.latencyP50);
    EXPECT_EQ(prod.latencyP95, ref.latencyP95);
    EXPECT_EQ(prod.latencyP99, ref.latencyP99);
    EXPECT_EQ(prod.networkUtilization, ref.networkUtilization);
    EXPECT_EQ(prod.ringLevelUtilization,
              ref.ringLevelUtilization);
    EXPECT_EQ(prod.cycles, ref.cycles);
    EXPECT_EQ(prod.throughputPerPm, ref.throughputPerPm);

    EXPECT_EQ(prod.counters.missesGenerated,
              ref.counters.missesGenerated);
    EXPECT_EQ(prod.counters.remoteIssued,
              ref.counters.remoteIssued);
    EXPECT_EQ(prod.counters.remoteCompleted,
              ref.counters.remoteCompleted);
    EXPECT_EQ(prod.counters.localIssued,
              ref.counters.localIssued);
    EXPECT_EQ(prod.counters.localCompleted,
              ref.counters.localCompleted);
    EXPECT_EQ(prod.counters.blockedCycles,
              ref.counters.blockedCycles);

    EXPECT_EQ(withoutSchedMetrics(prod.metrics),
              withoutSchedMetrics(ref.metrics));

    ASSERT_EQ(prod.snapshots.size(), ref.snapshots.size());
    for (std::size_t i = 0; i < prod.snapshots.size(); ++i) {
        SCOPED_TRACE("snapshot " + std::to_string(i));
        EXPECT_EQ(prod.snapshots[i].cycle,
                  ref.snapshots[i].cycle);
        EXPECT_EQ(withoutSchedMetrics(prod.snapshots[i].metrics),
                  withoutSchedMetrics(ref.snapshots[i].metrics));
    }
}

SimConfig
shortSim()
{
    SimConfig sim;
    sim.warmupCycles = 800;
    sim.batchCycles = 800;
    sim.numBatches = 3;
    return sim;
}

/** The same point on the reference engine. */
SystemConfig
reference(SystemConfig cfg)
{
    cfg.sim.idleSkip = false;
    return cfg;
}

/** Network/workload grid covering every scheduler specialization:
 *  ring (hierarchical, multi-level, double-speed global ring),
 *  slotted rings, meshes, cache-line sizes, low-rate (sleep/
 *  fast-forward heavy) and saturating (always-awake) workloads. */
std::vector<std::pair<std::string, SystemConfig>>
bitIdentityGrid()
{
    std::vector<std::pair<std::string, SystemConfig>> grid;
    const auto add = [&grid](std::string name, SystemConfig cfg) {
        cfg.sim.idleSkip = true;
        grid.emplace_back(std::move(name), cfg);
    };

    SystemConfig cfg = SystemConfig::ring("2:4", 64);
    cfg.sim = shortSim();
    cfg.workload.missRateC = 0.01;
    add("ring 2:4 low-C", cfg);

    cfg = SystemConfig::ring("4:4", 32);
    cfg.sim = shortSim();
    cfg.workload.outstandingT = 4;
    add("ring 4:4 saturating", cfg);

    cfg = SystemConfig::ring("2:2:4", 64);
    cfg.sim = shortSim();
    cfg.workload.missRateC = 0.005;
    cfg.globalRingSpeed = 2;
    add("ring 2:2:4 speed-2", cfg);

    cfg = SystemConfig::ring("2:4", 128);
    cfg.sim = shortSim();
    cfg.workload.missRateC = 0.02;
    add("ring 2:4 cl=128", cfg);

    cfg = SystemConfig::mesh(3, 64, 4);
    cfg.sim = shortSim();
    cfg.workload.missRateC = 0.01;
    add("mesh 3 low-C", cfg);

    cfg = SystemConfig::mesh(4, 32, 1);
    cfg.sim = shortSim();
    cfg.workload.outstandingT = 2;
    add("mesh 4 1-flit buffers", cfg);

    cfg = SystemConfig::ring("2:4", 32);
    cfg.ringSlotted = true;
    cfg.sim = shortSim();
    cfg.workload.missRateC = 0.02;
    add("slotted 2:4", cfg);

    cfg = SystemConfig::ring("2:4", 64);
    cfg.sim = shortSim();
    cfg.workload.missRateC = 0.01;
    cfg.sim.metricsEvery = 500;
    add("ring 2:4 metricsEvery=500", cfg);

    cfg = SystemConfig::ring("2:4", 64);
    cfg.sim = shortSim();
    cfg.workload.missRateC = 0.01;
    cfg.sim.watchdogCycles = 50; // clamp every fast-forward jump
    add("ring 2:4 tiny watchdog", cfg);

    // Single-level rings (the Figure 6 family) idle often enough that
    // the network is regularly quiescent exactly AT the warmup cycle;
    // a fast-forward that jumps the boundary instead of landing on it
    // skips startMeasurement() and dies at stopMeasurement().
    cfg = SystemConfig::ring("4", 16);
    cfg.sim = shortSim();
    add("ring 4 single-level cl=16", cfg);

    cfg = SystemConfig::ring("8", 16);
    cfg.sim = shortSim();
    cfg.workload.missRateC = 0.01;
    add("ring 8 single-level low-C", cfg);

    return grid;
}

TEST(ReferenceEngine, BitIdenticalAcrossGrid)
{
    for (const auto &[name, cfg] : bitIdentityGrid()) {
        SCOPED_TRACE(name);
        const RunResult production = runSystem(cfg);
        expectSameResult(production, runSystem(reference(cfg)));
        EXPECT_GT(production.samples, 0u);
    }
}

TEST(ReferenceEngine, BitIdenticalOnTraceReplay)
{
    const Trace trace =
        Trace::synthesizeUniform(8, 2500, 0.015, 0.7, 17);
    SystemConfig cfg = SystemConfig::ring("2:4", 32);
    cfg.trace = &trace;
    cfg.sim = shortSim();

    const RunResult production = runSystem(cfg);
    expectSameResult(production, runSystem(reference(cfg)));
    EXPECT_GT(production.counters.missesGenerated, 0u);
}

TEST(ReferenceEngine, BitIdenticalOnParallelSweep)
{
    // Both engines must stay bit-identical under worker-thread
    // parallelism (each worker owns its System); also exercised by
    // the ThreadSanitizer build, which would flag any cross-thread
    // access either engine introduced.
    std::vector<SystemConfig> points;
    std::vector<SystemConfig> refs;
    for (auto &[name, cfg] : bitIdentityGrid()) {
        if (cfg.sim.metricsEvery == 0 &&
            cfg.sim.watchdogCycles == SimConfig{}.watchdogCycles) {
            points.push_back(cfg);
            refs.push_back(reference(cfg));
        }
    }
    ASSERT_GE(points.size(), 4u);

    const std::vector<RunResult> prod_results = runSweep(points, 4);
    const std::vector<RunResult> ref_results = runSweep(refs, 4);
    ASSERT_EQ(prod_results.size(), ref_results.size());
    for (std::size_t i = 0; i < prod_results.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        expectSameResult(prod_results[i], ref_results[i]);
    }
}

// ---------------------------------------------------------------- //
// ActiveMask layout smoke tests (run by the layout_smoke ctest)

TEST(LayoutSmoke, ScanVisitsMembersInAscendingIdOrder)
{
    // The columnar determinism argument (DESIGN.md section 14) leans
    // on forEach() visiting the live set in ascending id order no
    // matter the wake order; pin that across word and summary-word
    // boundaries (ids straddle leaves 0, 1 and 64).
    ActiveMask mask;
    mask.reset(64 * 65 + 7);
    const std::vector<std::uint32_t> wakes = {
        4099, 63, 64, 0, 4160, 127, 65, 4098};
    for (const std::uint32_t id : wakes)
        mask.add(id);
    EXPECT_EQ(mask.size(), wakes.size());

    std::vector<std::uint32_t> visited;
    mask.forEach([&visited](std::uint32_t id) {
        visited.push_back(id);
    });
    EXPECT_EQ(visited, (std::vector<std::uint32_t>{
                           0, 63, 64, 65, 127, 4098, 4099, 4160}));
}

TEST(LayoutSmoke, AddIsIdempotentAndContainsTracksMembership)
{
    ActiveMask mask;
    mask.reset(200);
    EXPECT_TRUE(mask.empty());
    mask.add(3);
    mask.add(130);
    mask.add(3);
    EXPECT_EQ(mask.size(), 2u);
    EXPECT_TRUE(mask.contains(3));
    EXPECT_TRUE(mask.contains(130));
    EXPECT_FALSE(mask.contains(4));
}

TEST(LayoutSmoke, RetainScansInIdOrderAndClearsBits)
{
    ActiveMask mask;
    mask.reset(300);
    for (std::uint32_t id = 0; id < 300; id += 7)
        mask.add(id);

    std::vector<std::uint32_t> seen;
    mask.retain([&seen](std::uint32_t id) {
        seen.push_back(id);
        return id % 14 == 0;
    });
    // The sweep itself runs ascending...
    for (std::size_t i = 1; i < seen.size(); ++i)
        EXPECT_LT(seen[i - 1], seen[i]);
    // ...and only the kept members survive, still in order.
    std::vector<std::uint32_t> left;
    mask.forEach([&left](std::uint32_t id) { left.push_back(id); });
    std::vector<std::uint32_t> expect;
    for (std::uint32_t id = 0; id < 300; id += 14)
        expect.push_back(id);
    EXPECT_EQ(left, expect);
    EXPECT_EQ(mask.size(), expect.size());

    // A retained-away member can wake again (sleep is not permanent).
    EXPECT_FALSE(mask.contains(7));
    mask.add(7);
    EXPECT_TRUE(mask.contains(7));
}

TEST(LayoutSmoke, ResetDropsEverything)
{
    ActiveMask mask;
    mask.reset(70);
    mask.add(69);
    mask.reset(70);
    EXPECT_TRUE(mask.empty());
    EXPECT_FALSE(mask.contains(69));
}

TEST(LayoutSmoke, MidScanAddsFollowTheSnapshotRule)
{
    // forEach snapshots the summary word per 4096-id block and each
    // leaf word as it reaches it. A mid-scan wake is therefore
    // visited this pass iff its leaf word is still ahead of the scan
    // AND already represented in a snapshotted summary (i.e. the
    // word was live, or lies in a later summary block); wakes into
    // the current word or into a dead word under the current summary
    // snapshot defer to the next cycle. Every case is sound — a
    // woken component's visit is a no-op — but pin the behavior so a
    // rewrite can't silently change the determinism argument.
    ActiveMask mask;
    mask.reset(8192);
    mask.add(10);   // leaf word 0
    mask.add(200);  // leaf word 3 (live before the scan)
    mask.add(4100); // summary block 1

    std::vector<std::uint32_t> visited;
    mask.forEach([&](std::uint32_t id) {
        visited.push_back(id);
        if (id == 10) {
            mask.add(11);   // current word: next cycle
            mask.add(100);  // dead word, snapshotted summary: next
            mask.add(201);  // live later word: this pass
            mask.add(5000); // later summary block: this pass
        }
    });
    EXPECT_EQ(visited, (std::vector<std::uint32_t>{
                           10, 200, 201, 4100, 5000}));
    // Deferred wakes are still members for the next scan.
    EXPECT_TRUE(mask.contains(11));
    EXPECT_TRUE(mask.contains(100));
}

// ---------------------------------------------------------------- //
// Scheduler metrics

TEST(ActiveSetScheduler, ReportsSkippedCyclesOnIdleWorkload)
{
    SystemConfig cfg = SystemConfig::ring("2:4", 64);
    cfg.sim = shortSim();
    cfg.workload.missRateC = 0.01;

    const RunResult result = runSystem(cfg);
    bool found = false;
    for (const MetricSample &sample : result.metrics) {
        if (sample.name == "sched.skipped_cycles") {
            found = true;
            EXPECT_GT(sample.count, 0u)
                << "low-rate workload must fast-forward";
        }
    }
    EXPECT_TRUE(found);
}

TEST(ReferenceEngine, RegistersNoEngineGatedMetrics)
{
    // Saturating points, so the production engine would stream worm
    // bodies on both network kinds.
    for (SystemConfig cfg : {SystemConfig::ring("2:4", 64),
                             SystemConfig::mesh(3, 64, 4)}) {
        cfg.sim = shortSim();
        cfg.workload.outstandingT = 4;
        SCOPED_TRACE(configKey(cfg));
        const RunResult result = runSystem(reference(cfg));
        ASSERT_FALSE(result.metrics.empty());
        for (const MetricSample &sample : result.metrics) {
            EXPECT_FALSE(isModeGatedMetric(sample.name))
                << "unexpected " << sample.name;
        }
    }
}

} // namespace
} // namespace hrsim
