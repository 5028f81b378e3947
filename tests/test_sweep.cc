/**
 * @file
 * Sweep-engine and skip-idle regression tests.
 *
 * Three contracts are pinned here:
 *  1. SweepRunner determinism — serial (jobs = 1) and parallel
 *     (jobs = 4) sweeps of a mixed ring/mesh point list produce
 *     bit-identical RunResults, in submission order.
 *  2. Skip-idle invariance — the fast tick scheduler
 *     (sim.idleSkip = true, the default) produces metrics identical
 *     to the legacy every-cycle loop, including the blocked-cycle
 *     counter that the sleep path reconstructs in bulk.
 *  3. The runner's point memo (SweepMemo.*) — a repeated point is
 *     simulated once per runner and its copies equal fresh runs;
 *     points that differ in any result-changing field, checkpointing
 *     points and throwing points are never shared.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "ckpt/result_io.hh"
#include "core/sweep.hh"
#include "core/system.hh"
#include "obs/manifest.hh"

namespace hrsim
{
namespace
{

SimConfig
quickSim()
{
    SimConfig sim;
    sim.warmupCycles = 1000;
    sim.batchCycles = 1000;
    sim.numBatches = 3;
    return sim;
}

/** Mixed ring/mesh list, including a saturated ring so the blocked
 *  (sleeping) path is exercised. */
std::vector<SystemConfig>
mixedPoints()
{
    std::vector<SystemConfig> points;

    SystemConfig ring_small = SystemConfig::ring("2:4", 64);
    ring_small.workload.outstandingT = 4;
    ring_small.sim = quickSim();
    points.push_back(ring_small);

    SystemConfig ring_saturated = SystemConfig::ring("18", 128);
    ring_saturated.workload.outstandingT = 4;
    ring_saturated.sim = quickSim();
    points.push_back(ring_saturated);

    SystemConfig mesh_small = SystemConfig::mesh(3, 64, 4);
    mesh_small.workload.outstandingT = 4;
    mesh_small.sim = quickSim();
    points.push_back(mesh_small);

    SystemConfig ring_local = SystemConfig::ring("3:4", 32);
    ring_local.workload.localityR = 0.5;
    ring_local.workload.outstandingT = 2;
    ring_local.sim = quickSim();
    points.push_back(ring_local);

    SystemConfig mesh_large = SystemConfig::mesh(4, 32, 1);
    mesh_large.workload.outstandingT = 2;
    mesh_large.sim = quickSim();
    points.push_back(mesh_large);

    return points;
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
    EXPECT_EQ(a.counters.remoteCompleted,
              b.counters.remoteCompleted);
    EXPECT_EQ(a.counters.localIssued, b.counters.localIssued);
    EXPECT_EQ(a.counters.localCompleted, b.counters.localCompleted);
    EXPECT_EQ(a.counters.blockedCycles, b.counters.blockedCycles);
}

TEST(Sweep, SerialAndParallelAreBitIdentical)
{
    const std::vector<SystemConfig> points = mixedPoints();

    SweepOptions serial_opts;
    serial_opts.jobs = 1;
    SweepRunner serial(serial_opts);
    const std::vector<RunResult> serial_results = serial.run(points);

    SweepOptions parallel_opts;
    parallel_opts.jobs = 4;
    SweepRunner parallel(parallel_opts);
    const std::vector<RunResult> parallel_results =
        parallel.run(points);

    ASSERT_EQ(serial_results.size(), points.size());
    ASSERT_EQ(parallel_results.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        expectIdentical(serial_results[i], parallel_results[i]);
    }
}

TEST(Sweep, MatchesDirectRunSystemInSubmissionOrder)
{
    const std::vector<SystemConfig> points = mixedPoints();
    const std::vector<RunResult> swept = runSweep(points, 4);
    ASSERT_EQ(swept.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        expectIdentical(swept[i], runSystem(points[i]));
    }
}

TEST(Sweep, RunnerIsReusableAcrossBatches)
{
    const std::vector<SystemConfig> points = mixedPoints();
    SweepOptions opts;
    opts.jobs = 3;
    SweepRunner runner(opts);
    const std::vector<RunResult> first = runner.run(points);
    const std::vector<RunResult> second = runner.run(points);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        expectIdentical(first[i], second[i]);
}

TEST(Sweep, PointSeedIsDeterministicAndSpreads)
{
    EXPECT_EQ(SweepRunner::pointSeed(42, 0),
              SweepRunner::pointSeed(42, 0));
    EXPECT_NE(SweepRunner::pointSeed(42, 0),
              SweepRunner::pointSeed(42, 1));
    EXPECT_NE(SweepRunner::pointSeed(42, 0),
              SweepRunner::pointSeed(43, 0));
}

TEST(Sweep, ReseedPointsGivesDistinctStreamsDeterministically)
{
    // Two identical configs: reseeding must give them different
    // metrics (distinct streams), reproducibly across runs.
    SystemConfig cfg = SystemConfig::ring("8", 64);
    cfg.sim = quickSim();
    const std::vector<SystemConfig> points{cfg, cfg};

    SweepOptions opts;
    opts.jobs = 2;
    opts.reseedPoints = true;
    SweepRunner first(opts);
    const auto a = first.run(points);
    SweepRunner second(opts);
    const auto b = second.run(points);

    EXPECT_NE(a[0].avgLatency, a[1].avgLatency);
    expectIdentical(a[0], b[0]);
    expectIdentical(a[1], b[1]);
}

TEST(Sweep, IdleSkipMatchesEveryCycleTickLoop)
{
    for (SystemConfig cfg : mixedPoints()) {
        SCOPED_TRACE(cfg.kind == NetworkKind::Mesh
                         ? "mesh"
                         : "ring");
        cfg.sim.idleSkip = true;
        const RunResult fast = runSystem(cfg);
        cfg.sim.idleSkip = false;
        const RunResult legacy = runSystem(cfg);
        expectIdentical(fast, legacy);
        // The saturated points must actually exercise the sleep path.
        EXPECT_GT(fast.samples, 0u);
    }
}

TEST(Sweep, IdleSkipPreservesPaperProtocolMetrics)
{
    // The paper-conformance suite runs with this protocol; pin that
    // the fast scheduler leaves its metrics (latency means, sample
    // counts) unchanged on a heavily blocked configuration.
    SystemConfig cfg = SystemConfig::ring("12", 128);
    cfg.workload.outstandingT = 4;
    cfg.sim.warmupCycles = 3000;
    cfg.sim.batchCycles = 3000;
    cfg.sim.numBatches = 3;

    cfg.sim.idleSkip = true;
    const RunResult fast = runSystem(cfg);
    cfg.sim.idleSkip = false;
    const RunResult legacy = runSystem(cfg);

    EXPECT_EQ(fast.avgLatency, legacy.avgLatency);
    EXPECT_EQ(fast.samples, legacy.samples);
    EXPECT_EQ(fast.counters.blockedCycles,
              legacy.counters.blockedCycles);
    EXPECT_GT(fast.counters.blockedCycles, 0u);
}

// ---------------------------------------------------------------- //
// The runner's point memo

/** expectIdentical() plus the metric registry and its snapshots. */
void
expectExact(const RunResult &a, const RunResult &b)
{
    expectIdentical(a, b);
    EXPECT_EQ(a.metrics, b.metrics);
    ASSERT_EQ(a.snapshots.size(), b.snapshots.size());
    for (std::size_t i = 0; i < a.snapshots.size(); ++i) {
        EXPECT_EQ(a.snapshots[i].cycle, b.snapshots[i].cycle);
        EXPECT_EQ(a.snapshots[i].metrics, b.snapshots[i].metrics);
    }
}

SweepOptions
width(unsigned jobs)
{
    SweepOptions opts;
    opts.jobs = jobs;
    return opts;
}

/** Unique temp directory, recursively removed by the owning test. */
class TempDir
{
  public:
    explicit TempDir(const std::string &stem)
        : path_(testing::TempDir() + "hrsim_memo_" + stem + "_" +
                std::to_string(::getpid()))
    {
        std::filesystem::create_directories(path_);
    }
    ~TempDir() { std::filesystem::remove_all(path_); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** File name -> bytes of every file in @a dir. */
std::map<std::string, std::string>
directoryBytes(const std::string &dir)
{
    std::map<std::string, std::string> files;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        std::ifstream in(entry.path(), std::ios::binary);
        files[entry.path().filename().string()] =
            std::string(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
    }
    return files;
}

/** mixedPoints() with repeats, in and out of order. */
std::vector<SystemConfig>
pointsWithRepeats()
{
    const std::vector<SystemConfig> mixed = mixedPoints();
    return {mixed[0], mixed[1], mixed[0], mixed[2], mixed[1],
            mixed[3], mixed[0], mixed[4], mixed[2]};
}

TEST(SweepMemo, RepeatsMatchFreshRunsInAndAcrossBatches)
{
    const std::vector<SystemConfig> mixed = mixedPoints();
    const std::vector<SystemConfig> points = pointsWithRepeats();
    std::vector<RunResult> fresh;
    for (const SystemConfig &cfg : points)
        fresh.push_back(runSystem(cfg));

    for (const unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        SweepRunner runner(width(jobs));
        const std::vector<RunResult> first = runner.run(points);
        EXPECT_EQ(runner.simulated(), mixed.size());
        ASSERT_EQ(first.size(), points.size());
        for (std::size_t i = 0; i < points.size(); ++i) {
            SCOPED_TRACE("point " + std::to_string(i));
            expectExact(first[i], fresh[i]);
        }

        // Every point of a later batch is a repeat.
        const std::vector<RunResult> again = runner.run(points);
        EXPECT_EQ(runner.simulated(), mixed.size());
        for (std::size_t i = 0; i < points.size(); ++i) {
            SCOPED_TRACE("repeat " + std::to_string(i));
            expectExact(again[i], fresh[i]);
        }
    }
}

TEST(SweepMemo, ReseededRepeatsAreDistinctPoints)
{
    // reseedPoints gives equal configs at different indices their
    // own seeds, so they are different points and each runs.
    SystemConfig cfg = SystemConfig::ring("8", 64);
    cfg.sim = quickSim();
    SweepOptions opts = width(2);
    opts.reseedPoints = true;
    SweepRunner runner(opts);
    const auto results = runner.run({cfg, cfg});
    EXPECT_EQ(runner.simulated(), 2u);
    EXPECT_NE(results[0].avgLatency, results[1].avgLatency);
}

TEST(SweepMemo, ResultChangingSimFieldsAreEachSimulated)
{
    SystemConfig base = SystemConfig::ring("2:4", 64);
    base.workload.outstandingT = 4;
    base.sim = quickSim();
    SystemConfig reference = base;
    reference.sim.idleSkip = false;
    SystemConfig snapshots = base;
    snapshots.sim.metricsEvery = 500;
    SystemConfig watchdog = base;
    watchdog.sim.watchdogCycles = 2 * base.sim.watchdogCycles;
    const std::vector<SystemConfig> points{base, reference, snapshots,
                                           watchdog};

    for (const unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        SweepRunner runner(width(jobs));
        const std::vector<RunResult> results = runner.run(points);
        EXPECT_EQ(runner.simulated(), points.size());
        for (std::size_t i = 0; i < points.size(); ++i) {
            SCOPED_TRACE("point " + std::to_string(i));
            expectExact(results[i], runSystem(points[i]));
        }
        // The engine-gated metrics and the snapshots tell them apart.
        EXPECT_NE(results[0].metrics, results[1].metrics);
        EXPECT_TRUE(results[0].snapshots.empty());
        EXPECT_FALSE(results[2].snapshots.empty());
    }

    // A watchdog short enough to fire must not be served the
    // finished result of the same config with the default watchdog.
    SystemConfig stalls = base;
    stalls.sim.watchdogCycles = 1;
    SweepRunner runner(width(1));
    runner.run({base});
    EXPECT_THROW(runner.run({stalls}), StallError);
}

TEST(SweepMemo, CheckpointingPointsAreNeverShared)
{
    TempDir dir("ckpt");
    SystemConfig cfg = SystemConfig::ring("2:4", 64);
    cfg.sim = quickSim();
    cfg.ckpt.saveAt = 1500;
    SystemConfig a = cfg;
    a.ckpt.savePath = dir.path() + "/a.ckpt";
    SystemConfig b = cfg;
    b.ckpt.savePath = dir.path() + "/b.ckpt";

    // a and b are one simulation; each still runs and saves.
    SweepRunner runner(width(2));
    const std::vector<RunResult> results = runner.run({a, b});
    EXPECT_EQ(runner.simulated(), 2u);
    EXPECT_TRUE(std::filesystem::exists(a.ckpt.savePath));
    EXPECT_TRUE(std::filesystem::exists(b.ckpt.savePath));
    expectExact(results[0], results[1]);

    // A later batch runs a again: its snapshot is rewritten.
    std::filesystem::remove(a.ckpt.savePath);
    runner.run({a});
    EXPECT_EQ(runner.simulated(), 3u);
    EXPECT_TRUE(std::filesystem::exists(a.ckpt.savePath));

    // Restoring and forking points run too, never from the memo.
    SystemConfig restore = SystemConfig::ring("2:4", 64);
    restore.sim = quickSim();
    restore.ckpt.restorePath = a.ckpt.savePath;
    SystemConfig fork = restore;
    fork.ckpt.forkSeed = 7;
    runner.run({restore, restore, fork, fork});
    EXPECT_EQ(runner.simulated(), 7u);
}

TEST(SweepMemo, ThrowingPointRethrowsOnResubmission)
{
    SystemConfig stalls = SystemConfig::ring("2:4", 64);
    stalls.sim = quickSim();
    stalls.sim.watchdogCycles = 1;
    SystemConfig fine = stalls;
    fine.sim.watchdogCycles = quickSim().watchdogCycles;

    for (const unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        SweepRunner runner(width(jobs));
        EXPECT_THROW(runner.run({fine, stalls}), StallError);
        EXPECT_EQ(runner.simulated(), 2u);
        // The finished point is remembered, the failed one is not.
        EXPECT_THROW(runner.run({stalls, fine}), StallError);
        EXPECT_EQ(runner.simulated(), 3u);
        EXPECT_NO_THROW(runner.run({fine}));
        EXPECT_EQ(runner.simulated(), 3u);
    }
}

TEST(SweepMemo, JournaledRepeatsWriteTheSameDirectoryAsFreshRuns)
{
    const std::vector<SystemConfig> points = pointsWithRepeats();

    // What a runner without a memo leaves: every point simulated and
    // journaled under its own index.
    TempDir want("journal_fresh");
    for (std::size_t i = 0; i < points.size(); ++i) {
        writeResultFile(want.path() + "/point_" + std::to_string(i) +
                            ".result",
                        configKey(points[i]), runSystem(points[i]));
    }
    const auto want_bytes = directoryBytes(want.path());
    ASSERT_EQ(want_bytes.size(), points.size());

    for (const unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        TempDir got("journal_memo_" + std::to_string(jobs));
        SweepOptions opts = width(jobs);
        opts.journalDir = got.path();
        opts.checkpointEvery = 700;
        SweepRunner runner(opts);
        runner.run(points);
        EXPECT_EQ(directoryBytes(got.path()), want_bytes);

        // A repeat served from an earlier batch journals too.
        std::filesystem::remove_all(got.path());
        std::filesystem::create_directories(got.path());
        runner.run(points);
        EXPECT_EQ(runner.simulated(), mixedPoints().size());
        EXPECT_EQ(directoryBytes(got.path()), want_bytes);
    }
}

} // namespace
} // namespace hrsim
