/**
 * @file
 * google-benchmark harness measuring the simulator's own throughput
 * (simulated node-cycles per wall-second) for representative ring and
 * mesh configurations.
 *
 * Each topology is measured twice: the BM_*Legacy variants run the
 * reference engine (sim.idleSkip = false: every component, every
 * cycle, with the straight-line per-node network code), the plain
 * variants the production engine, so the speedup of the hot-path
 * work is measured, not asserted. BM_Sweep* measure the parallel sweep engine
 * end to end (wall-clock per whole figure-style sweep).
 */

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <thread>

#include "core/sweep.hh"
#include "core/system.hh"
#include "obs/build_info.hh"

namespace
{

using namespace hrsim;

SystemConfig
ringCfg(const char *topo, bool idle_skip)
{
    SystemConfig cfg = SystemConfig::ring(topo, 64);
    cfg.workload.outstandingT = 4;
    cfg.sim.idleSkip = idle_skip;
    return cfg;
}

SystemConfig
meshCfg(int width, bool idle_skip)
{
    SystemConfig cfg = SystemConfig::mesh(width, 64, 4);
    cfg.workload.outstandingT = 4;
    cfg.sim.idleSkip = idle_skip;
    return cfg;
}

void
runCycles(benchmark::State &state, const SystemConfig &cfg)
{
    System system(cfg);
    system.step(1000); // move past the cold start
    const auto pms = static_cast<std::uint64_t>(
        system.network().numProcessors());
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        system.step(1000);
        cycles += 1000;
    }
    state.counters["node_cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles * pms), benchmark::Counter::kIsRate);
}

void
BM_RingSmall(benchmark::State &state)
{
    runCycles(state, ringCfg("2:4", true));
}

void
BM_RingLarge(benchmark::State &state)
{
    runCycles(state, ringCfg("3:3:12", true));
}

void
BM_MeshSmall(benchmark::State &state)
{
    runCycles(state, meshCfg(3, true));
}

void
BM_MeshLarge(benchmark::State &state)
{
    runCycles(state, meshCfg(11, true));
}

/**
 * Mostly-idle network: at C = 0.01 a small ring spends most cycles
 * with no flit in flight, which is exactly what the active-set
 * scheduler and the quiescent-gap fast-forward are for. Compare
 * against BM_RingSmallLowCLegacy for the realized speedup.
 */
void
BM_RingSmallLowC(benchmark::State &state)
{
    SystemConfig cfg = ringCfg("2:4", true);
    cfg.workload.missRateC = 0.01;
    runCycles(state, cfg);
}

void
BM_RingSmallLowCLegacy(benchmark::State &state)
{
    SystemConfig cfg = ringCfg("2:4", false);
    cfg.workload.missRateC = 0.01;
    runCycles(state, cfg);
}

void
BM_RingLargeLegacy(benchmark::State &state)
{
    runCycles(state, ringCfg("3:3:12", false));
}

void
BM_MeshLargeLegacy(benchmark::State &state)
{
    runCycles(state, meshCfg(11, false));
}

/** A figure-style point list: the paper's mid-size rings and meshes
 *  with a short measurement protocol, so one benchmark iteration is
 *  one whole sweep. */
std::vector<SystemConfig>
sweepPoints()
{
    std::vector<SystemConfig> points;
    for (const char *topo : {"4", "8", "2:4", "2:8", "3:3:4"})
        points.push_back(ringCfg(topo, true));
    for (const int width : {2, 3, 4, 5, 6})
        points.push_back(meshCfg(width, true));
    for (auto &cfg : points) {
        cfg.sim.warmupCycles = 1000;
        cfg.sim.batchCycles = 1000;
        cfg.sim.numBatches = 3;
    }
    return points;
}

void
runSweepBench(benchmark::State &state, unsigned jobs)
{
    const std::vector<SystemConfig> points = sweepPoints();
    SweepOptions opts;
    opts.jobs = jobs;
    std::uint64_t swept = 0;
    for (auto _ : state) {
        // A fresh runner per iteration: a reused one would serve
        // every iteration after the first from its memo.
        SweepRunner runner(opts);
        const auto results = runner.run(points);
        benchmark::DoNotOptimize(results.front().avgLatency);
        swept += points.size();
    }
    state.counters["points/s"] = benchmark::Counter(
        static_cast<double>(swept), benchmark::Counter::kIsRate);
}

void
BM_SweepSerial(benchmark::State &state)
{
    runSweepBench(state, 1);
}

void
BM_SweepParallel4(benchmark::State &state)
{
    runSweepBench(state, 4);
}

BENCHMARK(BM_RingSmall);
BENCHMARK(BM_RingSmallLowC);
BENCHMARK(BM_RingSmallLowCLegacy);
BENCHMARK(BM_RingLarge);
BENCHMARK(BM_RingLargeLegacy);
BENCHMARK(BM_MeshSmall);
BENCHMARK(BM_MeshLarge);
BENCHMARK(BM_MeshLargeLegacy);
BENCHMARK(BM_SweepSerial);
BENCHMARK(BM_SweepParallel4)->UseRealTime();

} // namespace

/**
 * Custom main: BENCHMARK_MAIN() plus run-context records, so a saved
 * BENCH_simspeed.json says which build produced it. Without these, a
 * Debug-build artifact is indistinguishable from a real Release
 * baseline.
 */
int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::AddCustomContext("hrsim_build_type",
                                hrsim::buildType());
    benchmark::AddCustomContext("hrsim_git",
                                hrsim::buildGitDescribe());
    // Configured compiler flags: two Release baselines taken with
    // different -march/-O levels are not comparable, and without
    // this record the JSON cannot say so.
    benchmark::AddCustomContext("hrsim_build_flags",
                                hrsim::buildCxxFlags());
    const char *jobs_env = std::getenv("HRSIM_JOBS");
    benchmark::AddCustomContext(
        "hrsim_jobs",
        jobs_env != nullptr && jobs_env[0] != '\0'
            ? jobs_env
            : std::to_string(std::thread::hardware_concurrency()));
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
