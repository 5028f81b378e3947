/**
 * @file
 * Shared helpers for the per-figure benchmark binaries.
 *
 * Every binary regenerates one table or figure of the paper: it runs
 * fresh simulations, prints the series as an aligned table, appends
 * machine-readable CSV, and (where the paper calls one out) prints
 * the derived statistic such as the ring/mesh cross-over point.
 *
 * Setting HRSIM_METRICS_OUT=FILE additionally serializes every point
 * the binary simulates — full metric registry plus run manifest — to
 * FILE in the standard hrsim-metrics-v2 JSON schema, labelled
 * "<series> P=<processors>" so each plotted sample can be traced back
 * to its underlying counters (see EXPERIMENTS.md).
 */

#ifndef HRSIM_BENCH_BENCH_COMMON_HH
#define HRSIM_BENCH_BENCH_COMMON_HH

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/analysis.hh"
#include "core/experiment.hh"
#include "core/sweep.hh"
#include "core/system.hh"
#include "obs/manifest.hh"
#include "obs/metric_sink.hh"
#include "workload/region.hh"

namespace hrsim::bench
{

/**
 * Worker threads for figure sweeps: HRSIM_JOBS if set (>= 1), else
 * one per hardware thread. Results are bit-identical at any setting
 * (see SweepRunner's determinism contract), so parallelism is safe to
 * default on.
 */
inline unsigned
benchJobs()
{
    if (const char *env = std::getenv("HRSIM_JOBS")) {
        char *end = nullptr;
        const long jobs = std::strtol(env, &end, 10);
        if (end == env || *end != '\0' || jobs < 1) {
            std::fprintf(stderr,
                         "warning: ignoring invalid HRSIM_JOBS=\"%s\" "
                         "(want an integer >= 1); using hardware "
                         "concurrency\n",
                         env);
        } else {
            return static_cast<unsigned>(jobs);
        }
    }
    return 0; // SweepRunner resolves 0 to hardware_concurrency()
}

/** Process-wide sweep runner shared by every figure in a binary. */
inline SweepRunner &
benchRunner()
{
    static SweepRunner runner{[] {
        SweepOptions opts;
        opts.jobs = benchJobs();
        return opts;
    }()};
    return runner;
}

/** Measurement protocol used by all figure benches. */
inline SimConfig
benchSim()
{
    SimConfig sim;
    sim.warmupCycles = 4000;
    sim.batchCycles = 4000;
    sim.numBatches = 5;
    return sim;
}

inline SystemConfig
ringConfig(const std::string &topo, std::uint32_t line_bytes, int t,
           double r, std::uint32_t global_speed = 1)
{
    SystemConfig cfg = SystemConfig::ring(topo, line_bytes);
    cfg.workload.outstandingT = t;
    cfg.workload.localityR = r;
    cfg.globalRingSpeed = global_speed;
    cfg.sim = benchSim();
    return cfg;
}

inline SystemConfig
meshConfig(int width, std::uint32_t line_bytes,
           std::uint32_t buffer_flits, int t, double r)
{
    SystemConfig cfg =
        SystemConfig::mesh(width, line_bytes, buffer_flits);
    cfg.workload.outstandingT = t;
    cfg.workload.localityR = r;
    cfg.sim = benchSim();
    return cfg;
}

/**
 * Process-wide HRSIM_METRICS_OUT collector: accumulates the metric
 * point of every simulated config and writes one hrsim-metrics-v2
 * JSON artifact when the binary exits. Disabled (and free) unless the
 * environment variable is set.
 */
class BenchMetricsDump
{
  public:
    static BenchMetricsDump &
    instance()
    {
        static BenchMetricsDump dump;
        return dump;
    }

    void
    add(const std::string &series, const SystemConfig &cfg,
        const RunResult &result)
    {
        if (path_.empty())
            return;
        if (points_.empty())
            baseCfg_ = cfg;
        points_.push_back(metricPoint(
            series + " P=" + std::to_string(cfg.numProcessors()),
            result));
        nodeCycles_ += static_cast<double>(result.cycles) *
                       cfg.numProcessors();
    }

    ~BenchMetricsDump()
    {
        if (path_.empty() || points_.empty())
            return;
        const double wall =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start_)
                .count();
        unsigned jobs = benchJobs();
        if (jobs == 0)
            jobs = std::thread::hardware_concurrency();
        try {
            writeMetricsFile(path_, "json",
                             makeManifest(baseCfg_, jobs, wall,
                                          nodeCycles_),
                             points_);
        } catch (const std::exception &err) {
            std::fprintf(stderr,
                         "warning: HRSIM_METRICS_OUT write failed: "
                         "%s\n",
                         err.what());
        }
    }

  private:
    BenchMetricsDump()
    {
        if (const char *env = std::getenv("HRSIM_METRICS_OUT"))
            path_ = env;
    }

    std::string path_;
    std::vector<MetricPoint> points_;
    SystemConfig baseCfg_;
    double nodeCycles_ = 0.0;
    std::chrono::steady_clock::time_point start_ =
        std::chrono::steady_clock::now();
};

/** runSystem() plus HRSIM_METRICS_OUT bookkeeping for one point. */
inline RunResult
runPoint(const std::string &series, const SystemConfig &cfg)
{
    RunResult result = runSystem(cfg);
    BenchMetricsDump::instance().add(series, cfg, result);
    return result;
}

/** Run @a points on the shared pool, adding avgLatency per point. */
inline void
sweepIntoReport(Report &report, const std::string &series,
                const std::vector<SystemConfig> &points)
{
    const std::vector<RunResult> results = benchRunner().run(points);
    for (std::size_t i = 0; i < points.size(); ++i) {
        report.add(series, points[i].numProcessors(),
                   results[i].avgLatency);
        BenchMetricsDump::instance().add(series, points[i],
                                         results[i]);
    }
}

/** Add the ring ladder (Table 2 topologies) to a report series. */
inline void
runRingLadder(Report &report, const std::string &series,
              std::uint32_t line_bytes, int t, double r,
              std::uint32_t global_speed = 1, int max_nodes = 128)
{
    std::vector<SystemConfig> points;
    for (const std::string &topo : standardRingLadder(line_bytes)) {
        SystemConfig cfg =
            ringConfig(topo, line_bytes, t, r, global_speed);
        if (cfg.numProcessors() > max_nodes)
            continue;
        // Skip degenerate points whose access region has no remote
        // PM (e.g. R = 0.1 on a 4-node system).
        if (regionRemoteCount(cfg.numProcessors(), r) == 0)
            continue;
        points.push_back(cfg);
    }
    sweepIntoReport(report, series, points);
}

/** Add the square-mesh sweep to a report series. */
inline void
runMeshSweep(Report &report, const std::string &series,
             std::uint32_t line_bytes, std::uint32_t buffer_flits,
             int t, double r, int max_nodes = 121)
{
    std::vector<SystemConfig> points;
    for (const int width : standardMeshWidths(max_nodes)) {
        SystemConfig cfg =
            meshConfig(width, line_bytes, buffer_flits, t, r);
        if (regionRemoteCount(cfg.numProcessors(), r) == 0)
            continue;
        points.push_back(cfg);
    }
    sweepIntoReport(report, series, points);
}

/** Print table, cross-over (if both series named), then CSV. */
inline void
emit(const Report &report)
{
    report.print(std::cout);
    std::cout << "\n";
    report.writeCsv(std::cout);
    std::cout << std::endl;
}

/** Print the cross-over between a mesh and a ring series, if any. */
inline void
printCrossover(const Report &report, const std::string &mesh_series,
               const std::string &ring_series)
{
    const auto x = crossoverPoint(report.seriesPoints(ring_series),
                                  report.seriesPoints(mesh_series));
    if (x) {
        std::printf("cross-over (%s vs %s): mesh wins above ~%.0f "
                    "nodes\n",
                    mesh_series.c_str(), ring_series.c_str(), *x);
    } else {
        std::printf("cross-over (%s vs %s): none up to the largest "
                    "size (rings keep winning or never win)\n",
                    mesh_series.c_str(), ring_series.c_str());
    }
}

} // namespace hrsim::bench

#endif // HRSIM_BENCH_BENCH_COMMON_HH
