/**
 * @file
 * Shared helpers for the benchmark binaries: the figure runner
 * (bench_figures, over bench/figure_table.hh) and the table and
 * extension mains.
 *
 * Each binary runs fresh simulations, prints its series as an aligned
 * table and appends machine-readable CSV.
 *
 * Setting HRSIM_METRICS_OUT=FILE additionally serializes every point
 * the binary reports — full metric registry plus run manifest — to
 * FILE in the standard hrsim-metrics-v3 JSON schema, so each plotted
 * sample can be traced back to its underlying counters. bench_figures
 * labels a point "<figure id>/<series> P=<processors>" (e.g.
 * "fig08/16B P=24"); see EXPERIMENTS.md.
 */

#ifndef HRSIM_BENCH_BENCH_COMMON_HH
#define HRSIM_BENCH_BENCH_COMMON_HH

#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/experiment.hh"
#include "core/sweep.hh"
#include "core/system.hh"
#include "obs/manifest.hh"
#include "obs/metric_sink.hh"

namespace hrsim::bench
{

/**
 * Worker threads for the bench runner: HRSIM_JOBS if set (>= 1), else
 * one per hardware thread. Results are bit-identical at any setting
 * (see SweepRunner's determinism contract), so parallelism is safe to
 * default on.
 */
inline unsigned
benchJobs()
{
    if (const char *env = std::getenv("HRSIM_JOBS")) {
        char *end = nullptr;
        errno = 0;
        const long jobs = std::strtol(env, &end, 10);
        if (end == env || *end != '\0' || errno == ERANGE ||
            jobs < 1 || static_cast<unsigned long>(jobs) > UINT_MAX) {
            std::fprintf(stderr,
                         "warning: ignoring invalid HRSIM_JOBS=\"%s\" "
                         "(want an integer in [1, %u]); using "
                         "hardware concurrency\n",
                         env, UINT_MAX);
        } else {
            return static_cast<unsigned>(jobs);
        }
    }
    return 0; // SweepRunner resolves 0 to hardware_concurrency()
}

/** Process-wide sweep runner shared by every sweep in a binary. */
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

/** Measurement protocol of every figure and the fault extension. */
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
 * point of every reported config and writes one hrsim-metrics-v3
 * JSON artifact when the binary exits. Disabled (and free) unless the
 * environment variable is set. The manifest's worker count is 1
 * unless the binary sets its runner's width with setJobs().
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

    /** Worker count recorded in the manifest. */
    void setJobs(unsigned jobs) { jobs_ = jobs; }

    /** Record @a result as "<series> P=<processors>". Node-cycles
     *  count once per configKey, as the runner's memo simulates a
     *  repeated config once. */
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
        if (counted_.insert(configKey(cfg)).second) {
            nodeCycles_ += static_cast<double>(result.cycles) *
                           cfg.numProcessors();
        }
    }

    ~BenchMetricsDump()
    {
        if (path_.empty() || points_.empty())
            return;
        const double wall =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start_)
                .count();
        try {
            writeMetricsFile(path_, "json",
                             makeManifest(baseCfg_, jobs_, wall,
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
    unsigned jobs_ = 1;
    std::vector<MetricPoint> points_;
    std::unordered_set<std::string> counted_; //!< configKeys
    SystemConfig baseCfg_;
    double nodeCycles_ = 0.0;
    std::chrono::steady_clock::time_point start_ =
        std::chrono::steady_clock::now();
};

/** Print @a report as an aligned table, then as CSV. */
inline void
emit(const Report &report)
{
    report.print(std::cout);
    std::cout << "\n";
    report.writeCsv(std::cout);
    std::cout << std::endl;
}

} // namespace hrsim::bench

#endif // HRSIM_BENCH_BENCH_COMMON_HH
