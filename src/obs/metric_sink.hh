/**
 * @file
 * Metric sinks: serialize finished runs (manifest + per-point metric
 * snapshots) to JSON or CSV.
 *
 * One schema everywhere: a single-point run is a one-element sweep,
 * a figure bench is a sweep with descriptive labels, so every
 * artifact — `hrsim_cli --metrics-out`, `HRSIM_METRICS_OUT` bench
 * dumps, test fixtures — has the same shape and one validator
 * (`tools/metrics_check` against `scripts/metrics_schema.json`)
 * covers them all.
 *
 * JSON ("hrsim-metrics-v2"):
 *
 *     {
 *       "schema": "hrsim-metrics-v2",
 *       "manifest": { "git": ..., "config": ..., "seed": ... },
 *       "points": [
 *         { "label": "ring 3:3:12",
 *           "metrics": { "latency.avg": 53.5, ... },
 *           "snapshots": [ { "cycle": 4000, "metrics": {...} } ] }
 *       ]
 *     }
 *
 * CSV: `# key=value` manifest comment lines, then the header
 * `label,cycle,metric,kind,value` and one row per sample; periodic
 * snapshot rows carry their snapshot cycle, final rows the run's end
 * cycle. Doubles are printed with %.17g (shortest exact round-trip),
 * counters as plain integers, so re-parsing reproduces the values
 * bit-for-bit — and two runs of the same config serialize their
 * metric sections byte-identically (only the manifest may differ).
 */

#ifndef HRSIM_OBS_METRIC_SINK_HH
#define HRSIM_OBS_METRIC_SINK_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/manifest.hh"
#include "obs/metric_registry.hh"

namespace hrsim
{

/** The serialized observability record of one simulated point. */
struct MetricPoint
{
    std::string label;
    /** Cycle the final metrics were taken at (the run's horizon, or
     *  the adaptive stop cycle). */
    Cycle endCycle = 0;
    /**
     * Stop reason of an adaptive run ("converged", "max_cycles",
     * "saturated"); empty for fixed-length runs, in which case the
     * field is omitted from the serialized point so fixed-length
     * artifacts stay byte-identical to earlier releases.
     */
    std::string stopReason;
    std::vector<MetricSample> metrics;
    /** Periodic snapshots (--metrics-every); empty when disabled. */
    std::vector<MetricSnapshot> snapshots;
};

/** Build the point record of a finished run. */
MetricPoint metricPoint(const std::string &label,
                        const RunResult &result);

void writeMetricsJson(std::ostream &out, const RunManifest &manifest,
                      const std::vector<MetricPoint> &points);

void writeMetricsCsv(std::ostream &out, const RunManifest &manifest,
                     const std::vector<MetricPoint> &points);

/**
 * Write @a points to @a path ("-" = stdout) as @a format ("json" or
 * "csv"); throws ConfigError on an unknown format or unwritable path.
 */
void writeMetricsFile(const std::string &path,
                      const std::string &format,
                      const RunManifest &manifest,
                      const std::vector<MetricPoint> &points);

} // namespace hrsim

#endif // HRSIM_OBS_METRIC_SINK_HH
