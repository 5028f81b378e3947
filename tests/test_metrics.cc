/**
 * @file
 * Observability-layer tests (src/obs/).
 *
 * Pins the four contracts the layer advertises:
 *  1. Registry hygiene — duplicate or malformed metric names are
 *     rejected at registration (ConfigError), not shadowed.
 *  2. Serialization fidelity — a run serialized to JSON parses back
 *     to the exact RunResult values (counters exactly, gauges
 *     bit-for-bit through %.17g), and the CSV sink carries the same
 *     rows; both artifacts embed the manifest.
 *  3. Sweep determinism — per-point metric samples are identical
 *     between a serial (jobs = 1) and a parallel (jobs = 4) sweep.
 *  4. Tracer passivity — attaching a FlitTracer changes no metric of
 *     the run, while (when hooks are compiled in) logging
 *     inject/hop/eject events.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "common/log.hh"
#include "core/sweep.hh"
#include "core/system.hh"
#include "obs/flit_trace.hh"
#include "obs/json.hh"
#include "obs/manifest.hh"
#include "obs/metric_registry.hh"
#include "obs/metric_sink.hh"

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

SystemConfig
smallRing()
{
    SystemConfig cfg = SystemConfig::ring("2:4", 32);
    cfg.workload.outstandingT = 4;
    cfg.sim = quickSim();
    return cfg;
}

TEST(MetricRegistry, RejectsDuplicateNames)
{
    MetricRegistry registry;
    std::uint64_t value = 0;
    registry.addCounter("a.count", &value);
    EXPECT_THROW(registry.addCounter("a.count", &value), ConfigError);
    EXPECT_THROW(registry.addGauge("a.count", []() { return 0.0; }),
                 ConfigError);
}

TEST(MetricRegistry, RejectsInvalidNames)
{
    MetricRegistry registry;
    EXPECT_THROW(registry.addGauge("", []() { return 0.0; }),
                 ConfigError);
    EXPECT_THROW(registry.addGauge("Nope", []() { return 0.0; }),
                 ConfigError);
    EXPECT_THROW(registry.addGauge("has space", []() { return 0.0; }),
                 ConfigError);
    EXPECT_TRUE(MetricRegistry::validName("ring.l0.iri3.wait_cycles"));
    EXPECT_FALSE(MetricRegistry::validName("ring.l0,util"));
}

TEST(MetricRegistry, SnapshotIsSortedByName)
{
    MetricRegistry registry;
    registry.addGauge("z.last", []() { return 1.0; });
    registry.addGauge("a.first", []() { return 2.0; });
    registry.addCounter("m.middle", []() { return 3ull; });
    const std::vector<MetricSample> snap = registry.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].name, "a.first");
    EXPECT_EQ(snap[1].name, "m.middle");
    EXPECT_EQ(snap[2].name, "z.last");
    EXPECT_EQ(snap[1].kind, MetricKind::Counter);
    EXPECT_EQ(snap[1].count, 3u);
}

TEST(MetricSink, JsonRoundTripsARingRun)
{
    const SystemConfig cfg = smallRing();
    RunResult result;
    {
        System system(cfg);
        result = system.run();
    }
    ASSERT_FALSE(result.metrics.empty());

    std::ostringstream out;
    writeMetricsJson(out, makeManifest(cfg, 1, 0.5, 1000.0),
                     {metricPoint("ring 2:4", result)});
    const JsonValue doc = JsonValue::parse(out.str());

    ASSERT_TRUE(doc.isObject());
    const JsonValue *schema = doc.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->str, "hrsim-metrics-v2");

    const JsonValue *manifest = doc.find("manifest");
    ASSERT_NE(manifest, nullptr);
    EXPECT_EQ(manifest->find("config")->str, configKey(cfg));
    EXPECT_EQ(manifest->find("seed")->lexeme,
              std::to_string(cfg.sim.seed));

    const JsonValue *points = doc.find("points");
    ASSERT_NE(points, nullptr);
    ASSERT_EQ(points->items.size(), 1u);
    const JsonValue &point = points->items[0];
    EXPECT_EQ(point.find("label")->str, "ring 2:4");
    EXPECT_EQ(point.find("end_cycle")->number,
              static_cast<double>(result.cycles));

    const JsonValue *metrics = point.find("metrics");
    ASSERT_NE(metrics, nullptr);
    ASSERT_EQ(metrics->members.size(), result.metrics.size());
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
        const MetricSample &sample = result.metrics[i];
        const auto &[name, value] = metrics->members[i];
        EXPECT_EQ(name, sample.name);
        ASSERT_TRUE(value.isNumber()) << name;
        if (sample.kind == MetricKind::Counter) {
            // Counters serialize as bare integers and must survive
            // exactly (checked on the lexeme, so > 2^53 also works).
            EXPECT_TRUE(value.isInteger()) << name;
            EXPECT_EQ(value.lexeme, std::to_string(sample.count))
                << name;
        } else {
            // %.17g guarantees bit-exact double round-trips.
            EXPECT_EQ(value.number, sample.value) << name;
        }
    }
}

TEST(MetricSink, CsvCarriesManifestAndEverySample)
{
    const SystemConfig cfg = smallRing();
    RunResult result;
    {
        System system(cfg);
        result = system.run();
    }

    std::ostringstream out;
    writeMetricsCsv(out, makeManifest(cfg, 1, 0.5, 1000.0),
                    {metricPoint("ring 2:4", result)});
    const std::string text = out.str();

    EXPECT_NE(text.find("# schema=hrsim-metrics-v2"),
              std::string::npos);
    EXPECT_NE(text.find("# config=" + configKey(cfg)),
              std::string::npos);
    EXPECT_NE(text.find("label,cycle,metric,kind,value"),
              std::string::npos);

    // One data row per metric sample (plus manifest + header lines).
    std::size_t rows = 0;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.rfind("ring 2:4,", 0) == 0)
            ++rows;
    }
    EXPECT_EQ(rows, result.metrics.size());
}

TEST(MetricSink, PeriodicSnapshotsAreRecordedAndSerialized)
{
    SystemConfig cfg = smallRing();
    cfg.sim.metricsEvery = 1000;
    RunResult result;
    {
        System system(cfg);
        result = system.run();
    }
    // Horizon is 4000 cycles; snapshots at 1000/2000/3000 (the final
    // materialization at 4000 is RunResult::metrics).
    ASSERT_EQ(result.snapshots.size(), 3u);
    EXPECT_EQ(result.snapshots[0].cycle, 1000u);
    EXPECT_EQ(result.snapshots[2].cycle, 3000u);
    for (const MetricSnapshot &snap : result.snapshots)
        EXPECT_EQ(snap.metrics.size(), result.metrics.size());

    std::ostringstream out;
    writeMetricsJson(out, makeManifest(cfg, 1, 0.5, 1000.0),
                     {metricPoint("ring 2:4", result)});
    const JsonValue doc = JsonValue::parse(out.str());
    const JsonValue *snaps = doc.find("points")->items[0].find(
        "snapshots");
    ASSERT_NE(snaps, nullptr);
    ASSERT_EQ(snaps->items.size(), 3u);
    EXPECT_EQ(snaps->items[1].find("cycle")->number, 2000.0);
}

TEST(MetricSink, SnapshotsDoNotPerturbTheRun)
{
    SystemConfig plain = smallRing();
    SystemConfig snapped = smallRing();
    snapped.sim.metricsEvery = 500;
    RunResult a = runSystem(plain);
    RunResult b = runSystem(snapped);
    ASSERT_EQ(a.metrics.size(), b.metrics.size());
    for (std::size_t i = 0; i < a.metrics.size(); ++i)
        EXPECT_EQ(a.metrics[i], b.metrics[i]) << a.metrics[i].name;
}

TEST(SweepMetrics, SerialAndParallelAreBitIdentical)
{
    std::vector<SystemConfig> points;
    points.push_back(smallRing());
    SystemConfig mesh = SystemConfig::mesh(3, 64, 4);
    mesh.workload.outstandingT = 4;
    mesh.sim = quickSim();
    points.push_back(mesh);
    SystemConfig slotted = smallRing();
    slotted.ringSlotted = true;
    points.push_back(slotted);

    SweepOptions serial_opts;
    serial_opts.jobs = 1;
    SweepOptions parallel_opts;
    parallel_opts.jobs = 4;
    SweepRunner serial{serial_opts};
    SweepRunner parallel{parallel_opts};
    const std::vector<RunResult> a = serial.run(points);
    const std::vector<RunResult> b = parallel.run(points);

    ASSERT_EQ(a.size(), b.size());
    for (std::size_t p = 0; p < a.size(); ++p) {
        ASSERT_EQ(a[p].metrics.size(), b[p].metrics.size());
        for (std::size_t i = 0; i < a[p].metrics.size(); ++i) {
            EXPECT_EQ(a[p].metrics[i], b[p].metrics[i])
                << "point " << p << " metric "
                << a[p].metrics[i].name;
        }
    }
}

TEST(FlitTracer, TracingDoesNotChangeResults)
{
    const SystemConfig cfg = smallRing();
    RunResult plain;
    {
        System system(cfg);
        plain = system.run();
    }

    std::ostringstream trace;
    RunResult traced;
    std::uint64_t events = 0;
    {
        System system(cfg);
        FlitTracer tracer(trace);
        system.setTracer(&tracer);
        traced = system.run();
        events = tracer.events();
    }

    EXPECT_EQ(plain.avgLatency, traced.avgLatency);
    EXPECT_EQ(plain.samples, traced.samples);
    ASSERT_EQ(plain.metrics.size(), traced.metrics.size());
    for (std::size_t i = 0; i < plain.metrics.size(); ++i)
        EXPECT_EQ(plain.metrics[i], traced.metrics[i])
            << plain.metrics[i].name;

    if (FlitTracer::compiledIn()) {
        EXPECT_GT(events, 0u);
        // Every line is "<cycle> inject|hop|eject pkt=... node=...".
        std::istringstream lines(trace.str());
        std::string cycle, kind, rest;
        std::size_t parsed = 0;
        while (lines >> cycle >> kind && std::getline(lines, rest)) {
            EXPECT_TRUE(kind == "inject" || kind == "hop" ||
                        kind == "eject")
                << kind;
            ++parsed;
        }
        EXPECT_EQ(parsed, events);
    } else {
        EXPECT_EQ(events, 0u);
        EXPECT_TRUE(trace.str().empty());
    }
}

TEST(FlitTracer, MeshTracingDoesNotChangeResults)
{
    SystemConfig cfg = SystemConfig::mesh(3, 32, 4);
    cfg.workload.outstandingT = 4;
    cfg.sim = quickSim();

    RunResult plain;
    {
        System system(cfg);
        plain = system.run();
    }
    std::ostringstream trace;
    RunResult traced;
    {
        System system(cfg);
        FlitTracer tracer(trace);
        system.setTracer(&tracer);
        traced = system.run();
    }
    ASSERT_EQ(plain.metrics.size(), traced.metrics.size());
    for (std::size_t i = 0; i < plain.metrics.size(); ++i)
        EXPECT_EQ(plain.metrics[i], traced.metrics[i])
            << plain.metrics[i].name;
}

TEST(Manifest, ConfigKeyIsStableAndHashable)
{
    const SystemConfig a = smallRing();
    const SystemConfig b = smallRing();
    EXPECT_EQ(configKey(a), configKey(b));

    SystemConfig c = smallRing();
    c.sim.seed += 1;
    EXPECT_NE(configKey(a), configKey(c));

    const RunManifest manifest = makeManifest(a, 4, 2.0, 1.0e6);
    EXPECT_EQ(manifest.schema, "hrsim-metrics-v2");
    EXPECT_EQ(manifest.jobs, 4u);
    EXPECT_EQ(manifest.configHash.substr(0, 2), "0x");
    EXPECT_EQ(manifest.configHash.size(), 18u);
    EXPECT_DOUBLE_EQ(manifest.nodeCyclesPerSec, 5.0e5);
}

TEST(Manifest, RestoredFromIsSchemaGated)
{
    // Cold start: no restored_from anywhere — pre-checkpoint
    // artifacts must keep their exact byte layout.
    const SystemConfig cold = smallRing();
    std::ostringstream cold_json;
    writeMetricsJson(cold_json, makeManifest(cold, 1, 0.5, 1000.0),
                     {});
    EXPECT_EQ(cold_json.str().find("restored_from"),
              std::string::npos);

    SystemConfig warm = smallRing();
    warm.ckpt.restorePath = "/runs/warmup.ckpt";
    const RunManifest manifest = makeManifest(warm, 1, 0.5, 1000.0);
    EXPECT_EQ(manifest.restoredFrom, "/runs/warmup.ckpt");

    std::ostringstream json;
    writeMetricsJson(json, manifest, {});
    const JsonValue doc = JsonValue::parse(json.str());
    const JsonValue *restored =
        doc.find("manifest")->find("restored_from");
    ASSERT_NE(restored, nullptr);
    EXPECT_EQ(restored->str, "/runs/warmup.ckpt");

    std::ostringstream csv;
    writeMetricsCsv(csv, manifest, {});
    EXPECT_NE(csv.str().find("# restored_from=/runs/warmup.ckpt"),
              std::string::npos);
}

TEST(Manifest, SystemMetricNamesAreRegistered)
{
    const SystemConfig cfg = smallRing();
    System system(cfg);
    const MetricRegistry &registry = system.metrics();
    EXPECT_TRUE(registry.has("workload.remote_completed"));
    EXPECT_TRUE(registry.has("latency.avg"));
    EXPECT_TRUE(registry.has("latency.p99"));
    EXPECT_TRUE(registry.has("net.util"));
    EXPECT_TRUE(registry.has("throughput.per_pm"));
    EXPECT_TRUE(registry.has("ring.l0.util"));
    EXPECT_TRUE(registry.has("ring.l1.util"));
    EXPECT_TRUE(registry.has("ring.wait_cycles"));
    EXPECT_TRUE(registry.has("ring.nic0.flits"));
    EXPECT_FALSE(registry.has("mesh.util"));

    SystemConfig mesh_cfg = SystemConfig::mesh(2, 32, 4);
    mesh_cfg.sim = quickSim();
    System mesh_system(mesh_cfg);
    EXPECT_TRUE(mesh_system.metrics().has("mesh.util"));
    EXPECT_TRUE(mesh_system.metrics().has("mesh.r3.flits"));
}

} // namespace
} // namespace hrsim
