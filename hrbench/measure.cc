/**
 * @file
 * hrbench_measure: times one hrbench workload and prints what it
 * measured as one JSON document on stdout.
 *
 *   hrbench_measure --workload ring-sat|mesh-local|figures --seed N
 *                  --seconds S --trace 0|1 --tmp DIR
 *
 * The document holds raw samples (per-repetition wall and set-up
 * times, per-block times, per-figure times), the simulated outputs of
 * every run, provenance, and for --trace 1 the per-layer spans and
 * counts. run.py turns it into the benchmark's metrics and checks the
 * simulated outputs against the stored reference; see README.md.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/codec.hh"
#include "core/analysis.hh"
#include "core/sweep.hh"
#include "core/system.hh"
#include "core/topology_search.hh"
#include "obs/build_info.hh"
#include "obs/json.hh"
#include "obs/manifest.hh"
#include "obs/metric_sink.hh"
#include "ring/ring_network.hh"
#include "artifact_set.hh"
#include "traced_system.hh"
#include "workload/region.hh"

namespace
{

using namespace hrsim;
using hrbench::BlockSpan;
using hrbench::LayerSpans;
using hrbench::TracedSystem;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
nsToS(std::int64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

// ------------------------------------------------------------------
// JSON output

/** @a text as a JSON string literal. */
std::string
quoted(const std::string &text)
{
    std::string out(1, '"');
    out += jsonEscape(text);
    out += '"';
    return out;
}

/** Streams one JSON object; keys and values are appended in order. */
class JsonObject
{
  public:
    JsonObject &
    num(const std::string &key, double value)
    {
        return raw(key, jsonNumber(value));
    }

    JsonObject &
    integer(const std::string &key, std::uint64_t value)
    {
        return raw(key, std::to_string(value));
    }

    JsonObject &
    str(const std::string &key, const std::string &value)
    {
        return raw(key, quoted(value));
    }

    JsonObject &
    nums(const std::string &key, const std::vector<double> &values)
    {
        std::string text = "[";
        for (std::size_t i = 0; i < values.size(); ++i)
            text += (i ? "," : "") + jsonNumber(values[i]);
        return raw(key, text + "]");
    }

    JsonObject &
    raw(const std::string &key, const std::string &json)
    {
        if (!body_.empty())
            body_ += ',';
        body_ += quoted(key);
        body_ += ':';
        body_ += json;
        return *this;
    }

    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

std::string
jsonArray(const std::vector<std::string> &items)
{
    std::string text = "[";
    for (std::size_t i = 0; i < items.size(); ++i)
        text += (i ? "," : "") + items[i];
    return text + "]";
}

// ------------------------------------------------------------------
// Simulated outputs

/** The simulated outputs of one run that the reference check uses. */
struct SimOutputs
{
    double latMean = 0.0;
    double latP99 = 0.0;
    std::uint64_t samples = 0;
    WorkloadCounters counters;
    std::int64_t outstanding = 0;
    double netUtil = 0.0;
    std::vector<double> levelUtil;
    Cycle cycles = 0;

    std::string
    json() const
    {
        return JsonObject()
            .num("lat_mean", latMean)
            .num("lat_p99", latP99)
            .integer("samples", samples)
            .integer("remote_issued", counters.remoteIssued)
            .integer("remote_completed", counters.remoteCompleted)
            .integer("local_issued", counters.localIssued)
            .integer("local_completed", counters.localCompleted)
            .num("outstanding", static_cast<double>(outstanding))
            .num("net_util", netUtil)
            .nums("level_util", levelUtil)
            .integer("cycles", cycles)
            .text();
    }
};

std::vector<double>
levelUtilization(Network &network)
{
    std::vector<double> levels;
    if (auto *ring = dynamic_cast<RingNetwork *>(&network)) {
        for (int level = 0; level < ring->numLevels(); ++level)
            levels.push_back(ring->levelUtilization(level));
    }
    return levels;
}

template <typename Sim>
SimOutputs
outputsOf(Sim &sim, const Histogram &histogram)
{
    SimOutputs out;
    out.latMean = sim.latency().mean();
    out.latP99 = histogram.p99();
    out.samples = sim.latency().sampleCount();
    out.counters = sim.counters();
    out.outstanding = sim.totalOutstanding();
    out.netUtil = sim.network().utilization().totalUtilization();
    out.levelUtil = levelUtilization(sim.network());
    out.cycles = sim.now();
    return out;
}

double
metricValue(const std::vector<MetricSample> &metrics,
            const std::string &name)
{
    for (const MetricSample &sample : metrics) {
        if (sample.name == name)
            return sample.value;
    }
    return 0.0;
}

SimOutputs
outputsOf(const RunResult &result)
{
    SimOutputs out;
    out.latMean = result.avgLatency;
    out.latP99 = result.latencyP99;
    out.samples = result.samples;
    out.counters = result.counters;
    out.outstanding = static_cast<std::int64_t>(
        metricValue(result.metrics, "sim.outstanding"));
    out.netUtil = result.networkUtilization;
    out.levelUtil = result.ringLevelUtilization;
    out.cycles = result.cycles;
    return out;
}

/** Sum of every "*streamed_flits" gauge (the fast-path counts). */
double
streamedFlits(const std::vector<MetricSample> &metrics)
{
    double total = 0.0;
    const std::string suffix = "streamed_flits";
    for (const MetricSample &sample : metrics) {
        if (sample.name.size() >= suffix.size() &&
            sample.name.compare(sample.name.size() - suffix.size(),
                                suffix.size(), suffix) == 0)
            total += sample.value;
    }
    return total;
}

/**
 * Flit hops counted by the utilization tracker in its measurement
 * window, read through its public checkpoint encoding (window flag,
 * start, length, group count, one transfer total per group). Throws,
 * which counts as a failed operation, when that encoding no longer
 * has this layout.
 */
std::uint64_t
measuredFlitHops(const UtilizationTracker &util)
{
    CkptWriter writer;
    util.saveState(writer);
    CkptReader reader(writer.data());
    reader.boolean();
    reader.u64();
    reader.u64();
    const std::uint32_t groups = reader.u32();
    if (groups != util.numGroups())
        throw std::runtime_error("UtilizationTracker::saveState layout "
                                 "changed: group count mismatch");
    std::uint64_t hops = 0;
    for (std::uint32_t g = 0; g < groups; ++g)
        hops += reader.u64();
    if (!reader.atEnd())
        throw std::runtime_error("UtilizationTracker::saveState layout "
                                 "changed: bytes left over");
    return hops;
}

// ------------------------------------------------------------------
// Workload definitions

/**
 * The fixed seed of the paper-accuracy points (Figs. 12-14 at R=1.0
 * and the Table 2 cells): the library default that the repository's
 * figure benches and EXPERIMENTS.md numbers use.
 */
const std::uint64_t kPaperSeed = SimConfig{}.seed;

/** The figure benches' measurement protocol at seed @a seed. */
SimConfig
figureSim(std::uint64_t seed)
{
    SimConfig sim = hrbench::benchSim();
    sim.seed = seed;
    return sim;
}

struct SingleRun
{
    SystemConfig cfg;
    Cycle block = 0; //!< cycles per timed chunk
};

SingleRun
singleRun(const std::string &workload, std::uint64_t seed)
{
    SingleRun run;
    if (workload == "ring-sat") {
        run.cfg = SystemConfig::ring("3:3:12", 64);
        run.cfg.workload.localityR = 1.0;
    } else {
        run.cfg = SystemConfig::mesh(11, 64, 4);
        run.cfg.workload.localityR = 0.2;
    }
    run.cfg.workload.missRateC = 0.04;
    run.cfg.workload.outstandingT = 4;
    run.cfg.sim.warmupCycles = 10000;
    run.cfg.sim.batchCycles = 10000;
    run.cfg.sim.numBatches = 4;
    run.cfg.sim.seed = seed;
    run.block = 250;
    return run;
}

struct FigurePoint
{
    std::string series;
    SystemConfig cfg;
};

struct Figure
{
    std::string name;
    std::vector<FigurePoint> points;
    /** Runs at kPaperSeed whatever the workload seed is. */
    bool paperSeed = false;

    std::vector<SystemConfig>
    configs() const
    {
        std::vector<SystemConfig> out;
        for (const FigurePoint &point : points)
            out.push_back(point.cfg);
        return out;
    }

    std::string
    label(std::size_t i) const
    {
        return name + "/" + points[i].series +
               " P=" + std::to_string(points[i].cfg.numProcessors());
    }
};

struct Table2Cell
{
    int processors = 0;
    std::uint32_t line = 0;

    std::string
    label() const
    {
        return "table2 P=" + std::to_string(processors) +
               " cl=" + std::to_string(line);
    }
};

struct Slice
{
    std::vector<Figure> figures;
    std::vector<Table2Cell> cells;
};

/** Line sizes of the ring/mesh cross-over series (Fig. 14). */
const std::vector<std::uint32_t> kCrossoverLines = {16, 32, 64, 128};

/**
 * Largest system of the cross-over series. Every measured and paper
 * cross-over lies below it (16-36 nodes), so the first crossing, and
 * with it the accuracy figure, is the same as over the full 121-PM
 * axis; the larger points would only add cost.
 */
const int kCrossoverMaxNodes = 64;

void
addMeshSeries(Figure &fig, const std::string &series,
              std::uint32_t line, std::uint32_t buffer_flits, double r,
              std::uint64_t seed, int max_nodes)
{
    for (const int width : standardMeshWidths(max_nodes)) {
        if (regionRemoteCount(width * width, r) == 0)
            continue;
        SystemConfig cfg = SystemConfig::mesh(width, line, buffer_flits);
        cfg.workload.outstandingT = 4;
        cfg.workload.localityR = r;
        cfg.sim = figureSim(seed);
        fig.points.push_back({series, cfg});
    }
}

void
addRingLadder(Figure &fig, const std::string &series, std::uint32_t line,
              double r, std::uint64_t seed, int max_nodes)
{
    for (const std::string &topo : standardRingLadder(
             static_cast<int>(line))) {
        SystemConfig cfg = SystemConfig::ring(topo, line);
        cfg.workload.outstandingT = 4;
        cfg.workload.localityR = r;
        cfg.sim = figureSim(seed);
        if (cfg.numProcessors() > max_nodes ||
            regionRemoteCount(cfg.numProcessors(), r) == 0)
            continue;
        fig.points.push_back({series, cfg});
    }
}

/**
 * The slice of the paper's artifact set that the figures workload
 * submits, figure by figure. Figs. 12 (4-flit), 13 and the T=4 series
 * of 14 repeat one mesh point list, as the real artifact set does;
 * those and the Table 2 cells carry the accuracy numbers and run at
 * kPaperSeed. The small rings, the buffer variants and the locality
 * ladder take the workload seed.
 */
Slice
buildSlice(std::uint64_t seed)
{
    Slice slice;

    Figure fig06{"fig06", {}};
    for (const int nodes : {2, 4, 6, 8, 12, 16}) {
        SystemConfig cfg = SystemConfig::ring(std::to_string(nodes), 64);
        cfg.workload.outstandingT = 4;
        cfg.sim = figureSim(seed);
        fig06.points.push_back({"ring 64B", cfg});
    }
    slice.figures.push_back(fig06);

    Figure fig12{"fig12", {}, true};
    Figure fig13{"fig13", {}, true};
    Figure fig14{"fig14", {}, true};
    for (const std::uint32_t line : kCrossoverLines) {
        const std::string tag = std::to_string(line) + "B";
        // Figs. 12 and 13 repeat Fig. 14's mesh lists at every line
        // size, which puts the slice's distinct share of points (119 of
        // 175) at the real artifact set's (828 of 1226).
        addMeshSeries(fig12, "mesh 4-flit " + tag, line, 4, 1.0,
                      kPaperSeed, kCrossoverMaxNodes);
        addMeshSeries(fig13, "mesh 4-flit " + tag, line, 4, 1.0,
                      kPaperSeed, kCrossoverMaxNodes);
        addMeshSeries(fig14, "mesh " + tag, line, 4, 1.0, kPaperSeed,
                      kCrossoverMaxNodes);
        addRingLadder(fig14, "ring " + tag, line, 1.0, kPaperSeed,
                      kCrossoverMaxNodes);
    }
    slice.figures.push_back(fig12);
    slice.figures.push_back(fig13);
    slice.figures.push_back(fig14);

    Figure buffers{"fig12-buffers", {}};
    addMeshSeries(buffers, "mesh cl-sized 64B", 64, 0, 1.0, seed, 36);
    addMeshSeries(buffers, "mesh 1-flit 64B", 64, 1, 1.0, seed, 36);
    slice.figures.push_back(buffers);

    Figure fig17{"fig17", {}};
    for (const double r : {0.1, 0.2, 0.3}) {
        const std::string tag = " R=" + std::to_string(r).substr(0, 3);
        addMeshSeries(fig17, "mesh" + tag, 64, 4, r, seed, 64);
        addRingLadder(fig17, "ring" + tag, 64, r, seed, 64);
    }
    slice.figures.push_back(fig17);

    slice.cells = {{24, 64}, {36, 64}};
    return slice;
}

/** Table 2's workload and protocol (bench/bench_table2_topologies). */
SystemConfig
table2Base(std::uint32_t line)
{
    SystemConfig base;
    base.cacheLineBytes = line;
    base.workload.localityR = 1.0;
    base.workload.outstandingT = 4;
    base.sim.warmupCycles = 2500;
    base.sim.batchCycles = 2500;
    base.sim.numBatches = 4;
    base.sim.seed = kPaperSeed;
    return base;
}

double
nodeCycles(const SystemConfig &cfg)
{
    const SimConfig &sim = cfg.sim;
    return static_cast<double>(sim.warmupCycles +
                               sim.batchCycles * sim.numBatches) *
           cfg.numProcessors();
}

// ------------------------------------------------------------------
// Result collection

/** Set-ups timed, without running, before each repetition. */
const int kExtraSetups = 4;

struct Collector
{
    std::vector<std::string> errors;
    std::vector<std::string> reps;   //!< untraced repetitions
    std::vector<std::string> traced; //!< traced repetitions
    std::vector<std::string> checks; //!< structural checks
    std::vector<double> setupS;      //!< extra set-up samples
    /** Output labels whose runs do not depend on the workload seed,
     *  so the reference holds for them on every seed. */
    std::vector<std::string> seedFree;

    void
    check(const std::string &name, bool ok, const std::string &detail)
    {
        checks.push_back(JsonObject()
                             .str("name", name)
                             .raw("ok", ok ? "true" : "false")
                             .str("detail", detail)
                             .text());
    }
};

std::string
outputsJson(const std::vector<std::pair<std::string, SimOutputs>> &runs)
{
    JsonObject obj;
    for (const auto &[label, out] : runs)
        obj.raw(label, out.json());
    return obj.text();
}

bool
sameOutputs(const SimOutputs &a, const SimOutputs &b)
{
    return a.json() == b.json();
}

// ------------------------------------------------------------------
// Single-run workloads (ring-sat, mesh-local)

struct UntracedRun
{
    double setupS = 0.0;
    double wallS = 0.0;
    std::vector<double> chunkMs;
    SimOutputs out;
};

/**
 * The production run, stepped in blocks so each block can be timed:
 * System::step plus the measurement window runFixed opens at the
 * warmup cycle. Returns the System at its horizon in @a keep.
 */
UntracedRun
runUntraced(const SingleRun &spec, std::unique_ptr<System> *keep)
{
    UntracedRun run;
    const auto start = Clock::now();
    auto system = std::make_unique<System>(spec.cfg);
    run.setupS = secondsSince(start);

    const SimConfig &sim = spec.cfg.sim;
    const Cycle end = sim.warmupCycles + sim.batchCycles * sim.numBatches;
    UtilizationTracker &util = system->network().utilization();
    run.chunkMs.reserve(end / spec.block);
    while (system->now() < end) {
        if (system->now() == sim.warmupCycles)
            util.startMeasurement(system->now());
        const auto chunk = Clock::now();
        system->step(std::min(spec.block, end - system->now()));
        run.chunkMs.push_back(secondsSince(chunk) * 1e3);
    }
    util.stopMeasurement(end);
    run.wallS = secondsSince(start);
    run.out = outputsOf(*system, system->latencyHistogram());
    if (keep != nullptr)
        *keep = std::move(system);
    return run;
}

std::string
untracedJson(const UntracedRun &run, double node_cycles)
{
    return JsonObject()
        .num("setup_s", run.setupS)
        .num("wall_s", run.wallS)
        .num("node_cycles", node_cycles)
        .nums("chunk_ms", run.chunkMs)
        .nums("figure_s", {})
        .raw("outputs", outputsJson({{"run", run.out}}))
        .text();
}

/** Network-layer totals of the traced runs of one network kind. */
struct NetTotals
{
    double selfNs = 0.0;       //!< Network::tick minus deliveries
    double windowSelfNs = 0.0; //!< the same, measured window only
    double cycles = 0.0;
    double hops = 0.0;         //!< flit hops in the measured window
    double streamed = 0.0;     //!< fast-path flits, same window
    double waitCycles = 0.0;
    double escapes = 0.0;
};

/**
 * Per-layer totals over one or more traced runs, turned into the
 * benchmark's per-layer metrics by appendTo().
 */
struct LayerTotals
{
    NetTotals ring;
    NetTotals mesh;
    LayerSpans spans;
    double cycles = 0.0;
    double pmCycles = 0.0;
    double ticked = 0.0;
    double procTicks = 0.0;
    double memTicks = 0.0;
    double activeNodesSum = 0.0;
    double blocked = 0.0;
    double skipped = 0.0;

    void
    add(const SystemConfig &cfg, TracedSystem &traced,
        const std::vector<BlockSpan> &blocks)
    {
        LayerSpans all;
        LayerSpans window; // the measured (post-warmup) blocks
        for (const BlockSpan &block : blocks) {
            all.add(block.spans);
            if (block.begin >= cfg.sim.warmupCycles)
                window.add(block.spans);
        }
        spans.add(all);
        const std::vector<MetricSample> metrics =
            traced.metrics().snapshot();
        NetTotals &net =
            cfg.kind == NetworkKind::HierarchicalRing ? ring : mesh;
        const double now = static_cast<double>(traced.now());
        net.selfNs += static_cast<double>(all.net - all.deliver);
        net.windowSelfNs +=
            static_cast<double>(window.net - window.deliver);
        net.cycles += now;
        net.hops += static_cast<double>(
            measuredFlitHops(traced.network().utilization()));
        // Counts over the measured window, like the flit hops.
        const std::vector<MetricSample> &warm = traced.warmupMetrics();
        net.streamed += streamedFlits(metrics) - streamedFlits(warm);
        net.waitCycles += metricValue(metrics, "ring.wait_cycles") -
                          metricValue(warm, "ring.wait_cycles");
        net.escapes += metricValue(metrics, "ring.escapes") -
                       metricValue(warm, "ring.escapes");

        const auto &counts = traced.counts();
        cycles += now;
        pmCycles += now * cfg.numProcessors();
        ticked += static_cast<double>(counts.cyclesTicked);
        procTicks += static_cast<double>(counts.procTicks);
        memTicks += static_cast<double>(counts.memTicks);
        activeNodesSum += static_cast<double>(counts.activeNodesSum);
        blocked += static_cast<double>(traced.counters().blockedCycles);
        skipped += static_cast<double>(traced.skippedCycles());
    }

    /** Append the named per-layer metrics to @a out; @a traced_s is
     *  the traced wall time the spans' coverage is taken against. */
    void
    appendTo(JsonObject &out, double traced_s) const
    {
        const auto ratio = [](double num, double den) {
            return den > 0.0 ? num / den : 0.0;
        };
        for (const auto &[name, net] :
             {std::pair{std::string("ring"), &ring},
              std::pair{std::string("mesh"), &mesh}}) {
            out.num(name + ".tick.self_ns_per_cycle",
                    ratio(net->selfNs, net->cycles))
                .num(name + ".tick.ns_per_flit_hop",
                     ratio(net->windowSelfNs, net->hops))
                .num(name + ".flit_hops", net->hops);
        }
        const double spanned =
            nsToS(spans.proc + spans.mem + spans.net + spans.loop);
        out.num("ring.wait_cycles", ring.waitCycles)
            .num("ring.escapes", ring.escapes)
            .num("sim.active_nodes.mean", ratio(activeNodesSum, ticked))
            .num("sim.streamed_flit_frac",
                 ratio(ring.streamed + mesh.streamed,
                       ring.hops + mesh.hops))
            .num("workload.proc.self_ns_per_cycle",
                 ratio(static_cast<double>(spans.proc), cycles))
            .num("workload.proc.tick_frac", ratio(procTicks, pmCycles))
            .num("workload.mem.self_ns_per_cycle",
                 ratio(static_cast<double>(spans.mem), cycles))
            .num("workload.mem.active_mean", ratio(memTicks, ticked))
            .num("workload.deliver.ns_per_cycle",
                 ratio(static_cast<double>(spans.deliver), cycles))
            .num("workload.blocked_frac", ratio(blocked, pmCycles))
            .num("core.loop.self_ns_per_cycle",
                 ratio(static_cast<double>(spans.loop), cycles))
            .num("core.ff.skipped_frac", ratio(skipped, cycles))
            .num("trace.coverage_frac", ratio(spanned, traced_s));
    }
};

/**
 * Save the final state, restore it into a fresh System, run one more
 * block on both and compare; time the save, the restore and a
 * metrics-file write of the run. Returns the ckpt/obs layer numbers.
 */
std::string
checkpointLayer(const SingleRun &spec, System &system,
                const std::string &tmp_dir, Collector &col)
{
    const std::string path = tmp_dir + "/ring-sat.ckpt";
    auto start = Clock::now();
    system.saveCheckpoint(path);
    const double save_ms = secondsSince(start) * 1e3;

    System restored(spec.cfg);
    start = Clock::now();
    restored.restoreCheckpoint(path);
    const double restore_ms = secondsSince(start) * 1e3;

    std::uint64_t bytes = 0;
    if (FILE *file = std::fopen(path.c_str(), "rb")) {
        std::fseek(file, 0, SEEK_END);
        bytes = static_cast<std::uint64_t>(std::ftell(file));
        std::fclose(file);
    }

    system.step(spec.block);
    restored.step(spec.block);
    const SimOutputs a = outputsOf(system, system.latencyHistogram());
    const SimOutputs b = outputsOf(restored, restored.latencyHistogram());
    col.check("ckpt restore + one block == uninterrupted", sameOutputs(a, b),
              a.json() + " vs " + b.json());

    RunResult result;
    result.avgLatency = a.latMean;
    result.samples = a.samples;
    result.counters = a.counters;
    result.cycles = a.cycles;
    result.networkUtilization = a.netUtil;
    result.ringLevelUtilization = a.levelUtil;
    result.metrics = system.metrics().snapshot();
    start = Clock::now();
    writeMetricsFile(tmp_dir + "/ring-sat.metrics.json", "json",
                     makeManifest(spec.cfg, 1, 0.0,
                                  nodeCycles(spec.cfg)),
                     {metricPoint("ring-sat", result)});
    const double write_ms = secondsSince(start) * 1e3;

    return JsonObject()
        .num("ckpt.save_ms", save_ms)
        .num("ckpt.restore_ms", restore_ms)
        .num("ckpt.bytes", static_cast<double>(bytes))
        .num("obs.metrics_write_ms", write_ms)
        .text();
}

std::string
runSingleWorkload(const std::string &workload, std::uint64_t seed,
                  double seconds, bool trace, const std::string &tmp_dir,
                  Collector &col)
{
    const SingleRun spec = singleRun(workload, seed);
    const double node_cycles = nodeCycles(spec.cfg);

    std::string ckpt_layer;
    const auto start = Clock::now();
    do {
        // Extra set-up samples, spread over the run like the
        // repetitions, so setup_s is a median of many.
        for (int i = 0; i < kExtraSetups; ++i) {
            const auto setup_start = Clock::now();
            System system(spec.cfg);
            col.setupS.push_back(secondsSince(setup_start));
        }
        std::unique_ptr<System> last;
        const UntracedRun run =
            runUntraced(spec, trace && workload == "ring-sat" &&
                                      ckpt_layer.empty()
                                  ? &last
                                  : nullptr);
        col.reps.push_back(untracedJson(run, node_cycles));
        if (!trace)
            continue;

        const auto traced_start = Clock::now();
        TracedSystem traced(spec.cfg);
        std::vector<BlockSpan> blocks;
        traced.run(spec.block, blocks);
        const double wall_s = secondsSince(traced_start);
        LayerTotals totals;
        totals.add(spec.cfg, traced, blocks);
        JsonObject layers;
        totals.appendTo(layers, wall_s);
        std::vector<std::string> block_json;
        for (const BlockSpan &block : blocks) {
            const LayerSpans &sp = block.spans;
            block_json.push_back(
                "[" + std::to_string(block.begin) + "," +
                std::to_string(block.end) + "," +
                std::to_string(sp.proc) + "," + std::to_string(sp.mem) +
                "," + std::to_string(sp.net) + "," +
                std::to_string(sp.deliver) + "," +
                std::to_string(sp.loop) + "]");
        }
        col.traced.push_back(
            JsonObject()
                .num("wall_s", wall_s)
                .raw("layers", layers.text())
                .raw("outputs",
                     outputsJson({{"run", outputsOf(traced,
                                                    traced.histogram())}}))
                .raw("blocks", jsonArray(block_json))
                .text());

        if (last)
            ckpt_layer = checkpointLayer(spec, *last, tmp_dir, col);
    } while (secondsSince(start) < seconds);

    if (trace) {
        // The block-stepped protocol above is the production one.
        const SimOutputs ref = outputsOf(runSystem(spec.cfg));
        UntracedRun again = runUntraced(spec, nullptr);
        col.check("System::run == block-stepped run",
                  sameOutputs(ref, again.out),
                  ref.json() + " vs " + again.out.json());
    }
    return ckpt_layer;
}

// ------------------------------------------------------------------
// The figures workload

/** User plus system CPU time of this process, all threads. */
double
processCpuS()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

struct FigurePass
{
    double setupS = 0.0;
    double wallS = 0.0;
    double nodeCycles = 0.0;
    std::vector<double> figureS;  //!< one per figure sweep
    double sweepCpuS = 0.0;       //!< process CPU time in the sweeps
    std::vector<double> cellS;    //!< one per Table 2 cell
    std::vector<std::pair<std::string, SimOutputs>> outputs;
    std::vector<std::vector<RunResult>> results; //!< per figure
    std::vector<TopologyCandidate> winners;      //!< per Table 2 cell
};

FigurePass
runFigurePass(std::uint64_t seed, unsigned jobs)
{
    FigurePass pass;
    const auto start = Clock::now();
    SweepOptions opts;
    opts.jobs = jobs;
    SweepRunner runner(opts);
    const Slice slice = buildSlice(seed);
    pass.setupS = secondsSince(start);

    for (const Figure &fig : slice.figures) {
        const auto fig_start = Clock::now();
        const double cpu_start = processCpuS();
        std::vector<RunResult> results = runner.run(fig.configs());
        pass.figureS.push_back(secondsSince(fig_start));
        pass.sweepCpuS += processCpuS() - cpu_start;
        for (std::size_t i = 0; i < results.size(); ++i) {
            pass.outputs.push_back({fig.label(i), outputsOf(results[i])});
            pass.nodeCycles += nodeCycles(fig.points[i].cfg);
        }
        pass.results.push_back(std::move(results));
    }
    for (const Table2Cell &cell : slice.cells) {
        const auto cell_start = Clock::now();
        const SystemConfig base = table2Base(cell.line);
        const auto ranked = rankHierarchies(cell.processors, base);
        pass.cellS.push_back(secondsSince(cell_start));
        pass.winners.push_back(ranked.front());
        pass.nodeCycles += nodeCycles(base) / base.numProcessors() *
                           cell.processors *
                           static_cast<double>(ranked.size());
    }
    pass.wallS = secondsSince(start);
    return pass;
}

/** Distinct configKey share of @a points (1 when no point repeats). */
double
distinctShare(const std::vector<SystemConfig> &points)
{
    std::set<std::string> keys;
    for (const SystemConfig &cfg : points)
        keys.insert(configKey(cfg));
    return points.empty() ? 1.0
                          : static_cast<double>(keys.size()) / points.size();
}

/**
 * The slice's and the real artifact set's (Figs. 6-21) share of
 * distinct points, which a point cache would turn into its saving.
 */
void
repetitionShares(const Slice &slice, JsonObject &out)
{
    std::vector<SystemConfig> submitted;
    for (const Figure &fig : slice.figures) {
        for (const FigurePoint &point : fig.points)
            submitted.push_back(point.cfg);
    }
    std::vector<SystemConfig> artifact;
    for (const auto &[name, points] : hrbench::artifactFigures())
        artifact.insert(artifact.end(), points.begin(), points.end());
    out.num("slice_distinct_frac", distinctShare(submitted))
        .integer("artifact_points", artifact.size())
        .num("artifact_distinct_frac", distinctShare(artifact));
}

/** The model's standing error against the paper, from one pass. */
std::string
paperAccuracy(const Slice &slice, const FigurePass &pass)
{
    std::size_t at = 0;
    while (slice.figures[at].name != "fig14")
        ++at;
    const Figure &fig14 = slice.figures[at];
    const std::vector<RunResult> &results = pass.results[at];
    double err_sum = 0.0;
    std::vector<double> crossovers;
    const std::map<std::uint32_t, double> paper = {
        {16, 16.0}, {32, 25.0}, {64, 27.0}, {128, 36.0}};
    for (const std::uint32_t line : kCrossoverLines) {
        std::vector<std::pair<double, double>> ring;
        std::vector<std::pair<double, double>> mesh;
        const std::string tag = std::to_string(line) + "B";
        for (std::size_t i = 0; i < fig14.points.size(); ++i) {
            const auto sample = std::make_pair(
                static_cast<double>(fig14.points[i].cfg.numProcessors()),
                results[i].avgLatency);
            if (fig14.points[i].series == "ring " + tag)
                ring.push_back(sample);
            else if (fig14.points[i].series == "mesh " + tag)
                mesh.push_back(sample);
        }
        const auto x = crossoverPoint(ring, mesh);
        // No cross-over on the axis counts as one at its largest size.
        const double measured = x ? *x : kCrossoverMaxNodes;
        crossovers.push_back(measured);
        err_sum += std::abs(measured - paper.at(line));
    }
    int matched = 0;
    for (std::size_t i = 0; i < slice.cells.size(); ++i) {
        const auto expected = paperTable2Topology(
            slice.cells[i].processors, static_cast<int>(slice.cells[i].line));
        matched += expected && *expected == pass.winners[i].topology;
    }
    JsonObject out;
    out.num("paper.table2_match",
            static_cast<double>(matched) / slice.cells.size())
        .num("paper.crossover_err_nodes", err_sum / kCrossoverLines.size())
        .nums("crossover_nodes", crossovers);
    repetitionShares(slice, out);
    return out.text();
}

std::string
figurePassJson(const Slice &slice, const FigurePass &pass)
{
    std::vector<double> chunks = pass.figureS;
    chunks.insert(chunks.end(), pass.cellS.begin(), pass.cellS.end());
    for (double &value : chunks)
        value *= 1e3;
    JsonObject outputs;
    for (const auto &[label, out] : pass.outputs)
        outputs.raw(label, out.json());
    for (std::size_t i = 0; i < pass.winners.size(); ++i) {
        outputs.raw(slice.cells[i].label(),
                    JsonObject()
                        .str("winner", pass.winners[i].topology)
                        .num("latency", pass.winners[i].latency)
                        .text());
    }
    return JsonObject()
        .num("setup_s", pass.setupS)
        .num("wall_s", pass.wallS)
        .num("node_cycles", pass.nodeCycles)
        .nums("chunk_ms", chunks)
        .nums("figure_s", pass.figureS)
        .nums("cell_s", pass.cellS)
        .raw("outputs", outputs.text())
        .text();
}

/**
 * Traced figures pass: every point serially through TracedSystem
 * (timed per point), and each Table 2 cell ranked from traced
 * candidates. The untraced pass it is compared with ran the points in
 * parallel through SweepRunner and the cells through rankHierarchies;
 * the cells run serially both ways, so their two times give the
 * tracing overhead.
 */
std::string
tracedFigures(std::uint64_t seed, unsigned jobs, const FigurePass &untraced,
              Collector &col)
{
    const auto start = Clock::now();
    const Slice slice = buildSlice(seed);
    LayerTotals totals;
    std::vector<double> point_ms;
    std::set<std::string> distinct;
    std::size_t points = 0;
    for (const Figure &fig : slice.figures) {
        for (std::size_t i = 0; i < fig.points.size(); ++i) {
            distinct.insert(configKey(fig.points[i].cfg));
            const auto point_start = Clock::now();
            TracedSystem traced(fig.points[i].cfg);
            std::vector<BlockSpan> blocks;
            traced.run(1000, blocks);
            point_ms.push_back(secondsSince(point_start) * 1e3);
            totals.add(fig.points[i].cfg, traced, blocks);
            const SimOutputs out = outputsOf(traced, traced.histogram());
            const auto &[label, expected] = untraced.outputs.at(points++);
            col.check("traced == untraced: " + label,
                      sameOutputs(out, expected),
                      out.json() + " vs " + expected.json());
        }
    }

    double topo_traced_s = 0.0;
    for (std::size_t c = 0; c < slice.cells.size(); ++c) {
        const Table2Cell &cell = slice.cells[c];
        const auto cell_start = Clock::now();
        std::string best;
        double best_latency = 0.0;
        for (const std::string &topo :
             enumerateHierarchies(cell.processors)) {
            SystemConfig cfg = table2Base(cell.line);
            cfg.ringTopo = RingTopology::parse(topo);
            TracedSystem traced(cfg);
            std::vector<BlockSpan> blocks;
            traced.run(500, blocks);
            totals.add(cfg, traced, blocks);
            const double latency = traced.latency().mean();
            if (best.empty() || latency < best_latency) {
                best = topo;
                best_latency = latency;
            }
        }
        topo_traced_s += secondsSince(cell_start);
        const std::string &expected = untraced.winners.at(c).topology;
        col.check("traced == untraced: " + cell.label(), best == expected,
                  best + " vs " + expected);
    }
    const double wall = secondsSince(start);

    double sweep_s = 0.0;
    for (const double s : untraced.figureS)
        sweep_s += s;
    double topo_s = 0.0;
    for (const double s : untraced.cellS)
        topo_s += s;

    JsonObject layers;
    totals.appendTo(layers, wall);
    layers.num("core.sweep.s", sweep_s)
        .num("core.sweep.points", static_cast<double>(points))
        .num("core.sweep.distinct_frac",
             static_cast<double>(distinct.size()) / points)
        .nums("point_ms", point_ms)
        .num("core.sweep.parallel_eff",
             untraced.sweepCpuS / (jobs * sweep_s))
        .num("core.topo.s", topo_s)
        .num("core.topo.share", topo_s / untraced.wallS)
        .num("trace.overhead_frac", topo_traced_s / topo_s - 1.0);
    return JsonObject().num("wall_s", wall).raw("layers", layers.text()).text();
}

std::string
runFiguresWorkload(std::uint64_t seed, double seconds, bool trace,
                   unsigned jobs, Collector &col)
{
    const Slice slice = buildSlice(seed);
    for (const Figure &fig : slice.figures) {
        for (std::size_t i = 0; fig.paperSeed && i < fig.points.size(); ++i)
            col.seedFree.push_back(quoted(fig.label(i)));
    }
    for (const Table2Cell &cell : slice.cells)
        col.seedFree.push_back(quoted(cell.label()));

    // The traced mode compares with the faster of two untraced passes
    // (the first pass of a process also pays for warming up).
    const auto start = Clock::now();
    FigurePass best;
    FigurePass last;
    do {
        for (int i = 0; i < kExtraSetups; ++i) {
            const auto setup_start = Clock::now();
            SweepOptions opts;
            opts.jobs = jobs;
            SweepRunner runner(opts);
            const Slice timed = buildSlice(seed);
            col.setupS.push_back(secondsSince(setup_start));
        }
        last = runFigurePass(seed, jobs);
        col.reps.push_back(figurePassJson(slice, last));
        if (best.results.empty() || last.wallS < best.wallS)
            best = last;
    } while (trace ? col.reps.size() < 2 : secondsSince(start) < seconds);

    // jobs = 1 == jobs = N on one figure (the small rings).
    SweepOptions serial_opts;
    serial_opts.jobs = 1;
    SweepRunner serial(serial_opts);
    const std::vector<RunResult> serial_results =
        serial.run(slice.figures[0].configs());
    bool same = true;
    for (std::size_t i = 0; i < serial_results.size(); ++i)
        same = same && sameOutputs(outputsOf(serial_results[i]),
                                   outputsOf(last.results[0][i]));
    col.check("jobs=1 == jobs=N: " + slice.figures[0].name, same, "");

    if (trace)
        col.traced.push_back(tracedFigures(seed, jobs, best, col));
    return paperAccuracy(slice, last);
}

// ------------------------------------------------------------------
// Provenance and guards

const char *const kOracleSwitches[] = {
    "HRSIM_FORCE_FULL_SCAN", "HRSIM_NO_FASTPATH", "HRSIM_NO_COLUMNAR",
    "HRSIM_TICK_THREADS"};

/** Empty when a result may be produced; otherwise why not. */
std::string
refusal()
{
    if (std::string(buildType()) != "Release")
        return std::string("library built as '") + buildType() +
               "', not Release";
    for (const char *name : kOracleSwitches) {
        const char *value = std::getenv(name);
        if (value != nullptr && value[0] != '\0')
            return std::string(name) + " is set; the benchmark "
                                        "measures the production engine";
    }
    return "";
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "hrbench_measure: " << why
              << "\nusage: hrbench_measure --workload "
                 "ring-sat|mesh-local|figures --seed N --seconds S "
                 "--trace 0|1 --tmp DIR\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2) {
        if (std::strncmp(argv[i], "--", 2) != 0)
            usage(std::string("unexpected argument ") + argv[i]);
        args[argv[i] + 2] = argv[i + 1];
    }
    if (argc % 2 == 0)
        usage("every option takes one value");
    for (const char *key : {"workload", "seed", "seconds", "trace", "tmp"}) {
        if (!args.count(key))
            usage(std::string("missing --") + key);
    }
    const std::string workload = args["workload"];
    if (workload != "ring-sat" && workload != "mesh-local" &&
        workload != "figures")
        usage("unknown workload '" + workload + "'");
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    // The figures workload's sweep workers: one per CPU.
    const unsigned jobs = std::max(1u, std::thread::hardware_concurrency());
    try {
        seed = std::stoull(args["seed"]);
        seconds = std::stod(args["seconds"]);
        trace = std::stoi(args["trace"]) != 0;
    } catch (const std::exception &) {
        usage("malformed numeric option");
    }

    const std::string refused = refusal();
    if (!refused.empty()) {
        std::cerr << "hrbench_measure: refusing to measure: " << refused
                  << "\n";
        return 3;
    }

    Collector col;
    std::string extra;
    try {
        if (workload == "figures")
            extra = runFiguresWorkload(seed, seconds, trace, jobs, col);
        else
            extra = runSingleWorkload(workload, seed, seconds, trace,
                                      args["tmp"], col);
    } catch (const std::exception &err) {
        col.errors.push_back(quoted(err.what()));
    }

    JsonObject provenance;
    provenance.integer("num_cpus", std::thread::hardware_concurrency())
        .integer("jobs", workload == "figures" ? jobs : 1)
        .str("build_type", buildType())
        .str("cxx_flags", buildCxxFlags())
        .str("git_describe", buildGitDescribe())
        .raw("flit_trace", buildHasFlitTrace() ? "true" : "false");

    std::cout << JsonObject()
                     .str("workload", workload)
                     .integer("seed", seed)
                     .raw("trace", trace ? "true" : "false")
                     .raw("provenance", provenance.text())
                     .nums("setup_s", col.setupS)
                     .raw("reps", jsonArray(col.reps))
                     .raw("traced", jsonArray(col.traced))
                     .raw("checks", jsonArray(col.checks))
                     .raw("seed_free", jsonArray(col.seedFree))
                     .raw("errors", jsonArray(col.errors))
                     .raw("extra", extra.empty() ? "{}" : extra)
                     .num("peak_rss_mb", peakRssMb())
                     .text()
              << std::endl;
    return 0;
}
