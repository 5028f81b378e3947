#include "obs/metric_sink.hh"

#include <fstream>
#include <iostream>
#include <ostream>

#include "common/log.hh"
#include "obs/json.hh"

namespace hrsim
{

namespace
{

void
writeSampleJson(std::ostream &out, const MetricSample &sample)
{
    out << '"' << jsonEscape(sample.name) << "\": ";
    if (sample.kind == MetricKind::Counter)
        out << sample.count;
    else
        out << jsonNumber(sample.value);
}

void
writeMetricsObject(std::ostream &out, const char *indent,
                   const std::vector<MetricSample> &metrics)
{
    out << "{";
    bool first = true;
    for (const MetricSample &sample : metrics) {
        out << (first ? "\n" : ",\n") << indent << "  ";
        writeSampleJson(out, sample);
        first = false;
    }
    if (!first)
        out << "\n" << indent;
    out << "}";
}

void
writeManifestJson(std::ostream &out, const RunManifest &manifest)
{
    out << "  \"manifest\": {\n";
    out << "    \"git\": \"" << jsonEscape(manifest.gitDescribe)
        << "\",\n";
    out << "    \"build_type\": \"" << jsonEscape(manifest.buildType)
        << "\",\n";
    out << "    \"build_flags\": \"" << jsonEscape(manifest.buildFlags)
        << "\",\n";
    out << "    \"config\": \"" << jsonEscape(manifest.config)
        << "\",\n";
    out << "    \"config_hash\": \"" << manifest.configHash << "\",\n";
    out << "    \"seed\": " << manifest.seed << ",\n";
    out << "    \"jobs\": " << manifest.jobs << ",\n";
    out << "    \"fast_path\": "
        << (manifest.fastPath ? "true" : "false") << ",\n";
    out << "    \"columnar\": "
        << (manifest.columnar ? "true" : "false") << ",\n";
    if (!manifest.restoredFrom.empty()) {
        out << "    \"restored_from\": \""
            << jsonEscape(manifest.restoredFrom) << "\",\n";
    }
    out << "    \"wall_seconds\": " << jsonNumber(manifest.wallSeconds)
        << ",\n";
    out << "    \"node_cycles_per_sec\": "
        << jsonNumber(manifest.nodeCyclesPerSec) << "\n";
    out << "  }";
}

} // namespace

MetricPoint
metricPoint(const std::string &label, const RunResult &result)
{
    MetricPoint point;
    point.label = label;
    point.endCycle = result.cycles;
    if (result.stopReason != StopReason::FixedLength)
        point.stopReason = toString(result.stopReason);
    point.metrics = result.metrics;
    point.snapshots = result.snapshots;
    return point;
}

void
writeMetricsJson(std::ostream &out, const RunManifest &manifest,
                 const std::vector<MetricPoint> &points)
{
    out << "{\n";
    out << "  \"schema\": \"" << jsonEscape(manifest.schema)
        << "\",\n";
    writeManifestJson(out, manifest);
    out << ",\n  \"points\": [";
    for (std::size_t p = 0; p < points.size(); ++p) {
        const MetricPoint &point = points[p];
        out << (p == 0 ? "\n" : ",\n");
        out << "    {\n";
        out << "      \"label\": \"" << jsonEscape(point.label)
            << "\",\n";
        out << "      \"end_cycle\": " << point.endCycle << ",\n";
        if (!point.stopReason.empty()) {
            out << "      \"stop_reason\": \""
                << jsonEscape(point.stopReason) << "\",\n";
        }
        out << "      \"metrics\": ";
        writeMetricsObject(out, "      ", point.metrics);
        if (!point.snapshots.empty()) {
            out << ",\n      \"snapshots\": [";
            for (std::size_t s = 0; s < point.snapshots.size(); ++s) {
                const MetricSnapshot &snap = point.snapshots[s];
                out << (s == 0 ? "\n" : ",\n");
                out << "        { \"cycle\": " << snap.cycle
                    << ", \"metrics\": ";
                writeMetricsObject(out, "          ", snap.metrics);
                out << " }";
            }
            out << "\n      ]";
        }
        out << "\n    }";
    }
    if (!points.empty())
        out << "\n  ";
    out << "]\n}\n";
}

namespace
{

/** CSV-quote a field when it contains delimiters. */
std::string
csvField(const std::string &text)
{
    if (text.find_first_of(",\"\n") == std::string::npos)
        return text;
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"')
            out += "\"\"";
        else
            out.push_back(c);
    }
    out += "\"";
    return out;
}

void
writeCsvRows(std::ostream &out, const std::string &label, Cycle cycle,
             const std::vector<MetricSample> &metrics)
{
    for (const MetricSample &sample : metrics) {
        out << csvField(label) << ',' << cycle << ',' << sample.name
            << ',';
        if (sample.kind == MetricKind::Counter)
            out << "counter," << sample.count;
        else
            out << "gauge," << jsonNumber(sample.value);
        out << '\n';
    }
}

} // namespace

void
writeMetricsCsv(std::ostream &out, const RunManifest &manifest,
                const std::vector<MetricPoint> &points)
{
    out << "# schema=" << manifest.schema << '\n';
    out << "# git=" << manifest.gitDescribe << '\n';
    out << "# build_type=" << manifest.buildType << '\n';
    out << "# build_flags=" << manifest.buildFlags << '\n';
    out << "# config=" << manifest.config << '\n';
    out << "# config_hash=" << manifest.configHash << '\n';
    out << "# seed=" << manifest.seed << '\n';
    out << "# jobs=" << manifest.jobs << '\n';
    out << "# fast_path=" << (manifest.fastPath ? 1 : 0) << '\n';
    out << "# columnar=" << (manifest.columnar ? 1 : 0) << '\n';
    if (!manifest.restoredFrom.empty())
        out << "# restored_from=" << manifest.restoredFrom << '\n';
    out << "# wall_seconds=" << jsonNumber(manifest.wallSeconds)
        << '\n';
    out << "# node_cycles_per_sec="
        << jsonNumber(manifest.nodeCyclesPerSec) << '\n';
    out << "label,cycle,metric,kind,value\n";
    for (const MetricPoint &point : points) {
        for (const MetricSnapshot &snap : point.snapshots)
            writeCsvRows(out, point.label, snap.cycle, snap.metrics);
        writeCsvRows(out, point.label, point.endCycle, point.metrics);
    }
}

void
writeMetricsFile(const std::string &path, const std::string &format,
                 const RunManifest &manifest,
                 const std::vector<MetricPoint> &points)
{
    const bool json = format == "json";
    if (!json && format != "csv")
        fatal("metrics format must be json or csv, got: " + format);

    const auto write = [&](std::ostream &out) {
        if (json)
            writeMetricsJson(out, manifest, points);
        else
            writeMetricsCsv(out, manifest, points);
    };

    if (path == "-") {
        write(std::cout);
        return;
    }
    std::ofstream out(path);
    if (!out)
        fatal("cannot open metrics output file: " + path);
    write(out);
    if (!out)
        fatal("failed writing metrics output file: " + path);
}

} // namespace hrsim
