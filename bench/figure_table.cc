#include "figure_table.hh"

#include <utility>

#include "bench_common.hh"
#include "core/analysis.hh"
#include "workload/region.hh"

namespace hrsim::bench
{

namespace
{

const std::uint32_t kLines[] = {16, 32, 64, 128};

std::string
bytes(std::uint32_t line)
{
    return std::to_string(line) + "B";
}

/** "0.2" for R = 0.2, as titles and series names print it. */
std::string
rTag(double r)
{
    return std::to_string(r).substr(0, 3);
}

/** Paper's maximum single-ring population per cache-line size. */
std::string
localRing(std::uint32_t line)
{
    return line == 16 ? "12" : line == 32 ? "8" : line == 64 ? "6" : "4";
}

Panel
panel(std::string title, Projection y = Projection::Latency)
{
    return Panel{.plots = {{std::move(title), y}}};
}

/**
 * Every Table 2 topology at @a line, skipping points whose access
 * region has no remote PM (e.g. R = 0.1 on a 4-node system).
 */
Series
ringLadder(std::string name, std::uint32_t line, int t, double r,
           std::uint32_t global_speed = 1)
{
    Series series{std::move(name), {}};
    for (const std::string &topo :
         standardRingLadder(static_cast<int>(line))) {
        SystemConfig cfg = ringConfig(topo, line, t, r, global_speed);
        if (regionRemoteCount(cfg.numProcessors(), r) != 0)
            series.points.push_back(cfg);
    }
    return series;
}

/** The square meshes up to 121 PMs, with ringLadder()'s filter. */
Series
meshSweep(std::string name, std::uint32_t line,
          std::uint32_t buffer_flits, int t, double r)
{
    Series series{std::move(name), {}};
    for (const int width : standardMeshWidths(121)) {
        SystemConfig cfg = meshConfig(width, line, buffer_flits, t, r);
        if (regionRemoteCount(cfg.numProcessors(), r) != 0)
            series.points.push_back(cfg);
    }
    return series;
}

/**
 * k = 2, 3, .. copies of ring @a inner under a new global ring clocked
 * at @a speed, up to @a max_pms; with @a alone, @a inner first.
 */
Series
stacked(std::string name, std::uint32_t line, const std::string &inner,
        int max_pms, std::uint32_t speed, bool alone)
{
    const SystemConfig base = ringConfig(inner, line, 4, 1.0);
    Series series{std::move(name), {}};
    if (alone)
        series.points.push_back(base);
    for (int k = 2; k * base.numProcessors() <= max_pms; ++k) {
        series.points.push_back(ringConfig(
            std::to_string(k) + ":" + inner, line, 4, 1.0, speed));
    }
    return series;
}

/** Add series "Mesh<tag>" and "Ring<tag>" and their cross-over. */
void
addPair(Panel &panel, const std::string &tag, std::uint32_t line,
        std::uint32_t buffer_flits, int t, double r,
        std::uint32_t global_speed = 1)
{
    panel.series.push_back(
        meshSweep("Mesh" + tag, line, buffer_flits, t, r));
    panel.series.push_back(
        ringLadder("Ring" + tag, line, t, r, global_speed));
    panel.crossovers.push_back({"Mesh" + tag, "Ring" + tag});
}

/**
 * Rings vs meshes with @a buffer_flits at T = 1, 2, 4 (Figs. 14-16)
 * or, with @a locality, at R = 0.1, 0.2, 0.3 and T = 4 (Figs. 17-18).
 */
Panel
compare(std::string title, std::uint32_t line, std::uint32_t buffer_flits,
        bool locality)
{
    Panel p = panel(std::move(title));
    const double rs[] = {0.1, 0.2, 0.3};
    for (int i = 0; i < 3; ++i) {
        if (locality)
            addPair(p, " R=" + rTag(rs[i]), line, buffer_flits, 4, rs[i]);
        else
            addPair(p, " T=" + std::to_string(1 << i), line, buffer_flits,
                    1 << i, 1.0);
    }
    return p;
}

/** One series per (name, value) of model knob @a knob over @a base. */
template <typename T>
Panel
knobPanel(std::string title, const Series &base, T SystemConfig::*knob,
          std::vector<std::pair<std::string, T>> values)
{
    Panel p = panel(std::move(title));
    for (const auto &[name, value] : values) {
        Series series{name, base.points};
        for (SystemConfig &cfg : series.points)
            cfg.*knob = value;
        p.series.push_back(std::move(series));
    }
    return p;
}

std::vector<Figure>
buildTable()
{
    std::vector<Panel> fig06, fig11, fig12, fig14, fig17, slotted;

    for (const std::uint32_t line : kLines) {
        Panel &p = fig06.emplace_back(panel("Figure 6: single rings, " +
                                            bytes(line) +
                                            " lines (R=1.0, C=0.04)"));
        for (const int t : {1, 2, 4}) {
            Series &series =
                p.series.emplace_back(Series{"T=" + std::to_string(t), {}});
            for (const int nodes : {2, 4, 6, 8, 12, 16, 24, 32, 48, 64})
                series.points.push_back(
                    ringConfig(std::to_string(nodes), line, t, 1.0));
        }
    }

    Panel fig07 = panel("Figure 7: 2-level ring hierarchies "
                        "(R=1.0, C=0.04, T=4)");
    Panel fig08{.plots = {{"Figure 8a: global ring utilization, 2-level "
                           "hierarchies (R=1.0, C=0.04, T=4)",
                           Projection::GlobalRingUtil},
                          {"Figure 8b: local ring utilization, 2-level "
                           "hierarchies (R=1.0, C=0.04, T=4)",
                           Projection::LocalRingUtil}}};
    Panel fig09 = panel("Figure 9: 3-level ring hierarchies "
                        "(R=1.0, C=0.04, T=4)");
    Panel fig10 = panel("Figure 10: global ring utilization, 3-level "
                        "hierarchies (R=1.0, C=0.04, T=4)",
                        Projection::GlobalRingUtil);
    for (const std::uint32_t line : kLines) {
        const std::string name = bytes(line), m = localRing(line);
        fig07.series.push_back(stacked(name, line, m, 64, 1, true));
        fig08.series.push_back(stacked(name, line, m, 64, 1, false));
        fig09.series.push_back(stacked(name, line, "3:" + m, 130, 1, true));
        fig10.series.push_back(stacked(name, line, "3:" + m, 130, 1, false));
    }

    const std::pair<const char *, std::vector<std::string>> depths[] = {
        {"1-level", {"4", "8", "12", "16", "24", "32"}},
        {"2-level", {"2:8", "3:8", "4:8", "5:8", "6:8", "7:8"}},
        {"3-level", {"2:3:8", "3:3:8", "4:3:8", "5:3:8"}},
        {"4-level", {"2:2:2:6", "2:2:3:6", "2:3:3:6", "3:3:3:4"}},
    };
    for (const double r : {1.0, 0.2}) {
        Panel &p = fig11.emplace_back(
            panel(std::string("Figure 11") + (r == 1.0 ? "a" : "b") +
                  ": hierarchy depth, 32B lines (R=" + rTag(r) +
                  ", C=0.04, T=2)"));
        for (const auto &[name, topologies] : depths) {
            Series &series = p.series.emplace_back(Series{name, {}});
            for (const std::string &topo : topologies)
                series.points.push_back(ringConfig(topo, 32, 2, r));
        }
    }

    const std::pair<std::uint32_t, const char *> buffers[] = {
        {0, "cl-sized"}, {4, "4-flit"}, {1, "1-flit"}};
    for (const auto &[flits, label] : buffers) {
        Panel &p = fig12.emplace_back(
            panel("Figure 12: 2D meshes, " + std::string(label) +
                  " buffers (R=1.0, C=0.04, T=4)"));
        for (const std::uint32_t line : kLines)
            p.series.push_back(meshSweep(bytes(line), line, flits, 4, 1.0));
    }
    Panel fig13 = panel("Figure 13: mesh network utilization, 4-flit "
                        "buffers (R=1.0, C=0.04, T=4)",
                        Projection::NetworkUtil);
    for (const std::uint32_t line : kLines)
        fig13.series.push_back(meshSweep(bytes(line), line, 4, 4, 1.0));

    for (const std::uint32_t line : kLines) {
        const std::string lines = bytes(line) + " lines";
        fig14.push_back(compare("Figure 14: rings vs meshes (4-flit "
                                "buffers), " + lines + " (R=1.0, C=0.04)",
                                line, 4, false));
        fig17.push_back(compare("Figure 17: locality, " + lines +
                                ", 4-flit mesh buffers (C=0.04, T=4)",
                                line, 4, true));
        fig14.back().blankLineAfter = fig17.back().blankLineAfter = true;
    }

    Panel fig19 = panel("Figure 19: 3-level rings, normal vs "
                        "double-speed global ring (R=1.0, C=0.04, T=4)");
    Panel fig21 = panel("Figure 21: meshes vs double-speed-global rings "
                        "(R=1.0, C=0.04, T=4)");
    for (const std::uint32_t line : {32u, 64u, 128u}) {
        for (const std::uint32_t speed : {1u, 2u}) {
            fig19.series.push_back(stacked(
                bytes(line) + (speed == 2 ? " double" : " normal"), line,
                "3:" + localRing(line), 130, speed, false));
        }
        addPair(fig21, " cl=" + bytes(line), line, 4, 4, 1.0, 2);
    }
    Panel fig20 = panel("Figure 20: global ring utilization, normal vs "
                        "double speed (R=1.0, C=0.04, T=4)",
                        Projection::GlobalRingUtil);
    fig20.series = fig19.series;

    Panel speeds{.plots = {{"Extension: global-ring speed sweep, 64B "
                            "lines (R=1.0, C=0.04, T=4)"},
                           {"Extension: global-ring utilization under "
                            "the speed sweep",
                            Projection::GlobalRingUtil}}};
    for (const std::uint32_t speed : {1u, 2u, 3u, 4u}) {
        speeds.series.push_back(stacked(std::to_string(speed) +
                                            "x global",
                                        64, "3:6", 130, speed, false));
    }
    for (const std::uint32_t line : {32u, 64u}) {
        slotted.push_back(knobPanel<bool>(
            "Extension: wormhole vs slotted switching, " + bytes(line) +
                " lines (R=1.0, C=0.04, T=4)",
            ringLadder("", line, 4, 1.0), &SystemConfig::ringSlotted,
            {{"wormhole", false}, {"slotted", true}}));
        slotted.back().crossovers.push_back({"slotted", "wormhole"});
    }

    return {
        {"fig06", fig06,
         "paper check: sustainable single-ring sizes ~12/8/6/4 nodes "
         "for 16/32/64/128B lines"},
        {"fig07", {fig07},
         "paper check: slope increases at 2 local rings and again past "
         "3 local rings (bisection limit)"},
        {"fig08", {fig08},
         "paper check: global ring nears full utilization at 3 local "
         "rings for every cache-line size"},
        {"fig09", {fig09},
         "paper check: ~108/72/54/36 sustainable nodes for "
         "16/32/64/128B lines (3 second-level rings)"},
        {"fig10", {fig10},
         "paper check: global ring saturates past 3 second-level rings"},
        {"fig11", fig11,
         "paper check: each extra level shifts the latency knee right; "
         "the benefit is larger with locality"},
        {"fig12", fig12,
         "paper check: moderate latency growth with size; 1-flit "
         "buffers cost ~3x vs cl-sized at 64 PMs (128B lines)"},
        {"fig13", {fig13},
         "paper check: utilization peaks at small systems and decays "
         "for larger ones"},
        {"fig14", fig14,
         "paper check: cross-overs ~16/25/27/36 nodes for "
         "16/32/64/128B lines (T >= 2)"},
        {"fig15",
         {compare("Figure 15: rings vs meshes (cl-sized buffers), "
                  "128B lines (R=1.0, C=0.04)",
                  128, 0, false)},
         "paper check: cross-overs between 16 and 30 nodes depending "
         "on T"},
        {"fig16",
         {compare("Figure 16: rings vs meshes (1-flit buffers), "
                  "128B lines (R=1.0, C=0.04)",
                  128, 1, false)},
         "paper check: no cross-over below 121 nodes (rings always win "
         "against 1-flit meshes)"},
        {"fig17", fig17,
         "paper check: rings win to ~121 PMs at R<=0.3 for 32B+ lines; "
         "advantage larger at R=0.2 than R=0.1"},
        {"fig18",
         {compare("Figure 18: locality, 128B lines, cl-sized mesh "
                  "buffers (C=0.04, T=4)",
                  128, 0, true)},
         "paper check: cross-over at 45+ processors for R <= 0.3"},
        {"fig19", {fig19},
         "paper check: double-speed global rings sustain ~5 "
         "second-level rings (vs 3 at normal speed)"},
        {"fig20", {fig20},
         "paper check: double-speed utilization rises more slowly and "
         "more linearly"},
        {"fig21", {fig21},
         "paper check: 128B rings beat meshes by 10-20% at all sizes; "
         "32/64B cross-overs unchanged"},
        {"abl_bypass",
         {knobPanel<bool>("Ablation A1: ring-buffer bypass on/off, 32B "
                          "lines (R=1.0, C=0.04, T=4)",
                          ringLadder("", 32, 4, 1.0),
                          &SystemConfig::ringBypass,
                          {{"bypass", true}, {"no bypass", false}})},
         "expectation: disabling the bypass adds roughly one cycle per "
         "transit NIC, growing with distance"},
        {"abl_arbitration",
         {knobPanel<bool>("Ablation A2: mesh arbitration round-robin vs "
                          "fixed, 64B lines, 4-flit buffers "
                          "(R=1.0, C=0.04, T=4)",
                          meshSweep("", 64, 4, 4, 1.0),
                          &SystemConfig::meshRoundRobin,
                          {{"round-robin", true}, {"fixed", false}})},
         "expectation: fixed priority starves some flows under load, "
         "raising average latency at larger sizes"},
        {"abl_neighborhood",
         {knobPanel<bool>("Ablation A3: ring region wrap vs clip, 64B "
                          "lines (R=0.2, C=0.04, T=4)",
                          ringLadder("", 64, 4, 0.2),
                          &SystemConfig::ringWrapRegion,
                          {{"wrapped", true}, {"clipped", false}})},
         "expectation: small differences only (edge PMs see slightly "
         "different regions); shapes unchanged"},
        {"abl_iri_queue",
         {knobPanel<std::uint32_t>(
             "Ablation A4: IRI queue depth, 64B lines (R=1.0, C=0.04, "
             "T=4)",
             ringLadder("", 64, 4, 1.0),
             &SystemConfig::ringIriQueuePackets,
             {{"1-packet queues", 1},
              {"2-packet queues", 2},
              {"4-packet queues", 4}})},
         "expectation: deeper queues smooth transfer bursts for "
         "mid-size systems but cannot lift the bisection ceiling of "
         "large ones"},
        {"ext_speed_sweep", {speeds},
         "expectation: 2x removes the 3-ring limit; 3x/4x add little "
         "because the next bottleneck is below the global ring"},
        {"ext_slotted", slotted,
         "paper check: the companion study [21] finds slotted somewhat "
         "better; expect parity to a modest slotted edge below the "
         "bisection limit"},
    };
}

} // namespace

double
project(Projection y, const RunResult &result)
{
    switch (y) {
      case Projection::Latency:
        return result.avgLatency;
      case Projection::GlobalRingUtil:
        return 100.0 * result.ringLevelUtilization[0];
      case Projection::LocalRingUtil:
        return 100.0 * result.ringLevelUtilization[1];
      case Projection::NetworkUtil:
        return 100.0 * result.networkUtilization;
    }
    return 0.0;
}

const std::vector<Figure> &
figureTable()
{
    static const std::vector<Figure> table = buildTable();
    return table;
}

const Figure *
findFigure(const std::string &id)
{
    for (const Figure &fig : figureTable()) {
        if (fig.id == id)
            return &fig;
    }
    return nullptr;
}

} // namespace hrsim::bench
