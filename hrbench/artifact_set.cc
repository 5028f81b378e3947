#include "artifact_set.hh"

#include "core/analysis.hh"
#include "workload/region.hh"

namespace hrbench
{

namespace
{

using namespace hrsim;

const std::vector<std::uint32_t> kLines = {16, 32, 64, 128};

SystemConfig
ringConfig(const std::string &topo, std::uint32_t line, int t, double r,
           std::uint32_t global_speed = 1)
{
    SystemConfig cfg = SystemConfig::ring(topo, line);
    cfg.workload.outstandingT = t;
    cfg.workload.localityR = r;
    cfg.globalRingSpeed = global_speed;
    cfg.sim = benchSim();
    return cfg;
}

SystemConfig
meshConfig(int width, std::uint32_t line, std::uint32_t buffer_flits,
           int t, double r)
{
    SystemConfig cfg = SystemConfig::mesh(width, line, buffer_flits);
    cfg.workload.outstandingT = t;
    cfg.workload.localityR = r;
    cfg.sim = benchSim();
    return cfg;
}

void
ringLadder(std::vector<SystemConfig> &out, std::uint32_t line, int t,
           double r, std::uint32_t global_speed = 1)
{
    for (const std::string &topo :
         standardRingLadder(static_cast<int>(line))) {
        SystemConfig cfg = ringConfig(topo, line, t, r, global_speed);
        if (cfg.numProcessors() > 128 ||
            regionRemoteCount(cfg.numProcessors(), r) == 0)
            continue;
        out.push_back(cfg);
    }
}

void
meshSweep(std::vector<SystemConfig> &out, std::uint32_t line,
          std::uint32_t buffer_flits, int t, double r)
{
    for (const int width : standardMeshWidths(121)) {
        SystemConfig cfg = meshConfig(width, line, buffer_flits, t, r);
        if (regionRemoteCount(cfg.numProcessors(), r) == 0)
            continue;
        out.push_back(cfg);
    }
}

/** bench_fig07..10/19/20 maxLocalRing(). */
int
maxLocalRing(std::uint32_t line)
{
    switch (line) {
      case 16:
        return 12;
      case 32:
        return 8;
      case 64:
        return 6;
      default:
        return 4;
    }
}

/** Figs. 9, 10, 19 and 20's three-level series at one line size. */
void
threeLevel(std::vector<SystemConfig> &out, std::uint32_t line,
           std::uint32_t speed)
{
    const int m = maxLocalRing(line);
    for (int j = 2; j * 3 * m <= 130; ++j) {
        out.push_back(ringConfig(std::to_string(j) + ":3:" +
                                     std::to_string(m),
                                 line, 4, 1.0, speed));
    }
}

} // namespace

SimConfig
benchSim()
{
    SimConfig sim;
    sim.warmupCycles = 4000;
    sim.batchCycles = 4000;
    sim.numBatches = 5;
    return sim;
}

std::vector<ArtifactFigure>
artifactFigures()
{
    std::vector<ArtifactFigure> figs;
    const auto add = [&figs](const std::string &name) {
        figs.push_back({name, {}});
        return &figs.back().second;
    };

    auto *fig = add("fig06");
    for (const std::uint32_t line : kLines) {
        for (const int t : {1, 2, 4}) {
            for (const int nodes : {2, 4, 6, 8, 12, 16, 24, 32, 48, 64})
                fig->push_back(
                    ringConfig(std::to_string(nodes), line, t, 1.0));
        }
    }

    for (const bool single : {true, false}) {
        fig = add(single ? "fig07" : "fig08");
        for (const std::uint32_t line : kLines) {
            const int m = maxLocalRing(line);
            if (single)
                fig->push_back(ringConfig(std::to_string(m), line, 4, 1.0));
            for (int k = 2; k * m <= 64; ++k) {
                fig->push_back(ringConfig(std::to_string(k) + ":" +
                                              std::to_string(m),
                                          line, 4, 1.0));
            }
        }
    }

    for (const bool single : {true, false}) {
        fig = add(single ? "fig09" : "fig10");
        for (const std::uint32_t line : kLines) {
            if (single) {
                fig->push_back(ringConfig(
                    "3:" + std::to_string(maxLocalRing(line)), line, 4,
                    1.0));
            }
            threeLevel(*fig, line, 1);
        }
    }

    fig = add("fig11");
    for (const double r : {1.0, 0.2}) {
        for (const char *topo :
             {"4", "8", "12", "16", "24", "32", "2:8", "3:8", "4:8", "5:8",
              "6:8", "7:8", "2:3:8", "3:3:8", "4:3:8", "5:3:8", "2:2:2:6",
              "2:2:3:6", "2:3:3:6", "3:3:3:4"})
            fig->push_back(ringConfig(topo, 32, 2, r));
    }

    fig = add("fig12");
    for (const std::uint32_t buffer : {0u, 4u, 1u}) {
        for (const std::uint32_t line : kLines)
            meshSweep(*fig, line, buffer, 4, 1.0);
    }

    fig = add("fig13");
    for (const std::uint32_t line : kLines) {
        for (const int width : standardMeshWidths(121))
            fig->push_back(meshConfig(width, line, 4, 4, 1.0));
    }

    fig = add("fig14");
    for (const std::uint32_t line : kLines) {
        for (const int t : {1, 2, 4}) {
            meshSweep(*fig, line, 4, t, 1.0);
            ringLadder(*fig, line, t, 1.0);
        }
    }

    for (const std::uint32_t buffer : {0u, 1u}) {
        fig = add(buffer == 0 ? "fig15" : "fig16");
        for (const int t : {1, 2, 4}) {
            meshSweep(*fig, 128, buffer, t, 1.0);
            ringLadder(*fig, 128, t, 1.0);
        }
    }

    fig = add("fig17");
    for (const std::uint32_t line : kLines) {
        for (const double r : {0.1, 0.2, 0.3}) {
            meshSweep(*fig, line, 4, 4, r);
            ringLadder(*fig, line, 4, r);
        }
    }

    fig = add("fig18");
    for (const double r : {0.1, 0.2, 0.3}) {
        meshSweep(*fig, 128, 0, 4, r);
        ringLadder(*fig, 128, 4, r);
    }

    for (const char *name : {"fig19", "fig20"}) {
        fig = add(name);
        for (const std::uint32_t line : {32u, 64u, 128u}) {
            for (const std::uint32_t speed : {1u, 2u})
                threeLevel(*fig, line, speed);
        }
    }

    fig = add("fig21");
    for (const std::uint32_t line : {32u, 64u, 128u}) {
        meshSweep(*fig, line, 4, 4, 1.0);
        ringLadder(*fig, line, 4, 1.0, 2);
    }
    return figs;
}

} // namespace hrbench
