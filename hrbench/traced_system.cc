#include "traced_system.hh"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>

#include "mesh/mesh_network.hh"
#include "ring/ring_network.hh"
#include "workload/region.hh"

namespace hrbench
{

using namespace hrsim;

namespace
{

using Clock = std::chrono::steady_clock;

std::int64_t
nsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(to -
                                                                from)
        .count();
}

} // namespace

void
LayerSpans::add(const LayerSpans &other)
{
    proc += other.proc;
    mem += other.mem;
    net += other.net;
    deliver += other.deliver;
    loop += other.loop;
}

TracedSystem::TracedSystem(const SystemConfig &cfg)
    : cfg_(cfg), latency_(cfg.sim.warmupCycles, cfg.sim.batchCycles,
                          cfg.sim.numBatches)
{
    if ((cfg.kind == NetworkKind::HierarchicalRing && cfg.ringSlotted) ||
        !cfg.faultPlan.empty() || cfg.trace != nullptr ||
        cfg.sim.stop.enabled() || !cfg.sim.idleSkip ||
        cfg.sim.metricsEvery != 0 || cfg.sim.tickThreads != 1 ||
        !cfg.ckpt.savePath.empty() || !cfg.ckpt.restorePath.empty()) {
        throw std::invalid_argument(
            "TracedSystem mirrors only fixed-length wormhole ring and "
            "mesh runs");
    }

    // System::buildNetwork.
    if (cfg.kind == NetworkKind::HierarchicalRing) {
        RingNetwork::Params params;
        params.topo = cfg.ringTopo;
        params.cacheLineBytes = cfg.cacheLineBytes;
        params.globalRingSpeed = cfg.globalRingSpeed;
        params.nicBypass = cfg.ringBypass;
        params.iriWaitLimit = cfg.ringIriWaitLimit;
        params.iriQueuePackets = cfg.ringIriQueuePackets;
        network_ = std::make_unique<RingNetwork>(params);
        factory_ = std::make_unique<PacketFactory>(ChannelSpec::ring(),
                                                   cfg.cacheLineBytes);
    } else {
        MeshNetwork::Params params;
        params.width = cfg.meshWidth;
        params.cacheLineBytes = cfg.cacheLineBytes;
        params.bufferFlits = cfg.meshBufferFlits;
        params.roundRobinArbitration = cfg.meshRoundRobin;
        network_ = std::make_unique<MeshNetwork>(params);
        factory_ = std::make_unique<PacketFactory>(ChannelSpec::mesh(),
                                                   cfg.cacheLineBytes);
    }

    // System::buildWorkload (synthetic M-MRP generator only).
    const int num_pms = network_->numProcessors();
    for (NodeId pm = 0; pm < num_pms; ++pm) {
        std::vector<NodeId> region =
            cfg.kind == NetworkKind::HierarchicalRing
                ? ringRegion(pm, num_pms, cfg.workload.localityR,
                             cfg.ringWrapRegion)
                : meshRegion(pm, cfg.meshWidth, cfg.workload.localityR);
        processors_.push_back(std::make_unique<Processor>(
            pm, std::move(region), cfg.workload, *factory_, *network_,
            latency_, counters_, cfg.sim.seed));
        processors_.back()->setHistogram(&histogram_);
        memories_.push_back(std::make_unique<MemoryModule>(
            pm, cfg.workload.memoryLatency, *factory_, *network_,
            cfg.workload.memorySerialized));
    }

    // System's delivery handler, with its host time split out of the
    // network tick that makes the call.
    network_->setDeliveryHandler([this](const Packet &pkt, Cycle when) {
        const auto start = Clock::now();
        lastProgress_ = when;
        const auto dst = static_cast<std::size_t>(pkt.dst);
        if (isRequest(pkt.type)) {
            memories_[dst]->onRequest(pkt, when);
            if (!memActive_[dst]) {
                memActive_[dst] = 1;
                activeMems_.push_back(pkt.dst);
            }
        } else {
            processors_[dst]->onResponse(pkt, when);
            if (procWake_[dst] > when + 1)
                procWake_[dst] = when + 1;
        }
        deliverNs_ += nsBetween(start, Clock::now());
    });

    procWake_.assign(static_cast<std::size_t>(num_pms), 0);
    memActive_.assign(static_cast<std::size_t>(num_pms), 0);
    activeMems_.reserve(static_cast<std::size_t>(num_pms));

    // The production engine: the benchmark refuses to run under the
    // oracle switches, so these are the values System sets.
    network_->setColumnar(true);
    network_->setActiveScheduling(true);
    network_->setFastPath(true);
    network_->registerMetrics(metrics_);
}

int
TracedSystem::totalOutstanding() const
{
    int total = 0;
    for (const auto &processor : processors_)
        total += processor->outstanding();
    return total;
}

void
TracedSystem::fastForward(Cycle limit)
{
    if (!network_->isIdle())
        return;
    Cycle target = limit;
    if (now_ <= cfg_.sim.warmupCycles && target > cfg_.sim.warmupCycles)
        target = cfg_.sim.warmupCycles;
    if (cfg_.sim.watchdogCycles > 0) {
        target = std::min(target,
                          lastProgress_ + cfg_.sim.watchdogCycles + 1);
    }
    for (const Cycle wake : procWake_)
        target = std::min(target, wake);
    for (const NodeId pm : activeMems_) {
        target = std::min(
            target,
            memories_[static_cast<std::size_t>(pm)]->nextReady());
    }
    if (target <= now_)
        return;
    skipped_ += target - now_;
    now_ = target;
}

void
TracedSystem::step(Cycle target, LayerSpans &spans)
{
    auto last = Clock::now();
    while (now_ < target) {
        fastForward(target);
        if (now_ >= target)
            break;

        auto mark = Clock::now();
        spans.loop += nsBetween(last, mark);
        last = mark;

        for (std::size_t i = 0; i < processors_.size(); ++i) {
            if (procWake_[i] > now_)
                continue;
            processors_[i]->tick(now_);
            procWake_[i] = processors_[i]->nextWake(now_);
            ++counts_.procTicks;
        }
        mark = Clock::now();
        spans.proc += nsBetween(last, mark);
        last = mark;

        for (std::size_t i = 0; i < activeMems_.size();) {
            const auto pm = static_cast<std::size_t>(activeMems_[i]);
            memories_[pm]->tick(now_);
            ++counts_.memTicks;
            if (memories_[pm]->pendingResponses() == 0) {
                memActive_[pm] = 0;
                activeMems_[i] = activeMems_.back();
                activeMems_.pop_back();
            } else {
                ++i;
            }
        }
        mark = Clock::now();
        spans.mem += nsBetween(last, mark);
        last = mark;

        const std::int64_t deliver_before = deliverNs_;
        network_->tick(now_);
        mark = Clock::now();
        spans.net += nsBetween(last, mark);
        spans.deliver += deliverNs_ - deliver_before;
        last = mark;

        ++counts_.cyclesTicked;
        counts_.activeNodesSum += network_->activeNodeCount();
        const std::uint64_t activity =
            counters_.remoteIssued + counters_.localIssued +
            counters_.remoteCompleted + counters_.localCompleted;
        if (activity != lastActivity_) {
            lastActivity_ = activity;
            lastProgress_ = now_;
        }
        if (cfg_.sim.watchdogCycles > 0 &&
            now_ - lastProgress_ > cfg_.sim.watchdogCycles) {
            if (totalOutstanding() > 0) {
                throw StallError("traced run: no progress for " +
                                 std::to_string(now_ - lastProgress_) +
                                 " cycles at cycle " +
                                 std::to_string(now_));
            }
            lastProgress_ = now_;
        }
        ++now_;
    }
    spans.loop += nsBetween(last, Clock::now());
}

void
TracedSystem::run(Cycle block, std::vector<BlockSpan> &blocks)
{
    if (block == 0 || cfg_.sim.warmupCycles % block != 0) {
        throw std::invalid_argument(
            "TracedSystem: the warmup must be a whole number of blocks");
    }
    const Cycle end = latency_.endCycle();
    UtilizationTracker &util = network_->utilization();
    while (now_ < end) {
        if (now_ == cfg_.sim.warmupCycles) {
            util.startMeasurement(now_);
            warmupMetrics_ = metrics_.snapshot();
        }
        BlockSpan span;
        span.begin = now_;
        step(std::min(now_ + block, end), span.spans);
        span.end = now_;
        blocks.push_back(span);
    }
    util.stopMeasurement(end);
    for (auto &processor : processors_)
        processor->syncSkipped(end);
}

} // namespace hrbench
