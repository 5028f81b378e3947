/**
 * @file
 * The benchmark's own cycle loop, used for the per-layer (traced) run.
 *
 * TracedSystem rebuilds a fixed-length ring or mesh run from the
 * library's public constructors and mirrors hrsim::System exactly, so
 * its simulated outputs equal the production run's. It times every
 * layer once per simulated cycle from outside the library: the
 * processor loop, the memory loop, Network::tick (with the delivery
 * callbacks it makes split out) and the loop's own bookkeeping. The
 * library itself is not instrumented.
 *
 * Mirrored System logic (README.md lists it too, so an engine change
 * knows which calls the benchmark depends on):
 *  - System::System: buildNetwork (RingNetwork / MeshNetwork params),
 *    buildWorkload (regions, Processor, MemoryModule, setHistogram),
 *    the delivery handler, and the engine setters setColumnar(true),
 *    setActiveScheduling(true), setFastPath(true), in that order;
 *  - System::tickOnce with idleSkip: the procWake_ sleep schedule, the
 *    activeMems_ swap-and-pop list, the activity/watchdog rule;
 *  - System::fastForwardQuiescent: the warmup and watchdog clamps and
 *    the earliest processor wake / memory completion;
 *  - System::runFixed: startMeasurement at the warmup cycle,
 *    stopMeasurement and syncSkipped at the horizon.
 * Not mirrored (rejected by the constructor): the slotted ring, fault
 * plans, trace replay, adaptive stopping, metric snapshots,
 * checkpoints, and the shard-parallel tick.
 */

#ifndef HRBENCH_TRACED_SYSTEM_HH
#define HRBENCH_TRACED_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/system.hh"
#include "obs/metric_registry.hh"

namespace hrbench
{

/** Host nanoseconds spent in each layer over some span of cycles. */
struct LayerSpans
{
    std::int64_t proc = 0;    //!< processor loop
    std::int64_t mem = 0;     //!< memory loop
    std::int64_t net = 0;     //!< Network::tick, deliveries included
    std::int64_t deliver = 0; //!< delivery callbacks inside net
    std::int64_t loop = 0;    //!< fast-forward, watchdog, sampling

    void add(const LayerSpans &other);
};

/** One block of simulated cycles: its cycle range and layer spans. */
struct BlockSpan
{
    hrsim::Cycle begin = 0;
    hrsim::Cycle end = 0;
    LayerSpans spans;
};

/** Event counts gathered at the layer boundaries. */
struct LayerCounts
{
    std::uint64_t cyclesTicked = 0;   //!< cycles not fast-forwarded
    std::uint64_t procTicks = 0;      //!< Processor::tick calls
    std::uint64_t memTicks = 0;       //!< MemoryModule::tick calls
    std::uint64_t activeNodesSum = 0; //!< activeNodeCount per tick
};

class TracedSystem
{
  public:
    explicit TracedSystem(const hrsim::SystemConfig &cfg);

    TracedSystem(const TracedSystem &) = delete;
    TracedSystem &operator=(const TracedSystem &) = delete;

    /**
     * Run the fixed-length protocol to its horizon in blocks of
     * @a block cycles, appending one BlockSpan per block. The warmup
     * cycle count must be a multiple of @a block.
     */
    void run(hrsim::Cycle block, std::vector<BlockSpan> &blocks);

    hrsim::Network &network() { return *network_; }
    const hrsim::MetricRegistry &metrics() const { return metrics_; }
    const hrsim::BatchMeans &latency() const { return latency_; }
    const hrsim::Histogram &histogram() const { return histogram_; }
    const hrsim::WorkloadCounters &counters() const
    {
        return counters_;
    }
    const LayerCounts &counts() const { return counts_; }
    /** The network's registry as it read when measurement began. */
    const std::vector<hrsim::MetricSample> &warmupMetrics() const
    {
        return warmupMetrics_;
    }
    hrsim::Cycle now() const { return now_; }
    std::uint64_t skippedCycles() const { return skipped_; }
    int totalOutstanding() const;

  private:
    void step(hrsim::Cycle target, LayerSpans &spans);
    void fastForward(hrsim::Cycle limit);

    hrsim::SystemConfig cfg_;
    std::unique_ptr<hrsim::Network> network_;
    std::unique_ptr<hrsim::PacketFactory> factory_;
    std::vector<std::unique_ptr<hrsim::Processor>> processors_;
    std::vector<std::unique_ptr<hrsim::MemoryModule>> memories_;
    hrsim::BatchMeans latency_;
    hrsim::Histogram histogram_;
    hrsim::WorkloadCounters counters_;
    hrsim::MetricRegistry metrics_;

    hrsim::Cycle now_ = 0;
    hrsim::Cycle lastProgress_ = 0;
    std::uint64_t lastActivity_ = 0;
    std::uint64_t skipped_ = 0;
    std::vector<hrsim::Cycle> procWake_;
    std::vector<hrsim::NodeId> activeMems_;
    std::vector<std::uint8_t> memActive_;

    LayerCounts counts_;
    std::vector<hrsim::MetricSample> warmupMetrics_;
    std::int64_t deliverNs_ = 0;
};

} // namespace hrbench

#endif // HRBENCH_TRACED_SYSTEM_HH
