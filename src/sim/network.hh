/**
 * @file
 * Abstract interconnection-network interface.
 *
 * The wormhole hierarchical ring, the slotted hierarchical ring and
 * the 2D mesh implement this interface. A network is ticked once per
 * system clock cycle with a two-phase (evaluate, then commit)
 * discipline internally, accepts packet injections from processing
 * modules, and delivers packets to the registered handler when the
 * tail flit reaches its destination.
 *
 * Every network provides, through this base:
 *  - link-utilization accounting (utilization()) and, for ring
 *    hierarchies, per-level utilization (numLevels(),
 *    levelUtilization(); a mesh has no levels) with its
 *    ring.l<N>.util gauges;
 *  - fault injection (faultTargetValid(), applyFault()) and
 *    checkpointing (saveState(), loadState()), whose defaults refuse.
 *    The slotted ring relies on both defaults: its cells have no
 *    worm-drain path, so it rejects every fault target and every
 *    save or restore here, and nowhere else.
 *
 * Observability: a network publishes its component counters and
 * gauges into a MetricRegistry (registerMetrics()) and accepts an
 * optional FlitTracer that logs inject/hop/eject events; both are
 * pull-model/opt-in, so the tick hot path is unaffected when unused.
 */

#ifndef HRSIM_SIM_NETWORK_HH
#define HRSIM_SIM_NETWORK_HH

#include <functional>
#include <string>
#include <vector>

#include "ckpt/checkpointable.hh"
#include "ckpt/codec.hh"
#include "common/log.hh"
#include "common/types.hh"
#include "obs/flit_trace.hh"
#include "obs/metric_registry.hh"
#include "proto/packet.hh"
#include "stats/utilization.hh"

namespace hrsim
{

struct FaultAccounting;
struct FaultEvent;
struct FaultTarget;

class Network : public Checkpointable
{
  public:
    /** Callback invoked when a packet fully arrives at its target. */
    using DeliveryHandler = std::function<void(const Packet &, Cycle)>;

    virtual ~Network() = default;

    /** Number of processing modules attached. */
    virtual int numProcessors() const = 0;

    /**
     * May PM @a pm inject @a pkt this cycle? True when the NIC output
     * queue for the packet's class has room for every flit.
     */
    virtual bool canInject(NodeId pm, const Packet &pkt) const = 0;

    /** Inject @a pkt at PM @a pm; caller must check canInject(). */
    virtual void inject(NodeId pm, const Packet &pkt) = 0;

    /** Advance the network by one system clock cycle. */
    virtual void tick(Cycle now) = 0;

    /** Register the delivery callback (one handler per network). */
    void setDeliveryHandler(DeliveryHandler handler)
    {
        deliver_ = std::move(handler);
    }

    /** Link-utilization accounting for this network. */
    UtilizationTracker &utilization() { return util_; }
    const UtilizationTracker &utilization() const { return util_; }

    /** Ring hierarchy levels (0 for a network without levels). */
    int
    numLevels() const
    {
        return static_cast<int>(levelGroups_.size());
    }

    /** Utilization of the rings at hierarchy @a level (0 = global). */
    double
    levelUtilization(int level) const
    {
        HRSIM_ASSERT(level >= 0 && level < numLevels());
        return util_.groupUtilization(
            levelGroups_[static_cast<std::size_t>(level)]);
    }

    /** Total flits currently buffered inside the network. */
    virtual std::uint64_t flitsInFlight() const = 0;

    /**
     * Select the engine (SimConfig::idleSkip; see DESIGN.md section
     * 10). true is the production engine: active-mask scheduling of
     * only the components holding work, plus the worm-streaming
     * evaluate. false, the default, is the reference engine: every
     * component is evaluated every cycle with the straight-line
     * per-node transmit/arbitration code. Results are bit-identical
     * either way; networks without a production engine ignore the
     * call. Call once, before the first tick.
     */
    virtual void setActiveScheduling(bool enabled) { (void)enabled; }

    /**
     * No-op shims: the columnar layout and the fast path are not
     * separate switches (setActiveScheduling() selects the whole
     * engine). Kept only because hrbench/traced_system.cc still
     * makes the old calls; only true is accepted.
     */
    void setColumnar(bool enabled) const { HRSIM_ASSERT(enabled); }
    void setFastPath(bool enabled) const { HRSIM_ASSERT(enabled); }

    /**
     * True when no component holds any flit, i.e. a tick would move
     * nothing. O(1) on the production engine.
     */
    virtual bool isIdle() const { return flitsInFlight() == 0; }

    /** Components currently awake (production engine only; the
     *  default, for networks without one, is 0). */
    virtual std::size_t activeNodeCount() const { return 0; }

    /**
     * Register this network's counters and gauges under stable
     * hierarchical names (e.g. "ring.l1.iri3.wait_cycles"). Samplers
     * capture `this`; the network must outlive registry snapshots.
     * The base registers one ring.l<N>.util gauge per level;
     * overrides call it first.
     */
    virtual void
    registerMetrics(MetricRegistry &registry) const
    {
        for (int level = 0; level < numLevels(); ++level) {
            registry.addGauge(
                "ring.l" + std::to_string(level) + ".util",
                [this, level]() { return levelUtilization(level); });
        }
    }

    /**
     * Does this network have the component @a target names? Used to
     * validate a fault plan against the topology at System build
     * time. The default (no fault support) rejects every target —
     * plans against such a network fail fast instead of silently
     * doing nothing.
     */
    virtual bool
    faultTargetValid(const FaultTarget &target) const
    {
        (void)target;
        return false;
    }

    /**
     * Apply (@a active) or lift one scheduled fault. Called by the
     * FaultController at the event's start and end cycles, before
     * the cycle is evaluated. Overlapping windows on one target
     * nest: implementations count applications per target rather
     * than setting booleans. Only reachable after faultTargetValid()
     * accepted the target, so the default is unreachable.
     */
    virtual void
    applyFault(const FaultEvent &event, bool active)
    {
        (void)event;
        (void)active;
        HRSIM_PANIC("network has no fault support");
    }

    /**
     * Share the conservation ledger (injected/delivered/dropped
     * flits). Non-null only when a fault plan is active; networks
     * skip all fault accounting when unset, keeping fault-free runs
     * byte-identical to a tree without the subsystem.
     */
    virtual void setFaultAccounting(FaultAccounting *acct)
    {
        (void)acct;
    }

    /** Attach (or detach, with nullptr) the flit event tracer. */
    void setTracer(FlitTracer *tracer) { tracer_ = tracer; }
    FlitTracer *tracer() const { return tracer_; }

    /**
     * Checkpointable defaults for networks without support (the
     * slotted ring): both refuse with CheckpointError, which
     * System::saveCheckpoint raises before any file is written.
     */
    void saveState(CkptWriter &w) const override
    {
        (void)w;
        throw CheckpointError(
            "checkpoint: this network does not support checkpointing");
    }

    void loadState(CkptReader &r) override
    {
        (void)r;
        throw CheckpointError(
            "checkpoint: this network does not support checkpointing");
    }

  protected:
    /** Create the "ring level N" utilization groups, N < @a levels. */
    void
    addLevelGroups(int levels)
    {
        for (int level = 0; level < levels; ++level)
            levelGroups_.push_back(
                util_.group("ring level " + std::to_string(level)));
    }

    /** The utilization group of hierarchy @a level. */
    UtilizationTracker::GroupId
    levelGroup(int level) const
    {
        return levelGroups_[static_cast<std::size_t>(level)];
    }

    /** Deliver @a pkt to the attached PM at cycle @a now. */
    void
    delivered(const Packet &pkt, Cycle now) const
    {
        if (deliver_)
            deliver_(pkt, now);
        HRSIM_TRACE_FLIT(tracer_, FlitEvent::Eject, pkt.id, pkt.dst,
                         0);
    }

    /**
     * The attached tracer (nullptr when tracing is off). Concrete
     * networks hand &tracer_ to their link drivers so hop hooks see
     * tracer attachment without per-link re-wiring.
     */
    FlitTracer *tracer_ = nullptr;

    UtilizationTracker util_;

  private:
    std::vector<UtilizationTracker::GroupId> levelGroups_;
    DeliveryHandler deliver_;
};

} // namespace hrsim

#endif // HRSIM_SIM_NETWORK_HH
