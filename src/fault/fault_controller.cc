#include "fault/fault_controller.hh"

#include <algorithm>

#include "common/log.hh"
#include "obs/metric_registry.hh"
#include "sim/network.hh"

namespace hrsim
{

FaultController::FaultController(const FaultPlan &plan, Network &net)
    : plan_(plan), net_(net)
{
    for (const FaultEvent &event : plan_.events) {
        if (!net_.faultTargetValid(event.target)) {
            fatal("fault plan names '" + event.target.canonical() +
                  "', which this network does not have (or the "
                  "network has no fault support)");
        }
    }
    edges_.reserve(plan_.events.size() * 2);
    for (std::uint32_t i = 0; i < plan_.events.size(); ++i) {
        const FaultEvent &event = plan_.events[i];
        edges_.push_back({event.start, i, true});
        if (event.end != FaultEvent::foreverCycle)
            edges_.push_back({event.end, i, false});
    }
    // Deactivations before activations at the same cycle (windows
    // are [start, end)), plan order within each group; stable_sort
    // keeps the replay a pure function of the plan.
    std::stable_sort(edges_.begin(), edges_.end(),
                     [](const Edge &a, const Edge &b) {
                         if (a.cycle != b.cycle)
                             return a.cycle < b.cycle;
                         return !a.activate && b.activate;
                     });
    net_.setFaultAccounting(&acct_);
}

void
FaultController::fire(const Edge &edge)
{
    net_.applyFault(plan_.events[edge.event], edge.activate);
    ++applied_;
    if (edge.activate)
        ++active_;
    else
        --active_;
}

void
FaultController::registerMetrics(MetricRegistry &registry) const
{
    registry.addGauge("fault.events", [this]() {
        return static_cast<double>(plan_.events.size());
    });
    registry.addGauge("fault.active", [this]() {
        return static_cast<double>(active_);
    });
    registry.addCounter("fault.edges_applied", &applied_);
    registry.addCounter("fault.injected_flits", &acct_.injectedFlits);
    registry.addCounter("fault.delivered_flits",
                        &acct_.deliveredFlits);
    registry.addCounter("drop.flits", &acct_.droppedFlits);
    registry.addCounter("drop.worms", &acct_.droppedWorms);
    registry.addCounter("drop.poisoned_worms", &acct_.poisonedWorms);
}

} // namespace hrsim
