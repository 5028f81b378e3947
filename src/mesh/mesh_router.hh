/**
 * @file
 * Bi-directional 2D-mesh router (Figure 5 of the paper).
 *
 * The mesh NIC is a 5x5 crossbar: four links to the direct neighbors
 * plus the local PM port. Each directional input has a FIFO buffer of
 * 1, 4 or cl flits; the local injection port is backed by the PM's
 * split request/response output queues (responses have priority at
 * packet boundaries). Routing is deterministic e-cube (X then Y),
 * which is deadlock-free on a mesh without end-around connections and
 * needs no virtual channels. Output-port arbitration among competing
 * inputs is round-robin; a granted connection persists until the tail
 * flit of the packet has crossed, and the whole crossbar can move one
 * flit on every port within a single clock cycle.
 */

#ifndef HRSIM_MESH_MESH_ROUTER_HH
#define HRSIM_MESH_MESH_ROUTER_HH

#include <array>
#include <bit>
#include <functional>

#include "ckpt/state_io.hh"
#include "common/staged_fifo.hh"
#include "common/types.hh"
#include "fault/fault_plan.hh"
#include "obs/flit_trace.hh"
#include "proto/packet.hh"
#include "proto/packet_table.hh"
#include "sim/columns.hh"
#include "stats/utilization.hh"

namespace hrsim
{

/** Crossbar port indices. */
enum MeshPort : int
{
    PortEast = 0,
    PortWest = 1,
    PortSouth = 2,
    PortNorth = 3,
    PortLocal = 4,
    NumMeshPorts = 5,
};

/** The port on the neighbor that faces back at @a port. */
MeshPort oppositePort(MeshPort port);

/**
 * Output arbitration: the requesting input (bit i of @a requests,
 * nonzero) that a scan starting at input @a base and wrapping past
 * the local port reaches first. Round-robin passes the port's
 * rotating pointer as @a base, fixed priority passes 0. Branch-free:
 * the mask is rotated right by @a base, so its lowest set bit is the
 * scan's winner, counted from @a base.
 */
inline int
arbitrateInputs(PortMask requests, int base)
{
    const unsigned req = requests;
    const unsigned rotated =
        (req >> base | req << (NumMeshPorts - base)) &
        ((1u << NumMeshPorts) - 1);
    const int in = base + std::countr_zero(rotated);
    return in >= NumMeshPorts ? in - NumMeshPorts : in;
}

/**
 * Router queues hold 12-byte FlitHandles into the network's
 * PacketTable, not full Flits (see proto/packet_table.hh).
 * They skip any inline small-buffer: six queues per router
 * would grow MeshRouter ~3x, and the per-cycle sweep over all
 * routers is cache-footprint-bound (measured slower inline, both
 * with heap-allocated routers and with the contiguous pool layout).
 * ColumnFifo keeps the six cursor blocks in a contiguous FifoState
 * column owned by the network, so the end-of-cycle commit sweep and
 * the neighbors' canPush() probes read hot columns instead of router
 * objects.
 */
using MeshFifo = ColumnFifo<FlitHandle>;

/**
 * Per-router fault state, allocated by MeshNetwork only while a
 * fault plan is active (routers hold a null pointer otherwise, so
 * fault-free runs pay nothing). Windows may overlap, so the per-port
 * and stall flags are nesting depth counters, not booleans.
 */
struct MeshRouterFaults
{
    std::array<std::uint8_t, 4> portDown{};    //!< LinkDown depth
    std::array<std::uint8_t, 4> portCorrupt{}; //!< Corrupt depth
    std::uint8_t stalled = 0;                  //!< Stall depth

    /**
     * Worm-kill state machine of one output port. A kill outlives
     * the window that started it: once a worm starts draining into a
     * dead link it must drain to its tail even if the link comes
     * back, because its leading flits are already gone.
     */
    struct OutKill
    {
        bool killing = false;    //!< draining the bound worm
        bool decided = false;    //!< first flit inspected?
        bool terminator = false; //!< owe downstream a poisoned tail
        bool poisoning = false;  //!< Corrupt: stamping this worm
    };
    std::array<OutKill, 4> out{};
};

/** Checkpoint one router's fault state. The nesting depths are
 *  redundant with the FaultController's applied-event replay but the
 *  kill/poison drain machines are not — a worm half-drained into a
 *  dead link must resume draining after restore. */
inline void
saveMeshRouterFaults(CkptWriter &w, const MeshRouterFaults &f)
{
    for (std::size_t p = 0; p < 4; ++p) {
        w.u8(f.portDown[p]);
        w.u8(f.portCorrupt[p]);
    }
    w.u8(f.stalled);
    for (const MeshRouterFaults::OutKill &kill : f.out) {
        w.boolean(kill.killing);
        w.boolean(kill.decided);
        w.boolean(kill.terminator);
        w.boolean(kill.poisoning);
    }
}

inline void
loadMeshRouterFaults(CkptReader &r, MeshRouterFaults &f)
{
    for (std::size_t p = 0; p < 4; ++p) {
        f.portDown[p] = r.u8();
        f.portCorrupt[p] = r.u8();
    }
    f.stalled = r.u8();
    for (MeshRouterFaults::OutKill &kill : f.out) {
        kill.killing = r.boolean();
        kill.decided = r.boolean();
        kill.terminator = r.boolean();
        kill.poisoning = r.boolean();
    }
}

class MeshRouter
{
  public:
    using DeliverFn = std::function<void(const Packet &, Cycle)>;

    /** Flit slots one router's six queues need in an arena. */
    static std::size_t
    arenaFlits(std::uint32_t buffer_flits, std::uint32_t queue_flits)
    {
        return 4 * static_cast<std::size_t>(buffer_flits) +
               2 * static_cast<std::size_t>(queue_flits);
    }

    /**
     * @param id PM id (also the router's position in the mesh).
     * @param width Mesh edge length.
     * @param buffer_flits Directional input buffer depth.
     * @param queue_flits PM output queue depth (>= largest packet).
     * @param round_robin Rotate output arbitration (paper default);
     *        false selects fixed-priority (ablation only).
     * @param storage Flit storage for all six queues, arenaFlits()
     *        elements (the network passes one arena segment per
     *        router so a router's buffered flits sit on adjacent
     *        cache lines).
     * @param packets The network's packet table, which the queued
     *        handles point into.
     * @param states The six queue cursor blocks (inBuf_[0..3],
     *        outResp_, outReq_ in that order) in the network's
     *        FifoState column.
     * @param flags The changed/poked pair in the network's column.
     */
    MeshRouter(NodeId id, int width, std::uint32_t buffer_flits,
               std::uint32_t queue_flits, bool round_robin,
               FlitHandle *storage, PacketTable *packets,
               FifoState *states, RouterFlags *flags);

    MeshRouter(const MeshRouter &) = delete;
    MeshRouter &operator=(const MeshRouter &) = delete;
    MeshRouter(MeshRouter &&) = delete;
    MeshRouter &operator=(MeshRouter &&) = delete;

    /** Wire a directional output to the neighbor's facing input. */
    void connect(MeshPort out, MeshRouter *neighbor,
                 UtilizationTracker *util,
                 UtilizationTracker::LinkId link);

    /** Route, arbitrate and traverse one cycle. Inline so the
     * scheduler's per-router call jumps straight into the selected
     * engine instead of through an extra dispatch frame. */
    void
    evaluate(Cycle now)
    {
        hot_->changed = false;
        // Stall fault: the crossbar core is frozen — no arbitration,
        // no traversal. Input latches still accept arrivals (staged
        // pushes commit as usual), so traffic backs up behind the
        // router and resumes untouched when the window closes.
        if (faults_ && faults_->stalled)
            return;
        if (fastPath_)
            evaluateFast(now);
        else
            evaluateLegacy(now);
    }

    /**
     * Select the worm-streaming fast path (the production engine;
     * default off = the straight-line loops of the reference engine).
     * Set once after construction; results are identical either way.
     */
    void setFastPath(bool enabled) { fastPath_ = enabled; }

    /**
     * Attach this router's row of the network's e-cube routing LUT
     * (indexed by destination NodeId). The fast path routes heads
     * with one load from it instead of the div/mod coordinate math.
     */
    void setRouteRow(const std::uint8_t *row) { routeRow_ = row; }

    /** No visible flit anywhere: evaluate() would be a no-op. */
    bool quiescent() const;

    /**
     * End-of-cycle sleep decision for the active-set scheduler: keep
     * the router awake iff this cycle's evaluate changed any state
     * (granted an output or moved a flit) or an external event poked
     * it (flit arrival, local injection, or a downstream credit).
     * Consumes the poke.
     *
     * Why this is sound: evaluate() is deterministic in the router's
     * committed state plus its neighbors' buffer occupancy, pops do
     * not free downstream space until the neighbor's commit, and
     * arrivals stage invisibly until the local commit. So an evaluate
     * that changed nothing will keep changing nothing until one of
     * the poke events fires — each of which re-wakes the router.
     */
    bool sweepKeep()
    {
        // A stalled router is pinned awake: it holds flits that move
        // again the cycle its window closes, and keeping it in the
        // active set also keeps the network non-idle so the system
        // never fast-forwards across a stall.
        RouterFlags &hot = *hot_;
        const bool keep =
            hot.changed || hot.poked || (faults_ && faults_->stalled);
        hot.poked = false;
        return keep;
    }

    /** External event: ensure the next retain keeps this router. */
    void poke() { hot_->poked = true; }

    bool canInject(const Packet &pkt) const;
    void inject(const Packet &pkt);
    void setDeliver(DeliverFn fn) { deliver_ = std::move(fn); }

    /**
     * Point at the owning network's tracer pointer so hop events
     * follow --trace-flits attachment after construction.
     */
    void setTracerSlot(FlitTracer *const *slot) { tracerSlot_ = slot; }

    /**
     * The network's router mask: pushing a flit into a neighbor's
     * input buffer wakes the neighbor (by its PM id).
     */
    void setWakeMask(ActiveMask *mask) { wakeMask_ = mask; }

    /**
     * Cache each output's utilization flag/counter pair (the network
     * calls this once every link is registered, when the tracker's
     * counter pointers are stable).
     */
    void
    cacheUtilCounters()
    {
        for (auto &port : out_) {
            if (port.util != nullptr) {
                port.utilMeasuring = port.util->measuringFlag();
                port.utilCounter =
                    port.util->transferCounter(port.link);
            }
        }
    }

    /**
     * Attach this router's fault state and the network's shared
     * conservation ledger (both owned elsewhere; null = fault-free).
     */
    void
    setFaultState(MeshRouterFaults *faults, FaultAccounting *acct)
    {
        faults_ = faults;
        acct_ = acct;
    }

    NodeId id() const { return id_; }

    /** Directional input buffer (for tests). */
    const MeshFifo &inputBuffer(MeshPort port) const;

    /** Flits currently buffered in this router. */
    std::uint64_t flitCount() const;

    /**
     * e-cube output port for a packet headed to @a dst: the routing
     * LUT row when one is attached, else the coordinate computation.
     */
    MeshPort routeOf(NodeId dst) const;

    /**
     * e-cube output port computed from coordinates (X then Y). The
     * LUT is built from this; the exhaustive equivalence test in
     * test_mesh_network.cc compares the two for every (router, dst).
     */
    MeshPort routeOfCoordinate(NodeId dst) const;

    /**
     * Flits forwarded on an already-owned output port, i.e. moved
     * without re-running routing or arbitration (every non-head flit
     * of every worm). A pure function of the simulation history —
     * identical under fast path and straight-line loops.
     */
    std::uint64_t streamedFlits() const { return streamedFlits_; }

    /**
     * Checkpoint hooks (tick boundary): the six queues, the crossbar
     * binding state, and the changed/poked flags (live state — an
     * unconsumed poke is what re-wakes a back-pressured worm). The
     * cached source views and upstream pointers of granted ports are
     * derived; loadState() rebuilds them with grantOutput()'s recipe.
     * Queues are saved as full flits; loadState() re-adds their
     * packets through @a loader, and each owned port's worm slot
     * resolves in the loader's finish(), once every router loaded.
     */
    void saveState(CkptWriter &w) const;
    void loadState(CkptReader &r, PacketTableLoader &loader);

    /** Visit every buffered flit handle (tick boundary; tests). */
    template <typename Fn>
    void
    forEachFlit(Fn &&fn) const
    {
        for (const MeshFifo *queue :
             {&inBuf_[0], &inBuf_[1], &inBuf_[2], &inBuf_[3], &outResp_,
              &outReq_}) {
            for (std::size_t i = 0; i < queue->size(); ++i)
                fn(queue->at(i));
        }
    }

  private:
    /** Straight-line evaluate (the reference engine). */
    void evaluateLegacy(Cycle now);

    /** Mask-driven evaluate: LUT routing, ctz port iteration. */
    void evaluateFast(Cycle now);

    /**
     * Grant every free output that some head wants: @a requests[out]
     * is the mask of unbound inputs routed to @a out, and @a wanted
     * has a bit for each nonzero entry.
     */
    void grantRequests(
        const std::array<PortMask, NumMeshPorts> &requests,
        PortMask wanted);

    /** Bind output @a out to the worm whose head waits on @a in. */
    void grantOutput(int out, int in);

    /** Move one flit across owned output @a out if flow control allows. */
    void traverseOutput(int out, Cycle now);

    /**
     * Drain-and-drop one flit of the worm bound to dead output
     * @a out (see MeshRouterFaults::OutKill). Cold path, fault runs
     * only.
     */
    void killOutput(int out);

    /** Next flit available on input @a in (nullptr if none). */
    const FlitHandle *peekInput(int in) const;

    /** Poke + wake @a neighbor (flit arrival or credit event). */
    void
    wakeNeighbor(MeshRouter *neighbor)
    {
        // Unconditional store: a test-before-set branch on the flag
        // mispredicts whenever load is uneven, and the line is about
        // to be written by the mask add anyway.
        neighbor->hot_->poked = true; // stay up next cycle
        // and wake if sleeping
        wakeMask_->add(static_cast<std::uint32_t>(neighbor->id_));
    }

    NodeId id_;
    int width_;
    int x_;
    int y_;
    bool roundRobin_;

    std::array<MeshFifo, 4> inBuf_;
    MeshFifo outResp_;
    MeshFifo outReq_;

    /** Which queue the local input's current worm drains from. */
    enum class LocalSrc : std::uint8_t { None, Resp, Req };
    LocalSrc localSrc_ = LocalSrc::None;

    /** Output the input's current worm is bound to (-1 if none). */
    std::array<int, NumMeshPorts> inputBound_;

    struct Output
    {
        int owner = -1; //!< input currently holding this port
        /** The owner worm's packet slot (checked per streamed flit). */
        std::uint32_t wormSlot = 0;
        int rrPtr = 0;  //!< round-robin arbitration pointer
        /** The owner worm's source queue, cached at grant so each
         * streamed flit skips the peekInput() owner/localSrc
         * dispatch (the queue is fixed for the worm's lifetime). */
        FifoView<FlitHandle> src{};
        /** Credit-wake target for pops from src: the upstream
         * feeder for directional inputs, null for the local port. */
        MeshRouter *srcUpstream = nullptr;
        MeshRouter *neighbor = nullptr;
        /** The neighbor's facing input buffer (cached at connect). */
        MeshFifo *peerBuf = nullptr;
        /** Flat handle onto peerBuf. */
        FifoView<FlitHandle> peer{};
        UtilizationTracker *util = nullptr;
        UtilizationTracker::LinkId link = 0;
        /** Cached tracker internals (cacheUtilCounters): one flag
         * load and one increment per hop instead of two vector
         * walks. */
        const bool *utilMeasuring = nullptr;
        std::uint64_t *utilCounter = nullptr;
    };
    std::array<Output, NumMeshPorts> out_;

    bool fastPath_ = false;
    /** changed/poked flag pair in a network column slot: the sleep
     * sweep reads and cross-router wakes write through hot_. */
    RouterFlags *hot_;
    /** This router's row of the network's e-cube LUT (may be null). */
    const std::uint8_t *routeRow_ = nullptr;
    /** The six contiguous column cursor blocks: the fast-path
     * visibility scan reads them with one base pointer instead of
     * six st_ hops. */
    const FifoState *col_;
    /** Port activity: inputs bound to an output worm. */
    PortMask boundMask_ = 0;
    /** Port activity: outputs owned by an input worm. */
    PortMask ownedMask_ = 0;
    std::uint64_t streamedFlits_ = 0;
    /** Router feeding each directional input (credit wake target). */
    std::array<MeshRouter *, 4> upstream_{};

    DeliverFn deliver_;
    PacketTable *packets_; //!< the network's in-flight packets
    FlitTracer *const *tracerSlot_ = nullptr;
    ActiveMask *wakeMask_ = nullptr; //!< the network's router mask
    /** Fault state + ledger; null (the fast case) without a plan. */
    MeshRouterFaults *faults_ = nullptr;
    FaultAccounting *acct_ = nullptr;
};

} // namespace hrsim

#endif // HRSIM_MESH_MESH_ROUTER_HH
