#include "mesh/mesh_router.hh"

#include "common/log.hh"

namespace hrsim
{

MeshPort
oppositePort(MeshPort port)
{
    switch (port) {
      case PortEast:
        return PortWest;
      case PortWest:
        return PortEast;
      case PortSouth:
        return PortNorth;
      case PortNorth:
        return PortSouth;
      default:
        HRSIM_PANIC("local port has no opposite");
    }
}

MeshRouter::MeshRouter(NodeId id, int width, std::uint32_t buffer_flits,
                       std::uint32_t queue_flits, bool round_robin,
                       FlitHandle *storage, PacketTable *packets,
                       FifoState *states, RouterFlags *flags)
    : id_(id), width_(width), x_(id % width), y_(id / width),
      roundRobin_(round_robin), hot_(flags), col_(states),
      packets_(packets)
{
    HRSIM_ASSERT(buffer_flits >= 1);
    for (std::size_t p = 0; p < 4; ++p) {
        inBuf_[p].bind(&states[p], buffer_flits, storage);
        storage += buffer_flits;
    }
    outResp_.bind(&states[4], queue_flits, storage);
    storage += queue_flits;
    outReq_.bind(&states[5], queue_flits, storage);
    inputBound_.fill(-1);
}

void
MeshRouter::connect(MeshPort out, MeshRouter *neighbor,
                    UtilizationTracker *util,
                    UtilizationTracker::LinkId link)
{
    HRSIM_ASSERT(out != PortLocal);
    Output &port = out_[static_cast<std::size_t>(out)];
    port.neighbor = neighbor;
    port.peerBuf =
        &neighbor->inBuf_[static_cast<std::size_t>(oppositePort(out))];
    port.peer = port.peerBuf->view();
    port.util = util;
    port.link = link;
    // The facing input on the neighbor is fed by this router: popping
    // it frees a slot this router may be blocked on (credit wake).
    neighbor->upstream_[static_cast<std::size_t>(oppositePort(out))] =
        this;
}

MeshPort
MeshRouter::routeOf(NodeId dst) const
{
    if (routeRow_)
        return static_cast<MeshPort>(routeRow_[dst]);
    return routeOfCoordinate(dst);
}

MeshPort
MeshRouter::routeOfCoordinate(NodeId dst) const
{
    const int dst_x = dst % width_;
    const int dst_y = dst / width_;
    if (dst_x > x_)
        return PortEast;
    if (dst_x < x_)
        return PortWest;
    if (dst_y > y_)
        return PortSouth;
    if (dst_y < y_)
        return PortNorth;
    return PortLocal;
}

const FlitHandle *
MeshRouter::peekInput(int in) const
{
    if (in != PortLocal) {
        const auto &buf = inBuf_[static_cast<std::size_t>(in)];
        return buf.empty() ? nullptr : &buf.front();
    }
    // Local port: continue the bound queue's worm, else responses
    // have priority over requests at packet boundaries.
    switch (localSrc_) {
      case LocalSrc::Resp:
        return outResp_.empty() ? nullptr : &outResp_.front();
      case LocalSrc::Req:
        return outReq_.empty() ? nullptr : &outReq_.front();
      case LocalSrc::None:
        if (!outResp_.empty())
            return &outResp_.front();
        if (!outReq_.empty())
            return &outReq_.front();
        return nullptr;
    }
    return nullptr;
}

bool
MeshRouter::quiescent() const
{
    // Nothing visible to arbitrate or forward this cycle. Staged
    // flits pushed by neighbors only become visible at commit(), and
    // an owned-but-starved output port does no work either, so
    // evaluate() is a provable no-op in this state.
    for (const auto &buf : inBuf_) {
        if (!buf.empty())
            return false;
    }
    return outResp_.empty() && outReq_.empty();
}

void
MeshRouter::evaluateLegacy(Cycle now)
{
    if (quiescent())
        return;

    // 1. Collect output requests from unbound inputs with a routable
    //    head flit at their front.
    std::array<PortMask, NumMeshPorts> requests{};
    PortMask wanted = 0;
    for (int in = 0; in < NumMeshPorts; ++in) {
        if (inputBound_[static_cast<std::size_t>(in)] != -1)
            continue;
        const FlitHandle *head = peekInput(in);
        if (!head)
            continue;
        HRSIM_ASSERT(head->isHead());
        const MeshPort out = routeOfCoordinate(head->dst);
        requests[static_cast<std::size_t>(out)] |=
            static_cast<PortMask>(1u << in);
        wanted |= static_cast<PortMask>(1u << out);
    }

    // 2. Round-robin arbitration for each free output port.
    grantRequests(requests, wanted);

    // 3. Switch traversal: one flit per owned output, flow-control
    //    permitting.
    for (int out = 0; out < NumMeshPorts; ++out) {
        if (out_[static_cast<std::size_t>(out)].owner == -1)
            continue;
        traverseOutput(out, now);
    }
}

void
MeshRouter::evaluateFast(Cycle now)
{
    // Port activity mask: one bit per input with a visible flit
    // (staged pushes only become visible at commit, so this cannot
    // race with neighbors). If nothing is visible the cycle is a
    // no-op, even when an output is still owned: an owned-but-starved
    // port just holds its binding, exactly as the reference traversal
    // loop would.
    //
    // The six cursor blocks are contiguous, so the whole visibility
    // scan reads one or two cache lines off a single base pointer,
    // and builds the mask with shifts instead of a branch per queue.
    // The local port sees the queue its worm is bound to, or either
    // queue at a packet boundary: bit 0 of the selector admits
    // outResp_, bit 1 outReq_ (indexed by LocalSrc).
    static constexpr std::array<unsigned, 3> localSel = {0b11, 0b01,
                                                         0b10};
    const unsigned queues = unsigned{col_[4].visible != 0} |
                            unsigned{col_[5].visible != 0} << 1;
    const unsigned local_vis =
        (queues & localSel[static_cast<std::size_t>(localSrc_)]) != 0;
    const auto vis = static_cast<PortMask>(
        unsigned{col_[0].visible != 0} |
        unsigned{col_[1].visible != 0} << 1 |
        unsigned{col_[2].visible != 0} << 2 |
        unsigned{col_[3].visible != 0} << 3 | local_vis << PortLocal);
    if (vis == 0)
        return;

    // 1+2. Routing and arbitration only run for visible *unbound*
    //      inputs — every flit at the front of an unbound input is a
    //      head (worms unbind exactly when their tail pops). Bound
    //      inputs stream below without touching routeOf() or the
    //      round-robin state.
    const PortMask unbound = vis & static_cast<PortMask>(~boundMask_);
    if (unbound != 0) {
        std::array<PortMask, NumMeshPorts> requests{};
        PortMask wanted = 0;
        for (PortMask m = unbound; m != 0; m = dropLowestPort(m)) {
            const int in = lowestSetPort(m);
            const FlitHandle *head = peekInput(in);
            HRSIM_ASSERT(head != nullptr && head->isHead());
            const int out = routeOf(head->dst);
            requests[static_cast<std::size_t>(out)] |=
                static_cast<PortMask>(1u << in);
            wanted |= static_cast<PortMask>(1u << out);
        }
        grantRequests(requests, wanted);
    }

    // 3. Worm streaming: owned outputs in ascending port order (the
    //    same order the straight-line loop visits them; see the
    //    PortMask contract in sim/columns.hh).
    for (PortMask m = ownedMask_; m != 0; m = dropLowestPort(m))
        traverseOutput(lowestSetPort(m), now);
}

void
MeshRouter::grantRequests(
    const std::array<PortMask, NumMeshPorts> &requests, PortMask wanted)
{
    // Each input requests one output, so the grants are independent;
    // ascending order still matches the reference port scan.
    for (PortMask m = wanted & static_cast<PortMask>(~ownedMask_);
         m != 0; m = dropLowestPort(m)) {
        const int out = lowestSetPort(m);
        const int base =
            roundRobin_ ? out_[static_cast<std::size_t>(out)].rrPtr : 0;
        grantOutput(out,
                    arbitrateInputs(
                        requests[static_cast<std::size_t>(out)], base));
    }
}

void
MeshRouter::grantOutput(int out, int in)
{
    Output &port = out_[static_cast<std::size_t>(out)];
    const FlitHandle *head = peekInput(in);
    HRSIM_ASSERT(head != nullptr);
    port.owner = in;
    port.wormSlot = head->slot;
    inputBound_[static_cast<std::size_t>(in)] = out;
    boundMask_ |= static_cast<PortMask>(1u << in);
    ownedMask_ |= static_cast<PortMask>(1u << out);
    port.rrPtr = (in + 1) % NumMeshPorts;
    hot_->changed = true;
    if (in == PortLocal) {
        if (localSrc_ == LocalSrc::None) {
            // Bind the queue now: a packet arriving in the other
            // queue before the first flit crosses must not steal the
            // port (responses only outrank requests at packet
            // boundaries).
            localSrc_ =
                outResp_.empty() ? LocalSrc::Req : LocalSrc::Resp;
        }
        port.src = (localSrc_ == LocalSrc::Resp ? outResp_ : outReq_)
                       .view();
        port.srcUpstream = nullptr;
    } else {
        port.src = inBuf_[static_cast<std::size_t>(in)].view();
        port.srcUpstream = upstream_[static_cast<std::size_t>(in)];
        HRSIM_ASSERT(port.srcUpstream != nullptr);
    }
}

// Inline: the per-flit step of both evaluates. A call per owned port
// per cycle costs more than the duplicated body.
[[gnu::always_inline]] inline void
MeshRouter::traverseOutput(int out, Cycle now)
{
    Output &port = out_[static_cast<std::size_t>(out)];
    if (faults_ && out != PortLocal &&
        (faults_->out[static_cast<std::size_t>(out)].killing ||
         faults_->portDown[static_cast<std::size_t>(out)] != 0)) {
        killOutput(out);
        return;
    }
    const FifoView<FlitHandle> src = port.src;
    if (src.empty())
        return; // worm starved: hold the port
    const FlitHandle *next = &src.front();
    HRSIM_ASSERT(next->slot == port.wormSlot);
    bool tail;
    if (out == PortLocal) {
        // Ejection: the PM always sinks. Copy the flit out first —
        // the delivery callback runs after the pop (it may re-enter
        // this router through a synchronous response injection).
        const FlitHandle flit = *next;
        src.dropFront();
        if (port.srcUpstream)
            wakeNeighbor(port.srcUpstream);
        hot_->changed = true;
        streamedFlits_ += static_cast<std::uint64_t>(!flit.isHead());
        tail = flit.isTail();
        if (acct_) {
            if (flit.poisoned())
                ++acct_->droppedFlits;
            else
                ++acct_->deliveredFlits;
        }
        // Poisoned worms (corrupted headers, or the kill token of a
        // truncated worm) drain out here but are never delivered.
        if (tail && deliver_ && !flit.poisoned()) {
            // Copy the packet out before the release frees its slot:
            // a response injected by the callback may reuse it.
            const Packet pkt = packets_->packet(flit.slot);
            packets_->release(flit.slot);
            deliver_(pkt, now);
        } else {
            packets_->release(flit.slot);
        }
    } else {
        HRSIM_ASSERT(port.peerBuf != nullptr);
        if (!port.peer.canPush())
            return; // blocked: flits wait in the input buffer
        bool poison = false;
        if (faults_) {
            auto &kill = faults_->out[static_cast<std::size_t>(out)];
            if (next->isHead() &&
                faults_->portCorrupt[static_cast<std::size_t>(out)] !=
                    0) {
                // Corrupt fault: the header crossing the bad link
                // poisons the whole worm (sticky past the window and
                // past any nested window boundary — the header is
                // what's broken).
                kill.poisoning = true;
                if (acct_)
                    ++acct_->poisonedWorms;
            }
            poison = kill.poisoning;
            if (poison && next->isTail())
                kill.poisoning = false;
        }
        // Stream the flit straight from the input front into the
        // downstream buffer: one 12-byte handle copy.
        FlitHandle copy = *next;
        copy.flags |= static_cast<std::uint8_t>(
            poison ? FlitHandle::Poisoned : 0);
        port.peer.pushFrom(copy);
        hot_->changed = true;
        wakeNeighbor(port.neighbor);
        if (port.utilCounter != nullptr && *port.utilMeasuring)
            ++*port.utilCounter;
        HRSIM_TRACE_FLIT(tracerSlot_ ? *tracerSlot_ : nullptr,
                         FlitEvent::Hop, packets_->packet(next->slot).id,
                         id_, port.peer.totalSize());
        streamedFlits_ +=
            static_cast<std::uint64_t>(!next->isHead());
        tail = next->isTail();
        src.dropFront();
        if (port.srcUpstream)
            wakeNeighbor(port.srcUpstream);
    }
    if (tail) {
        inputBound_[static_cast<std::size_t>(port.owner)] = -1;
        boundMask_ &= static_cast<PortMask>(~(1u << port.owner));
        ownedMask_ &= static_cast<PortMask>(~(1u << out));
        if (port.owner == PortLocal)
            localSrc_ = LocalSrc::None;
        port.owner = -1;
        port.wormSlot = 0;
        port.src = {};
        port.srcUpstream = nullptr;
    }
}

void
MeshRouter::killOutput(int out)
{
    Output &port = out_[static_cast<std::size_t>(out)];
    if (port.owner == -1)
        return; // nothing bound to the dead link yet
    const FifoView<FlitHandle> src = port.src;
    if (src.empty())
        return; // starved: the rest of the worm is still upstream
    const FlitHandle *next = &src.front();
    HRSIM_ASSERT(next->slot == port.wormSlot);
    auto &kill = faults_->out[static_cast<std::size_t>(out)];
    if (!kill.killing) {
        kill.killing = true;
        kill.decided = false;
    }
    if (!kill.decided) {
        // First flit of the condemned worm tells us whether its head
        // already crossed: flits cross in order, so a front index
        // above zero means the worm's leading flits are downstream
        // and the kill must send them a terminator.
        kill.decided = true;
        kill.terminator = next->index > 0;
        if (acct_)
            ++acct_->droppedWorms;
    }
    if (kill.terminator) {
        // Terminate the downstream fragment: hand it one poisoned
        // tail flit (the link-level error token of the dead link) so
        // every router ahead unbinds normally and the fragment drains
        // to its ejection port, where the poison suppresses delivery.
        HRSIM_ASSERT(port.peerBuf != nullptr);
        if (!port.peer.canPush())
            return; // wait for space; credit wake re-runs this
        // The token takes over the live count of the flit it
        // replaces, so the packet's slot stays held until it ejects.
        FlitHandle token = *next;
        token.index = static_cast<std::uint16_t>(
            packets_->packet(next->slot).sizeFlits - 1);
        token.flags = FlitHandle::Tail | FlitHandle::Poisoned;
        port.peer.pushFrom(token);
        wakeNeighbor(port.neighbor);
        kill.terminator = false;
    } else {
        packets_->release(next->slot);
        if (acct_)
            ++acct_->droppedFlits;
    }
    // Drain one flit per cycle, exactly the rate of a live link;
    // the drop frees the upstream slot, so credits flow and the
    // fabric behind the fault never wedges.
    const bool tail = next->isTail();
    src.dropFront();
    if (port.srcUpstream)
        wakeNeighbor(port.srcUpstream);
    hot_->changed = true;
    if (tail) {
        inputBound_[static_cast<std::size_t>(port.owner)] = -1;
        boundMask_ &= static_cast<PortMask>(~(1u << port.owner));
        ownedMask_ &= static_cast<PortMask>(~(1u << out));
        if (port.owner == PortLocal)
            localSrc_ = LocalSrc::None;
        port.owner = -1;
        port.wormSlot = 0;
        port.src = {};
        port.srcUpstream = nullptr;
        kill.killing = false;
        kill.decided = false;
    }
}

bool
MeshRouter::canInject(const Packet &pkt) const
{
    const MeshFifo &queue =
        isRequest(pkt.type) ? outReq_ : outResp_;
    return queue.producerSpace() >= pkt.sizeFlits;
}

void
MeshRouter::inject(const Packet &pkt)
{
    HRSIM_ASSERT(canInject(pkt));
    HRSIM_ASSERT(pkt.sizeFlits <= UINT16_MAX);
    MeshFifo &queue = isRequest(pkt.type) ? outReq_ : outResp_;
    const std::uint32_t slot = packets_->add(pkt, pkt.sizeFlits);
    for (std::uint32_t i = 0; i < pkt.sizeFlits; ++i) {
        queue.push({slot, pkt.dst, static_cast<std::uint16_t>(i),
                    i + 1 == pkt.sizeFlits ? FlitHandle::Tail
                                           : std::uint8_t{0}});
    }
}

const MeshFifo &
MeshRouter::inputBuffer(MeshPort port) const
{
    HRSIM_ASSERT(port != PortLocal);
    return inBuf_[static_cast<std::size_t>(port)];
}

std::uint64_t
MeshRouter::flitCount() const
{
    std::uint64_t count = outResp_.totalSize() + outReq_.totalSize();
    for (const auto &buf : inBuf_)
        count += buf.totalSize();
    return count;
}

void
MeshRouter::saveState(CkptWriter &w) const
{
    for (const auto &buf : inBuf_)
        saveHandleFifo(w, buf, *packets_);
    saveHandleFifo(w, outResp_, *packets_);
    saveHandleFifo(w, outReq_, *packets_);
    w.u8(static_cast<std::uint8_t>(localSrc_));
    for (const int bound : inputBound_)
        w.i32(bound);
    for (const Output &port : out_) {
        w.i32(port.owner);
        // Snapshots name the worm by packet id (0 for a free port):
        // slots are not stable across a reload.
        w.u64(port.owner == -1 ? 0 : packets_->packet(port.wormSlot).id);
        w.i32(port.rrPtr);
    }
    w.u8(boundMask_);
    w.u8(ownedMask_);
    w.u64(streamedFlits_);
    w.boolean(hot_->changed);
    w.boolean(hot_->poked);
}

void
MeshRouter::loadState(CkptReader &r, PacketTableLoader &loader)
{
    for (auto &buf : inBuf_)
        loadHandleFifo(r, buf, loader);
    loadHandleFifo(r, outResp_, loader);
    loadHandleFifo(r, outReq_, loader);
    localSrc_ = static_cast<LocalSrc>(r.u8());
    for (int &bound : inputBound_)
        bound = r.i32();
    for (Output &port : out_) {
        port.owner = r.i32();
        const PacketId worm = r.u64();
        port.wormSlot = 0;
        if (port.owner != -1)
            loader.defer(worm, &port.wormSlot);
        port.rrPtr = r.i32();
    }
    boundMask_ = r.u8();
    ownedMask_ = r.u8();
    streamedFlits_ = r.u64();
    hot_->changed = r.boolean();
    hot_->poked = r.boolean();
    // Rebuild the derived per-grant caches (grantOutput()'s recipe):
    // the source view and credit-wake target are fixed for the worm's
    // lifetime, so they follow directly from the owner input.
    for (std::size_t out = 0; out < NumMeshPorts; ++out) {
        Output &port = out_[out];
        if (port.owner == -1) {
            port.src = {};
            port.srcUpstream = nullptr;
        } else if (port.owner == PortLocal) {
            HRSIM_ASSERT(localSrc_ != LocalSrc::None);
            port.src =
                (localSrc_ == LocalSrc::Resp ? outResp_ : outReq_)
                    .view();
            port.srcUpstream = nullptr;
        } else {
            port.src =
                inBuf_[static_cast<std::size_t>(port.owner)].view();
            port.srcUpstream =
                upstream_[static_cast<std::size_t>(port.owner)];
            HRSIM_ASSERT(port.srcUpstream != nullptr);
        }
    }
}

} // namespace hrsim
