/**
 * @file
 * Per-network table of in-flight packets and the 12-byte flit handles
 * that point into it.
 *
 * A mesh worm is 8-36 flits (4-flit headers on 32-bit channels), and a
 * full Flit repeats its packet's metadata in every one of them. The
 * mesh instead stores each packet once in a PacketTable slot and
 * moves FlitHandles through its queues: the
 * slot, the routing destination (so a head routes without touching
 * the table), the flit's index and its tail/poison bits. The table
 * counts each packet's live flits; the slot is freed when the last
 * one ejects or is dropped, so the table holds exactly the packets
 * that still have flits buffered somewhere in the network.
 */

#ifndef HRSIM_PROTO_PACKET_TABLE_HH
#define HRSIM_PROTO_PACKET_TABLE_HH

#include <cstdint>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"
#include "proto/packet.hh"

namespace hrsim
{

/** One flit in a mesh queue: a handle onto its PacketTable slot. */
struct FlitHandle
{
    static constexpr std::uint8_t Tail = 1;     //!< last flit of the worm
    static constexpr std::uint8_t Poisoned = 2; //!< see Flit::poisoned

    std::uint32_t slot = 0;   //!< the packet's PacketTable slot
    NodeId dst = invalidNode; //!< the packet's destination (routing)
    std::uint16_t index = 0;  //!< position within the packet
    std::uint8_t flags = 0;   //!< Tail | Poisoned

    bool isHead() const { return index == 0; }
    bool isTail() const { return (flags & Tail) != 0; }
    bool poisoned() const { return (flags & Poisoned) != 0; }
};

static_assert(sizeof(FlitHandle) == 12, "mesh flit handles are 12 bytes");

class PacketTable
{
  public:
    /**
     * Store @a pkt with @a flits live flits and return its slot.
     * Freed slots are reused last-freed first.
     */
    std::uint32_t
    add(const Packet &pkt, std::uint32_t flits)
    {
        HRSIM_ASSERT(flits > 0);
        std::uint32_t slot;
        if (free_.empty()) {
            slot = static_cast<std::uint32_t>(entries_.size());
            entries_.push_back({});
        } else {
            slot = free_.back();
            free_.pop_back();
        }
        entries_[slot] = {pkt, flits};
        ++live_;
        return slot;
    }

    const Packet &
    packet(std::uint32_t slot) const
    {
        HRSIM_ASSERT(slot < entries_.size() && entries_[slot].flits > 0);
        return entries_[slot].pkt;
    }

    /** The full flit @a h stands for (checkpoints, diagnostics). */
    Flit
    flit(const FlitHandle &h) const
    {
        Flit flit = makeFlit(packet(h.slot), h.index);
        flit.poisoned = h.poisoned();
        return flit;
    }

    /** One more live flit of the packet in @a slot. */
    void
    retain(std::uint32_t slot)
    {
        HRSIM_ASSERT(slot < entries_.size() && entries_[slot].flits > 0);
        ++entries_[slot].flits;
    }

    /**
     * One flit of the packet in @a slot left the network (ejected or
     * dropped); the last one frees the slot.
     */
    void
    release(std::uint32_t slot)
    {
        HRSIM_ASSERT(slot < entries_.size() && entries_[slot].flits > 0);
        if (--entries_[slot].flits == 0) {
            free_.push_back(slot);
            --live_;
        }
    }

    /** Slots holding a packet with live flits. */
    std::size_t liveSlots() const { return live_; }

    /** Forget every packet (checkpoint reload). */
    void
    clear()
    {
        entries_.clear();
        free_.clear();
        live_ = 0;
    }

  private:
    struct Entry
    {
        Packet pkt;
        std::uint32_t flits = 0; //!< live flits; 0 = free slot
    };
    std::vector<Entry> entries_;
    std::vector<std::uint32_t> free_;
    std::size_t live_ = 0;
};

} // namespace hrsim

#endif // HRSIM_PROTO_PACKET_TABLE_HH
