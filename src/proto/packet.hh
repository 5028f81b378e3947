/**
 * @file
 * Packets and flits of the simulated memory-access protocol.
 *
 * Four packet types are simulated, as in the paper: read request,
 * read response, write request and write response. Packets are
 * variable-sized and travel as contiguous sequences of flits. Sizing
 * follows Section 2 of the paper exactly:
 *
 *  - Rings: 128-bit (16 B) channels, 1-flit headers. A packet that
 *    carries a cache line is 1 + line/16 flits (2/3/5/9 flits for
 *    16/32/64/128 B lines); header-only packets are 1 flit.
 *  - Meshes: 32-bit (4 B) channels, 4-flit headers. Cache-line
 *    packets are 4 + line/4 flits (8/12/20/36); header-only packets
 *    are 4 flits.
 *
 * No distinction is made between phits and flits.
 */

#ifndef HRSIM_PROTO_PACKET_HH
#define HRSIM_PROTO_PACKET_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace hrsim
{

/** The four simulated packet types. */
enum class PacketType : std::uint8_t
{
    ReadRequest,
    ReadResponse,
    WriteRequest,
    WriteResponse,
};

/** True for the two request types. */
bool isRequest(PacketType type);

/** True for packet types that carry a cache line of data. */
bool carriesData(PacketType type);

/** Response type matching a request type. */
PacketType responseFor(PacketType request);

/** Human-readable name, for traces and tests. */
std::string toString(PacketType type);

/** Channel geometry of a network, fixing flit and header sizes. */
struct ChannelSpec
{
    std::uint32_t flitBytes;   //!< channel (data path) width in bytes
    std::uint32_t headerFlits; //!< flits consumed by the packet header

    /** The ring spec from the paper: 128-bit channel, 1-flit header. */
    static ChannelSpec ring() { return {16, 1}; }

    /** The mesh spec from the paper: 32-bit channel, 4-flit header. */
    static ChannelSpec mesh() { return {4, 4}; }

    /** Flits in a packet of @a type for @a cache_line_bytes lines. */
    std::uint32_t packetFlits(PacketType type,
                              std::uint32_t cache_line_bytes) const;

    /** Flits in a packet carrying a cache line (the paper's "cl"). */
    std::uint32_t cacheLineFlits(std::uint32_t cache_line_bytes) const;
};

/**
 * Metadata of one in-flight packet. The simulator is flit-accurate
 * but data-free: packets carry no payload bytes, only sizes.
 */
struct Packet
{
    PacketId id = 0;
    PacketType type = PacketType::ReadRequest;
    NodeId src = invalidNode;
    NodeId dst = invalidNode;
    std::uint32_t sizeFlits = 0;
    /** Cycle the original request was issued (for round-trip time). */
    Cycle issueCycle = 0;
    /**
     * Id of the request packet a response answers (0 for requests).
     * Lets a processor with a retry engine match a response to the
     * pending transaction even after the request was reissued under
     * a different packet id.
     */
    PacketId reqId = 0;
};

/**
 * One flit in flight. Every flit carries the metadata of its packet
 * (destination, source, type, size, issue time); only head flits
 * would in hardware, but replicating the fields keeps the simulator
 * simple and lets the receiver rebuild the Packet without a central
 * in-flight registry.
 *
 * The mesh queues hold 12-byte FlitHandles into a per-network
 * PacketTable instead (proto/packet_table.hh): a mesh worm is 8-36
 * flits, so its metadata copies dominated the per-hop bytes. The ring
 * and the slotted ring keep full Flits. Ring worms are 1-9 flits on
 * 128-bit channels, and the ring tick is bound by arbitration and
 * admission, not by bytes: a ring Flit narrowed to 40 bytes measured
 * only 4-5% faster on the saturated ring benchmark, too little to pay
 * for a second table and its checkpoint mapping on the ring.
 */
struct Flit
{
    PacketId packet = 0;
    std::uint32_t index = 0;     //!< position within the packet
    std::uint32_t sizeFlits = 0; //!< total flits in the packet
    NodeId dst = invalidNode;
    NodeId src = invalidNode;
    PacketType type = PacketType::ReadRequest;
    Cycle issueCycle = 0;        //!< issue time of the original request
    PacketId reqId = 0;          //!< answered request id (responses)
    /** Remaining ring hops of a broadcast cell (slotted mode). */
    std::uint16_t ttl = 0;
    /**
     * Header corrupted by a fault window. The flag is sticky for the
     * whole worm (the head's poisoning spreads to every flit behind
     * it at the faulted link) and makes the receiver drop the packet
     * at ejection instead of delivering it.
     */
    bool poisoned = false;

    bool isHead() const { return index == 0; }
    bool isTail() const { return index + 1 == sizeFlits; }
    bool isBroadcast() const { return dst == broadcastNode; }
};

/** Rebuild packet metadata from any of its flits. */
Packet packetFromFlit(const Flit &flit);

/** Build the @a index-th flit of @a packet. */
Flit makeFlit(const Packet &packet, std::uint32_t index);

} // namespace hrsim

#endif // HRSIM_PROTO_PACKET_HH
