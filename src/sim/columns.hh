/**
 * @file
 * Columnar tick-engine primitives: the two-level bitmap active mask,
 * the per-port activity mask, and the hot per-router flag pair.
 *
 * The networks keep their hot per-cycle state out of the node objects
 * in flat struct-of-arrays columns they own — ring input latches and
 * acceptance flags (ring_node.hh points RingSide at them), mesh FIFO
 * cursor blocks (FifoState columns bound through ColumnFifo) and the
 * mesh routers' changed/poked flags — so the evaluate/commit phases
 * are linear sweeps over contiguous arrays instead of walks over
 * ~0.5 KB node objects. Each network constructor binds the columns
 * once; node classes read and write the hot state through handles.
 */

#ifndef HRSIM_SIM_COLUMNS_HH
#define HRSIM_SIM_COLUMNS_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "common/log.hh"

namespace hrsim
{

/**
 * Port-granular activity mask: the node-granular ActiveMask below
 * says *which* components tick, a PortMask says which of a
 * component's few ports have work, so its evaluate touches only
 * those. One bit per port in a uint8 (no component has more than 8),
 * iterated lowest bit first with ctz — ascending port order, which is
 * exactly the order the straight-line loops visit ports in, so a
 * mask-driven loop is bit-identical to the full port scan by
 * construction:
 *
 *     for (PortMask m = mask; m != 0; m = dropLowestPort(m))
 *         visit(lowestSetPort(m));
 */
using PortMask = std::uint8_t;

/** Index of the lowest set bit (mask must be nonzero). */
inline int
lowestSetPort(PortMask mask)
{
    return std::countr_zero(mask);
}

/** Clear the lowest set bit. */
inline PortMask
dropLowestPort(PortMask mask)
{
    return static_cast<PortMask>(mask & (mask - 1));
}

/**
 * Two-level 64-bit bitmap over component ids: one leaf bit per id
 * plus one summary bit per leaf word, so membership scans cost
 * O(set bits) in both the sparse regime (ctz hops from summary bit
 * to summary bit) and the dense one (long runs collapse into full
 * leaf words) — no per-id branch and no member vector to sort.
 *
 * Every scan visits the *live* set in ascending id order; there is
 * no wake-order view and no start-of-phase prefix. That is sound for
 * exactly the places the production ticks use it (see DESIGN.md
 * section 14): a component woken mid-phase was asleep, i.e. empty
 * (ring) or provably no-op (mesh), and staged flits stay invisible
 * until commit, so visiting it early is indistinguishable from not
 * visiting it; end-of-cycle commits and sleep sweeps touch one
 * component each, so any order serves them.
 *
 * forEach() snapshots the summary word per 4096-id block and each
 * 64-id leaf word as it reaches it: bits added into the word being
 * scanned — or into a previously-empty word whose summary bit missed
 * the snapshot — are picked up next cycle, while bits added into a
 * still-ahead live word or a later summary block are visited this
 * pass (as the full scan would — a no-op visit).
 */
class ActiveMask
{
  public:
    /** Reset to an empty mask over ids [0, n). */
    void
    reset(std::size_t n)
    {
        const std::size_t words = (n + 63) / 64;
        words_.assign(words, 0);
        summary_.assign((words + 63) / 64, 0);
        count_ = 0;
    }

    /**
     * Wake @a id. Idempotent; O(1). Branch-free: whether a wake
     * finds its target already awake changes from wake to wake, so
     * testing that first mispredicts.
     */
    void
    add(std::uint32_t id)
    {
        const std::size_t w = id / 64;
        HRSIM_ASSERT(w < words_.size());
        const std::uint64_t word = words_[w];
        count_ += static_cast<std::size_t>(~word >> (id % 64) & 1u);
        words_[w] = word | std::uint64_t{1} << (id % 64);
        summary_[w / 64] |= std::uint64_t{1} << (w % 64);
    }

    bool
    contains(std::uint32_t id) const
    {
        const std::size_t w = id / 64;
        HRSIM_ASSERT(w < words_.size());
        return (words_[w] >> (id % 64)) & 1u;
    }

    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }

    /**
     * Visit every member in ascending id order. Members added during
     * the scan are visited iff their leaf word lies beyond the scan
     * position (see the class comment for why either is sound).
     */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t s = 0; s < summary_.size(); ++s) {
            std::uint64_t sum = summary_[s];
            while (sum != 0) {
                const std::size_t w =
                    s * 64 +
                    static_cast<std::size_t>(std::countr_zero(sum));
                sum &= sum - 1;
                std::uint64_t word = words_[w];
                while (word != 0) {
                    const auto id = static_cast<std::uint32_t>(
                        w * 64 + static_cast<std::size_t>(
                                     std::countr_zero(word)));
                    word &= word - 1;
                    fn(id);
                }
            }
        }
    }

    /**
     * Keep only members for which @a pred returns true (ascending id
     * order; removed members' bits clear). @a pred must not add()
     * — the sleep sweeps never wake anything.
     */
    template <typename Pred>
    void
    retain(Pred &&pred)
    {
        for (std::size_t s = 0; s < summary_.size(); ++s) {
            std::uint64_t sum = summary_[s];
            while (sum != 0) {
                const std::size_t w =
                    s * 64 +
                    static_cast<std::size_t>(std::countr_zero(sum));
                sum &= sum - 1;
                std::uint64_t word = words_[w];
                std::uint64_t kept = word;
                while (word != 0) {
                    const std::uint64_t bit = word & (~word + 1);
                    const auto id = static_cast<std::uint32_t>(
                        w * 64 + static_cast<std::size_t>(
                                     std::countr_zero(word)));
                    word &= word - 1;
                    // Branch-free drop: the keep/sleep verdict is
                    // data-dependent, so clear the bit by arithmetic.
                    const std::uint64_t drop =
                        static_cast<std::uint64_t>(!pred(id));
                    kept &= ~(bit * drop);
                    count_ -= static_cast<std::size_t>(drop);
                }
                words_[w] = kept;
                summary_[s] &= ~(static_cast<std::uint64_t>(kept == 0)
                                 << (w % 64));
            }
        }
    }

  private:
    std::vector<std::uint64_t> words_;   //!< one bit per id
    std::vector<std::uint64_t> summary_; //!< one bit per leaf word
    std::size_t count_ = 0;
};

/**
 * Hot per-router flag pair, held in a network column so the
 * end-of-cycle sleep sweep reads a contiguous array instead of
 * touching every router object (mesh_router.hh holds a pointer).
 */
struct RouterFlags
{
    /** This cycle's evaluate granted a port or moved a flit. */
    bool changed = false;
    /** External wake event since the last sleep sweep. */
    bool poked = false;
};

} // namespace hrsim

#endif // HRSIM_SIM_COLUMNS_HH
