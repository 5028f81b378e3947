/**
 * @file
 * Bounded FIFO with two-phase (staged) cycle semantics.
 *
 * All hrsim network components exchange flits through StagedFifo
 * queues. The queue models a synchronous hardware FIFO evaluated with
 * a propose/commit discipline:
 *
 *  - push() stages an element; it becomes visible to the consumer only
 *    after the end-of-cycle commit().
 *  - pop() removes an element immediately for the consumer, but the
 *    slot it frees is not usable by producers until commit(). This is
 *    the registered-flow-control behaviour of a hardware FIFO whose
 *    "full" flag is sampled at the clock edge.
 *  - canPush() therefore answers "may a producer insert this cycle"
 *    against the start-of-cycle occupancy plus already-staged pushes.
 *
 * With these rules, the result of a simulated cycle is independent of
 * the order in which components are evaluated, provided each queue has
 * a single producer and a single consumer per cycle (asserted).
 *
 * Storage is a single ring buffer fixed at setCapacity(): these
 * queues sit on the simulator's per-cycle hot path (every flit of
 * every packet moves through several of them), so steady-state
 * operation performs no heap allocation at all. Queues up to
 * InlineCap elements live in an in-object small buffer — no heap
 * allocation even at construction, and the flits stay on the same
 * cache lines as the queue bookkeeping; deeper queues either make
 * one heap allocation or, via the setCapacity(capacity, T*)
 * overload, borrow caller-provided storage (the mesh network's
 * per-router arena). InlineCap is a per-use-site tuning knob: the
 * shallow ring-network queues (<= 5 flits at the benchmarked
 * cache-line sizes) benefit from the locality, while the mesh router
 * uses InlineCap = 0 with arena storage — six in-object buffers per
 * router would bloat the object past what its per-cycle sweep can
 * hold in cache (measured slower).
 * Visible and staged elements share the ring: staged pushes are
 * appended after the visible region and commit() simply extends the
 * visible count. The canPush() accounting (start-of-cycle visible +
 * staged < capacity) guarantees the writer can never overrun the
 * reader even though popped slots are reused physically before
 * commit().
 *
 * Counter ownership: `visible` is *frozen* for the whole cycle —
 * pops advance `head` and bump `poppedThisCycle` instead of
 * decrementing it, and commit() folds both deltas back in. The
 * consumer-side live size is visible - poppedThisCycle and the
 * producer-side occupancy is visible + staged. So during the
 * evaluate phase every field a *producer* reads (capacity, visible,
 * tail, staged) is either frozen or written only by that producer,
 * and every field the *consumer* touches (head, poppedThisCycle) is
 * read only by the consumer. Neither side sees the other's moves
 * until commit(), so the order in which a cycle evaluates producer
 * and consumer cannot change the result.
 */

#ifndef HRSIM_COMMON_STAGED_FIFO_HH
#define HRSIM_COMMON_STAGED_FIFO_HH

#include <array>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/log.hh"

namespace hrsim
{

template <typename T, std::size_t InlineCap = 6>
class StagedFifo
{
  public:
    /** Queues at most this deep use the in-object small buffer. */
    static constexpr std::size_t inlineCapacity = InlineCap;

    /** Construct a FIFO holding at most @a capacity elements. */
    explicit StagedFifo(std::size_t capacity = 0)
    {
        setCapacity(capacity);
    }

    // Non-copyable/non-movable: ext_ may alias heap_'s buffer (or a
    // caller's arena), which a memberwise copy would leave dangling.
    // Every queue in the simulator is a pinned member of a pinned
    // component, so relocation is never needed.
    StagedFifo(const StagedFifo &) = delete;
    StagedFifo &operator=(const StagedFifo &) = delete;
    StagedFifo(StagedFifo &&) = delete;
    StagedFifo &operator=(StagedFifo &&) = delete;

    /** Change the capacity; only legal on an empty queue. */
    void
    setCapacity(std::size_t capacity)
    {
        HRSIM_ASSERT(visible_ == poppedThisCycle_ && staged_ == 0);
        capacity_ = static_cast<std::uint32_t>(capacity);
        heap_.clear();
        ext_ = nullptr;
        if (capacity_ > inlineCapacity) {
            heap_.resize(capacity_);
            ext_ = heap_.data();
        }
        head_ = 0;
        tail_ = 0;
        visible_ = 0;
        poppedThisCycle_ = 0;
    }

    /**
     * Like setCapacity(), but places element storage in
     * caller-provided memory holding at least @a capacity elements
     * (e.g. a network-wide arena that keeps one component's queues on
     * adjacent cache lines). The caller keeps ownership and must keep
     * the storage alive for the queue's lifetime. Only meaningful
     * beyond the inline capacity; at or below it the small buffer is
     * used as usual.
     */
    void
    setCapacity(std::size_t capacity, T *storage)
    {
        HRSIM_ASSERT(visible_ == poppedThisCycle_ && staged_ == 0);
        HRSIM_ASSERT(storage != nullptr);
        capacity_ = static_cast<std::uint32_t>(capacity);
        heap_.clear();
        ext_ = capacity_ > inlineCapacity ? storage : nullptr;
        head_ = 0;
        tail_ = 0;
        visible_ = 0;
        poppedThisCycle_ = 0;
    }

    std::size_t capacity() const { return capacity_; }

    /** Elements still visible to the consumer this cycle. */
    std::size_t size() const { return visible_ - poppedThisCycle_; }

    bool empty() const { return visible_ == poppedThisCycle_; }

    /**
     * Occupancy as seen by a producer: start-of-cycle visible
     * elements (pops free slots only at commit) plus staged pushes.
     */
    std::size_t
    producerOccupancy() const
    {
        return visible_ + staged_;
    }

    /** May a producer stage an element this cycle? */
    bool canPush() const { return producerOccupancy() < capacity_; }

    /** Free producer slots remaining this cycle. */
    std::size_t
    producerSpace() const
    {
        const std::size_t occ = producerOccupancy();
        return occ >= capacity_ ? 0 : capacity_ - occ;
    }

    /** Stage an element; visible to the consumer after commit(). */
    void
    push(T value)
    {
        HRSIM_ASSERT(canPush());
        data()[tail_] = std::move(value);
        tail_ = advance(tail_);
        ++staged_;
    }

    /**
     * Stage a copy of @a value. Same semantics as push(), but takes
     * the element by reference so forwarding a flit from one queue's
     * front into the next queue is a single element copy (push() by
     * value costs a copy into the parameter plus a move into the
     * slot, and T here is a plain struct whose move is a copy).
     */
    void
    pushFrom(const T &value)
    {
        HRSIM_ASSERT(canPush());
        data()[tail_] = value;
        tail_ = advance(tail_);
        ++staged_;
    }

    /** Oldest visible element. Queue must be non-empty. */
    const T &
    front() const
    {
        HRSIM_ASSERT(visible_ > poppedThisCycle_);
        return data()[head_];
    }

    /**
     * Remove the oldest visible element without returning it (the
     * copy-free half of pop() for callers that already read front()).
     */
    void
    dropFront()
    {
        HRSIM_ASSERT(visible_ > poppedThisCycle_);
        head_ = advance(head_);
        ++poppedThisCycle_;
    }

    /** Remove and return the oldest visible element. */
    T
    pop()
    {
        HRSIM_ASSERT(visible_ > poppedThisCycle_);
        T value = std::move(data()[head_]);
        head_ = advance(head_);
        ++poppedThisCycle_;
        return value;
    }

    /** End-of-cycle commit: publish pushes, recycle popped slots. */
    void
    commit()
    {
        // Straight-line on purpose: a clean queue's commit stores the
        // values it already holds. Testing for that first costs a
        // data-dependent branch per queue that mispredicts at load.
        visible_ += staged_;
        visible_ -= poppedThisCycle_;
        staged_ = 0;
        poppedThisCycle_ = 0;
    }

    /** Discard all contents (visible and staged). */
    void
    clear()
    {
        head_ = 0;
        tail_ = 0;
        visible_ = 0;
        staged_ = 0;
        poppedThisCycle_ = 0;
    }

    /** Total elements in the queue including staged ones. */
    std::size_t
    totalSize() const
    {
        return visible_ - poppedThisCycle_ + staged_;
    }

    /**
     * The @a i-th oldest visible element (0 = front()). Read-only
     * peek for checkpointing: a tick-boundary save walks the visible
     * region in FIFO order and re-packs it on load, so the physical
     * head/tail positions never reach the snapshot.
     */
    const T &
    at(std::size_t i) const
    {
        HRSIM_ASSERT(i < size());
        std::uint32_t index =
            head_ + static_cast<std::uint32_t>(i);
        if (index >= capacity_)
            index -= capacity_;
        return data()[index];
    }

  private:
    std::uint32_t
    advance(std::uint32_t index) const
    {
        return index + 1 == capacity_ ? 0 : index + 1;
    }

    T *
    data()
    {
        return capacity_ <= inlineCapacity ? inline_.data() : ext_;
    }

    const T *
    data() const
    {
        return capacity_ <= inlineCapacity ? inline_.data() : ext_;
    }

    // Hot bookkeeping first: the six counters plus the storage
    // pointer fit in 32 bytes, so the per-cycle state of a queue
    // (and usually its siblings in the same component) lands on one
    // cache line instead of straddling several. uint32 indices are
    // ample — capacities are a few dozen flits.
    std::uint32_t capacity_ = 0;
    std::uint32_t head_ = 0; //!< oldest visible element
    std::uint32_t tail_ = 0; //!< next write position
    std::uint32_t visible_ = 0;
    std::uint32_t staged_ = 0;
    std::uint32_t poppedThisCycle_ = 0;
    T *ext_ = nullptr; //!< beyond-inline storage (heap_ or external)
    std::vector<T> heap_; //!< owned storage when none was provided
    std::array<T, inlineCapacity> inline_{};
};

/**
 * The hot cursor block of one ColumnFifo: the six per-cycle counters
 * of the staged-FIFO discipline, extracted into a 24-byte POD so a
 * network can hold all its queues' cursors in one contiguous column
 * (see sim/columns.hh). The end-of-cycle commit sweep then walks the
 * column linearly — e.g. a mesh router's six queues commit from
 * ~144 contiguous bytes instead of six spans of a ~600-byte object —
 * and a neighbor's canPush() probe reads the same hot lines.
 */
struct FifoState
{
    std::uint32_t capacity = 0;
    std::uint32_t head = 0; //!< oldest visible element
    std::uint32_t tail = 0; //!< next write position
    std::uint32_t visible = 0;
    std::uint32_t staged = 0;
    std::uint32_t poppedThisCycle = 0;

    /** End-of-cycle commit: publish pushes, recycle popped slots. */
    void
    commit()
    {
        // Branch-free like StagedFifo::commit(): the sweep commits
        // every queue, and whether one saw traffic is unpredictable.
        visible += staged;
        visible -= poppedThisCycle;
        staged = 0;
        poppedThisCycle = 0;
    }
};

/**
 * Flat two-pointer handle onto a ColumnFifo's cursor block and
 * element storage. The per-cycle streaming loops cache one of these
 * per crossbar output (source queue and peer buffer), so each
 * streamed flit costs two direct pointer loads instead of chasing
 * fifo-object -> cursor-block -> field chains. Semantics of every
 * operation match ColumnFifo exactly (same accounting, same
 * assertions) — a view is the same queue seen through fewer hops.
 * A view is valid once the underlying queue is bound and stays
 * valid for the queue's lifetime.
 */
template <typename T>
struct FifoView
{
    FifoState *st = nullptr;
    T *ext = nullptr;

    bool valid() const { return st != nullptr; }
    bool empty() const { return st->visible == st->poppedThisCycle; }

    const T &
    front() const
    {
        HRSIM_ASSERT(st->visible > st->poppedThisCycle);
        return ext[st->head];
    }

    // dropFront()/pushFrom() are const: they mutate the pointed-to
    // queue, not the view, so a by-value view copy can stream.
    void
    dropFront() const
    {
        HRSIM_ASSERT(st->visible > st->poppedThisCycle);
        st->head = st->head + 1 == st->capacity ? 0 : st->head + 1;
        ++st->poppedThisCycle;
    }

    bool
    canPush() const
    {
        return st->visible + st->staged < st->capacity;
    }

    void
    pushFrom(const T &value) const
    {
        HRSIM_ASSERT(canPush());
        ext[st->tail] = value;
        st->tail = st->tail + 1 == st->capacity ? 0 : st->tail + 1;
        ++st->staged;
    }

    std::size_t
    totalSize() const
    {
        return st->visible - st->poppedThisCycle + st->staged;
    }
};

/**
 * StagedFifo variant whose cursor block lives in a network-owned
 * FifoState column. Semantics are identical to StagedFifo (same
 * propose/commit discipline, same accounting, same assertions); the
 * owner binds the cursor block and the element storage once with
 * bind(), before any other call. Element storage is never inline:
 * the mesh router places elements in a caller arena, and keeping the
 * payload out of the object is what lets the commit sweep touch
 * columns only. The shell itself is deliberately slim — two hot
 * pointers, 16 bytes — so six of them don't spread a router's other
 * hot fields across extra cache lines the way an in-object cursor
 * block would (measured: that bloat cost more than the whole
 * columnar win on the saturated mesh).
 */
template <typename T>
class ColumnFifo
{
  public:
    ColumnFifo() = default;

    // Non-copyable/non-movable: st_ points into a network column and
    // ext_ into a caller arena.
    ColumnFifo(const ColumnFifo &) = delete;
    ColumnFifo &operator=(const ColumnFifo &) = delete;
    ColumnFifo(ColumnFifo &&) = delete;
    ColumnFifo &operator=(ColumnFifo &&) = delete;

    /**
     * Bind the cursor block to @a state (a network column slot) and
     * the elements to @a storage (@a capacity slots, caller-owned),
     * leaving the queue empty. Call once at setup, before traffic.
     */
    void
    bind(FifoState *state, std::size_t capacity, T *storage)
    {
        HRSIM_ASSERT(state != nullptr && storage != nullptr);
        st_ = state;
        ext_ = storage;
        *st_ = FifoState{};
        st_->capacity = static_cast<std::uint32_t>(capacity);
    }

    std::size_t capacity() const { return st_->capacity; }

    /** Elements still visible to the consumer this cycle. */
    std::size_t
    size() const
    {
        return st_->visible - st_->poppedThisCycle;
    }

    bool
    empty() const
    {
        return st_->visible == st_->poppedThisCycle;
    }

    /** Producer-visible occupancy (see StagedFifo). */
    std::size_t
    producerOccupancy() const
    {
        return st_->visible + st_->staged;
    }

    /** May a producer stage an element this cycle? */
    bool
    canPush() const
    {
        return producerOccupancy() < st_->capacity;
    }

    /** Free producer slots remaining this cycle. */
    std::size_t
    producerSpace() const
    {
        const std::size_t occ = producerOccupancy();
        return occ >= st_->capacity ? 0 : st_->capacity - occ;
    }

    /** Stage an element; visible to the consumer after commit(). */
    void
    push(T value)
    {
        HRSIM_ASSERT(canPush());
        ext_[st_->tail] = std::move(value);
        st_->tail = advance(st_->tail);
        ++st_->staged;
    }

    /** Stage a copy of @a value (see StagedFifo::pushFrom). */
    void
    pushFrom(const T &value)
    {
        HRSIM_ASSERT(canPush());
        ext_[st_->tail] = value;
        st_->tail = advance(st_->tail);
        ++st_->staged;
    }

    /** Oldest visible element. Queue must be non-empty. */
    const T &
    front() const
    {
        HRSIM_ASSERT(st_->visible > st_->poppedThisCycle);
        return ext_[st_->head];
    }

    /** Remove the oldest visible element without returning it. */
    void
    dropFront()
    {
        HRSIM_ASSERT(st_->visible > st_->poppedThisCycle);
        st_->head = advance(st_->head);
        ++st_->poppedThisCycle;
    }

    /** Remove and return the oldest visible element. */
    T
    pop()
    {
        HRSIM_ASSERT(st_->visible > st_->poppedThisCycle);
        T value = std::move(ext_[st_->head]);
        st_->head = advance(st_->head);
        ++st_->poppedThisCycle;
        return value;
    }

    /** End-of-cycle commit: publish pushes, recycle popped slots. */
    void commit() { st_->commit(); }

    /** Discard all contents (visible and staged). */
    void
    clear()
    {
        st_->head = 0;
        st_->tail = 0;
        st_->visible = 0;
        st_->staged = 0;
        st_->poppedThisCycle = 0;
    }

    /** Total elements in the queue including staged ones. */
    std::size_t
    totalSize() const
    {
        return st_->visible - st_->poppedThisCycle + st_->staged;
    }

    /** The @a i-th oldest visible element (see StagedFifo::at). */
    const T &
    at(std::size_t i) const
    {
        HRSIM_ASSERT(i < size());
        std::uint32_t index =
            st_->head + static_cast<std::uint32_t>(i);
        if (index >= st_->capacity)
            index -= st_->capacity;
        return ext_[index];
    }

    /** Flat handle onto this queue (see FifoView). Valid once
     *  bind() ran. */
    FifoView<T> view() { return FifoView<T>{st_, ext_}; }

  private:
    std::uint32_t
    advance(std::uint32_t index) const
    {
        return index + 1 == st_->capacity ? 0 : index + 1;
    }

    FifoState *st_ = nullptr; //!< cursor block (network column)
    T *ext_ = nullptr;        //!< element storage (caller arena)
};

} // namespace hrsim

#endif // HRSIM_COMMON_STAGED_FIFO_HH
