// Priority queue of timestamped events with stable FIFO ordering for equal timestamps
// and O(1) cancellation. The deterministic heart of the simulator.
//
// Layout: the heap holds 24-byte trivially copyable keys {when, seq, slot}, so a sift
// moves three words and never touches a callback. `seq` is a monotonic insertion
// counter, which makes (when, seq) a strict total order: equal-time events run in
// insertion order, and any correct heap pops the same sequence. The callbacks live
// in a slot pool indexed by `slot`; each pool entry records the seq of the event that
// occupies it, so "is this key still live?" is one array read. A slot returns to the
// free list the moment its event fires or is cancelled; a cancelled event's key stays
// buried in the heap until it surfaces and is skimmed, but it no longer matches the
// slot's seq, so reusing the slot is safe. After warm-up the queue itself allocates
// nothing on Push, Cancel or Pop: the heap vector, the pool and the free list only
// grow to the peak number of keys and pending events.
//
// Ids: an EventId is an opaque handle `gen << 32 | (slot + 1)`, where `gen` is the
// low 32 bits of the event's seq. Cancel and DropHeadIf are array reads with no hashing,
// and a stale id (the event fired or was cancelled, and the slot may since hold a
// newer event) no longer matches and is rejected. Ids are only ever compared for
// equality; 0 is never issued and stays kInvalidEventId. A stale id could alias only
// a later event in the same slot whose seq differs from its own by a multiple of 2^32.
//
// Resched() is the decrease-key-free path for periodic clocks (e.g. the Machine's
// per-core dispatch ticks): it cancels the old event by id and pushes a fresh one.
//
// Positions: an event's place in the order is its (when, seq). DrawSeq() hands out
// the next seq without pushing anything, so a source outside the heap (the
// Simulator's cursors) can take a place in the same total order, and PopBefore /
// DropHeadIf take such a position as an exclusive bound on what they may remove.
#ifndef REALRATE_SIM_EVENT_QUEUE_H_
#define REALRATE_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "util/time.h"

namespace realrate {

using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

class EventQueue {
 public:
  using Callback = std::function<void()>;

  // A place in the event order. Positions compare by when, then by seq.
  struct Position {
    TimePoint when;
    uint64_t seq = 0;

    friend bool operator<(const Position& a, const Position& b) {
      return a.when < b.when || (a.when == b.when && a.seq < b.seq);
    }
  };
  // The seq of a bound that admits every event at its `when`: no event gets it.
  static constexpr uint64_t kLastSeq = ~uint64_t{0};

  // Enqueues `fn` to run at `when`. Events with equal `when` run in insertion order.
  EventId Push(TimePoint when, Callback fn);

  // Cancels a pending event and releases its callback. Cancelling an already-fired,
  // already-cancelled, unknown or stale id is a no-op that returns false and costs
  // no memory.
  bool Cancel(EventId id);

  // Cancels `id` (if still pending) and pushes `fn` at `when`, returning the new id.
  // The one-call resched path for periodic clocks: no decrease-key, no heap rebuild.
  EventId Resched(EventId id, TimePoint when, Callback fn);

  struct Popped {
    EventId id = kInvalidEventId;
    TimePoint when;
    Callback fn;
  };
  // Pops the earliest pending event into `*out` if it comes before `bound`;
  // otherwise leaves the queue untouched and returns false. One skim per call: the
  // run loop's "is there an event due, and if so take it" in a single pass. A bound
  // of {limit, kLastSeq} admits every event at or before `limit`.
  bool PopBefore(Position bound, Popped* out);
  // Removes the earliest pending event without returning its callback if it is
  // exactly {id, when} and comes before `bound`; otherwise leaves the queue
  // untouched and returns false.
  bool DropHeadIf(EventId id, TimePoint when, Position bound);

  // Takes the next seq from the counter Push uses, without pushing: whatever holds
  // it sits in the order exactly where an event pushed now would.
  uint64_t DrawSeq() { return next_seq_++; }

  // Number of pending (pushed, not yet fired or cancelled) events. O(1) and exact:
  // cancelled keys still buried in the heap are not counted.
  size_t PendingCount() const { return pending_; }
  // Slots in the callback pool, free or not. Never more than the peak PendingCount.
  size_t SlotCapacity() const { return pool_.size(); }

 private:
  struct Key {
    int64_t when_ns;
    uint64_t seq;   // Insertion order: the FIFO tiebreaker and the liveness stamp.
    uint32_t slot;  // Index into pool_.
  };
  static_assert(sizeof(Key) == 24 && std::is_trivially_copyable_v<Key>);
  struct Slot {
    Callback fn;
    uint64_t seq = kFreeSeq;  // Seq of the occupying event; kFreeSeq when free.
  };
  static constexpr uint64_t kFreeSeq = ~uint64_t{0};

  static bool Before(const Key& a, const Key& b) {
    return a.when_ns < b.when_ns || (a.when_ns == b.when_ns && a.seq < b.seq);
  }
  static bool Before(const Key& a, Position b) {
    return a.when_ns < b.when.nanos() || (a.when_ns == b.when.nanos() && a.seq < b.seq);
  }
  static EventId IdOf(const Key& k) {
    return (k.seq << 32) | (static_cast<uint64_t>(k.slot) + 1);
  }
  bool IsLive(const Key& k) const { return pool_[k.slot].seq == k.seq; }

  // Ends a pending event's tenure of `slot`: drops the callback, marks the slot free
  // (so its key reads dead) and returns it to the free list.
  void ReleaseSlot(uint32_t slot);
  // Drops cancelled keys from the heap top; returns false when the heap empties.
  bool SkimDead();
  // Removes heap_[0] (sift-down of the last key from the root).
  void PopHeapTop();

  std::vector<Key> heap_;  // Binary min-heap on (when_ns, seq).
  std::vector<Slot> pool_;
  std::vector<uint32_t> free_slots_;  // LIFO.
  uint64_t next_seq_ = 0;
  size_t pending_ = 0;
};

}  // namespace realrate

#endif  // REALRATE_SIM_EVENT_QUEUE_H_
