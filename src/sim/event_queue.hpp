// Stable discrete-event queue.
//
// Events at equal times are delivered in insertion order (a strict FIFO
// tiebreak), which keeps simulations bit-for-bit deterministic regardless of
// heap internals.
//
// Storage discipline (this showed up in BM_EngineNusRun profiles): handler
// slots are pooled and reused — a popped slot goes onto a free list and
// backs the next schedule() call — so the handler table stays proportional
// to the number of *pending* events instead of growing one slot per event
// ever scheduled. reserve() pre-sizes both the slot pool and the heap so a
// bulk schedule (the engine schedules every trace contact up front)
// performs no reallocation.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/util/types.hpp"

namespace hdtn::sim {

using EventFn = std::function<void()>;

class EventQueue {
 public:
  /// Pre-sizes internal storage for `events` pending events.
  void reserve(std::size_t events);

  /// Schedules `fn` at absolute time `when`, which must not precede the
  /// last popped event's time.
  void schedule(SimTime when, EventFn fn);

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Slots currently allocated (pending + reusable); tests assert reuse.
  [[nodiscard]] std::size_t slotCapacity() const { return slots_.size(); }

  /// Time of the next pending event; kTimeInfinity when empty.
  [[nodiscard]] SimTime nextTime() const {
    return heap_.empty() ? kTimeInfinity : heap_.front().when;
  }

  /// Pops and runs the next event; returns false when the queue is empty.
  bool runNext();

  /// Pops the next event and drops its handler without invoking it, still
  /// advancing now() to the event's time. Checkpoint restore rebuilds the
  /// deterministic schedule and uses this to skip the prefix the snapshot
  /// already covers. Returns false when the queue is empty.
  bool discardNext();

  /// Time of the most recently executed (or peeked) event.
  [[nodiscard]] SimTime now() const { return now_; }

 private:
  struct Entry {
    SimTime when;
    std::uint64_t seq;  ///< insertion order: the FIFO tiebreak at equal when
    std::uint32_t slot;
    bool operator>(const Entry& other) const {
      if (when != other.when) return when > other.when;
      return seq > other.seq;
    }
  };

  /// Pops the top entry, advances now() to it, and returns its handler,
  /// recycling the slot that held it.
  EventFn popNext();

  // Min-heap over Entry (std::push_heap/pop_heap with operator>); a plain
  // vector so reserve() can pre-size it, unlike std::priority_queue.
  std::vector<Entry> heap_;
  std::vector<EventFn> slots_;
  std::vector<std::uint32_t> freeSlots_;
  std::uint64_t nextSeq_ = 0;
  SimTime now_ = 0;
};

}  // namespace hdtn::sim
