#include "src/sim/event_queue.hpp"

#include <algorithm>
#include <cassert>

namespace hdtn::sim {

void EventQueue::reserve(std::size_t events) {
  heap_.reserve(heap_.size() + events);
  slots_.reserve(std::max(slots_.size(), heap_.size() + events));
}

void EventQueue::schedule(SimTime when, EventFn fn) {
  assert(when >= now_ && "cannot schedule into the past");
  assert(fn && "event handler must be callable");
  std::uint32_t slot;
  if (!freeSlots_.empty()) {
    slot = freeSlots_.back();
    freeSlots_.pop_back();
    slots_[slot] = std::move(fn);
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(fn));
  }
  heap_.push_back(Entry{when, nextSeq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

EventFn EventQueue::popNext() {
  const Entry entry = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
  heap_.pop_back();
  now_ = entry.when;
  EventFn fn = std::move(slots_[entry.slot]);
  slots_[entry.slot] = nullptr;
  freeSlots_.push_back(entry.slot);
  return fn;
}

bool EventQueue::runNext() {
  if (heap_.empty()) return false;
  popNext()();
  return true;
}

bool EventQueue::discardNext() {
  if (heap_.empty()) return false;
  popNext();
  return true;
}

}  // namespace hdtn::sim
