#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace alert::sim {

void EventQueue::schedule(Time when, Action action) {
  ALERT_INVARIANT(when == when, "scheduling at NaN time");
  heap_.push_back(Entry{when, next_seq_++, std::move(action)});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  if (++ops_since_audit_ >= kAuditPeriod) audit();
}

Time EventQueue::next_time() const {
  ALERT_INVARIANT(!heap_.empty(), "next_time() on an empty queue");
  return heap_.front().time;
}

EventQueue::Fired EventQueue::pop() {
  ALERT_INVARIANT(!heap_.empty(), "pop() on an empty queue");
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
  Entry e = std::move(heap_.back());
  heap_.pop_back();
  ALERT_INVARIANT(e.time >= last_popped_,
                  "event-queue monotonicity violated: time went backwards");
  last_popped_ = e.time;
  if (++ops_since_audit_ >= kAuditPeriod) audit();
  return Fired{e.time, e.seq, std::move(e.action)};
}

void EventQueue::audit() {
  ops_since_audit_ = 0;
#if ALERT_CHECKED_BUILD
  // Heap property (min-heap via operator>).
  for (std::size_t i = 1; i < heap_.size(); ++i) {
    ALERT_ASSERT(!(heap_[(i - 1) / 2] > heap_[i]),
                 "binary heap property violated");
  }
#endif
}

}  // namespace alert::sim
