#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/check.hpp"

namespace alert::sim {

EventId EventQueue::schedule(Time when, Action action) {
  ALERT_INVARIANT(when == when, "scheduling at NaN time");
  const EventId id = next_id_++;
  pending_set(id);
  heap_.push_back(Entry{when, next_seq_++, id, std::move(action)});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  ++live_count_;
  if (++ops_since_audit_ >= kAuditPeriod) audit();
  return id;
}

bool EventQueue::cancel(EventId id) {
  if (id == 0 || id >= next_id_) return false;
  // Pending membership covers already-fired, already-cancelled and
  // never-existed alike; the bit test replaces the retired O(n) scans.
  if (!pending_test(id)) return false;
  pending_clear(id);
  cancelled_.insert(id);
  ALERT_INVARIANT(live_count_ > 0, "cancel with no live events");
  --live_count_;
  maybe_compact();
  return true;
}

void EventQueue::maybe_compact() {
  if (cancelled_.size() * 2 <= physical_size()) return;
  std::erase_if(heap_, [this](const Entry& e) {
    return cancelled_.find(e.id) != cancelled_.end();
  });
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
  cancelled_.clear();
}

void EventQueue::skip_cancelled() const {
  if (cancelled_.empty()) return;  // keep cancel-free pops hash-probe-free
  while (!heap_.empty()) {
    const auto it = cancelled_.find(heap_.front().id);
    if (it == cancelled_.end()) break;
    // Reclaim the tombstone with the entry, so a drained queue always
    // has an empty tombstone set (the no-stale-event invariant below).
    cancelled_.erase(it);
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
  }
  ALERT_INVARIANT(!heap_.empty() || cancelled_.empty(),
                  "tombstones for events no longer in the heap");
}

Time EventQueue::next_time() const {
  skip_cancelled();
  ALERT_INVARIANT(!heap_.empty(), "next_time() on an empty queue");
  return heap_.front().time;
}

EventQueue::Fired EventQueue::pop() {
  skip_cancelled();
  ALERT_INVARIANT(!heap_.empty(), "pop() on an empty queue");
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
  Entry e = std::move(heap_.back());
  heap_.pop_back();
  ALERT_INVARIANT(
      cancelled_.empty() || cancelled_.find(e.id) == cancelled_.end(),
      "stale (cancelled) event about to fire");
  pending_clear(e.id);
  --live_count_;
  ALERT_INVARIANT(e.time >= last_popped_,
                  "event-queue monotonicity violated: time went backwards");
  last_popped_ = e.time;
  // Extraction shrinks the store, so buried tombstones can cross the
  // half-the-store bound here too, not just on cancel.
  maybe_compact();
  if (++ops_since_audit_ >= kAuditPeriod) audit();
  return Fired{e.time, e.seq, std::move(e.action)};
}

void EventQueue::audit() const {
  ops_since_audit_ = 0;
#if ALERT_CHECKED_BUILD
  // Every stored entry is either pending or tombstoned; every tombstone
  // refers to a stored entry; the live count matches both views.
  std::size_t tombstoned = 0;
  for (const Entry& e : heap_) {
    const bool dead = cancelled_.find(e.id) != cancelled_.end();
    const bool live = pending_test(e.id);
    ALERT_ASSERT(dead != live,
                 "stored event neither pending nor tombstoned (or both)");
    if (dead) ++tombstoned;
  }
  // Heap property (min-heap via operator>).
  for (std::size_t i = 1; i < heap_.size(); ++i) {
    ALERT_ASSERT(!(heap_[(i - 1) / 2] > heap_[i]),
                 "binary heap property violated");
  }
  ALERT_ASSERT(tombstoned == cancelled_.size(),
               "tombstone for an event missing from the store");
  ALERT_ASSERT(physical_size() >= tombstoned,
               "more tombstones than stored entries");
  ALERT_ASSERT(live_count_ == physical_size() - tombstoned,
               "live_count_ out of sync with store/tombstone bookkeeping");
  std::size_t pending_count = 0;
  for (const std::uint64_t word : pending_bits_) {
    pending_count += static_cast<std::size_t>(std::popcount(word));
  }
  ALERT_ASSERT(pending_count == live_count_,
               "pending bitmap out of sync with live_count_");
  // Compaction bound: tombstones never exceed half the store for long.
  ALERT_ASSERT(cancelled_.size() * 2 <= physical_size() + 1,
               "tombstone compaction failed to trigger");
#endif
}

}  // namespace alert::sim
