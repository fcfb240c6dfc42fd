#pragma once

/// \file event_queue.hpp
/// The pending-event set of the discrete-event engine, ordered by (time,
/// sequence). The sequence number makes simultaneous events fire in
/// scheduling order, which keeps runs deterministic.
///
/// The store is a binary heap (std::push_heap/pop_heap, O(log n)). It
/// measured faster than a calendar queue at paper scale and the same,
/// within noise, at 10k nodes (docs/SCALE.md).
///
/// Cancellation is O(1) amortized: hash-set tombstones (`cancelled_`) with
/// an id-indexed pending bitmap (ids are sequential, so membership is a bit
/// test, not a hash probe, on the per-event hot path), lazily skipped at
/// the front and compacted out of the heap whenever tombstones exceed half
/// the physical entries, so cancelled storage is bounded by 2x live.
///
/// Invariant instrumentation (see util/check.hpp):
///  - pop monotonicity: extraction times never decrease (ALERT_INVARIANT);
///  - no stale events: a cancelled event is never returned by pop(), and a
///    drained queue always has an empty tombstone set;
///  - checked builds additionally audit the heap/tombstone bookkeeping
///    (live_count_ consistency, tombstones always refer to stored entries,
///    the heap property) every `kAuditPeriod` mutations (ALERT_ASSERT).

#include <cstdint>
#include <functional>
#include <limits>
#include <unordered_set>
#include <vector>

namespace alert::sim {

/// Simulated time in seconds.
using Time = double;

/// Token identifying a scheduled event so it can be cancelled.
using EventId = std::uint64_t;

class EventQueue {
 public:
  using Action = std::function<void()>;

  /// Schedule `action` at absolute time `when`. Returns a cancellation id.
  EventId schedule(Time when, Action action);

  /// Cancel a pending event. Returns false if it already fired, was already
  /// cancelled, or never existed. O(1) amortized (lazy deletion with
  /// periodic compaction).
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const { return live_count_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_count_; }

  /// Time of the earliest pending event. Precondition: !empty().
  [[nodiscard]] Time next_time() const;

  /// Extract and return the earliest event's action, advancing past any
  /// cancelled entries. Precondition: !empty().
  struct Fired {
    Time time;
    std::uint64_t seq;  ///< scheduling order, for trace auditing
    Action action;
  };
  [[nodiscard]] Fired pop();

  /// Time returned by the most recent pop(); -inf before the first pop.
  /// Exposed so the simulator can cross-check clock monotonicity.
  [[nodiscard]] Time last_popped_time() const { return last_popped_; }

  /// Bookkeeping introspection (tests pin the compaction threshold).
  [[nodiscard]] std::size_t tombstone_count() const {
    return cancelled_.size();
  }
  [[nodiscard]] std::size_t physical_size() const { return heap_.size(); }

 private:
  struct Entry {
    Time time = 0.0;
    std::uint64_t seq = 0;
    EventId id = 0;
    Action action;
    bool operator>(const Entry& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };

  // Pending membership, one bit per issued id. The word vector grows
  // geometrically (one word per 64 schedules), so the per-event cost is a
  // shift/mask instead of the hash-node insert it replaced.
  [[nodiscard]] bool pending_test(EventId id) const {
    const std::size_t w = static_cast<std::size_t>(id >> 6);
    return w < pending_bits_.size() &&
           ((pending_bits_[w] >> (id & 63)) & 1u) != 0;
  }
  void pending_set(EventId id) {
    const std::size_t w = static_cast<std::size_t>(id >> 6);
    if (w >= pending_bits_.size()) pending_bits_.resize(w + 1, 0);
    pending_bits_[w] |= std::uint64_t{1} << (id & 63);
  }
  void pending_clear(EventId id) {
    pending_bits_[static_cast<std::size_t>(id >> 6)] &=
        ~(std::uint64_t{1} << (id & 63));
  }

  void skip_cancelled() const;
  /// Physically erase tombstoned entries once they outnumber half the
  /// store. Each compaction is O(physical) paid for by >= physical/2
  /// cancels since the last one: O(1) amortized per cancel.
  void maybe_compact();
  void audit() const;  ///< full bookkeeping scan (checked builds, amortized)

  static constexpr std::uint64_t kAuditPeriod = 1024;

  mutable std::vector<Entry> heap_;  // std::push_heap/pop_heap with greater
  mutable std::unordered_set<EventId> cancelled_;  // lazy tombstones
  std::vector<std::uint64_t> pending_bits_;  // id -> still scheduled
  mutable std::size_t live_count_ = 0;
  std::uint64_t next_seq_ = 0;
  EventId next_id_ = 1;
  Time last_popped_ = -std::numeric_limits<Time>::infinity();
  mutable std::uint64_t ops_since_audit_ = 0;
};

}  // namespace alert::sim
