#pragma once

/// \file packet_ledger.hpp
/// Packet-lifecycle accounting: every tracked packet (any packet carrying a
/// nonzero uid — application data, confirmations, NAKs) must end its life
/// exactly one way: Delivered, Dropped, or Expired (still in flight when the
/// simulation horizon cut it off). A uid that is opened and never closed by
/// the time the event queue drains is a *leak* — protocol state that forgot
/// a packet — and fails tests.
///
/// Wiring:
///  - Network::unicast/broadcast open a uid on its first transmission;
///  - routers close Data uids at their delivered/dropped accounting sites;
///  - Network closes control uids (Confirm/Nak/Cover) at net-layer terminal
///    events, since no retransmission logic sits above them;
///  - the experiment harness calls expire_open(horizon) after run_until, so
///    packets legitimately in flight at the horizon are Expired, not leaks.
///
/// First close wins: late duplicate copies of an already-closed uid (e.g. a
/// retransmission arriving after the original was delivered) are ignored.

#include <cstdint>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/check.hpp"

namespace alert::net {

enum class PacketFate : std::uint8_t {
  InFlight,   ///< opened, no terminal event yet
  Delivered,  ///< reached its application-level destination
  Dropped,    ///< protocol or channel gave up on it
  Expired,    ///< still in flight when the horizon ended the run
  // Fault-injection terminal states (src/faults): distinct from Dropped so
  // fault-era accounting can separate "the protocol gave up" from "the
  // channel or a crash took it" — and so the leak check stays meaningful
  // under injected adversity.
  LostChannel,     ///< frame lost to channel faults, unrecoverable
  RetryExhausted,  ///< ARQ retry budget spent without an ack
  OwnerCrashed,    ///< the node holding the packet crashed
};

class PacketLedger {
 public:
  struct Entry {
    std::uint64_t uid = 0;
    sim::Time opened_at = 0.0;
    sim::Time closed_at = 0.0;
    PacketFate fate = PacketFate::InFlight;
  };

  struct Totals {
    std::uint64_t opened = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t expired = 0;
    std::uint64_t lost_channel = 0;
    std::uint64_t retry_exhausted = 0;
    std::uint64_t owner_crashed = 0;

    [[nodiscard]] std::uint64_t closed() const {
      return delivered + dropped + expired + lost_channel + retry_exhausted +
             owner_crashed;
    }
  };

  /// Begin tracking `uid`. Opening an already-open or already-closed uid is
  /// an invariant violation (uids are globally unique per run).
  void open(std::uint64_t uid, sim::Time now);

  /// Record `uid`'s terminal fate. Closing a uid that was never opened is
  /// an invariant violation; closing an already-closed uid is ignored
  /// (duplicate copies of one application packet are expected).
  void close(std::uint64_t uid, PacketFate fate, sim::Time now);

  /// Whether `uid` is currently open (tracked and not yet closed).
  [[nodiscard]] bool is_open(std::uint64_t uid) const;

  /// Close every still-open uid as Expired (horizon cut it off mid-flight).
  /// Returns how many were expired.
  std::uint64_t expire_open(sim::Time now);

  /// Uids opened but never closed. After the event queue has drained (no
  /// packet can still be in flight), a non-empty result is a packet leak.
  [[nodiscard]] std::vector<Entry> leaked() const;

  [[nodiscard]] const Totals& totals() const { return totals_; }

  /// Accounting identity: every opened uid is in-flight or has exactly one
  /// terminal fate. Cheap; called from ALERT_ASSERT sites and tests.
  [[nodiscard]] bool balanced() const {
    return totals_.opened == totals_.closed() + open_count_;
  }

  [[nodiscard]] std::uint64_t open_count() const { return open_count_; }

 private:
  // Dense storage keyed by uid: Network::next_uid() hands out 1,2,3,... so
  // a vector indexed by uid stays compact; uid 0 ("untracked") is unused.
  [[nodiscard]] Entry* find(std::uint64_t uid);
  [[nodiscard]] const Entry* find(std::uint64_t uid) const;

  std::vector<Entry> entries_;  // index = uid; fate InFlight + opened_at<0 = unknown
  Totals totals_;
  std::uint64_t open_count_ = 0;
};

}  // namespace alert::net
