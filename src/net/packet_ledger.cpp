#include "net/packet_ledger.hpp"

namespace alert::net {

PacketLedger::Entry* PacketLedger::find(std::uint64_t uid) {
  if (uid == 0 || uid >= entries_.size()) return nullptr;
  Entry& e = entries_[uid];
  return e.uid == uid ? &e : nullptr;
}

const PacketLedger::Entry* PacketLedger::find(std::uint64_t uid) const {
  if (uid == 0 || uid >= entries_.size()) return nullptr;
  const Entry& e = entries_[uid];
  return e.uid == uid ? &e : nullptr;
}

void PacketLedger::open(std::uint64_t uid, sim::Time now) {
  ALERT_INVARIANT(uid != 0, "packet ledger cannot track uid 0");
  ALERT_INVARIANT(find(uid) == nullptr,
                  "packet uid opened twice — uids must be unique per run");
  if (uid >= entries_.size()) {
    entries_.resize(uid + 1);
  }
  entries_[uid] = Entry{uid, now, 0.0, PacketFate::InFlight};
  ++totals_.opened;
  ++open_count_;
}

void PacketLedger::close(std::uint64_t uid, PacketFate fate, sim::Time now) {
  ALERT_INVARIANT(fate != PacketFate::InFlight,
                  "InFlight is not a terminal packet fate");
  Entry* e = find(uid);
  ALERT_INVARIANT(e != nullptr,
                  "closing a packet uid the ledger never saw opened");
  if (e->fate != PacketFate::InFlight) return;  // first close wins
  ALERT_INVARIANT(now >= e->opened_at, "packet closed before it was opened");
  e->fate = fate;
  e->closed_at = now;
  ALERT_INVARIANT(open_count_ > 0, "ledger close with no open packets");
  --open_count_;
  switch (fate) {
    case PacketFate::Delivered: ++totals_.delivered; break;
    case PacketFate::Dropped: ++totals_.dropped; break;
    case PacketFate::Expired: ++totals_.expired; break;
    case PacketFate::LostChannel: ++totals_.lost_channel; break;
    case PacketFate::RetryExhausted: ++totals_.retry_exhausted; break;
    case PacketFate::OwnerCrashed: ++totals_.owner_crashed; break;
    case PacketFate::InFlight: break;  // unreachable
  }
  ALERT_ASSERT(balanced(), "ledger totals out of balance after close");
}

bool PacketLedger::is_open(std::uint64_t uid) const {
  const Entry* e = find(uid);
  return e != nullptr && e->fate == PacketFate::InFlight;
}

std::uint64_t PacketLedger::expire_open(sim::Time now) {
  std::uint64_t expired = 0;
  for (Entry& e : entries_) {
    if (e.uid == 0 || e.fate != PacketFate::InFlight) continue;
    e.fate = PacketFate::Expired;
    e.closed_at = now;
    ++totals_.expired;
    --open_count_;
    ++expired;
  }
  ALERT_INVARIANT(open_count_ == 0, "packets still open after expire_open");
  return expired;
}

std::vector<PacketLedger::Entry> PacketLedger::leaked() const {
  std::vector<Entry> out;
  for (const Entry& e : entries_) {
    if (e.uid != 0 && e.fate == PacketFate::InFlight) out.push_back(e);
  }
  return out;
}

}  // namespace alert::net
