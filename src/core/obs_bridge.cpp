#include "core/obs_bridge.hpp"

namespace alert::core {

namespace {

/// Per-kind transmit trace labels (TraceEvent::kind is a borrowed pointer,
/// so these must be string literals).
const char* tx_kind(net::PacketKind k) {
  switch (k) {
    case net::PacketKind::Hello: return "tx.hello";
    case net::PacketKind::Data: return "tx.data";
    case net::PacketKind::Confirm: return "tx.confirm";
    case net::PacketKind::Nak: return "tx.nak";
    case net::PacketKind::Cover: return "tx.cover";
  }
  return "tx";
}

}  // namespace

const char* drop_reason_name(net::DropReason why) {
  switch (why) {
    case net::DropReason::OutOfRange: return "out_of_range";
    case net::DropReason::NoHandler: return "no_handler";
    case net::DropReason::TtlExpired: return "ttl_expired";
    case net::DropReason::ChannelLoss: return "channel_loss";
    case net::DropReason::NodeDown: return "node_down";
    case net::DropReason::RetryExhausted: return "retry_exhausted";
  }
  return "unknown";
}

ObsBridge::ObsBridge(obs::MetricsRegistry& metrics, obs::Tracer tracer)
    : metrics_(metrics),
      tx_(metrics.counter("net.tx")),
      rx_(metrics.counter("net.rx")),
      drops_{&metrics.counter("net.drop.out_of_range"),
             &metrics.counter("net.drop.no_handler"),
             &metrics.counter("net.drop.ttl_expired")},
      tx_bytes_(metrics.histogram("net.tx_bytes", 0.0, 2048.0, 32)),
      tracer_(tracer) {}

void ObsBridge::on_transmit(const net::Node& sender, const net::Packet& pkt,
                            sim::Time air_start) {
  tx_.inc();
  tx_bytes_.add(static_cast<double>(pkt.size_bytes));
  if (tracer_.enabled()) {
    tracer_.emit(obs::TraceEvent{
        air_start, static_cast<std::uint32_t>(sender.id()), pkt.uid,
        obs::TraceLayer::Mac, tx_kind(pkt.kind), 0.0, pkt.size_bytes});
  }
}

void ObsBridge::on_deliver(const net::Node& receiver, const net::Packet& pkt,
                           sim::Time when) {
  rx_.inc();
  if (tracer_.enabled()) {
    tracer_.emit(obs::TraceEvent{
        when, static_cast<std::uint32_t>(receiver.id()), pkt.uid,
        obs::TraceLayer::Channel, "deliver", 0.0, pkt.size_bytes});
  }
}

void ObsBridge::on_drop(const net::Node& last_holder, const net::Packet& pkt,
                        sim::Time when, net::DropReason why) {
  const auto i = static_cast<std::size_t>(why);
  if (drops_[i] == nullptr) {
    drops_[i] = &metrics_.counter(std::string("net.drop.") +
                                  drop_reason_name(why));
  }
  drops_[i]->inc();
  if (tracer_.enabled()) {
    tracer_.emit(obs::TraceEvent{
        when, static_cast<std::uint32_t>(last_holder.id()), pkt.uid,
        obs::TraceLayer::Channel, drop_reason_name(why), 0.0,
        static_cast<std::uint64_t>(why)});
  }
}

void export_protocol_stats(obs::MetricsRegistry& metrics,
                           const routing::ProtocolStats& stats) {
  metrics.counter("proto.data_sent").inc(stats.data_sent);
  metrics.counter("proto.data_delivered").inc(stats.data_delivered);
  metrics.counter("proto.data_dropped").inc(stats.data_dropped);
  metrics.counter("proto.forwards").inc(stats.forwards);
  metrics.counter("proto.broadcasts").inc(stats.broadcasts);
  metrics.counter("proto.random_forwarders").inc(stats.random_forwarders);
  metrics.counter("proto.partitions").inc(stats.partitions);
  metrics.counter("proto.cover_packets").inc(stats.cover_packets);
  metrics.counter("proto.retransmissions").inc(stats.retransmissions);
  metrics.counter("proto.naks").inc(stats.naks);
  metrics.counter("proto.control_hops").inc(stats.control_hops);
  // Fault-era counter: only materialized when the link layer actually
  // reported failures, so ideal-channel snapshots are unchanged.
  if (stats.send_failures != 0) {
    metrics.counter("proto.send_failures").inc(stats.send_failures);
  }
  metrics.gauge("proto.crypto_time_total_s").set(stats.crypto_time_total_s);
}

void export_run_totals(obs::MetricsRegistry& metrics,
                       const net::Network& network) {
  metrics.counter("net.hello").inc(network.hello_count());
  const auto& totals = network.ledger().totals();
  metrics.counter("packets.opened").inc(totals.opened);
  metrics.counter("packets.delivered").inc(totals.delivered);
  metrics.counter("packets.dropped").inc(totals.dropped);
  metrics.counter("packets.expired").inc(totals.expired);
  if (network.fault_aware()) {
    // Fault-era accounting, gated so all-defaults snapshots stay
    // byte-identical to pre-fault builds.
    metrics.counter("net.arq.retries").inc(network.arq_retries());
    metrics.counter("net.channel.broadcast_losses")
        .inc(network.broadcast_losses());
    metrics.counter("net.channel.frames_lost")
        .inc(network.channel_frames_lost());
    metrics.counter("packets.lost_channel").inc(totals.lost_channel);
    metrics.counter("packets.retry_exhausted").inc(totals.retry_exhausted);
    metrics.counter("packets.owner_crashed").inc(totals.owner_crashed);
  }
  const net::EnergyMeter energy = network.energy().total();
  metrics.gauge("energy.total_j").set(energy.total());
  metrics.gauge("energy.crypto_j").set(energy.crypto_j);
  metrics.gauge("energy.max_node_j").set(network.energy().max_node_total());
}

}  // namespace alert::core
