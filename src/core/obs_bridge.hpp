#pragma once

/// \file obs_bridge.hpp
/// Glue between the network's on-air TraceListener stream and the obs
/// layer: one bridge per replication turns every transmit/deliver/drop into
/// metric updates and — when a sink is attached — structured TraceEvents.
/// The bridge lives in core so net stays independent of the obs sinks and
/// obs stays independent of net.

#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "routing/router.hpp"

namespace alert::core {

/// Short lowercase reason for a channel drop ("out_of_range", ...).
[[nodiscard]] const char* drop_reason_name(net::DropReason why);

/// TraceListener that feeds the metrics registry (counters "net.tx",
/// "net.rx", "net.drop.<reason>", histogram "net.tx_bytes") and the
/// structured trace stream (layer Mac for transmissions, Channel for
/// deliveries and drops). Never audits the simulator or draws RNG, so the
/// determinism digest is identical with or without a bridge attached.
class ObsBridge final : public net::TraceListener {
 public:
  ObsBridge(obs::MetricsRegistry& metrics, obs::Tracer tracer);

  void on_transmit(const net::Node& sender, const net::Packet& pkt,
                   sim::Time air_start) override;
  void on_deliver(const net::Node& receiver, const net::Packet& pkt,
                  sim::Time when) override;
  void on_drop(const net::Node& last_holder, const net::Packet& pkt,
               sim::Time when, net::DropReason why) override;

 private:
  obs::MetricsRegistry& metrics_;
  obs::Counter& tx_;
  obs::Counter& rx_;
  /// Indexed by DropReason. The three pre-fault reasons are created eagerly
  /// (their counters have always appeared in every snapshot); the fault-era
  /// reasons are created lazily on first occurrence, so all-defaults runs
  /// keep byte-identical metrics snapshots.
  obs::Counter* drops_[net::kDropReasonCount];
  util::Histogram& tx_bytes_;
  obs::Tracer tracer_;
};

/// Copy a protocol's end-of-run counters into the registry under
/// "proto.<counter>" so they travel inside every metrics snapshot.
void export_protocol_stats(obs::MetricsRegistry& metrics,
                           const routing::ProtocolStats& stats);

/// Copy end-of-run network aggregates: hello overhead, packet-ledger
/// lifecycle totals, and the energy meters.
void export_run_totals(obs::MetricsRegistry& metrics,
                       const net::Network& network);

}  // namespace alert::core
