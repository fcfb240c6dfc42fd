#include "core/experiment.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <queue>
#include <string>
#include <unordered_set>
#include <utility>

#include "attack/compromise.hpp"
#include "attack/observer.hpp"
#include "attack/route_tracer.hpp"
#include "attack/zone_residency.hpp"
#include "core/obs_bridge.hpp"
#include "faults/injector.hpp"
#include "loc/pseudonym.hpp"
#include "obs/trace.hpp"
#include "routing/zone.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace alert::core {

namespace {

/// Counts end-to-end Data deliveries at the true destination, deduplicated
/// per application packet (uid): first radio arrival wins.
class DeliveryCounter final : public net::TraceListener {
 public:
  /// Per-delivery metric feeds: latency observations and a hop-count
  /// distribution for the run's snapshot.
  DeliveryCounter(util::Accumulator& latency_sample,
                  util::Histogram& hops_hist)
      : latency_sample_(latency_sample), hops_hist_(hops_hist) {}

  void on_deliver(const net::Node& receiver, const net::Packet& pkt,
                  sim::Time when) override {
    if (pkt.kind != net::PacketKind::Data) return;
    if (receiver.id() != pkt.true_dest) return;
    if (!seen_.insert(pkt.uid).second) return;
    ++delivered_;
    latency_sum_ += when - pkt.app_send_time;
    e2e_sum_ += when - pkt.first_send_time;
    hops_sum_ += pkt.hop_count;
    latency_sample_.add(when - pkt.app_send_time);
    hops_hist_.add(static_cast<double>(pkt.hop_count));
  }

  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] double mean_latency() const {
    return delivered_ == 0
               ? 0.0
               : latency_sum_ / static_cast<double>(delivered_);
  }
  [[nodiscard]] double mean_hops() const {
    return delivered_ == 0
               ? 0.0
               : static_cast<double>(hops_sum_) /
                     static_cast<double>(delivered_);
  }
  [[nodiscard]] double mean_e2e() const {
    return delivered_ == 0 ? 0.0
                           : e2e_sum_ / static_cast<double>(delivered_);
  }

 private:
  std::unordered_set<std::uint64_t> seen_;
  std::uint64_t delivered_ = 0;
  double latency_sum_ = 0.0;
  double e2e_sum_ = 0.0;
  std::int64_t hops_sum_ = 0;
  util::Accumulator& latency_sample_;
  util::Histogram& hops_hist_;
};

std::unique_ptr<net::MobilityModel> make_mobility(
    const ScenarioConfig& cfg) {
  switch (cfg.mobility) {
    case MobilityKind::Group:
      return std::make_unique<net::GroupMobility>(
          cfg.field, cfg.speed_mps, cfg.group_count, cfg.group_range_m);
    case MobilityKind::Static:
      return std::make_unique<net::StaticPlacement>(cfg.field);
    case MobilityKind::RandomWaypoint:
      break;
  }
  return std::make_unique<net::RandomWaypoint>(cfg.field, cfg.speed_mps);
}

std::unique_ptr<routing::Protocol> make_protocol(
    const ScenarioConfig& cfg, net::Network& network,
    loc::LocationService& location) {
  switch (cfg.protocol) {
    case ProtocolKind::Gpsr:
      return std::make_unique<routing::GpsrRouter>(network, location,
                                                   cfg.gpsr);
    case ProtocolKind::Alarm:
      return std::make_unique<routing::AlarmRouter>(network, location,
                                                    cfg.alarm);
    case ProtocolKind::Ao2p:
      return std::make_unique<routing::Ao2pRouter>(network, location,
                                                   cfg.ao2p);
    case ProtocolKind::Zap:
      return std::make_unique<routing::ZapRouter>(network, location,
                                                  cfg.zap);
    case ProtocolKind::Alert:
      break;
  }
  return std::make_unique<routing::AlertRouter>(network, location, cfg.alert);
}

/// Connected-component labels of the unit-disk graph at time `t`.
/// Traffic pairs are drawn within a component: a CBR flow between nodes
/// that cannot physically communicate measures nothing about a routing
/// protocol (relevant under group mobility, where the paper's RPGM
/// configurations partition the field; see EXPERIMENTS.md).
std::vector<int> disk_components(const net::Network& network, sim::Time t) {
  const std::size_t n = network.size();
  std::vector<int> comp(n, -1);
  int next = 0;
  for (net::NodeId s = 0; s < n; ++s) {
    if (comp[s] != -1) continue;
    comp[s] = next;
    std::queue<net::NodeId> q;
    q.push(s);
    while (!q.empty()) {
      const net::NodeId u = q.front();
      q.pop();
      for (const net::NodeId v : network.nodes_within(
               network.node(u).position(t), network.config().radio_range_m,
               t)) {
        if (comp[v] == -1) {
          comp[v] = next;
          q.push(v);
        }
      }
    }
    ++next;
  }
  return comp;
}

}  // namespace

void validate_scenario(const ScenarioConfig& config) {
  std::optional<std::string> err = faults::validate(config.faults);
  // Each period paces a recurring process (hellos, pseudonym rotation, CBR
  // packets, location pushes and server sync, residency samples); one that
  // is not positive never advances simulated time.
  const std::pair<const char*, double> periods[] = {
      {"hello_period_s", config.hello_period_s},
      {"pseudonym_period_s", config.pseudonym_period_s},
      {"packet_interval_s", config.packet_interval_s},
      {"location.update_period_s", config.location.update_period_s},
      {"location.replication_period_s",
       config.location.replication_period_s},
      {"residency_sample_period_s", config.residency_sample_period_s}};
  for (const auto& [key, period] : periods) {
    if (!err && !(period > 0.0)) err = std::string(key) + " must be > 0";
  }
  if (!err && config.flow_count > 0 && config.node_count < 2) {
    // A flow needs a destination other than its source; with fewer than
    // two nodes the pair draw in run_once could never find one.
    err = "flows need at least two nodes";
  } else if (!err && config.mac.arq.enabled) {
    if (config.mac.arq.retry_limit <= 0) {
      err = "mac.arq.retry_limit must be >= 1 when ARQ is enabled";
    } else if (config.mac.arq.ack_timeout_s < 0.0 ||
               config.mac.arq.backoff_base_s < 0.0) {
      err = "mac.arq timings must be non-negative";
    }
  }
  if (err) {
    std::fprintf(stderr, "invalid scenario: %s\n", err->c_str());
    std::exit(2);
  }
}

RunResult run_once(const ScenarioConfig& config,
                   std::uint64_t replication_index) {
  validate_scenario(config);
  sim::Simulator simulator;
  // The profiler must be attached before the Network is built: the Network
  // constructor (and every router constructor) resolves its scope ids from
  // sim.profiler() exactly once.
  obs::Profiler profiler;
  if (config.obs.profile) simulator.set_profiler(&profiler);
  util::Rng rng(config.seed + replication_index * 0x9E3779B97F4A7C15ULL);

  net::Network network(simulator, config.network_config(),
                       make_mobility(config), rng.fork(1),
                       config.duration_s);

  loc::PseudonymManager pseudonyms(loc::PseudonymPolicy{}, rng.fork(2));
  network.set_pseudonym_provider(&pseudonyms);

  loc::LocationService location(network, config.location,
                                config.duration_s);

  auto protocol = make_protocol(config, network, location);

  // Observability: a per-replication metrics registry plus, on replication
  // 0 only, the structured trace sink (all replications would interleave
  // into one file otherwise). None of this feeds the determinism digest.
  obs::MetricsRegistry metrics;
  std::unique_ptr<obs::TraceSink> obs_sink;
  obs::Tracer tracer;
  if (!config.obs.trace_out.empty() && replication_index == 0) {
    obs_sink = obs::make_trace_sink(config.obs.trace_out);
    tracer = obs::Tracer(obs_sink.get());
  }
  ObsBridge obs_bridge(metrics, tracer);
  network.add_listener(&obs_bridge);
  protocol->set_metrics(&metrics);

  // Node-level fault processes (src/faults): churn and outage markers ride
  // on a dedicated RNG fork, so an inert plan leaves every existing stream
  // untouched. The channel loss model lives inside the Network itself.
  std::unique_ptr<faults::FaultInjector> injector;
  if (config.faults.churn.active() || !config.faults.outages.empty()) {
    injector = std::make_unique<faults::FaultInjector>(
        simulator, config.faults, config.node_count, rng.fork(5),
        config.duration_s,
        [&network](std::uint32_t node, bool up) {
          network.set_node_alive(node, up);
        },
        &metrics, tracer);
  }

  DeliveryCounter delivery(metrics.sample("app.latency_s"),
                           metrics.histogram("app.hop_count", 0.0, 40.0, 40));
  network.add_listener(&delivery);
  attack::PassiveObserver observer(network);
  network.add_listener(&observer);

  // Traffic: flow_count random S-D pairs; CBR one packet per interval.
  util::Rng traffic_rng = rng.fork(3);
  struct Flow {
    net::NodeId src, dst;
  };
  std::vector<Flow> flows;
  flows.reserve(config.flow_count);
  const std::vector<int> comp = disk_components(network, 0.0);
  for (std::size_t f = 0; f < config.flow_count; ++f) {
    net::NodeId src = 0, dst = 0;
    for (int attempt = 0; attempt < 1024; ++attempt) {
      src = static_cast<net::NodeId>(traffic_rng.below(config.node_count));
      dst = src;
      while (dst == src) {
        dst = static_cast<net::NodeId>(traffic_rng.below(config.node_count));
      }
      if (comp[src] != comp[dst]) continue;  // physically communicable pair
      const double d = util::distance(network.node(src).position(0.0),
                                      network.node(dst).position(0.0));
      if (d < config.min_pair_distance_m || d > config.max_pair_distance_m) {
        continue;
      }
      break;
    }
    flows.push_back(Flow{src, dst});
  }

  std::uint64_t sent = 0;
  std::vector<std::uint32_t> next_seq(config.flow_count, 0);
  routing::Protocol* proto = protocol.get();
  for (std::size_t f = 0; f < config.flow_count; ++f) {
    // Small per-flow phase so flows do not transmit in lockstep.
    const double phase = traffic_rng.uniform(0.0, 0.2);
    simulator.schedule_periodic(
        config.traffic_start_s + phase, config.packet_interval_s,
        [&, f] {
          if (simulator.now() > config.duration_s) return;
          if (config.packets_per_flow != 0 &&
              next_seq[f] >= config.packets_per_flow) {
            return;
          }
          proto->send(flows[f].src, flows[f].dst, config.payload_bytes,
                      static_cast<std::uint32_t>(f), next_seq[f]++);
          ++sent;
        });
  }

  // The "without destination update" switch freezes the location service's
  // position snapshots just before traffic begins (Sec. 5.6).
  if (!config.destination_update) {
    simulator.schedule_at(config.traffic_start_s - 0.5,
                          [&location] { location.freeze_updates(); });
  }

  // Zone-residency observation (Figs. 12/13): for each flow, snapshot the
  // destination zone's occupants at traffic start and sample how many of
  // them remain on a fixed grid.
  std::vector<attack::ZoneResidency> residencies;
  std::vector<std::vector<double>> residency_samples(config.flow_count);
  simulator.schedule_at(config.traffic_start_s, [&] {
    for (std::size_t f = 0; f < config.flow_count; ++f) {
      const util::Vec2 dpos =
          network.node(flows[f].dst).position(simulator.now());
      residencies.emplace_back(
          network, routing::destination_zone(config.field, dpos,
                                             config.alert.partitions_h));
    }
  });
  const std::size_t samples =
      static_cast<std::size_t>((config.duration_s - config.traffic_start_s) /
                               config.residency_sample_period_s) +
      1;
  for (std::size_t s = 0; s < samples; ++s) {
    const double t = config.traffic_start_s +
                     static_cast<double>(s) *
                         config.residency_sample_period_s;
    simulator.schedule_at(t, [&] {
      if (residencies.empty()) return;
      for (std::size_t f = 0; f < residencies.size(); ++f) {
        residency_samples[f].push_back(
            static_cast<double>(residencies[f].remaining_at(simulator.now())));
      }
    });
  }

  simulator.run_until(config.duration_s);

  // Lifecycle audit: whatever the horizon cut off mid-flight is Expired;
  // afterwards every uid the run created must have exactly one fate.
  network.ledger().expire_open(simulator.now());
  ALERT_ASSERT(network.ledger().balanced(),
               "packet ledger out of balance at end of replication");

  RunResult result;
  result.trace_digest = simulator.trace_digest();
  result.events_executed = simulator.events_executed();
  result.packets_opened = network.ledger().totals().opened;
  result.packets_expired = network.ledger().totals().expired;
  result.sent = sent;
  result.delivered = delivery.delivered();
  result.mean_latency_s = delivery.mean_latency();
  result.mean_e2e_delay_s = delivery.mean_e2e();
  result.mean_hops = delivery.mean_hops();
  result.hello_messages = network.hello_count();
  result.location_update_messages = location.update_messages();

  const net::EnergyMeter energy = network.energy().total();
  result.energy_total_j = energy.total();
  result.energy_crypto_j = energy.crypto_j;
  result.energy_max_node_j = network.energy().max_node_total();
  if (result.delivered > 0) {
    result.energy_per_delivered_j =
        energy.total() / static_cast<double>(result.delivered);
  }

  const auto trace = attack::trace_routes(observer.events());
  result.mean_participants = trace.mean_participating_nodes;
  result.mean_route_overlap = trace.mean_consecutive_overlap;
  result.cumulative_participants = trace.cumulative_participants_by_packet;

  const routing::ProtocolStats& stats = proto->stats();
  if (stats.data_sent > 0) {
    result.rf_per_packet = static_cast<double>(stats.random_forwarders) /
                           static_cast<double>(stats.data_sent);
    result.partitions_per_packet =
        static_cast<double>(stats.partitions) /
        static_cast<double>(stats.data_sent);
    result.control_hops_per_packet =
        static_cast<double>(stats.control_hops) /
        static_cast<double>(stats.data_sent);
    result.cover_packets_per_data =
        static_cast<double>(stats.cover_packets) /
        static_cast<double>(stats.data_sent);
  }

  // Average residency over flows per sample index.
  std::size_t max_len = 0;
  for (const auto& v : residency_samples) max_len = std::max(max_len, v.size());
  result.remaining_by_sample.assign(max_len, 0.0);
  for (std::size_t s = 0; s < max_len; ++s) {
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t r = 0; r < residency_samples.size(); ++r) {
      const auto& v = residency_samples[r];
      if (s < v.size()) {
        sum += v[s];
        ++n;
      }
    }
    result.remaining_by_sample[s] = n ? sum / static_cast<double>(n) : 0.0;
  }

  if (config.run_attacks) {
    const auto timing = attack::timing_attack(observer.events());
    result.timing_source_rate = timing.source_identification_rate();
    result.timing_dest_rate = timing.dest_identification_rate();
    const auto inter = attack::intersection_attack(observer.events());
    result.intersection_success = inter.mean_success_probability();
    result.intersection_identified = inter.identification_rate();
    result.intersection_frequency = inter.frequency_identification_rate();
  }

  // Sec. 3.1 node-compromise battery: deterministic per replication (the
  // adversary's Monte-Carlo draws come from a forked stream of this
  // replication's RNG, so results cache and replay exactly).
  if (!config.compromise_budgets.empty()) {
    util::Rng compromise_rng = rng.fork(4);
    result.compromise_targeted.reserve(config.compromise_budgets.size());
    result.compromise_blocked.reserve(config.compromise_budgets.size());
    for (const std::size_t budget : config.compromise_budgets) {
      result.compromise_targeted.push_back(
          attack::targeted_next_packet_interception(observer.events(),
                                                    budget, compromise_rng));
      result.compromise_blocked.push_back(
          attack::compromise_analysis(observer.events(), config.node_count,
                                      budget, 100, compromise_rng)
              .flow_blockage);
    }
  }

  export_protocol_stats(metrics, proto->stats());
  export_run_totals(metrics, network);
  result.metrics = metrics.snapshot();
  if (config.obs.profile) result.profile = profiler.report();
  if (obs_sink != nullptr) obs_sink->finish();
  return result;
}

namespace {

using R = RunResult;

constexpr YMetric kYMetrics[] = {
    {"delivery_rate", nullptr, &R::delivery_rate, false, 1.0},
    {"latency_ms", &R::mean_latency_s, nullptr, true, 1e3},
    {"e2e_delay_ms", &R::mean_e2e_delay_s, nullptr, true, 1e3},
    {"hops", &R::mean_hops, nullptr, true, 1.0},
    {"hops_with_control", nullptr, &R::hops_with_control, true, 1.0},
    {"participants", &R::mean_participants, nullptr, false, 1.0},
    {"route_overlap", &R::mean_route_overlap, nullptr, false, 1.0},
    {"rf_per_packet", &R::rf_per_packet, nullptr, false, 1.0},
    {"partitions_per_packet", &R::partitions_per_packet, nullptr, false, 1.0},
    {"cover_per_data", &R::cover_packets_per_data, nullptr, false, 1.0},
    {"energy_per_delivered_j", &R::energy_per_delivered_j, nullptr, true, 1.0},
    {"energy_total_j", &R::energy_total_j, nullptr, false, 1.0},
    {"energy_crypto_j", &R::energy_crypto_j, nullptr, false, 1.0},
    {"energy_max_node_j", &R::energy_max_node_j, nullptr, false, 1.0},
    {"timing_source_rate", &R::timing_source_rate, nullptr, false, 1.0},
    {"timing_dest_rate", &R::timing_dest_rate, nullptr, false, 1.0},
    {"intersection_success", &R::intersection_success, nullptr, false, 1.0},
    {"intersection_identified", &R::intersection_identified, nullptr, false,
     1.0},
    {"intersection_frequency", &R::intersection_frequency, nullptr, false,
     1.0},
};

const YMetric& y_metric(std::string_view name) {
  const YMetric* row = find_y_metric(name);
  ALERT_INVARIANT(row != nullptr,
                  "unknown y-metric '" + std::string(name) + "'");
  return *row;
}

}  // namespace

std::span<const YMetric> y_metrics() { return kYMetrics; }

const YMetric* find_y_metric(std::string_view name) {
  for (const YMetric& row : kYMetrics) {
    if (name == row.name) return &row;
  }
  return nullptr;
}

void ExperimentResult::add(RunResult run) {
  metrics.merge(run.metrics);
  profile.merge(run.profile);
  trace_digests.push_back(run.trace_digest);
  runs.push_back(std::move(run));
}

util::Accumulator ExperimentResult::fold(std::string_view name) const {
  const YMetric& row = y_metric(name);
  util::Accumulator acc;
  for (const RunResult& run : runs) {
    if (row.needs_delivery && run.delivered == 0) continue;
    acc.add(row.member != nullptr ? run.*row.member : (run.*row.derived)());
  }
  return acc;
}

util::SeriesPoint ExperimentResult::point(std::string_view name,
                                          double x) const {
  const double scale = y_metric(name).scale;
  const util::Accumulator acc = fold(name);
  return {x, acc.mean() * scale, acc.ci95_halfwidth() * scale};
}

std::vector<util::Accumulator> ExperimentResult::fold_each(
    std::vector<double> RunResult::*member) const {
  std::vector<util::Accumulator> out;
  for (const RunResult& run : runs) {
    const std::vector<double>& values = run.*member;
    if (out.size() < values.size()) out.resize(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) out[i].add(values[i]);
  }
  return out;
}

ExperimentResult run_experiment(const ScenarioConfig& config,
                                std::size_t replications,
                                std::size_t threads) {
  ExperimentResult result;
  std::vector<RunResult> runs(replications);
  util::ThreadPool pool(threads);
  pool.parallel_for(replications,
                    [&](std::size_t r) { runs[r] = run_once(config, r); });
  // Keep replication order, not completion order: Welford updates and sum
  // accumulation are not associative in floating point, so folding results
  // as threads finish would make the aggregate depend on scheduling.
  // Replication order makes parallel and serial runs bit-identical (and
  // trace_digests arrives already deterministic).
  for (RunResult& run : runs) {
    result.add(std::move(run));
  }
  return result;
}

}  // namespace alert::core
