#include "campaign/figures.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/theory.hpp"
#include "core/scenario_codec.hpp"
#include "routing/zone.hpp"

namespace alert::campaign {

namespace {

using core::MobilityKind;
using core::ProtocolKind;
using Run = core::RunResult;

core::ScenarioConfig base() { return paper_default_scenario(); }

__attribute__((format(printf, 1, 2))) std::string format(const char* fmt,
                                                         ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

PointSpec make_point(std::string curve, double x, core::ScenarioConfig cfg,
                     std::size_t reps_override = 0) {
  PointSpec p;
  p.curve = std::move(curve);
  p.x = x;
  p.config = std::move(cfg);
  p.reps_override = reps_override;
  return p;
}

/// One series named `name`: every point's x and its y-metric `y_metric`.
util::Series metric_series(std::string name,
                           const std::vector<PointResult>& points,
                           std::string_view y_metric) {
  util::Series series{std::move(name), {}};
  for (const PointResult& pr : points) {
    series.points.push_back(pr.result.point(y_metric, pr.spec->x));
  }
  return series;
}

void append(obs::RunManifest& m, std::vector<util::Series> series) {
  for (util::Series& sr : series) m.series.push_back(std::move(sr));
}

// --- the paper's comparison grid (Sec. 5.2) and its shared reducers ---------

/// The four protocols the paper compares, in its order.
constexpr ProtocolKind kPaperProtocols[] = {
    ProtocolKind::Alert, ProtocolKind::Gpsr, ProtocolKind::Alarm,
    ProtocolKind::Ao2p};

/// The node speeds of Figs. 13b–17.
constexpr double kPaperSpeeds[] = {2.0, 4.0, 6.0, 8.0};

/// Figs. 10b, 14a, 15a and 16a: each protocol over 50–200 nodes, one curve
/// per protocol named `<protocol><suffix>`; `from` sets everything else.
void sweep_protocols_by_nodes(CampaignSpec& s, const std::string& suffix = "",
                              const core::ScenarioConfig& from = base()) {
  for (const ProtocolKind proto : kPaperProtocols) {
    for (const std::size_t n : {50u, 100u, 150u, 200u}) {
      core::ScenarioConfig cfg = from;
      cfg.node_count = n;
      cfg.protocol = proto;
      s.points.push_back(
          make_point(std::string(core::protocol_name(proto)) + suffix,
                     static_cast<double>(n), std::move(cfg)));
    }
  }
}

struct UpdateVariant {
  ProtocolKind proto;
  bool update;
  const char* name;
};

/// With and without destination location updates. The first four rows are
/// ALERT's and GPSR's pairs, which Fig. 16b plots alone.
constexpr UpdateVariant kSixVariants[] = {
    {ProtocolKind::Alert, true, "ALERT w/ update"},
    {ProtocolKind::Alert, false, "ALERT w/o update"},
    {ProtocolKind::Gpsr, true, "GPSR w/ update"},
    {ProtocolKind::Gpsr, false, "GPSR w/o update"},
    {ProtocolKind::Alarm, true, "ALARM"},
    {ProtocolKind::Ao2p, true, "AO2P"},
};

/// Figs. 14b, 15b and 16b: each variant over the paper's speeds, one curve
/// per variant named `<variant><suffix>`.
void sweep_variants_by_speed(CampaignSpec& s,
                             std::span<const UpdateVariant> variants,
                             const std::string& suffix = "") {
  for (const UpdateVariant& v : variants) {
    for (const double speed : kPaperSpeeds) {
      core::ScenarioConfig cfg = base();
      cfg.protocol = v.proto;
      cfg.speed_mps = speed;
      cfg.destination_update = v.update;
      s.points.push_back(
          make_point(std::string(v.name) + suffix, speed, std::move(cfg)));
    }
  }
}

/// Figs. 12 and 13a: each curve's destination-zone residency over time.
void residency_reduce(const std::vector<PointResult>& points,
                      const ReduceContext& ctx, obs::RunManifest& m) {
  for (const PointResult& pr : points) {
    util::Series series{pr.spec->curve, {}};
    const double period = pr.spec->config.residency_sample_period_s;
    const auto samples = pr.result.fold_each(&Run::remaining_by_sample);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      series.points.push_back(
          series_point(static_cast<double>(i) * period, samples[i]));
    }
    m.series.push_back(std::move(series));
  }
  m.notes.push_back(reps_note(ctx.reps));
}

/// Figs. 15a and 15b: hops per curve, then ALARM's counting the hops of its
/// map dissemination.
void hops_reduce(const std::vector<PointResult>& points,
                 const ReduceContext& ctx, obs::RunManifest& m) {
  append(m, group_by_curve(points, "hops"));
  util::Series alarm_diss{"ALARM (incl. dissemination)", {}};
  for (const PointResult& pr : points) {
    if (pr.spec->curve == "ALARM") {
      alarm_diss.points.push_back(
          pr.result.point("hops_with_control", pr.spec->x));
    }
  }
  m.series.push_back(std::move(alarm_diss));
  m.notes.push_back(reps_note(ctx.reps));
}

// --- Sec. 4 analysis figures (no simulation points) ------------------------

CampaignSpec fig07a() {
  CampaignSpec s;
  s.name = "fig07a_possible_nodes";
  s.banner = "Fig. 7a — estimated possible participating nodes (Eq. 7)";
  s.title = "Fig. 7a — possible participating nodes";
  s.x_label = "partitions H";
  s.y_label = "expected nodes N_e";
  s.reduce = [](const std::vector<PointResult>&, const ReduceContext&,
                obs::RunManifest& m) {
    for (const double n : {100.0, 200.0, 400.0}) {
      util::Series series{std::to_string(static_cast<int>(n)) + " nodes",
                          {}};
      const analysis::NetworkShape net{1000.0, 1000.0, n};
      for (int H = 1; H <= 7; ++H) {
        series.points.push_back(
            {static_cast<double>(H),
             analysis::expected_possible_nodes(net, H), 0.0});
      }
      m.series.push_back(std::move(series));
    }
  };
  return s;
}

CampaignSpec fig07b() {
  CampaignSpec s;
  s.name = "fig07b_random_forwarders";
  s.banner = "Fig. 7b — estimated random forwarders (Eq. 10)";
  s.title = "Fig. 7b — expected random forwarders";
  s.x_label = "partitions H";
  s.y_label = "E[N_RF]";
  s.reduce = [](const std::vector<PointResult>&, const ReduceContext&,
                obs::RunManifest& m) {
    util::Series series{"E[N_RF]", {}};
    for (int H = 1; H <= 10; ++H) {
      series.points.push_back(
          {static_cast<double>(H), analysis::expected_rfs(H), 0.0});
    }
    m.series.push_back(std::move(series));
    m.notes.push_back("successive differences (linearity evidence):");
    for (int H = 2; H <= 10; ++H) {
      m.notes.push_back(format(
          "  H=%d -> %d: %+0.4f", H - 1, H,
          analysis::expected_rfs(H) - analysis::expected_rfs(H - 1)));
    }
  };
  return s;
}

CampaignSpec fig09a() {
  CampaignSpec s;
  s.name = "fig09a_remaining_analytical";
  s.banner = "Fig. 9a — analytical remaining nodes vs time (Eq. 15)";
  s.title =
      "Fig. 9a — remaining nodes in destination zone (v = 2 m/s, H = 5)";
  s.x_label = "time (s)";
  s.y_label = "N_r(t)";
  s.reduce = [](const std::vector<PointResult>&, const ReduceContext&,
                obs::RunManifest& m) {
    for (const double n : {100.0, 200.0, 400.0}) {
      util::Series series{
          std::to_string(static_cast<int>(n)) + " nodes/km^2", {}};
      const analysis::NetworkShape net{1000.0, 1000.0, n};
      for (double t = 0.0; t <= 40.0; t += 5.0) {
        series.points.push_back(
            {t, analysis::remaining_nodes(net, 5, 2.0, t), 0.0});
      }
      m.series.push_back(std::move(series));
    }
  };
  return s;
}

CampaignSpec fig09b() {
  CampaignSpec s;
  s.name = "fig09b_remaining_speed";
  s.banner = "Fig. 9b — analytical remaining nodes vs time by speed";
  s.title = "Fig. 9b — remaining nodes in destination zone (200 nodes, H = 5)";
  s.x_label = "time (s)";
  s.y_label = "N_r(t)";
  s.reduce = [](const std::vector<PointResult>&, const ReduceContext&,
                obs::RunManifest& m) {
    const analysis::NetworkShape net{1000.0, 1000.0, 200.0};
    for (const double v : {1.0, 2.0, 4.0}) {
      util::Series series{std::to_string(static_cast<int>(v)) + " m/s", {}};
      for (double t = 0.0; t <= 40.0; t += 5.0) {
        series.points.push_back(
            {t, analysis::remaining_nodes(net, 5, v, t), 0.0});
      }
      m.series.push_back(std::move(series));
    }
    const double side = analysis::side_a(5, 1000.0);
    m.notes.push_back(format(
        "zone side a(5) = %.1f m; residence constants beta:", side));
    for (const double v : {1.0, 2.0, 4.0}) {
      m.notes.push_back(format("  v=%.0f m/s: beta = %.1f s", v,
                               analysis::beta_square_zone(side, v)));
    }
  };
  return s;
}

// --- Sec. 5 simulation figures ---------------------------------------------

CampaignSpec fig10a() {
  CampaignSpec s;
  s.name = "fig10a_participating_vs_packets";
  s.banner = "Fig. 10a — cumulative participating nodes vs packets";
  s.title = "Fig. 10a — cumulative actual participating nodes per flow";
  s.x_label = "packets";
  s.y_label = "distinct nodes";
  for (const std::size_t n : {100u, 200u}) {
    for (const ProtocolKind proto :
         {ProtocolKind::Alert, ProtocolKind::Gpsr}) {
      core::ScenarioConfig cfg = base();
      cfg.node_count = n;
      cfg.protocol = proto;
      cfg.packets_per_flow = 20;
      s.points.push_back(make_point(std::string(core::protocol_name(proto)) +
                                        " " + std::to_string(n) + "n",
                                    static_cast<double>(n), std::move(cfg)));
    }
  }
  s.reduce = [](const std::vector<PointResult>& points,
                const ReduceContext& ctx, obs::RunManifest& m) {
    for (const PointResult& pr : points) {
      util::Series series{pr.spec->curve, {}};
      const auto cumulative =
          pr.result.fold_each(&Run::cumulative_participants);
      for (std::size_t p = 0; p < cumulative.size() && p < 20; ++p) {
        series.points.push_back(
            series_point(static_cast<double>(p + 1), cumulative[p]));
      }
      m.series.push_back(std::move(series));
    }
    m.notes.push_back(
        reps_note(ctx.reps, "; ALARM/AO2P track the GPSR curve"));
  };
  return s;
}

CampaignSpec fig10b() {
  CampaignSpec s;
  s.name = "fig10b_participating_vs_size";
  s.banner = "Fig. 10b — participating nodes after 20 packets vs N";
  s.title = "Fig. 10b — actual participating nodes per flow (20 packets)";
  s.x_label = "total nodes";
  s.y_label = "distinct nodes";
  s.y_metric = "participants";
  core::ScenarioConfig cfg = base();
  cfg.packets_per_flow = 20;
  sweep_protocols_by_nodes(s, "", cfg);
  return s;
}

CampaignSpec fig11() {
  CampaignSpec s;
  s.name = "fig11_rf_vs_partitions";
  s.banner = "Fig. 11 — random forwarders per packet vs partitions";
  s.title = "Fig. 11 — random forwarders per packet";
  s.x_label = "partitions H";
  s.y_label = "RFs/packet";
  for (int H = 1; H <= 7; ++H) {
    core::ScenarioConfig cfg = base();
    cfg.alert.partitions_h = H;
    cfg.packets_per_flow = 20;
    s.points.push_back(make_point("ALERT (simulated)",
                                  static_cast<double>(H), std::move(cfg)));
  }
  s.reduce = [](const std::vector<PointResult>& points,
                const ReduceContext& ctx, obs::RunManifest& m) {
    m.series.push_back(
        metric_series("ALERT (simulated)", points, "rf_per_packet"));
    util::Series theory{"Eq. 10 (analysis)", {}};
    for (const PointResult& pr : points) {
      theory.points.push_back(
          {pr.spec->x,
           analysis::expected_rfs(static_cast<int>(pr.spec->x)), 0.0});
    }
    m.series.push_back(std::move(theory));
    m.notes.push_back("(reps per point: " + std::to_string(ctx.reps) +
                      "; simulated counts sit above the");
    m.notes.push_back(
        " idealized analysis because voids en route also create RFs)");
  };
  return s;
}

CampaignSpec fig12() {
  CampaignSpec s;
  s.name = "fig12_destination_anonymity";
  s.banner = "Fig. 12 — simulated destination-zone residency";
  s.title =
      "Fig. 12 — remaining nodes in destination zone (H = 5, v = 2 m/s)";
  s.x_label = "time (s)";
  s.y_label = "remaining nodes";
  for (const std::size_t n : {100u, 150u, 200u}) {
    core::ScenarioConfig cfg = base();
    cfg.node_count = n;
    cfg.duration_s = 45.0;
    cfg.residency_sample_period_s = 5.0;
    s.points.push_back(make_point(std::to_string(n) + " nodes",
                                  static_cast<double>(n), std::move(cfg)));
  }
  s.reduce = residency_reduce;
  return s;
}

CampaignSpec fig13a() {
  CampaignSpec s;
  s.name = "fig13a_speed_partitions";
  s.banner = "Fig. 13a — residency vs speed and partitions";
  s.title = "Fig. 13a — remaining nodes: partitions x speed (200 nodes)";
  s.x_label = "time (s)";
  s.y_label = "remaining nodes";
  for (const int H : {4, 5}) {
    for (const double v : {0.0, 2.0, 4.0}) {
      core::ScenarioConfig cfg = base();
      cfg.alert.partitions_h = H;
      cfg.speed_mps = v;
      if (v == 0.0) cfg.mobility = MobilityKind::Static;
      cfg.duration_s = 45.0;
      cfg.residency_sample_period_s = 5.0;
      s.points.push_back(make_point(
          "H=" + std::to_string(H) + " v=" +
              std::to_string(static_cast<int>(v)),
          v, std::move(cfg)));
    }
  }
  s.reduce = residency_reduce;
  return s;
}

CampaignSpec fig13b() {
  CampaignSpec s;
  s.name = "fig13b_density_vs_speed";
  s.banner = "Fig. 13b — required density vs speed for fixed k";
  s.title =
      "Fig. 13b — density required for k = 6 remaining after 10 s (H = 5)";
  s.x_label = "speed (m/s)";
  s.y_label = "nodes";
  const analysis::NetworkShape shape{1000.0, 1000.0, 200.0};
  for (const double v : kPaperSpeeds) {
    const double needed =
        analysis::required_node_count(shape, 5, v, 10.0, 6.0);
    core::ScenarioConfig cfg = base();
    cfg.node_count = static_cast<std::size_t>(needed + 0.5);
    cfg.speed_mps = v;
    cfg.duration_s = cfg.traffic_start_s + 10.0 + 1.0;
    cfg.residency_sample_period_s = 10.0;
    s.points.push_back(
        make_point("remaining at that density (simulated)", v,
                   std::move(cfg)));
  }
  s.reduce = [](const std::vector<PointResult>& points,
                const ReduceContext& ctx, obs::RunManifest& m) {
    const analysis::NetworkShape net{1000.0, 1000.0, 200.0};
    util::Series predicted{"required nodes (Eq. 15 inverse)", {}};
    util::Series validated{"remaining at that density (simulated)", {}};
    for (const PointResult& pr : points) {
      predicted.points.push_back(
          {pr.spec->x,
           analysis::required_node_count(net, 5, pr.spec->x, 10.0, 6.0),
           0.0});
      const auto samples = pr.result.fold_each(&Run::remaining_by_sample);
      if (samples.empty()) continue;
      // Sample index 1 is t = +10 s after session start.
      const util::Accumulator& acc =
          samples.size() > 1 ? samples[1] : samples[0];
      validated.points.push_back(series_point(pr.spec->x, acc));
    }
    m.series.push_back(std::move(predicted));
    m.series.push_back(std::move(validated));
    m.notes.push_back(
        reps_note(ctx.reps, "; validated column should sit near k = 6"));
  };
  return s;
}

CampaignSpec fig14a() {
  CampaignSpec s;
  s.name = "fig14a_latency_vs_nodes";
  s.banner = "Fig. 14a — latency per packet vs number of nodes";
  s.title = "Fig. 14a — latency per packet";
  s.x_label = "total nodes";
  s.y_label = "latency (ms)";
  s.y_metric = "latency_ms";
  sweep_protocols_by_nodes(s, " (ms)");
  return s;
}

CampaignSpec fig14b() {
  CampaignSpec s;
  s.name = "fig14b_latency_vs_speed";
  s.banner = "Fig. 14b — latency per packet vs node speed";
  s.title = "Fig. 14b — latency per packet vs speed";
  s.x_label = "speed (m/s)";
  s.y_label = "latency (ms)";
  s.y_metric = "latency_ms";
  sweep_variants_by_speed(s, kSixVariants, " (ms)");
  return s;
}

CampaignSpec fig15a() {
  CampaignSpec s;
  s.name = "fig15a_hops_vs_nodes";
  s.banner = "Fig. 15a — hops per packet vs number of nodes";
  s.title = "Fig. 15a — hops per packet";
  s.x_label = "total nodes";
  s.y_label = "hops";
  sweep_protocols_by_nodes(s);
  s.reduce = hops_reduce;
  return s;
}

CampaignSpec fig15b() {
  CampaignSpec s;
  s.name = "fig15b_hops_vs_speed";
  s.banner = "Fig. 15b — hops per packet vs node speed";
  s.title = "Fig. 15b — hops per packet vs speed";
  s.x_label = "speed (m/s)";
  s.y_label = "hops";
  sweep_variants_by_speed(s, kSixVariants);
  s.reduce = hops_reduce;
  return s;
}

CampaignSpec fig16a() {
  CampaignSpec s;
  s.name = "fig16a_delivery_vs_nodes";
  s.banner = "Fig. 16a — delivery rate vs number of nodes";
  s.title = "Fig. 16a — delivery rate (with dest. update)";
  s.x_label = "total nodes";
  s.y_label = "delivery rate";
  s.y_metric = "delivery_rate";
  sweep_protocols_by_nodes(s);
  return s;
}

CampaignSpec fig16b() {
  CampaignSpec s;
  s.name = "fig16b_delivery_vs_speed";
  s.banner = "Fig. 16b — delivery rate vs node speed";
  s.title = "Fig. 16b — delivery rate vs speed";
  s.x_label = "speed (m/s)";
  s.y_label = "delivery rate";
  s.y_metric = "delivery_rate";
  sweep_variants_by_speed(s, std::span(kSixVariants).first(4));
  return s;
}

CampaignSpec fig17() {
  CampaignSpec s;
  s.name = "fig17_movement_models";
  s.banner = "Fig. 17 — ALERT delay under different movement models";
  s.title = "Fig. 17 — ALERT delay by movement model";
  s.x_label = "speed (m/s)";
  s.y_label = "end-to-end delay (ms)";
  struct Model {
    MobilityKind kind;
    std::size_t groups;
    double range;
    const char* name;
  };
  const Model models[] = {
      {MobilityKind::RandomWaypoint, 0, 0.0, "random waypoint"},
      {MobilityKind::Group, 10, 150.0, "group (10 x 150 m)"},
      {MobilityKind::Group, 5, 200.0, "group (5 x 200 m)"},
  };
  for (const Model& model : models) {
    for (const double speed : kPaperSpeeds) {
      core::ScenarioConfig cfg = base();
      cfg.mobility = model.kind;
      cfg.group_count = model.groups == 0 ? 1 : model.groups;
      cfg.group_range_m = model.range;
      cfg.speed_mps = speed;
      // Distance-matched pairs and long retransmitting sessions — see the
      // design discussion in EXPERIMENTS.md.
      cfg.min_pair_distance_m = 300.0;
      cfg.max_pair_distance_m = 700.0;
      cfg.alert.max_retransmissions = 4;
      s.points.push_back(make_point(std::string(model.name) + " (ms)",
                                    speed, std::move(cfg)));
    }
  }
  s.reduce = [](const std::vector<PointResult>& points,
                const ReduceContext& ctx, obs::RunManifest& m) {
    append(m, group_by_curve(points, "e2e_delay_ms"));
    m.notes.push_back("mean delivery rates per model/speed (context for the");
    m.notes.push_back("survivorship discussion in EXPERIMENTS.md):");
    std::string current_curve;
    std::string line;
    for (const PointResult& pr : points) {
      if (pr.spec->curve != current_curve) {
        if (!line.empty()) m.notes.push_back(line);
        current_curve = pr.spec->curve;
        std::string label = current_curve;
        if (const auto pos = label.rfind(" (ms)");
            pos != std::string::npos) {
          label.erase(pos);
        }
        line = "  " + label + ":";
      }
      line += format(" %.2f", pr.result.point("delivery_rate").y);
    }
    if (!line.empty()) m.notes.push_back(line);
    m.notes.push_back(reps_note(ctx.reps));
  };
  return s;
}

CampaignSpec table1() {
  CampaignSpec s;
  s.name = "table1_anonymity_matrix";
  s.banner = "Table 1 — measured anonymity property matrix";
  s.title = "Table 1 — measured anonymity property matrix";
  s.fallback_reps = 5;
  for (const ProtocolKind proto :
       {ProtocolKind::Alert, ProtocolKind::Gpsr, ProtocolKind::Alarm,
        ProtocolKind::Ao2p, ProtocolKind::Zap}) {
    core::ScenarioConfig cfg = base();
    cfg.protocol = proto;
    cfg.run_attacks = true;
    if (proto == ProtocolKind::Alert) {
      // The full defence: notify-and-go plus the intersection
      // countermeasure (both on only for this figure).
      cfg.alert.intersection_countermeasure = true;
    }
    s.points.push_back(make_point(core::protocol_name(proto), 0.0,
                                  std::move(cfg)));
  }
  s.reduce = [](const std::vector<PointResult>& points,
                const ReduceContext& ctx, obs::RunManifest& m) {
    m.notes.push_back(format("%-8s  %-12s  %-12s  %-12s  %-12s  %s", "proto",
                             "src(timing)", "dst(timing)", "dst(inter.)",
                             "route-ovl", "verdict"));
    for (const PointResult& pr : points) {
      const double src = pr.result.point("timing_source_rate").y;
      const double dst_timing = pr.result.point("timing_dest_rate").y;
      const double dst_inter = pr.result.point("intersection_success").y;
      const double overlap = pr.result.point("route_overlap").y;
      // A destination is exposed if *either* attack pins it: the baselines
      // deliver by unicast (timing identifies the terminal receiver); ALERT
      // is attacked through its zone broadcasts (intersection, Sec. 3.3).
      const bool src_anon = src < 0.3;
      const bool dst_anon = std::max(dst_timing, dst_inter) < 0.3;
      const bool route_anon = overlap < 0.5;
      m.notes.push_back(format(
          "%-8s  %-12.2f  %-12.2f  %-12.2f  %-12.2f  src:%s dst:%s route:%s",
          pr.spec->curve.c_str(), src, dst_timing, dst_inter, overlap,
          src_anon ? "yes" : "NO", dst_anon ? "yes" : "NO",
          route_anon ? "yes" : "NO"));
    }
    m.notes.push_back(
        "Paper's Table 1 expectation: ALERT protects source, destination");
    m.notes.push_back(
        "and route; the greedy geographic baselines expose the route and at");
    m.notes.push_back(
        "least one endpoint. Caveat recorded in EXPERIMENTS.md: a frequency-");
    m.notes.push_back(
        "ranking intersection variant (not considered by the paper) still");
    m.notes.push_back(
        "degrades ALERT's destination anonymity over very long sessions.");
    m.notes.push_back("(reps per row: " + std::to_string(ctx.reps) + ")");
  };
  return s;
}

// --- Ablations and back-of-envelope sections -------------------------------

CampaignSpec ablation_intersection() {
  CampaignSpec s;
  s.name = "ablation_intersection";
  s.banner = "Sec. 3.3 ablation — intersection attack vs countermeasure";
  s.title = "Sec. 3.3 — intersection attack success vs session length";
  s.x_label = "session (s)";
  s.y_label = "attack success";
  for (const bool countermeasure : {false, true}) {
    for (const double duration : {20.0, 40.0, 60.0, 100.0}) {
      core::ScenarioConfig cfg = base();
      cfg.duration_s = duration;
      cfg.run_attacks = true;
      cfg.alert.intersection_countermeasure = countermeasure;
      s.points.push_back(make_point(countermeasure ? "ON" : "OFF", duration,
                                    std::move(cfg)));
    }
  }
  s.reduce = [](const std::vector<PointResult>& points,
                const ReduceContext& ctx, obs::RunManifest& m) {
    for (const char* cm : {"OFF", "ON"}) {
      util::Series freq{std::string("freq-attack success, cm ") + cm, {}};
      util::Series strict{
          std::string("strict-intersection P(D), cm ") + cm, {}};
      for (const PointResult& pr : points) {
        if (pr.spec->curve != cm) continue;
        freq.points.push_back(
            pr.result.point("intersection_frequency", pr.spec->x));
        strict.points.push_back(
            pr.result.point("intersection_success", pr.spec->x));
      }
      m.series.push_back(std::move(freq));
      m.series.push_back(std::move(strict));
    }
    m.notes.push_back(reps_note(ctx.reps));
  };
  return s;
}

CampaignSpec ablation_h_tradeoff() {
  CampaignSpec s;
  s.name = "ablation_h_tradeoff";
  s.banner = "H/k tradeoff — anonymity vs cost as H grows";
  s.title = "H/k tradeoff (200 nodes)";
  s.x_label = "partitions H";
  s.y_label = "see column names";
  for (int H = 2; H <= 7; ++H) {
    core::ScenarioConfig cfg = base();
    cfg.alert.partitions_h = H;
    s.points.push_back(
        make_point("ALERT", static_cast<double>(H), std::move(cfg)));
  }
  s.reduce = [](const std::vector<PointResult>& points,
                const ReduceContext& ctx, obs::RunManifest& m) {
    m.series.push_back(
        metric_series("RFs/packet (route anon.)", points, "rf_per_packet"));
    util::Series zone_pop{"zone population k (dest anon.)", {}};
    for (const PointResult& pr : points) {
      zone_pop.points.push_back(
          {pr.spec->x,
           routing::expected_zone_population(
               200.0, static_cast<int>(pr.spec->x)),
           0.0});
    }
    m.series.push_back(std::move(zone_pop));
    m.series.push_back(metric_series("hops/packet (cost)", points, "hops"));
    m.series.push_back(
        metric_series("latency ms (cost)", points, "latency_ms"));
    m.notes.push_back(
        "Reading: route anonymity (RFs) buys linearly with H while the");
    m.notes.push_back(
        "destination's k-anonymity halves per step — the paper's argument");
    m.notes.push_back(
        "for choosing H so that k stays a 'reasonable number' (H=5 at 200");
    m.notes.push_back("nodes -> k ~ 6). " + reps_note(ctx.reps));
  };
  return s;
}

CampaignSpec ablation_notify_and_go() {
  CampaignSpec s;
  s.name = "ablation_notify_and_go";
  s.banner = "Sec. 2.6 ablation — notify-and-go window sweep";
  s.title = "notify-and-go: anonymity vs latency";
  s.x_label = "t0 (ms)";
  s.y_label = "see column names";
  // t0 = 0 disables the mechanism entirely (the paper's baseline).
  for (const double t0_ms : {0.0, 1.0, 2.0, 4.0, 8.0, 16.0}) {
    core::ScenarioConfig cfg = base();
    cfg.run_attacks = true;
    if (t0_ms == 0.0) {
      cfg.alert.notify_and_go = false;
    } else {
      cfg.alert.notify_t0_s = t0_ms * 1e-3;
    }
    s.points.push_back(make_point("ALERT", t0_ms, std::move(cfg)));
  }
  s.reduce = [](const std::vector<PointResult>& points,
                const ReduceContext& ctx, obs::RunManifest& m) {
    m.series.push_back(
        metric_series("timing src-id rate", points, "timing_source_rate"));
    m.series.push_back(metric_series("latency (ms)", points, "latency_ms"));
    m.series.push_back(
        metric_series("cover pkts per data", points, "cover_per_data"));
    m.notes.push_back(
        reps_note(ctx.reps, "; t0 = 0 row is the mechanism disabled"));
  };
  return s;
}

CampaignSpec ablation_pseudonym_period() {
  CampaignSpec s;
  s.name = "ablation_pseudonym_period";
  s.banner = "Sec. 2.2 ablation — pseudonym rotation period sweep";
  s.title = "pseudonym rotation: routing health vs linkability window";
  s.x_label = "rotation period (s)";
  s.y_label = "see column names";
  for (const double period : {1.0, 2.0, 5.0, 10.0, 20.0, 50.0}) {
    core::ScenarioConfig cfg = base();
    cfg.pseudonym_period_s = period;
    s.points.push_back(make_point("ALERT", period, std::move(cfg)));
  }
  s.reduce = [](const std::vector<PointResult>& points,
                const ReduceContext& ctx, obs::RunManifest& m) {
    m.series.push_back(
        metric_series("delivery rate", points, "delivery_rate"));
    m.series.push_back(metric_series("latency (ms)", points, "latency_ms"));
    m.notes.push_back(
        "Short periods perturb routing (stale neighbour entries point at");
    m.notes.push_back(
        "expired pseudonyms); long periods hand the adversary a long");
    m.notes.push_back("linkability window. " + reps_note(ctx.reps));
  };
  return s;
}

CampaignSpec energy_per_packet() {
  CampaignSpec s;
  s.name = "energy_per_packet";
  s.banner = "Energy — energy per delivered packet by protocol";
  s.title = "energy accounting (x: 0=ALERT 1=GPSR 2=ALARM 3=AO2P)";
  s.x_label = "protocol idx";
  s.y_label = "see column names";
  double x = 0.0;
  for (const ProtocolKind proto : kPaperProtocols) {
    core::ScenarioConfig cfg = base();
    cfg.protocol = proto;
    s.points.push_back(make_point(core::protocol_name(proto), x,
                                  std::move(cfg)));
    x += 1.0;
  }
  s.reduce = [](const std::vector<PointResult>& points,
                const ReduceContext& ctx, obs::RunManifest& m) {
    m.series.push_back(metric_series("J per delivered packet", points,
                                     "energy_per_delivered_j"));
    util::Series crypto_share{"crypto share of total J", {}};
    for (const PointResult& pr : points) {
      const double total = pr.result.point("energy_total_j").y;
      const double share =
          total > 0.0 ? pr.result.point("energy_crypto_j").y / total : 0.0;
      crypto_share.points.push_back({pr.spec->x, share, 0.0});
    }
    m.series.push_back(std::move(crypto_share));
    m.series.push_back(
        metric_series("max single-node J", points, "energy_max_node_j"));
    m.notes.push_back("Expected shape: ALERT's energy/packet a modest factor");
    m.notes.push_back("above GPSR (longer routes, covers, one symmetric op) "
                      "and");
    m.notes.push_back(
        "far below ALARM/AO2P, whose totals are crypto-dominated.");
    m.notes.push_back(reps_note(ctx.reps));
  };
  return s;
}

CampaignSpec sec43_location_overhead() {
  CampaignSpec s;
  s.name = "sec43_location_overhead";
  s.banner = "Sec. 4.3 — location service overhead ratio";
  s.title =
      "overhead ratio (N = 200 nodes, regular traffic F = 0.5 Hz/node)";
  s.x_label = "location servers N_L";
  s.y_label = "(N_L(N_L-1)f + Nf) / (N F)";
  // One measured single-replication run at the default deployment.
  s.points.push_back(make_point("measured", 0.0, base(),
                                /*reps_override=*/1));
  s.reduce = [](const std::vector<PointResult>& points,
                const ReduceContext&, obs::RunManifest& m) {
    for (const double f : {0.2, 1.0, 5.0}) {
      util::Series series{
          "update freq f=" + std::to_string(f).substr(0, 3) + " Hz", {}};
      for (const double nl : {5.0, 10.0, 14.0, 20.0, 40.0}) {
        series.points.push_back(
            {nl, analysis::location_overhead_ratio(200.0, nl, f, 0.5), 0.0});
      }
      m.series.push_back(std::move(series));
    }
    m.notes.push_back(format(
        "sqrt(N) = %.1f servers — the paper's sizing rule; ratios",
        std::sqrt(200.0)));
    m.notes.push_back("must be << 1 for the service to be affordable.");
    if (!points.empty() && !points[0].result.runs.empty()) {
      const Run& run = points[0].result.runs[0];
      m.notes.push_back("measured (one 100 s run, 14 servers, f = 1 Hz):");
      m.notes.push_back(format(
          "  location update messages: %llu",
          static_cast<unsigned long long>(run.location_update_messages)));
      m.notes.push_back(
          format("  hello beacons:            %llu",
                 static_cast<unsigned long long>(run.hello_messages)));
      m.notes.push_back(format("  data packets sent:        %llu",
                               static_cast<unsigned long long>(run.sent)));
    }
  };
  return s;
}

CampaignSpec sec31_interception() {
  CampaignSpec s;
  s.name = "sec31_interception";
  s.banner = "Sec. 3.1 — flow blockage under node compromise";
  s.title = "Sec. 3.1 — interception under node compromise (200 nodes)";
  s.x_label = "budget c";
  s.y_label = "fraction";
  s.fallback_reps = 5;
  for (const ProtocolKind proto :
       {ProtocolKind::Alert, ProtocolKind::Gpsr}) {
    core::ScenarioConfig cfg = base();
    cfg.protocol = proto;
    cfg.packets_per_flow = 40;
    cfg.compromise_budgets = {1, 2, 4, 8, 16};
    s.points.push_back(make_point(core::protocol_name(proto), 0.0,
                                  std::move(cfg)));
  }
  s.reduce = [](const std::vector<PointResult>& points,
                const ReduceContext& ctx, obs::RunManifest& m) {
    for (const PointResult& pr : points) {
      util::Series targeted{
          pr.spec->curve + " targeted next-pkt interception", {}};
      util::Series blocked{pr.spec->curve + " random-c full-flow blockage",
                           {}};
      const auto& budgets = pr.spec->config.compromise_budgets;
      const auto targeted_acc =
          pr.result.fold_each(&Run::compromise_targeted);
      const auto blocked_acc = pr.result.fold_each(&Run::compromise_blocked);
      for (std::size_t i = 0; i < budgets.size(); ++i) {
        const auto x = static_cast<double>(budgets[i]);
        if (i < targeted_acc.size()) {
          targeted.points.push_back(series_point(x, targeted_acc[i]));
        }
        if (i < blocked_acc.size()) {
          blocked.points.push_back(series_point(x, blocked_acc[i]));
        }
      }
      m.series.push_back(std::move(targeted));
      m.series.push_back(std::move(blocked));
    }
    m.notes.push_back(
        "targeted: adversary compromises c relays of the packet it just");
    m.notes.push_back(
        "observed and waits for the next one — GPSR's repeated route hands");
    m.notes.push_back(
        "it over, ALERT's re-randomized route does not (Sec. 3.1).");
    m.notes.push_back(reps_note(ctx.reps));
  };
  return s;
}

// --- Fault-injection ablations (docs/FAULTS.md robustness study) -----------

/// Shared scaffolding for the two fault ablations: scaled-down deployment
/// (100 nodes, 60 s — these are this repo's own robustness curves, not paper
/// figures, and they run under ASan in the fault-smoke CI job), ALERT and
/// GPSR each with and without link-layer ARQ, and a reducer emitting one
/// delivery-rate series plus one latency series per curve.
core::ScenarioConfig fault_base(ProtocolKind proto, bool arq) {
  core::ScenarioConfig cfg = base();
  cfg.node_count = 100;
  cfg.duration_s = 60.0;
  cfg.protocol = proto;
  cfg.mac.arq.enabled = arq;
  return cfg;
}

std::string fault_curve(ProtocolKind proto, bool arq) {
  return std::string(core::protocol_name(proto)) +
         (arq ? " (ARQ)" : " (no ARQ)");
}

void fault_reduce(const std::vector<PointResult>& points,
                  const ReduceContext& ctx, obs::RunManifest& m) {
  append(m, group_by_curve(points, "delivery_rate"));
  std::vector<util::Series> latency = group_by_curve(points, "latency_ms");
  for (util::Series& sr : latency) sr.name += " latency (ms)";
  append(m, std::move(latency));
  m.notes.push_back(
      "ARQ: stop-and-wait, retry_limit 4, binary-exponential backoff;");
  m.notes.push_back(
      "latency counts only delivered packets, so ARQ trades delay for");
  m.notes.push_back("delivery under faults (see docs/FAULTS.md).");
  m.notes.push_back(reps_note(ctx.reps));
}

CampaignSpec ablation_loss_arq() {
  CampaignSpec s;
  s.name = "ablation_loss_arq";
  s.banner = "Ablation — delivery vs channel loss rate, ARQ on/off";
  s.title = "ablation — delivery under i.i.d. frame loss (100 nodes, 60 s)";
  s.x_label = "per-frame loss probability";
  s.y_label = "delivery rate";
  s.fallback_reps = 5;
  for (const bool arq : {false, true}) {
    for (const ProtocolKind proto :
         {ProtocolKind::Alert, ProtocolKind::Gpsr}) {
      for (const double p : {0.0, 0.05, 0.1, 0.2, 0.3}) {
        core::ScenarioConfig cfg = fault_base(proto, arq);
        cfg.faults.loss.iid = p;
        s.points.push_back(
            make_point(fault_curve(proto, arq), p, std::move(cfg)));
      }
    }
  }
  s.reduce = fault_reduce;
  return s;
}

CampaignSpec ablation_churn_arq() {
  CampaignSpec s;
  s.name = "ablation_churn_arq";
  s.banner = "Ablation — delivery vs node churn MTTF, ARQ on/off";
  s.title = "ablation — delivery under node churn (MTTR 10 s, 100 nodes)";
  s.x_label = "mean time to failure (s)";
  s.y_label = "delivery rate";
  s.fallback_reps = 5;
  for (const bool arq : {false, true}) {
    for (const ProtocolKind proto :
         {ProtocolKind::Alert, ProtocolKind::Gpsr}) {
      for (const double mttf : {10.0, 20.0, 40.0, 80.0, 160.0}) {
        core::ScenarioConfig cfg = fault_base(proto, arq);
        cfg.faults.churn.mttf_s = mttf;
        cfg.faults.churn.mttr_s = 10.0;
        s.points.push_back(
            make_point(fault_curve(proto, arq), mttf, std::move(cfg)));
      }
    }
  }
  s.reduce = fault_reduce;
  return s;
}

}  // namespace

const std::vector<FigureDef>& figure_registry() {
  static const std::vector<FigureDef> registry = {
      {fig07a},
      {fig07b},
      {fig09a},
      {fig09b},
      {fig10a},
      {fig10b},
      {fig11},
      {fig12},
      {fig13a},
      {fig13b},
      {fig14a},
      {fig14b},
      {fig15a},
      {fig15b},
      {fig16a},
      {fig16b},
      {fig17},
      {table1},
      {ablation_intersection},
      {ablation_h_tradeoff},
      {ablation_notify_and_go},
      {ablation_pseudonym_period},
      {ablation_loss_arq},
      {ablation_churn_arq},
      {energy_per_packet},
      {sec43_location_overhead},
      {sec31_interception},
  };
  return registry;
}

const FigureDef* find_figure(std::string_view name) {
  for (const FigureDef& def : figure_registry()) {
    if (def.build().name == name) return &def;
  }
  return nullptr;
}

}  // namespace alert::campaign
