#pragma once

/// \file theory.hpp
/// Closed-form theoretical analysis of ALERT, Section 4 of the paper.
/// Each function implements one numbered equation; the figure registry
/// evaluates them to regenerate Figs. 7 and 9, and property tests
/// cross-check them against Monte-Carlo simulation of the same random
/// processes.

#include <cstdint>

namespace alert::analysis {

/// Parameters shared by the Section 4 formulas.
struct NetworkShape {
  double la = 1000.0;  ///< field side length l_A (m)
  double lb = 1000.0;  ///< field side length l_B (m)
  double node_count = 200.0;

  [[nodiscard]] double area() const { return la * lb; }
  /// Node density rho (nodes per square metre).
  [[nodiscard]] double density() const { return node_count / area(); }
};

/// Eq. (1): side length a(h, l_A) = l_A / 2^{floor(h/2)} of the h-th
/// partitioned zone.
[[nodiscard]] double side_a(int h, double la);

/// Eq. (2): side length b(h, l_B) = l_B / 2^{ceil(h/2)}.
[[nodiscard]] double side_b(int h, double lb);

/// Number of partitions H = log2(rho * G / k) producing a k-node
/// destination zone (Sec. 2.4). Returns the real-valued H; callers round.
[[nodiscard]] double partitions_for_k(double density, double area, double k);

/// Expected nodes in the destination zone after H partitions: rho*G/2^H.
[[nodiscard]] double dest_zone_population(const NetworkShape& net, int H);

/// Eq. (5): probability that sigma partitions separate S from D,
/// p_s(sigma) = 2^{-sigma}, 0 < sigma <= H.
[[nodiscard]] double separation_probability(int sigma);

/// Eq. (6): expected possible participating nodes for closeness sigma,
/// N_e(sigma) = a(sigma) * b(sigma) * rho.
[[nodiscard]] double possible_nodes_at(const NetworkShape& net, int sigma);

/// Eq. (7): expected possible participating nodes over all closeness,
/// N_e = sum_{sigma=1..H} N_e(sigma) p_s(sigma).
[[nodiscard]] double expected_possible_nodes(const NetworkShape& net, int H);

/// Eq. (8): pmf of the RF count given closeness sigma —
/// p_i(sigma, i) = C(H - sigma, i) (1/2)^{H - sigma}.
[[nodiscard]] double rf_count_pmf(int H, int sigma, int i);

/// Eq. (9): expected RFs given closeness sigma.
[[nodiscard]] double expected_rfs_at(int H, int sigma);

/// Eq. (10): expected RFs over all closeness,
/// N_RF = sum_sigma sum_i C(H-sigma, i) (1/2)^{H-sigma} * i / 2^sigma.
[[nodiscard]] double expected_rfs(int H);

/// Eq. (12)/(14): residence time constant beta(r) = pi * r / (2 v); with
/// the square-to-circle approximation r = 2 r' / sqrt(pi) this becomes
/// beta = sqrt(pi) r' / v, where 2 r' is the zone side length.
[[nodiscard]] double beta_circle(double radius_m, double speed_mps);
[[nodiscard]] double beta_square_zone(double side_m, double speed_mps);

/// Eq. (11): probability a node remains in the zone after time t,
/// p_r(t) = exp(-t / beta).
[[nodiscard]] double remain_probability(double t_s, double beta_s);

/// Eq. (15): expected nodes remaining in the destination zone after t,
/// N_r(t) = p_r(t) * a(H, l_A) * b(H, l_B) * rho. Requires a square field
/// and even H for the circle approximation to be exact; we evaluate the
/// general product anyway (the paper does the same in Fig. 9).
[[nodiscard]] double remaining_nodes(const NetworkShape& net, int H,
                                     double speed_mps, double t_s);

/// Inverse of Eq. (15) in density: the node count a network needs so that
/// `k_required` nodes still remain after `t_s` at `speed_mps` (Fig. 13b).
[[nodiscard]] double required_node_count(const NetworkShape& net, int H,
                                         double speed_mps, double t_s,
                                         double k_required);

/// Sec. 4.3: location-service overhead ratio
/// (N_L(N_L-1)f + Nf) / (NF); usability requires << 1.
[[nodiscard]] double location_overhead_ratio(double n_nodes, double n_servers,
                                             double update_freq,
                                             double regular_freq);

/// Binomial coefficient C(n, k) as double (n small; exact for n <= 60).
[[nodiscard]] double binomial(int n, int k);

}  // namespace alert::analysis
