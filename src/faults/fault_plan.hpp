#pragma once

/// \file fault_plan.hpp
/// Declarative adversity model for a run: what the channel and the nodes do
/// to the protocol besides mobility. A FaultPlan travels inside
/// ScenarioConfig (and therefore inside the canonical scenario dump and the
/// campaign cache key — see core/scenario_codec.cpp), and every random
/// decision it induces is drawn from forked streams of the replication RNG,
/// so fault runs are exactly as reproducible as ideal ones.
///
/// Three fault families, composable:
///  * frame loss — i.i.d. per-frame loss, or a per-link Gilbert–Elliott
///    two-state chain for bursty loss (channel_model.hpp);
///  * node churn — crash/recover schedules with exponential up/down times
///    (injector.hpp); a crashed radio neither transmits nor receives and
///    its neighbour table is wiped on reboot;
///  * region outages — jammer discs: frames with either endpoint inside an
///    active disc are lost (pure function of the plan, evaluated by the
///    Network at delivery time).
///
/// An all-defaults plan is inert: `any()` is false, the Network allocates
/// no channel model, the experiment harness schedules no injector, and no
/// extra RNG draw or audit word is ever made — byte-identical digests and
/// manifests with pre-fault builds are a tested invariant.

#include <optional>
#include <string>
#include <vector>

#include "util/geometry.hpp"

namespace alert::faults {

/// Per-frame loss process. `iid` is the memoryless baseline; switching
/// `gilbert` on replaces it with a two-state Gilbert–Elliott chain advanced
/// once per frame per directed link (loss clusters into bursts, the failure
/// mode that defeats naive single-retry recovery).
struct LossModel {
  double iid = 0.0;           ///< P(frame lost), memoryless; 0 = off
  bool gilbert = false;       ///< use the bursty two-state chain instead
  double ge_p_good_bad = 0.05;  ///< P(good -> bad) per frame
  double ge_p_bad_good = 0.30;  ///< P(bad -> good) per frame
  double ge_loss_good = 0.0;    ///< P(loss | good)
  double ge_loss_bad = 0.6;     ///< P(loss | bad)

  [[nodiscard]] bool active() const { return iid > 0.0 || gilbert; }
};

/// Crash/recover churn: each node alternates exponential up-times (mean
/// `mttf_s`) and down-times (mean `mttr_s`). `mttf_s == 0` disables churn;
/// `mttr_s == 0` makes every crash permanent (fail-stop).
struct Churn {
  double mttf_s = 0.0;   ///< mean time to failure; 0 = no churn
  double mttr_s = 10.0;  ///< mean time to recovery; 0 = never recover

  [[nodiscard]] bool active() const { return mttf_s > 0.0; }
};

/// Circular jammer: frames with an endpoint inside the disc during
/// [start_s, end_s) are lost at the channel.
struct Outage {
  util::Vec2 center;
  double radius_m = 0.0;
  double start_s = 0.0;
  double end_s = 0.0;
};

struct FaultPlan {
  LossModel loss;
  Churn churn;
  std::vector<Outage> outages;

  /// True when the plan changes anything at all about a run.
  [[nodiscard]] bool any() const {
    return loss.active() || churn.active() || !outages.empty();
  }

  /// Whether `pos` sits inside an outage disc active at `now`.
  [[nodiscard]] bool jammed(util::Vec2 pos, double now) const;
};

/// Reject unusable plans before any simulation runs: a loss probability
/// outside [0,1] or a negative MTTF/MTTR silently produces garbage results,
/// so scenario load treats them as fatal (exit 2 at the harness layer, as
/// for a bad command-line value). Returns the rejection reason, or nullopt
/// when the plan is usable.
[[nodiscard]] std::optional<std::string> validate(const FaultPlan& plan);

}  // namespace alert::faults
