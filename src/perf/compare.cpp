#include "perf/compare.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/check.hpp"

namespace alert::perf {

namespace {

[[nodiscard]] std::string format_value(double v) {
  char buffer[64];
  if (v == 0.0 || (std::fabs(v) >= 0.01 && std::fabs(v) < 1e7)) {
    std::snprintf(buffer, sizeof buffer, "%.2f", v);
  } else {
    std::snprintf(buffer, sizeof buffer, "%.3g", v);
  }
  return buffer;
}

[[nodiscard]] std::string format_signed_pct(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%+.1f%%", v);
  return buffer;
}

}  // namespace

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::Ok: return "ok";
    case Verdict::Improved: return "improved";
    case Verdict::Regressed: return "REGRESSED";
    case Verdict::MissingInCurrent: return "MISSING";
    case Verdict::NewInCurrent: return "new";
  }
  return "?";
}

std::size_t ComparisonReport::count(Verdict v) const {
  return static_cast<std::size_t>(
      std::count_if(items.begin(), items.end(),
                    [v](const MetricComparison& c) { return c.verdict == v; }));
}

bool ComparisonReport::passed() const {
  return count(Verdict::Regressed) == 0 &&
         count(Verdict::MissingInCurrent) == 0;
}

std::string ComparisonReport::render() const {
  std::string out;
  out += "  metric                          baseline      current       "
         "delta     tol       verdict\n";
  for (const MetricComparison& c : items) {
    char line[256];
    const bool compared = c.verdict == Verdict::Ok ||
                          c.verdict == Verdict::Improved ||
                          c.verdict == Verdict::Regressed;
    std::snprintf(
        line, sizeof line, "  %-30s  %-12s  %-12s  %-8s  %-8s  %s\n",
        (c.name + " [" + c.unit + "]").c_str(),
        c.verdict == Verdict::NewInCurrent ? "-"
                                           : format_value(c.baseline).c_str(),
        c.verdict == Verdict::MissingInCurrent
            ? "-"
            : format_value(c.current).c_str(),
        compared ? format_signed_pct(c.delta_pct).c_str() : "-",
        compared ? (format_value(c.tolerance_pct) + "%").c_str() : "-",
        verdict_name(c.verdict));
    out += line;
  }
  for (const std::string& note : notes) {
    out += "  note: " + note + "\n";
  }
  return out;
}

ComparisonReport compare_reports(const BenchReport& baseline,
                                 const BenchReport& current,
                                 const CompareOptions& options) {
  ALERT_INVARIANT(options.tolerance_scale > 0.0,
                  "tolerance scale must be positive");
  ComparisonReport report;
  for (const BenchMetric& base : baseline.metrics) {
    MetricComparison c;
    c.name = base.name;
    c.unit = base.unit;
    c.baseline = base.value;
    c.higher_is_better = base.higher_is_better;
    c.tolerance_pct = base.tolerance_pct * options.tolerance_scale;
    const BenchMetric* cur = current.find(base.name);
    if (cur == nullptr) {
      c.verdict = Verdict::MissingInCurrent;
      report.items.push_back(std::move(c));
      continue;
    }
    c.current = cur->value;
    if (base.value == 0.0) {
      // No meaningful relative change from a zero baseline; any non-zero
      // current in the bad direction is an unbounded regression.
      c.delta_pct = 0.0;
      const bool worse = base.higher_is_better ? cur->value < 0.0
                                               : cur->value > 0.0;
      c.verdict = worse ? Verdict::Regressed : Verdict::Ok;
    } else {
      c.delta_pct = (cur->value - base.value) / base.value * 100.0;
      // A throughput is gated on the slowdown it implies: halved reads +100%.
      const double worse_pct =
          base.higher_is_better ? (base.value / cur->value - 1.0) * 100.0
                                : c.delta_pct;
      if (worse_pct > c.tolerance_pct) {
        c.verdict = Verdict::Regressed;
      } else if (-worse_pct > c.tolerance_pct) {
        c.verdict = Verdict::Improved;
      } else {
        c.verdict = Verdict::Ok;
      }
    }
    report.items.push_back(std::move(c));
  }
  for (const BenchMetric& cur : current.metrics) {
    if (baseline.find(cur.name) != nullptr) continue;
    MetricComparison c;
    c.name = cur.name;
    c.unit = cur.unit;
    c.current = cur.value;
    c.higher_is_better = cur.higher_is_better;
    c.verdict = Verdict::NewInCurrent;
    report.items.push_back(std::move(c));
    report.notes.push_back("metric '" + cur.name +
                           "' has no baseline row — refresh the baseline "
                           "(alertsim-perf --update-baseline) to start "
                           "gating it");
  }
  if (!(baseline.host == current.host)) {
    report.notes.push_back(
        "host fingerprint differs from the baseline's (baseline: " +
        baseline.host.summary() + "; current: " + current.host.summary() +
        ") — absolute comparisons are indicative only; see the noise "
        "policy in docs/BENCHMARKS.md");
  }
  return report;
}

}  // namespace alert::perf
