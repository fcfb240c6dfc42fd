#pragma once

/// \file profile.hpp
/// Wall-clock self-profiling scopes for the simulator's hot paths: event
/// dispatch, MAC/channel transmission, per-protocol routing decisions. A
/// scope is registered once by name (cheap string lookup at setup time) and
/// then timed through a ScopeId — the RAII timer is two steady_clock reads
/// when a Profiler is attached and a single null check when not. Profiling
/// reads the host clock but never feeds the determinism digest, so enabling
/// it cannot change simulation results (see docs/OBSERVABILITY.md).

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace alert::obs {

using ScopeId = std::size_t;

struct ScopeStats {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t max_ns = 0;
};

/// Frozen, mergeable per-run self-profile.
struct ProfileReport {
  std::vector<ScopeStats> scopes;  ///< sorted by name

  void merge(const ProfileReport& other);
  [[nodiscard]] const ScopeStats* find(std::string_view name) const;
  void write_json(JsonWriter& w) const;
  /// Human-readable table (one line per scope, sorted by total time).
  [[nodiscard]] std::string summary() const;
};

class Profiler {
 public:
  Profiler() = default;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Register (or look up) a scope. Not for hot paths — resolve once, keep
  /// the id.
  ScopeId scope(std::string_view name);

  void record(ScopeId id, std::uint64_t ns) {
    ScopeStats& s = stats_[id];
    ++s.count;
    s.total_ns += ns;
    s.max_ns = ns > s.max_ns ? ns : s.max_ns;
  }

  [[nodiscard]] ProfileReport report() const;

 private:
  std::vector<ScopeStats> stats_;
  std::map<std::string, ScopeId, std::less<>> ids_;
};

[[nodiscard]] inline std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// RAII wall-clock scope. A null profiler makes construction and
/// destruction a branch each.
class ScopeTimer {
 public:
  ScopeTimer(Profiler* profiler, ScopeId id) : profiler_(profiler), id_(id) {
    if (profiler_ != nullptr) start_ns_ = monotonic_ns();
  }
  ~ScopeTimer() {
    if (profiler_ != nullptr) {
      profiler_->record(id_, monotonic_ns() - start_ns_);
    }
  }
  ScopeTimer(const ScopeTimer&) = delete;
  ScopeTimer& operator=(const ScopeTimer&) = delete;

 private:
  Profiler* profiler_;
  ScopeId id_;
  std::uint64_t start_ns_ = 0;
};

}  // namespace alert::obs

#define ALERT_OBS_TIMED_CONCAT2(a, b) a##b
#define ALERT_OBS_TIMED_CONCAT(a, b) ALERT_OBS_TIMED_CONCAT2(a, b)
/// Time the rest of the enclosing block as scope `id` of `profiler` (one
/// null check when no profiler is attached).
#define ALERT_OBS_TIMED(profiler, id)                     \
  ::alert::obs::ScopeTimer ALERT_OBS_TIMED_CONCAT(        \
      alert_obs_timer_, __LINE__)(profiler, id)
