#pragma once

/// \file simulator.hpp
/// Discrete-event simulator: a clock plus the pending-event set. All network,
/// mobility, traffic and protocol activity is expressed as events. One
/// Simulator instance per experiment replication; instances share nothing,
/// so replications parallelize trivially.
///
/// Determinism auditing: every executed event folds its (time, scheduling
/// sequence) pair into a running 64-bit digest, and components may fold
/// domain words of their own through audit(). Two runs of the same scenario
/// with the same seed must end with identical digests — the determinism
/// tests and the cross-run comparisons in EXPERIMENTS.md rely on this.

#include <cstdint>
#include <functional>

#include "obs/profile.hpp"
#include "sim/event_queue.hpp"

namespace alert::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] Time now() const { return now_; }

  /// Schedule `action` to run `delay` seconds from now (delay >= 0).
  void schedule_in(Time delay, EventQueue::Action action);

  /// Schedule at an absolute time (must not be in the past).
  void schedule_at(Time when, EventQueue::Action action);

  /// Schedule `action` every `period` seconds starting at `start`, until the
  /// simulation horizon. The action keeps rescheduling itself.
  void schedule_periodic(Time start, Time period, std::function<void()> action);

  /// Run until the queue drains or the clock passes `horizon`. Events
  /// scheduled at exactly the horizon still fire. Returns the number of
  /// events executed.
  std::uint64_t run_until(Time horizon);

  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
  [[nodiscard]] bool idle() const { return queue_.empty(); }

  // --- observability ------------------------------------------------------
  /// Attach a wall-clock self-profiler (nullptr detaches). Event dispatch
  /// is timed under scope "sim.dispatch"; components sharing this simulator
  /// reach the same profiler via profiler(). Profiling never feeds the
  /// determinism digest, so attaching one cannot change results.
  void set_profiler(obs::Profiler* profiler) {
    profiler_ = profiler;
    dispatch_scope_ =
        profiler_ != nullptr ? profiler_->scope("sim.dispatch") : 0;
  }
  [[nodiscard]] obs::Profiler* profiler() const { return profiler_; }

  // --- determinism auditing ----------------------------------------------
  /// Fold a caller-chosen word into the trace digest (e.g. packet uids,
  /// drop reasons). Deterministic components folding deterministic words
  /// keep the digest seed-reproducible; never fold addresses or wall-clock.
  void audit(std::uint64_t word) { digest_ = mix(digest_ ^ word); }

  /// Order-sensitive hash of every event executed (time bits + scheduling
  /// seq) and every word audited so far. Equal seeds must yield equal
  /// digests; see tests/sim/determinism_test.cpp.
  [[nodiscard]] std::uint64_t trace_digest() const { return digest_; }

 private:
  /// SplitMix64 finalizer — full 64-bit avalanche, so single-bit input
  /// differences (one extra event, one changed timestamp) flip ~half the
  /// digest.
  static constexpr std::uint64_t mix(std::uint64_t z) {
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  EventQueue queue_;
  Time now_ = 0.0;
  std::uint64_t executed_ = 0;
  std::uint64_t digest_ = 0x414c4552542d3130ULL;  // "ALERT-10"
  obs::Profiler* profiler_ = nullptr;  // non-owning
  obs::ScopeId dispatch_scope_ = 0;
};

}  // namespace alert::sim
