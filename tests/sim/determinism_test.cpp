#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "core/experiment.hpp"  // alert-lint: allow(module-layering) determinism is asserted over full core scenarios
#include "core/scenario.hpp"  // alert-lint: allow(module-layering) determinism is asserted over full core scenarios
#include "sim/simulator.hpp"

/// Bit-reproducibility contract: two runs with the same seed must replay the
/// exact same event trace (verified by the simulator's running digest over
/// every executed event and every audited transmission); a different seed
/// must diverge. This is the guarantee the bench figures rest on — silent
/// nondeterminism is how simulator reproductions drift apart.

namespace alert {
namespace {

core::ScenarioConfig small_scenario(core::ProtocolKind proto,
                                    std::uint64_t seed) {
  core::ScenarioConfig cfg;
  cfg.protocol = proto;
  cfg.node_count = 40;
  cfg.flow_count = 4;
  cfg.duration_s = 30.0;
  cfg.seed = seed;
  return cfg;
}

/// Every integer proto.* total of a run, as "name=total" in snapshot order.
std::string proto_counters(const core::RunResult& run) {
  constexpr std::string_view kPrefix = "proto.";
  std::string out;
  for (const obs::MetricValue& m : run.metrics.metrics) {
    if (m.kind != obs::MetricKind::Counter || !m.name.starts_with(kPrefix)) {
      continue;
    }
    out += m.name.substr(kPrefix.size()) + '=' + std::to_string(m.total) + ' ';
  }
  return out;
}

TEST(Determinism, SimulatorDigestIsOrderSensitive) {
  sim::Simulator a;
  sim::Simulator b;
  int fired = 0;
  auto noop = [&fired] { ++fired; };
  a.schedule_in(1.0, noop);
  a.schedule_in(2.0, noop);
  b.schedule_in(1.0, noop);
  b.schedule_in(2.0, noop);
  a.run_until(10.0);
  b.run_until(10.0);
  EXPECT_EQ(a.trace_digest(), b.trace_digest());

  // Same events, opposite scheduling order → different digest.
  sim::Simulator c;
  c.schedule_in(2.0, noop);
  c.schedule_in(1.0, noop);
  c.run_until(10.0);
  EXPECT_NE(a.trace_digest(), c.trace_digest());
  EXPECT_EQ(fired, 6);
}

TEST(Determinism, AuditWordsFoldIntoDigest) {
  sim::Simulator a;
  sim::Simulator b;
  a.audit(7);
  b.audit(8);
  EXPECT_NE(a.trace_digest(), b.trace_digest());
}

TEST(Determinism, SameSeedSameTraceAlert) {
  const auto cfg = small_scenario(core::ProtocolKind::Alert, 42);
  const core::RunResult first = core::run_once(cfg, 0);
  const core::RunResult second = core::run_once(cfg, 0);
  EXPECT_EQ(first.trace_digest, second.trace_digest);
  EXPECT_NE(first.trace_digest, 0u);
  // The coarse outcomes must agree too, not just the hash.
  EXPECT_EQ(first.sent, second.sent);
  EXPECT_EQ(first.delivered, second.delivered);
  EXPECT_EQ(first.packets_opened, second.packets_opened);
}

TEST(Determinism, DifferentSeedDifferentTrace) {
  const core::RunResult a =
      core::run_once(small_scenario(core::ProtocolKind::Alert, 42), 0);
  const core::RunResult b =
      core::run_once(small_scenario(core::ProtocolKind::Alert, 43), 0);
  EXPECT_NE(a.trace_digest, b.trace_digest);
}

TEST(Determinism, ReplicationIndexSeparatesTraces) {
  const auto cfg = small_scenario(core::ProtocolKind::Alert, 42);
  const core::RunResult rep0 = core::run_once(cfg, 0);
  const core::RunResult rep1 = core::run_once(cfg, 1);
  EXPECT_NE(rep0.trace_digest, rep1.trace_digest);
}

TEST(Determinism, HoldsForEveryProtocol) {
  for (const auto proto :
       {core::ProtocolKind::Gpsr, core::ProtocolKind::Alarm,
        core::ProtocolKind::Ao2p, core::ProtocolKind::Zap}) {
    const auto cfg = small_scenario(proto, 7);
    const core::RunResult first = core::run_once(cfg, 0);
    const core::RunResult second = core::run_once(cfg, 0);
    EXPECT_EQ(first.trace_digest, second.trace_digest)
        << "protocol " << core::protocol_name(proto);
  }
}

TEST(Determinism, DigestsArePinned) {
  // One short replication per protocol, plus ALERT over an i.i.d. lossy
  // channel with ARQ on. A change that reorders, adds or drops one event
  // fails here; only one that bumps core::kSimulationEpoch may re-pin.
  struct Pin {
    core::ProtocolKind protocol;
    bool lossy;
    std::uint64_t digest;
    std::uint64_t events;
  };
  const Pin pins[] = {
      {core::ProtocolKind::Alert, false, 0x1df29ef78f082447ULL, 4769},
      {core::ProtocolKind::Gpsr, false, 0x1beed46ebbb7af08ULL, 2769},
      {core::ProtocolKind::Alarm, false, 0x10b5ea59532f6c59ULL, 2776},
      {core::ProtocolKind::Ao2p, false, 0xa69d76901de5954aULL, 2771},
      {core::ProtocolKind::Zap, false, 0x97a73d15959434f0ULL, 3003},
      {core::ProtocolKind::Alert, true, 0x49d79d29db2a4232ULL, 5434},
  };
  for (const Pin& pin : pins) {
    core::ScenarioConfig cfg = small_scenario(pin.protocol, 11);
    if (pin.lossy) {
      cfg.faults.loss.iid = 0.2;
      cfg.mac.arq.enabled = true;
    }
    const core::RunResult run = core::run_once(cfg, 0);
    EXPECT_EQ(run.trace_digest, pin.digest)
        << core::protocol_name(pin.protocol) << (pin.lossy ? " lossy" : "")
        << std::hex << " digest 0x" << run.trace_digest;
    EXPECT_EQ(run.events_executed, pin.events)
        << core::protocol_name(pin.protocol) << (pin.lossy ? " lossy" : "");
  }
}

TEST(Determinism, RouterCountersArePinned) {
  // The digest folds events and transmissions, not the routers' counters:
  // a forward or drop that stops being counted passes DigestsArePinned.
  // Same runs as there, plus a Fig. 17 run (5 groups x 200 m, 300-700 m
  // pairs, 4 resends) for ALERT and GPSR, whose voids drive GPSR's
  // perimeter mode and ALERT's fallback leg.
  enum class Run { Plain, Lossy, Group };
  struct Pin {
    core::ProtocolKind protocol;
    Run run;
    const char* counters;
  };
  const Pin pins[] = {
      {core::ProtocolKind::Alert, Run::Plain,
       "broadcasts=115 control_hops=0 cover_packets=430 data_delivered=51 "
       "data_dropped=15 data_sent=56 forwards=1006 naks=8 partitions=224 "
       "random_forwarders=67 retransmissions=18 "},
      {core::ProtocolKind::Gpsr, Run::Plain,
       "broadcasts=0 control_hops=0 cover_packets=0 data_delivered=56 "
       "data_dropped=0 data_sent=56 forwards=179 naks=0 partitions=0 "
       "random_forwarders=0 retransmissions=0 "},
      {core::ProtocolKind::Alarm, Run::Plain,
       "broadcasts=0 control_hops=480 cover_packets=0 data_delivered=54 "
       "data_dropped=0 data_sent=56 forwards=187 naks=0 partitions=0 "
       "random_forwarders=0 retransmissions=0 "},
      {core::ProtocolKind::Ao2p, Run::Plain,
       "broadcasts=0 control_hops=0 cover_packets=0 data_delivered=55 "
       "data_dropped=0 data_sent=56 forwards=182 naks=0 partitions=0 "
       "random_forwarders=0 retransmissions=0 "},
      {core::ProtocolKind::Zap, Run::Plain,
       "broadcasts=203 control_hops=0 cover_packets=0 data_delivered=54 "
       "data_dropped=2 data_sent=56 forwards=210 naks=0 partitions=0 "
       "random_forwarders=0 retransmissions=0 "},
      {core::ProtocolKind::Alert, Run::Lossy,
       "broadcasts=130 control_hops=0 cover_packets=464 data_delivered=49 "
       "data_dropped=15 data_sent=56 forwards=1062 naks=13 partitions=255 "
       "random_forwarders=79 retransmissions=24 send_failures=1 "},
      {core::ProtocolKind::Alert, Run::Group,
       "broadcasts=133 control_hops=0 cover_packets=1107 data_delivered=53 "
       "data_dropped=17 data_sent=56 forwards=925 naks=0 partitions=408 "
       "random_forwarders=160 retransmissions=57 "},
      {core::ProtocolKind::Gpsr, Run::Group,
       "broadcasts=0 control_hops=0 cover_packets=0 data_delivered=46 "
       "data_dropped=5 data_sent=56 forwards=201 naks=0 partitions=0 "
       "random_forwarders=0 retransmissions=0 "},
  };
  for (const Pin& pin : pins) {
    core::ScenarioConfig cfg = small_scenario(pin.protocol, 11);
    if (pin.run == Run::Lossy) {
      cfg.faults.loss.iid = 0.2;
      cfg.mac.arq.enabled = true;
    }
    if (pin.run == Run::Group) {
      cfg.mobility = core::MobilityKind::Group;
      cfg.group_count = 5;
      cfg.group_range_m = 200.0;
      cfg.min_pair_distance_m = 300.0;
      cfg.max_pair_distance_m = 700.0;
      cfg.alert.max_retransmissions = 4;
    }
    EXPECT_EQ(proto_counters(core::run_once(cfg, 0)), pin.counters)
        << core::protocol_name(pin.protocol) << " run "
        << static_cast<int>(pin.run);
  }
}

TEST(Determinism, ProfilingLeavesTheTraceUnchanged) {
  // The profiler reads the host clock and feeds nothing back: a run with
  // it attached replays the run without it event for event.
  core::ScenarioConfig cfg = small_scenario(core::ProtocolKind::Alert, 11);
  const core::RunResult off = core::run_once(cfg, 0);
  cfg.obs.profile = true;
  const core::RunResult on = core::run_once(cfg, 0);
  ASSERT_FALSE(on.profile.scopes.empty());
  EXPECT_TRUE(off.profile.scopes.empty());
  EXPECT_EQ(on.trace_digest, off.trace_digest);
  EXPECT_EQ(on.events_executed, off.events_executed);
}

TEST(Determinism, LedgerAccountsForEveryPacket) {
  // After a full replication the ledger must balance: every uid delivered,
  // dropped, or expired — none forgotten.
  const auto cfg = small_scenario(core::ProtocolKind::Alert, 5);
  const core::RunResult run = core::run_once(cfg, 0);
  EXPECT_GT(run.packets_opened, 0u);
  EXPECT_GE(run.packets_opened, run.delivered);
}

}  // namespace
}  // namespace alert
