#include <gtest/gtest.h>

#include <cstdint>

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
