// Unit tests for the distributed campaign fan-out (src/dist/): lease
// acquisition/renewal/break races, the work-queue state machine with retry
// backoff and poison quarantine, per-worker progress round-trips, and the
// worker-loop/aggregator contract — N workers over one shared cache
// converge on a manifest byte-identical to a single worker's.
//
// Execution is replaced by a synthetic UnitRunner (a pure function of
// (point, replication)), so a thousand-unit grid costs filesystem traffic
// only; the real-simulation path is covered by campaign_test.cpp and the
// dist smoke script.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/cache.hpp"
#include "campaign/engine.hpp"
#include "campaign/journal.hpp"
#include "campaign/spec.hpp"
#include "dist/aggregate.hpp"
#include "dist/lease.hpp"
#include "dist/progress.hpp"
#include "dist/queue.hpp"
#include "dist/reclaim.hpp"
#include "dist/worker.hpp"
#include "temp_dir.hpp"

namespace alert::dist {
namespace {

namespace fs = std::filesystem;

using test_support::TempDir;

/// A small sweep whose unit keys are real (distinct configs per point) but
/// whose execution the tests replace with synthetic results.
campaign::CampaignSpec grid_spec(const std::string& name,
                                 std::size_t point_count) {
  campaign::CampaignSpec spec;
  spec.name = name;
  spec.banner = "test — dist grid";
  spec.title = "dist grid";
  spec.x_label = "nodes";
  spec.y_label = "delivery rate";
  spec.y_metric = "delivery_rate";
  for (std::size_t p = 0; p < point_count; ++p) {
    campaign::PointSpec point;
    point.curve = "grid";
    point.x = static_cast<double>(20 + p);
    point.config = campaign::paper_default_scenario();
    point.config.node_count = 20 + p;
    point.config.duration_s = 10.0;
    spec.points.push_back(std::move(point));
  }
  return spec;
}

/// Deterministic stand-in for core::run_once — a pure function of the unit
/// identity, so every worker (and every retry) stores identical bytes.
core::RunResult synthetic_result(const campaign::WorkUnit& unit) {
  core::RunResult run;
  run.sent = 100;
  run.delivered = 90 - (unit.point % 7) - (unit.rep % 3);
  run.mean_latency_s = 0.125 * static_cast<double>(unit.point + 1);
  run.mean_hops = 2.0 + static_cast<double>(unit.rep);
  run.trace_digest = 1000003ULL * (unit.point + 1) + unit.rep;
  run.events_executed = 10 + unit.rep;
  return run;
}

UnitRunner synthetic_runner() {
  return [](const campaign::CampaignSpec&, const campaign::WorkUnit& unit) {
    return std::optional<core::RunResult>(synthetic_result(unit));
  };
}

WorkerOptions worker_options(const std::string& cache_dir,
                             const std::string& id, std::size_t reps) {
  WorkerOptions options;
  options.worker_id = id;
  options.reps = reps;
  options.cache_dir = cache_dir;
  options.lease_ttl_s = 10.0;  // own leases never go stale in-test
  options.poll_interval_s = 0.01;
  options.retry.backoff_base_s = 0.01;  // retries are near-immediate
  options.retry.backoff_cap_s = 0.05;
  return options;
}

std::string manifest_bytes(const obs::RunManifest& manifest) {
  std::ostringstream out;
  manifest.write_json(out);
  return out.str();
}

AggregateOutcome aggregate_quiet(const campaign::CampaignSpec& spec,
                                 const std::string& cache_dir,
                                 std::size_t reps,
                                 bool dist_summary = false) {
  AggregateOptions options;
  options.reps = reps;
  options.cache_dir = cache_dir;
  options.print = false;
  options.dist_summary = dist_summary;
  return aggregate_campaign(spec, options);
}

// --- lease protocol ---------------------------------------------------------

TEST(Lease, FirstClaimerWinsUntilReleased) {
  TempDir dir("alertsim-lease-test-");
  LeaseDir leases(dir.path() + "/leases");

  ASSERT_TRUE(leases.try_acquire("unit-a", "w1"));
  EXPECT_FALSE(leases.try_acquire("unit-a", "w2"));  // held
  EXPECT_FALSE(leases.try_acquire("unit-a", "w1"));  // not reentrant either

  const auto held = leases.read("unit-a");
  ASSERT_TRUE(held.has_value());
  EXPECT_EQ(held->owner, "w1");
  EXPECT_EQ(held->sequence, 0u);

  leases.release("unit-a", "w2");  // wrong owner: no-op
  EXPECT_TRUE(leases.read("unit-a").has_value());
  leases.release("unit-a", "w1");
  EXPECT_FALSE(leases.read("unit-a").has_value());
  EXPECT_TRUE(leases.try_acquire("unit-a", "w2"));
}

TEST(Lease, RenewRefreshesOwnerOnlyAndBumpsSequence) {
  TempDir dir("alertsim-lease-test-");
  LeaseDir leases(dir.path() + "/leases");
  ASSERT_TRUE(leases.try_acquire("unit-a", "w1"));

  EXPECT_FALSE(leases.renew("unit-a", "w2"));  // not the holder
  EXPECT_TRUE(leases.renew("unit-a", "w1"));
  EXPECT_TRUE(leases.renew("unit-a", "w1"));
  const auto held = leases.read("unit-a");
  ASSERT_TRUE(held.has_value());
  EXPECT_EQ(held->sequence, 2u);
  EXPECT_FALSE(leases.renew("unit-b", "w1"));  // never acquired
}

TEST(Lease, AgeTracksAcquisitionAndBreakReturnsHolderOnce) {
  TempDir dir("alertsim-lease-test-");
  LeaseDir leases(dir.path() + "/leases");
  EXPECT_FALSE(leases.age_seconds("unit-a").has_value());
  ASSERT_TRUE(leases.try_acquire("unit-a", "w1"));
  const auto age = leases.age_seconds("unit-a");
  ASSERT_TRUE(age.has_value());
  EXPECT_GE(*age, 0.0);
  EXPECT_LT(*age, 30.0);

  const auto broken = leases.try_break("unit-a");
  ASSERT_TRUE(broken.has_value());
  EXPECT_EQ(broken->owner, "w1");
  EXPECT_FALSE(leases.try_break("unit-a").has_value());  // already gone
  EXPECT_FALSE(leases.read("unit-a").has_value());
  EXPECT_TRUE(leases.try_acquire("unit-a", "w2"));
}

TEST(Lease, ConcurrentBreakersProduceExactlyOneWinner) {
  TempDir dir("alertsim-lease-test-");
  LeaseDir leases(dir.path() + "/leases");
  ASSERT_TRUE(leases.try_acquire("unit-a", "stale-worker"));

  constexpr int kBreakers = 8;
  std::atomic<int> winners{0};
  std::vector<std::thread> threads;
  threads.reserve(kBreakers);
  for (int i = 0; i < kBreakers; ++i) {
    threads.emplace_back([&leases, &winners] {
      if (leases.try_break("unit-a").has_value()) winners.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(winners.load(), 1);
}

TEST(Lease, ConcurrentClaimersProduceExactlyOneWinner) {
  TempDir dir("alertsim-lease-test-");
  LeaseDir leases(dir.path() + "/leases");

  constexpr int kClaimers = 8;
  std::atomic<int> winners{0};
  std::vector<std::thread> threads;
  threads.reserve(kClaimers);
  for (int i = 0; i < kClaimers; ++i) {
    std::string owner = "w";
    owner += std::to_string(i);
    threads.emplace_back([&leases, &winners, owner = std::move(owner)] {
      if (leases.try_acquire("unit-a", owner)) winners.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(winners.load(), 1);
}

// --- retry policy ------------------------------------------------------------

TEST(RetryPolicy, BackoffDoublesFromBaseAndCaps) {
  RetryPolicy policy;
  policy.backoff_base_s = 0.25;
  policy.backoff_cap_s = 1.0;
  EXPECT_DOUBLE_EQ(policy.backoff_s(0), 0.0);
  EXPECT_DOUBLE_EQ(policy.backoff_s(1), 0.25);
  EXPECT_DOUBLE_EQ(policy.backoff_s(2), 0.5);
  EXPECT_DOUBLE_EQ(policy.backoff_s(3), 1.0);
  EXPECT_DOUBLE_EQ(policy.backoff_s(10), 1.0);  // capped
}

// --- work queue state machine ------------------------------------------------

TEST(WorkQueue, StateMachineWalksReadyLeasedDonePoisoned) {
  TempDir dir("alertsim-queue-test-");
  campaign::ResultCache cache(dir.path());
  RetryPolicy policy;
  policy.max_retries = 1;
  policy.backoff_base_s = 60.0;  // failures park the unit for this test
  WorkQueue queue(cache, "qtest", policy);

  const campaign::CampaignSpec spec = grid_spec("qtest", 1);
  const campaign::UnitGrid grid = campaign::expand_units(spec, 2);
  ASSERT_EQ(grid.units.size(), 2u);
  const std::string& key = grid.units[0].key;
  const std::string& other = grid.units[1].key;

  EXPECT_EQ(queue.state(key), UnitState::Ready);
  ASSERT_TRUE(queue.try_claim(key, "w1"));
  EXPECT_EQ(queue.state(key), UnitState::Leased);
  EXPECT_FALSE(queue.try_claim(key, "w2"));  // not Ready

  // Completion: store the result, release — Done wins every other state.
  ASSERT_TRUE(cache.store(key, synthetic_result(grid.units[0])));
  queue.release(key, "w1");
  EXPECT_EQ(queue.state(key), UnitState::Done);
  EXPECT_FALSE(queue.try_claim(key, "w2"));

  // Failure: first failure parks the unit in Backoff (base 60s)...
  ASSERT_TRUE(queue.try_claim(other, "w1"));
  EXPECT_EQ(queue.record_failure(other, "w1"), 1u);
  EXPECT_EQ(queue.state(other), UnitState::Backoff);
  EXPECT_EQ(queue.failures(other), 1u);
  EXPECT_FALSE(queue.leases().read(other).has_value());  // lease dropped

  // ...and the next failure exceeds max_retries=1: quarantined.
  // (Claim is refused in Backoff, so drive record_failure directly as a
  // reclaim would.)
  ASSERT_TRUE(queue.leases().try_acquire(other, "w2"));
  EXPECT_EQ(queue.record_failure(other, "w2"), 2u);
  EXPECT_EQ(queue.state(other), UnitState::Poisoned);
  EXPECT_TRUE(queue.is_poisoned(other));
  EXPECT_EQ(queue.poisoned_keys(), std::vector<std::string>{other});
  EXPECT_FALSE(queue.try_claim(other, "w3"));
}

TEST(WorkQueue, BackoffExpiresBackToReady) {
  TempDir dir("alertsim-queue-test-");
  campaign::ResultCache cache(dir.path());
  RetryPolicy policy;
  policy.max_retries = 3;
  policy.backoff_base_s = 0.05;
  WorkQueue queue(cache, "qtest", policy);

  ASSERT_TRUE(queue.try_claim("unit-key", "w1"));
  (void)queue.record_failure("unit-key", "w1");
  // Freshly failed: parked. After the 50 ms backoff: claimable again.
  EXPECT_EQ(queue.state("unit-key"), UnitState::Backoff);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_EQ(queue.state("unit-key"), UnitState::Ready);
  EXPECT_TRUE(queue.try_claim("unit-key", "w2"));
}

TEST(WorkQueue, ReclaimChargesCrashButNotCompletedUnits) {
  TempDir dir("alertsim-queue-test-");
  campaign::ResultCache cache(dir.path());
  WorkQueue queue(cache, "qtest");

  const campaign::CampaignSpec spec = grid_spec("qtest", 1);
  const campaign::UnitGrid grid = campaign::expand_units(spec, 2);
  const std::string& crashed = grid.units[0].key;
  const std::string& finished = grid.units[1].key;

  // Fresh leases are never reclaimed.
  ASSERT_TRUE(queue.try_claim(crashed, "dead-worker"));
  EXPECT_FALSE(queue.try_reclaim(crashed, 3600.0).has_value());

  // Stale lease on an unfinished unit: break + charge one failure.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const auto broken = queue.try_reclaim(crashed, 0.02);
  ASSERT_TRUE(broken.has_value());
  EXPECT_EQ(broken->owner, "dead-worker");
  EXPECT_EQ(queue.failures(crashed), 1u);

  // Stale lease on a unit whose result landed (holder died after the store
  // but before the release): reclaimed without a failure charge.
  ASSERT_TRUE(queue.try_claim(finished, "dead-worker"));
  ASSERT_TRUE(cache.store(finished, synthetic_result(grid.units[1])));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const auto done_break = queue.try_reclaim(finished, 0.02);
  ASSERT_TRUE(done_break.has_value());
  EXPECT_EQ(queue.failures(finished), 0u);
  EXPECT_EQ(queue.state(finished), UnitState::Done);
}

TEST(ReclaimPass, JournalsEachBreakExactlyOnce) {
  TempDir dir("alertsim-reclaim-test-");
  campaign::ResultCache cache(dir.path());
  WorkQueue queue(cache, "rtest");
  campaign::Journal journal(dir.path() + "/journal", "rtest");

  const campaign::CampaignSpec spec = grid_spec("rtest", 2);
  const campaign::UnitGrid grid = campaign::expand_units(spec, 2);
  ASSERT_TRUE(queue.try_claim(grid.units[0].key, "dead-worker"));
  ASSERT_TRUE(queue.try_claim(grid.units[2].key, "dead-worker"));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  const ReclaimStats stats =
      reclaim_stale_leases(queue, grid.units, 0.02, &journal);
  EXPECT_EQ(stats.reclaimed, 2u);
  EXPECT_EQ(journal.total_reclaimed(), 2u);

  const ReclaimStats again =
      reclaim_stale_leases(queue, grid.units, 0.02, &journal);
  EXPECT_EQ(again.reclaimed, 0u);  // nothing left to break
  EXPECT_EQ(journal.total_reclaimed(), 2u);
}

// --- progress files ----------------------------------------------------------

TEST(Progress, RoundTripsAtomicallyAndAggregates) {
  TempDir dir("alertsim-progress-test-");
  WorkerProgress a;
  a.worker = "w-a";
  a.campaign = "ptest";
  a.claimed = 5;
  a.executed = 4;
  a.failed = 1;
  a.reclaimed = 2;
  WorkerProgress b = a;
  b.worker = "w-b";
  b.store_errors = 3;
  ASSERT_TRUE(write_progress_atomic(dir.path(), a));
  ASSERT_TRUE(write_progress_atomic(dir.path(), b));
  // Overwrites replace (same worker id), never accumulate files.
  a.executed = 5;
  ASSERT_TRUE(write_progress_atomic(dir.path(), a));

  // Garbage files are skipped, not fatal.
  std::ofstream(dir.path() + "/junk.json") << "{not json";

  const std::vector<WorkerProgress> all = read_progress(dir.path());
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].worker, "w-a");
  EXPECT_EQ(all[0].executed, 5u);
  EXPECT_EQ(all[1].worker, "w-b");

  const AggregateProgress total = aggregate_progress(all);
  EXPECT_EQ(total.workers, 2u);
  EXPECT_EQ(total.claimed, 10u);
  EXPECT_EQ(total.executed, 9u);
  EXPECT_EQ(total.failed, 2u);
  EXPECT_EQ(total.reclaimed, 4u);
  EXPECT_EQ(total.store_errors, 3u);
}

// --- worker loop + aggregator --------------------------------------------------

TEST(Worker, ThreeConcurrentWorkersMatchOneWorkerByteForByte) {
  TempDir dir("alertsim-worker-test-");
  const campaign::CampaignSpec spec = grid_spec("wtest", 3);
  constexpr std::size_t kReps = 4;

  // Reference: one worker, its own cache.
  const std::string solo_cache = dir.path() + "/solo";
  const WorkerOutcome solo = run_worker(
      spec, worker_options(solo_cache, "solo", kReps), synthetic_runner());
  EXPECT_EQ(solo.exit_code, 0);
  EXPECT_EQ(solo.executed, 12u);
  const AggregateOutcome solo_agg = aggregate_quiet(spec, solo_cache, kReps);
  ASSERT_EQ(solo_agg.exit_code, 0);

  // Fleet: three workers racing one shared cache.
  const std::string fleet_cache = dir.path() + "/fleet";
  std::vector<WorkerOutcome> outcomes(3);
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < 3; ++i) {
      threads.emplace_back([&, i] {
        outcomes[static_cast<std::size_t>(i)] = run_worker(
            spec, worker_options(fleet_cache, "w" + std::to_string(i), kReps),
            synthetic_runner());
      });
    }
    for (std::thread& t : threads) t.join();
  }
  std::size_t fleet_executed = 0;
  for (const WorkerOutcome& o : outcomes) {
    EXPECT_EQ(o.exit_code, 0);
    EXPECT_EQ(o.units_total, 12u);
    fleet_executed += o.executed;
  }
  EXPECT_EQ(fleet_executed, 12u);  // leases made the split exact

  const AggregateOutcome fleet_agg =
      aggregate_quiet(spec, fleet_cache, kReps);
  ASSERT_EQ(fleet_agg.exit_code, 0);
  EXPECT_EQ(manifest_bytes(fleet_agg.manifest),
            manifest_bytes(solo_agg.manifest));

  // The converged journal shows one claim per unit and all three workers.
  campaign::Journal journal(fleet_cache + "/journal", spec.name);
  EXPECT_EQ(journal.max_claim_count(), 1u);
  EXPECT_EQ(journal.done_count(), 12u);
}

TEST(Worker, PoisonUnitQuarantinesWithoutStallingTheSweep) {
  TempDir dir("alertsim-worker-test-");
  const campaign::CampaignSpec spec = grid_spec("ptest", 2);
  const std::string cache_dir = dir.path() + "/cache";

  // The runner fails every attempt at (point 1, rep 0).
  const UnitRunner runner = [](const campaign::CampaignSpec&,
                               const campaign::WorkUnit& unit)
      -> std::optional<core::RunResult> {
    if (unit.point == 1 && unit.rep == 0) return std::nullopt;
    return synthetic_result(unit);
  };
  WorkerOptions options = worker_options(cache_dir, "w0", 2);
  options.retry.max_retries = 1;
  const WorkerOutcome outcome = run_worker(spec, options, runner);
  EXPECT_EQ(outcome.exit_code, 0);  // converged: every unit terminal
  EXPECT_EQ(outcome.executed, 3u);
  EXPECT_EQ(outcome.failed, 2u);  // initial attempt + one retry
  EXPECT_EQ(outcome.poisoned_total, 1u);

  const AggregateOutcome agg = aggregate_quiet(spec, cache_dir, 2);
  EXPECT_EQ(agg.exit_code, 3);
  EXPECT_EQ(agg.units_done, 3u);
  EXPECT_EQ(agg.units_poisoned, 1u);
  ASSERT_EQ(agg.poisoned_keys.size(), 1u);

  // The retry budget bounds executions: 1 + max_retries claims at most.
  campaign::Journal journal(cache_dir + "/journal", spec.name);
  EXPECT_LE(journal.max_claim_count(), 2u);
  EXPECT_EQ(journal.total_failed(), 2u);
}

TEST(Worker, FlakyUnitRetriesThenConverges) {
  TempDir dir("alertsim-worker-test-");
  const campaign::CampaignSpec spec = grid_spec("ftest", 2);
  const std::string cache_dir = dir.path() + "/cache";

  std::atomic<int> attempts{0};
  const UnitRunner runner = [&attempts](const campaign::CampaignSpec&,
                                        const campaign::WorkUnit& unit)
      -> std::optional<core::RunResult> {
    if (unit.point == 0 && unit.rep == 1 && attempts.fetch_add(1) == 0) {
      return std::nullopt;  // first attempt only
    }
    return synthetic_result(unit);
  };
  const WorkerOutcome outcome =
      run_worker(spec, worker_options(cache_dir, "w0", 2), runner);
  EXPECT_EQ(outcome.exit_code, 0);
  EXPECT_EQ(outcome.executed, 4u);
  EXPECT_EQ(outcome.failed, 1u);
  EXPECT_EQ(outcome.poisoned_total, 0u);

  const AggregateOutcome agg = aggregate_quiet(spec, cache_dir, 2, true);
  ASSERT_EQ(agg.exit_code, 0);
  EXPECT_TRUE(agg.manifest.has_dist);
  EXPECT_EQ(agg.manifest.dist.workers, 1u);
  EXPECT_EQ(agg.manifest.dist.retries, 1u);
  EXPECT_EQ(agg.manifest.dist.poisoned_units, 0u);
}

TEST(Aggregate, HealsCorruptEntryAndReportsIncomplete) {
  TempDir dir("alertsim-aggregate-test-");
  const campaign::CampaignSpec spec = grid_spec("atest", 2);
  const std::string cache_dir = dir.path() + "/cache";

  const WorkerOutcome filled = run_worker(
      spec, worker_options(cache_dir, "w0", 2), synthetic_runner());
  ASSERT_EQ(filled.exit_code, 0);
  const AggregateOutcome before = aggregate_quiet(spec, cache_dir, 2);
  ASSERT_EQ(before.exit_code, 0);

  // Corrupt one entry in place: present under the final name, unparsable.
  const campaign::UnitGrid grid = campaign::expand_units(spec, 2);
  campaign::ResultCache cache(cache_dir);
  std::ofstream(cache.object_path(grid.units[1].key), std::ios::trunc)
      << "{torn";

  AggregateOutcome healed = aggregate_quiet(spec, cache_dir, 2);
  EXPECT_EQ(healed.exit_code, 3);  // refuses to emit a manifest with a hole
  EXPECT_EQ(healed.healed_corrupt, 1u);
  EXPECT_EQ(healed.units_pending, 1u);
  EXPECT_FALSE(cache.entry_exists(grid.units[1].key));  // deleted for rerun

  // One more worker pass re-executes exactly the healed unit; the final
  // manifest byte-matches the pre-corruption aggregate.
  const WorkerOutcome repair = run_worker(
      spec, worker_options(cache_dir, "w1", 2), synthetic_runner());
  EXPECT_EQ(repair.executed, 1u);
  const AggregateOutcome after = aggregate_quiet(spec, cache_dir, 2);
  ASSERT_EQ(after.exit_code, 0);
  EXPECT_EQ(manifest_bytes(after.manifest), manifest_bytes(before.manifest));
}

TEST(Aggregate, PendingUnitsReportIncompleteWithoutManifest) {
  TempDir dir("alertsim-aggregate-test-");
  const campaign::CampaignSpec spec = grid_spec("pending", 2);
  const AggregateOutcome agg = aggregate_quiet(spec, dir.path() + "/c", 2);
  EXPECT_EQ(agg.exit_code, 3);
  EXPECT_EQ(agg.units_done, 0u);
  EXPECT_EQ(agg.units_pending, 4u);
}

}  // namespace
}  // namespace alert::dist
