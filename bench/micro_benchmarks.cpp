/// Google-benchmark microbenchmarks for the hot paths of the simulator and
/// crypto substrate: these bound how many replications a figure sweep can
/// afford and catch performance regressions in the engine.

#include <benchmark/benchmark.h>

#include "core/experiment.hpp"
#include "crypto/pubkey.hpp"
#include "crypto/sha1.hpp"
#include "crypto/symmetric.hpp"
#include "obs/profile.hpp"
#include "perf/kernels.hpp"
#include "routing/zone.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace {

using namespace alert;

void BM_Sha1_512B(benchmark::State& state) {
  std::vector<std::uint8_t> data(512, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha1::hash(data));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) * 512);
}
BENCHMARK(BM_Sha1_512B);

void BM_XteaCtr_512B(benchmark::State& state) {
  const auto key = crypto::SymmetricKey::from_seed(1);
  std::vector<std::uint8_t> data(512, 0xCD);
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    crypto::xtea_ctr_apply(key, nonce++, data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) * 512);
}
BENCHMARK(BM_XteaCtr_512B);

void BM_RsaEncryptValue(benchmark::State& state) {
  util::Rng rng(1);
  const auto kp = crypto::generate_keypair(rng);
  std::uint64_t m = 12345;
  for (auto _ : state) {
    m = crypto::rsa_encrypt_value(kp.pub, m % kp.pub.n);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_RsaEncryptValue);

/// Cycles through 4096 ciphertexts under 256 keys: with one ciphertext under
/// one key the branch predictor learns the exponent and the loop under-reports
/// what a first-hop TTL unseal (a fresh key and ciphertext each time) costs.
void BM_RsaDecryptValue(benchmark::State& state) {
  constexpr std::size_t kKeys = 256;
  constexpr std::size_t kCiphertexts = 4096;
  util::Rng rng(1);
  std::vector<crypto::PrivateKey> keys;
  keys.reserve(kKeys);
  for (std::size_t k = 0; k < kKeys; ++k) {
    keys.push_back(crypto::generate_keypair(rng).priv);
  }
  std::vector<std::uint64_t> ciphertexts(kCiphertexts);
  for (std::size_t i = 0; i < kCiphertexts; ++i) {
    ciphertexts[i] = rng.below(keys[i % kKeys].n());
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::rsa_decrypt_value(keys[i % kKeys], ciphertexts[i]));
    i = (i + 1) % kCiphertexts;
  }
}
BENCHMARK(BM_RsaDecryptValue);

void BM_KeypairGeneration(benchmark::State& state) {
  util::Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::generate_keypair(rng));
  }
}
BENCHMARK(BM_KeypairGeneration);

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(3);
  for (auto _ : state) {
    sim::EventQueue q;
    for (std::size_t i = 0; i < n; ++i) {
      q.schedule(rng.uniform(), [] {});
    }
    while (!q.empty()) {
      benchmark::DoNotOptimize(q.pop().time);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(256)->Arg(4096);

/// Event dispatch through the Simulator with no profiler attached — the
/// default path every experiment replication takes. The obs acceptance bar
/// is that this stays within noise of the pre-instrumentation dispatch cost
/// (the ALERT_OBS_TIMED site is a single null check here).
void BM_SimulatorDispatch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator s;
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      s.schedule_at(static_cast<double>(i) * 1e-6, [&acc] { ++acc; });
    }
    s.run_until(1.0);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SimulatorDispatch)->Arg(4096);

/// Same dispatch loop with a Profiler attached: adds two steady_clock reads
/// per event. The delta against BM_SimulatorDispatch is the true cost of
/// enabling wall-clock self-profiling.
void BM_SimulatorDispatchProfiled(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator s;
    obs::Profiler profiler;
    s.set_profiler(&profiler);
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      s.schedule_at(static_cast<double>(i) * 1e-6, [&acc] { ++acc; });
    }
    s.run_until(1.0);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SimulatorDispatchProfiled)->Arg(4096);

void BM_DestinationZone(benchmark::State& state) {
  const util::Rect field{0.0, 0.0, 1000.0, 1000.0};
  util::Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        routing::destination_zone(field, rng.point_in(field), 5));
  }
}
BENCHMARK(BM_DestinationZone);

void BM_PartitionUntilSeparated(benchmark::State& state) {
  const util::Rect field{0.0, 0.0, 1000.0, 1000.0};
  util::Rng rng(6);
  const util::Rect zd = routing::destination_zone(field, {900.0, 900.0}, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::partition_until_separated(
        field, rng.point_in(field), zd, util::Axis::Vertical, 5));
  }
}
BENCHMARK(BM_PartitionUntilSeparated);

/// The exact event-dispatch kernel behind BENCH_core.json's
/// ns_per_event_dispatch (src/perf/kernels.hpp): exploring it here with
/// google-benchmark measures the same workload the committed baseline pins,
/// so the two numbers are directly comparable.
void BM_PerfKernelDispatch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(perf::run_dispatch_batch(n));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PerfKernelDispatch)->Arg(4096)->Arg(65536);

/// The neighbour-query kernel behind BENCH_core.json's
/// ns_per_neighbour_query: a fixed-seed static topology (the constructor
/// cost stays outside the timed loop) scanned at deterministic centers.
void BM_PerfKernelNeighbourQuery(benchmark::State& state) {
  const perf::QueryTopology topology(
      static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(topology.run_queries(256));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          256);
}
BENCHMARK(BM_PerfKernelNeighbourQuery)->Arg(200)->Arg(2000);

void BM_FullReplication(benchmark::State& state) {
  core::ScenarioConfig cfg;
  cfg.node_count = static_cast<std::size_t>(state.range(0));
  cfg.duration_s = 20.0;
  cfg.flow_count = 5;
  std::uint64_t rep = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_once(cfg, rep++));
  }
}
BENCHMARK(BM_FullReplication)->Arg(100)->Arg(200)->Unit(
    benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
