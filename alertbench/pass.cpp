#include "pass.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <system_error>
#include <utility>

#include <sys/resource.h>
#include <unistd.h>

#include "campaign/cache.hpp"
#include "campaign/engine.hpp"
#include "campaign/journal.hpp"
#include "core/scenario_codec.hpp"
#include "obs/json.hpp"
#include "obs/profile.hpp"
#include "obs/resource.hpp"
#include "obs/series.hpp"
#include "util/thread_pool.hpp"

namespace alertbench {

namespace {

namespace fs = std::filesystem;
using alert::campaign::CampaignSpec;
using alert::core::RunResult;

constexpr std::array<const char*, 6> kFateCounters = {
    "packets.delivered",    "packets.dropped",         "packets.expired",
    "packets.lost_channel", "packets.retry_exhausted", "packets.owner_crashed"};

/// Program scopes read from every executed unit's RunResult::profile. They
/// are inclusive and nest, so they are reported as-is and never summed.
constexpr std::array<const char*, 15> kScopes = {
    "sim.dispatch",          "net.query",            "net.deliver",
    "net.transmit",          "mac.acquire",          "routing.alert.send",
    "routing.alert.handle",  "routing.gpsr.send",    "routing.gpsr.handle",
    "routing.alarm.send",    "routing.alarm.handle", "routing.ao2p.send",
    "routing.ao2p.handle",   "routing.zap.send",     "routing.zap.handle"};

/// Counters read from every executed unit's RunResult::metrics.
constexpr std::array<const char*, 8> kCounters = {
    "net.tx",           "net.rx",
    "net.hello",        "proto.forwards",
    "proto.retransmissions", "proto.cover_packets",
    "proto.broadcasts", "crypto.ops"};

double cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double seconds_between(std::uint64_t from_ns, std::uint64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

std::string make_temp_dir(const std::string& parent) {
  std::string pattern = parent + "/setup-XXXXXX";
  if (::mkdtemp(pattern.data()) == nullptr) return {};
  return pattern;
}

std::string manifest_path(const std::string& out_dir,
                          const CampaignSpec& spec) {
  return (fs::path(out_dir) / (spec.name + ".json")).string();
}

std::uint64_t counter_total(const RunResult& run, const char* name) {
  const alert::obs::MetricValue* value = run.metrics.find(name);
  return value == nullptr ? 0 : value->total;
}

std::string hex_digest(std::uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

std::uint64_t file_bytes(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

UnitRecord record_of(const CampaignSpec& spec, const std::string& key,
                     const RunResult* run) {
  UnitRecord record;
  record.campaign = spec.name;
  record.key = key;
  if (run != nullptr) {
    record.digest = run->trace_digest;
    record.events = run->events_executed;
    record.ledger_balanced = ledger_balanced(*run);
  }
  return record;
}

/// The program's own counters summed over the units a traced pass executed
/// live (a cache hit replays a recorded profile, so it is not counted
/// again), keyed by per-layer metric name. Every name is present from the
/// start, so a scope no unit entered reads 0.
struct ExecutedTotals {
  std::mutex mutex;
  std::map<std::string, std::uint64_t> sums;

  ExecutedTotals() {
    for (const char* scope : kScopes) {
      sums[std::string(scope) + ".count"] = 0;
      sums[std::string(scope) + ".ns"] = 0;
    }
    for (const char* name : kCounters) sums[name] = 0;
    for (const char* name : {"core.events", "core.packets_opened",
                             "core.packets_expired", "loc.update_messages"}) {
      sums[name] = 0;
    }
  }

  void add(const RunResult& run) {
    std::lock_guard lock(mutex);
    for (const char* scope : kScopes) {
      if (const alert::obs::ScopeStats* s = run.profile.find(scope)) {
        sums[std::string(scope) + ".count"] += s->count;
        sums[std::string(scope) + ".ns"] += s->total_ns;
      }
    }
    for (const char* name : kCounters) sums[name] += counter_total(run, name);
    sums["core.events"] += run.events_executed;
    sums["core.packets_opened"] += run.packets_opened;
    sums["core.packets_expired"] += run.packets_expired;
    sums["loc.update_messages"] += run.location_update_messages;
  }
};

void untraced_pass(const PassOptions& options,
                   const std::vector<CampaignSpec>& specs,
                   PassResult& result) {
  for (const CampaignSpec& spec : specs) {
    alert::campaign::CampaignOptions campaign;
    campaign.reps = workload_reps(options.workload);
    campaign.threads = kThreads;
    campaign.cache_dir = options.cache_root;
    campaign.metrics_out = manifest_path(options.out_dir, spec);
    const alert::campaign::CampaignOutcome outcome =
        alert::campaign::run_campaign(spec, campaign);
    alert::obs::print_text_line("");
    result.executed += outcome.executed;
    result.cache_hits += outcome.cache_hits;
    result.store_errors += outcome.cache_store_errors;
    result.journal_errors += outcome.journal_write_errors;
    if (outcome.exit_code != 0) result.manifests_written = false;
  }
}

/// Read every unit's result back from the cache after an untraced pass.
void collect_units(const PassOptions& options,
                   const std::vector<CampaignSpec>& specs,
                   PassResult& result) {
  const alert::campaign::ResultCache cache(options.cache_root);
  for (const CampaignSpec& spec : specs) {
    const alert::campaign::UnitGrid grid =
        alert::campaign::expand_units(spec, workload_reps(options.workload));
    for (const alert::campaign::WorkUnit& unit : grid.units) {
      const std::optional<RunResult> run = cache.load(unit.key);
      result.units.push_back(
          record_of(spec, unit.key, run ? &*run : nullptr));
    }
  }
}

struct TracedSums {
  std::uint64_t entry_bytes = 0;
  std::uint64_t manifest_bytes = 0;
};

/// One unit of the traced pass, on a pool worker: load, and on a miss
/// execute and store; then journal. Mirrors run_campaign's task.
void run_unit(const CampaignSpec& spec, const alert::campaign::WorkUnit& unit,
              std::uint64_t queued, std::int64_t parent,
              const alert::campaign::ResultCache& cache,
              alert::campaign::Journal& journal, SpanRecorder& spans,
              ExecutedTotals& executed, RunResult& result) {
  ScopedSpan unit_span(spans, "unit", parent, unit.key, queued);
  const std::int64_t self = unit_span.index();
  std::optional<RunResult> hit;
  {
    ScopedSpan load(spans, "campaign.cache.load", self, unit.key);
    hit = cache.load(unit.key);
  }
  if (hit) {
    result = std::move(*hit);
  } else {
    {
      ScopedSpan run(spans, "core.run_once", self, unit.key);
      result = alert::campaign::execute_unit(spec, unit);
    }
    {
      ScopedSpan store(spans, "campaign.cache.store", self, unit.key);
      cache.store(unit.key, result);
    }
    executed.add(result);
  }
  ScopedSpan mark(spans, "campaign.journal", self, unit.key);
  journal.mark_done(unit.key);
}

void traced_pass(const PassOptions& options,
                 const std::vector<CampaignSpec>& specs, SpanRecorder& spans,
                 std::int64_t pass_span, ExecutedTotals& executed,
                 TracedSums& sums, PassResult& result) {
  const std::size_t reps = workload_reps(options.workload);
  for (const CampaignSpec& spec : specs) {
    ScopedSpan campaign_span(spans, "campaign", pass_span, spec.name);
    const std::int64_t parent = campaign_span.index();
    alert::campaign::UnitGrid grid;
    {
      ScopedSpan expand(spans, "campaign.expand", parent, spec.name);
      grid = alert::campaign::expand_units(spec, reps);
    }
    std::unique_ptr<alert::campaign::ResultCache> cache;
    std::unique_ptr<alert::campaign::Journal> journal;
    if (!grid.units.empty()) {
      cache = std::make_unique<alert::campaign::ResultCache>(options.cache_root);
      journal = std::make_unique<alert::campaign::Journal>(
          options.cache_root + "/journal", spec.name);
    }

    std::vector<RunResult> results(grid.units.size());
    std::vector<std::uint64_t> entry_bytes(grid.units.size(), 0);
    {
      alert::util::ThreadPool pool(kThreads);
      for (const alert::campaign::WorkUnit& unit : grid.units) {
        const std::uint64_t queued = alert::obs::monotonic_ns();
        pool.submit([&, queued] {
          run_unit(spec, unit, queued, parent, *cache, *journal, spans,
                   executed, results[unit.slot]);
          // Every unit owns exactly one slot of the pre-sized vectors.
          entry_bytes[unit.slot] = file_bytes(cache->object_path(unit.key));
        });
      }
      pool.wait_idle();
    }
    if (cache != nullptr) result.store_errors += cache->store_errors();
    if (journal != nullptr) result.journal_errors += journal->write_errors();
    for (const alert::campaign::WorkUnit& unit : grid.units) {
      result.units.push_back(record_of(spec, unit.key, &results[unit.slot]));
      sums.entry_bytes += entry_bytes[unit.slot];
    }

    alert::obs::RunManifest manifest;
    {
      ScopedSpan assemble(spans, "campaign.assemble", parent, spec.name);
      manifest = alert::campaign::assemble_manifest(spec, grid,
                                                    std::move(results));
    }
    const std::string path = manifest_path(options.out_dir, spec);
    {
      ScopedSpan write(spans, "campaign.manifest.write", parent, spec.name);
      if (!alert::campaign::write_manifest_atomic(manifest, path)) {
        result.manifests_written = false;
      }
    }
    sums.manifest_bytes += file_bytes(path);
  }
}

std::vector<std::uint64_t> durations_of(const std::vector<Span>& spans,
                                        const std::string& name) {
  std::vector<std::uint64_t> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(s.duration_ns());
  }
  return out;
}

std::uint64_t sum_of(const std::vector<std::uint64_t>& values) {
  return std::accumulate(values.begin(), values.end(), std::uint64_t{0});
}

/// A percentile with its sample count alongside (0 when the rule withholds
/// it; the count says why).
double percentile_or_zero(const std::vector<std::uint64_t>& samples,
                          unsigned percent) {
  const std::optional<std::uint64_t> p = percentile(samples, percent);
  return p ? static_cast<double>(*p) : 0.0;
}

std::map<std::string, double> layer_metrics(const std::vector<Span>& spans,
                                            const ExecutedTotals& executed,
                                            const TracedSums& sums,
                                            const PassResult& result) {
  std::map<std::string, double> m;
  const auto put = [&m](const std::string& name, auto value) {
    m[name] = static_cast<double>(value);
  };

  // --- campaign ------------------------------------------------------------
  put("campaign.expand.ns", sum_of(durations_of(spans, "campaign.expand")));
  const std::vector<std::uint64_t> loads =
      durations_of(spans, "campaign.cache.load");
  put("campaign.cache.loads", loads.size());
  put("campaign.cache.hits", result.cache_hits);
  put("campaign.cache.load.ns_p50", percentile_or_zero(loads, 50));
  put("campaign.cache.load.ns_p90", percentile_or_zero(loads, 90));
  const std::vector<std::uint64_t> stores =
      durations_of(spans, "campaign.cache.store");
  put("campaign.cache.stores", stores.size());
  put("campaign.cache.store.ns_p50", percentile_or_zero(stores, 50));
  put("campaign.cache.store.ns_p90", percentile_or_zero(stores, 90));
  put("campaign.cache.entry_bytes", sums.entry_bytes);
  put("campaign.cache.store_errors", result.store_errors);
  put("campaign.journal.ns", sum_of(durations_of(spans, "campaign.journal")));
  put("campaign.assemble.ns",
      sum_of(durations_of(spans, "campaign.assemble")));
  put("campaign.manifest.write_ns",
      sum_of(durations_of(spans, "campaign.manifest.write")));
  put("campaign.manifest.bytes", sums.manifest_bytes);

  // --- util: pool wait per task, and busy share of each campaign's window --
  std::vector<std::uint64_t> waits;
  std::map<std::int64_t, std::pair<std::uint64_t, std::uint64_t>> windows;
  std::uint64_t busy_ns = 0;
  for (const Span& s : spans) {
    if (s.name != "unit") continue;
    waits.push_back(s.start_ns - s.queued_ns);
    busy_ns += s.duration_ns();
    auto [it, fresh] =
        windows.try_emplace(s.parent, std::make_pair(s.queued_ns, s.end_ns));
    if (!fresh) {
      it->second.first = std::min(it->second.first, s.queued_ns);
      it->second.second = std::max(it->second.second, s.end_ns);
    }
  }
  std::uint64_t window_ns = 0;
  for (const auto& [parent, window] : windows) {
    window_ns += window.second - window.first;
  }
  put("util.pool.tasks", waits.size());
  put("util.pool.wait_ns_p50", percentile_or_zero(waits, 50));
  put("util.pool.wait_ns_p90", percentile_or_zero(waits, 90));
  put("util.pool.busy_frac",
      window_ns == 0 ? 0.0
                     : static_cast<double>(busy_ns) /
                           (static_cast<double>(kThreads) *
                            static_cast<double>(window_ns)));

  // --- core, and the program's own counters ------------------------------
  for (const auto& [name, value] : executed.sums) put(name, value);
  const std::vector<std::uint64_t> runs = durations_of(spans, "core.run_once");
  const std::uint64_t run_ns = sum_of(runs);
  const std::uint64_t dispatch_ns = executed.sums.at("sim.dispatch.ns");
  const std::uint64_t events = executed.sums.at("core.events");
  put("core.run_once.count", runs.size());
  put("core.run_once.ns_p50", percentile_or_zero(runs, 50));
  put("core.run_once.ns_p90", percentile_or_zero(runs, 90));
  put("core.run_once.self_ns", run_ns > dispatch_ns ? run_ns - dispatch_ns : 0);
  put("core.ns_per_event",
      events == 0 ? 0.0
                  : static_cast<double>(run_ns) / static_cast<double>(events));
  return m;
}

/// Set-up samples per pass; setup_s is the median of a run's samples.
constexpr std::size_t kSetupSamples = 21;

/// The pre-dispatch work of one pass — build the workload's specs, expand
/// every campaign into units (canonical scenario + SHA-1 key each), open
/// each campaign's cache and journal under `cache_root` — timed in seconds.
double time_setup(Workload workload, std::uint64_t seed,
                  const std::string& cache_root) {
  const std::uint64_t start = alert::obs::monotonic_ns();
  const std::vector<CampaignSpec> specs = workload_specs(workload, seed);
  for (const CampaignSpec& spec : specs) {
    const alert::campaign::UnitGrid grid =
        alert::campaign::expand_units(spec, workload_reps(workload));
    if (grid.units.empty()) continue;  // run_campaign opens nothing either
    const alert::campaign::ResultCache cache(cache_root);
    const alert::campaign::Journal journal(cache_root + "/journal", spec.name);
  }
  return seconds_between(start, alert::obs::monotonic_ns());
}

}  // namespace

bool ledger_balanced(const RunResult& run) {
  if (run.metrics.find("packets.opened") == nullptr) return false;
  std::uint64_t closed = 0;
  for (const char* fate : kFateCounters) closed += counter_total(run, fate);
  return counter_total(run, "packets.opened") == closed;
}

PassResult run_pass(const PassOptions& options) {
  PassResult result;
  const bool warm = options.workload == Workload::PaperWarm;
  for (std::size_t i = 0; i < kSetupSamples; ++i) {
    // Cold workloads set up on an empty root, as their pass does; the warm
    // pass sets up on its filled cache, whose journals it only reads.
    const std::string root =
        warm ? options.cache_root : make_temp_dir(options.tmp_dir);
    if (root.empty()) break;
    result.setup_s.push_back(time_setup(options.workload, options.seed, root));
    std::error_code ec;
    if (!warm) fs::remove_all(root, ec);
  }

  SpanRecorder spans;
  ExecutedTotals executed;
  TracedSums sums;
  const double cpu_start = cpu_seconds();
  const std::uint64_t start = alert::obs::monotonic_ns();
  std::optional<ScopedSpan> pass;
  if (options.traced) {
    pass.emplace(spans, "pass", kNoParent, workload_name(options.workload));
  }
  const std::vector<CampaignSpec> specs =
      workload_specs(options.workload, options.seed);
  if (options.traced) {
    traced_pass(options, specs, spans, pass->index(), executed, sums, result);
  } else {
    untraced_pass(options, specs, result);
  }
  pass.reset();
  result.wall_s = seconds_between(start, alert::obs::monotonic_ns());
  result.cpu_s = cpu_seconds() - cpu_start;

  if (options.traced) {
    result.spans = spans.spans();
    result.origin_ns = start;
    result.executed = durations_of(result.spans, "core.run_once").size();
    result.cache_hits =
        durations_of(result.spans, "campaign.cache.load").size() -
        result.executed;
    result.layers = layer_metrics(result.spans, executed, sums, result);
  } else {
    collect_units(options, specs, result);
  }
  result.peak_rss_bytes = alert::obs::peak_rss_bytes();
  for (const CampaignSpec& spec : specs) {
    result.manifests.push_back(manifest_path(options.out_dir, spec));
  }
  return result;
}

void write_pass_json(std::ostream& out, const PassResult& result) {
  alert::obs::JsonWriter w(out);
  w.begin_object();
  w.field("epoch", alert::core::kSimulationEpoch);
  w.field("wall_s", result.wall_s);
  w.field("cpu_s", result.cpu_s);
  w.field("peak_rss_bytes", result.peak_rss_bytes);
  w.key("setup_s");
  w.begin_array();
  for (const double s : result.setup_s) w.value(s);
  w.end_array();
  w.field("executed", static_cast<std::uint64_t>(result.executed));
  w.field("cache_hits", static_cast<std::uint64_t>(result.cache_hits));
  w.field("store_errors", static_cast<std::uint64_t>(result.store_errors));
  w.field("journal_errors", static_cast<std::uint64_t>(result.journal_errors));
  w.field("manifests_written", result.manifests_written);
  w.key("manifests");
  w.begin_array();
  for (const std::string& path : result.manifests) w.value(path);
  w.end_array();
  w.key("units");
  w.begin_array();
  for (const UnitRecord& u : result.units) {
    w.begin_object();
    w.field("campaign", u.campaign);
    w.field("key", u.key);
    w.field("digest", hex_digest(u.digest));
    w.field("events", u.events);
    w.field("ledger_balanced", u.ledger_balanced);
    w.end_object();
  }
  w.end_array();
  w.key("layers");
  w.begin_object();
  for (const auto& [name, value] : result.layers) w.field(name, value);
  w.end_object();
  w.end_object();
  out << '\n';
}

}  // namespace alertbench
