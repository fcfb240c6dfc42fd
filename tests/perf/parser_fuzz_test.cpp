/// \file parser_fuzz_test.cpp
/// Seeded mutation fuzzing of every parser that reads text from outside the
/// process: the scenario codec, obs::parse_json, the campaign spec loader,
/// the result-cache codec, the "alertsim-bench/1" report codec and the
/// campaign journal's reload. Every mutant of a valid seed input (bytes
/// flipped, truncated, spliced with another seed, a span duplicated) must be
/// parsed or rejected; a crash, a sanitizer report or a tripped invariant
/// fails the test. The RNG seed is fixed, so a failure replays exactly.
/// g++ has no libFuzzer: this is its in-repo stand-in, and the sanitizer CI
/// leg runs it under ASan/UBSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/journal.hpp"
#include "campaign/result_codec.hpp"
#include "campaign/spec.hpp"
#include "core/experiment.hpp"
#include "core/scenario_codec.hpp"
#include "obs/json_value.hpp"
#include "perf/report.hpp"
#include "temp_dir.hpp"
#include "util/rng.hpp"

namespace alert {
namespace {

constexpr std::uint64_t kFuzzSeed = 0x5eedf022a1e27ULL;
constexpr int kMutantsPerParser = 1000;

constexpr const char* kSpec =
    R"({"schema": "alertsim-campaign-spec/1", "name": "speed_sweep",
 "title": "Latency \"vs\" speed\té", "y_metric": "latency_ms", "reps": 3,
 "base": {"node_count": 40, "duration_s": 20, "run_attacks": true},
 "x": {"param": "speed_mps", "values": [0.5, 2, 8e0]},
 "curves": [{"name": "ALERT", "set": {"protocol": "alert"}},
            {"name": "GPSR", "set": {"protocol": "gpsr",
                                     "faults.outages": "1:2:3:4:5"}}],
 "notes": ["first", "second"]})";
constexpr const char* kMinimalSpec =
    R"({"schema":"alertsim-campaign-spec/1","name":"n","y_metric":"hops",)"
    R"("x":{"param":"node_count","values":[50,100]}})";

/// One to three stacked mutations of a seed drawn from `seeds`.
std::string mutant(const std::vector<std::string>& seeds, util::Rng& rng) {
  std::string s = seeds[rng.below(seeds.size())];
  for (std::uint64_t round = rng.below(3); round < 3; ++round) {
    switch (rng.below(4)) {
      case 0:  // flip one to four bytes
        for (std::uint64_t n = 1 + rng.below(4); n > 0 && !s.empty(); --n) {
          s[rng.below(s.size())] ^= static_cast<char>(1 + rng.below(255));
        }
        break;
      case 1:  // truncate
        s.resize(rng.below(s.size() + 1));
        break;
      case 2: {  // splice: a prefix of this input, a suffix of a seed
        const std::string& other = seeds[rng.below(seeds.size())];
        s = s.substr(0, rng.below(s.size() + 1)) +
            other.substr(rng.below(other.size() + 1));
        break;
      }
      default: {  // duplicate a span somewhere else
        const std::size_t from = rng.below(s.size() + 1);
        const std::string span = s.substr(from, rng.below(s.size() - from + 1));
        s.insert(rng.below(s.size() + 1), span);
        break;
      }
    }
  }
  return s;
}

/// Feed `parse` the seeds unchanged (each must be accepted), then
/// kMutantsPerParser mutants (each may be accepted or rejected).
template <typename Parse>
void fuzz(const std::vector<std::string>& seeds, std::uint64_t stream,
          Parse parse) {
  for (const std::string& seed : seeds) {
    EXPECT_TRUE(parse(seed)) << "seed rejected:\n" << seed;
  }
  util::Rng rng = util::Rng(kFuzzSeed).fork(stream);
  for (int i = 0; i < kMutantsPerParser; ++i) (void)parse(mutant(seeds, rng));
}

/// fuzz()'s callable for a parser of the (text, error) -> optional shape;
/// asking for the error also runs the message-building paths.
template <typename Parser>
auto accepts(Parser parser) {
  return [parser](const std::string& text) {
    std::string error;
    return parser(text, &error).has_value();
  };
}

/// Apply every `key=value` line of `dump` (a line without '=' is a key with
/// an empty value). True when every line applied.
bool apply_dump(std::string_view dump) {
  core::ScenarioConfig cfg;
  bool all = true;
  while (!dump.empty()) {
    const std::string_view line = dump.substr(0, dump.find('\n'));
    dump.remove_prefix(std::min(dump.size(), line.size() + 1));
    const std::size_t eq = line.find('=');
    std::string error;
    const std::string_view value =
        eq == std::string_view::npos ? std::string_view() : line.substr(eq + 1);
    all &= core::apply_scenario_param(cfg, line.substr(0, eq), value, &error);
  }
  return all;
}

core::ScenarioConfig faulty_scenario() {
  core::ScenarioConfig cfg;
  cfg.node_count = 20;
  cfg.flow_count = 2;
  cfg.duration_s = 5.0;
  cfg.faults.loss.iid = 0.1;
  cfg.faults.loss.gilbert = true;
  cfg.faults.churn.mttf_s = 40.0;
  cfg.faults.outages = {{{250.0, 400.0}, 120.0, 1.0, 4.0},
                        {{700.0, 100.0}, 80.0, 0.0, 2.0}};
  cfg.mac.arq.enabled = true;
  cfg.compromise_budgets = {1, 5};
  cfg.obs.profile = true;
  return cfg;
}

TEST(ParserFuzz, MutantsAreParsedOrRejected) {
  fuzz({core::canonical_scenario(core::ScenarioConfig{}),
        core::canonical_scenario(faulty_scenario())},
       1, apply_dump);

  const std::string result =
      campaign::run_result_to_json(core::run_once(faulty_scenario(), 0));
  perf::BenchReport bench;
  bench.suite = "core";
  bench.version = "v1-2-gabcdef0";
  bench.add_metric({"ns_per_event_dispatch", "ns/op", 374.6, 31.4, 9, false,
                    40.0});
  std::ostringstream report;
  bench.write_json(report);

  fuzz({kSpec, kMinimalSpec, result, report.str()}, 2,
       accepts(obs::parse_json));
  fuzz({kSpec, kMinimalSpec}, 3, accepts(campaign::load_spec_json));
  fuzz({result}, 4, accepts(campaign::parse_run_result));
  fuzz({report.str()}, 5, accepts(perf::load_report));

  // The journal reloads from disk: each mutant gets a file of its own.
  test_support::TempDir dir("journal_fuzz");
  int n = 0;
  fuzz({"alertsim-campaign-journal/1 fig\n"
        "done 0123456789abcdef0123456789abcdef01234567\n"
        "done 89abcdef0123456789abcdef0123456789abcdef\n"},
       6, [&dir, &n](const std::string& text) {
         const std::string name = std::to_string(n++);
         std::ofstream(dir.path() + "/" + name + ".journal") << text;
         return campaign::Journal(dir.path(), name).done_count() == 2;
       });
}

}  // namespace
}  // namespace alert
