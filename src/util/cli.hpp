#pragma once

/// \file cli.hpp
/// Minimal command-line flag parser for the alertsim driver binaries:
/// `--key=value` / `--key value` / boolean `--flag`. No dependencies,
/// deterministic error reporting, typed getters with defaults. The typed
/// getters parse strictly (util/parse.hpp): a value such as `--reps 3x`
/// returns the fallback and is marked refused, so the driver's
/// rejection() check reports it as a bad value, not as a typo.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace alert::util {

class CliArgs {
 public:
  /// Parse argv (argv[0] skipped). Returns nullopt and fills `error` on a
  /// malformed token (anything not starting with "--").
  static std::optional<CliArgs> parse(int argc, const char* const* argv,
                                      std::string* error = nullptr);

  [[nodiscard]] bool has(const std::string& key) const {
    return values_.contains(key);
  }

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const;
  [[nodiscard]] double get(const std::string& key, double fallback) const;
  [[nodiscard]] std::int64_t get(const std::string& key,
                                 std::int64_t fallback) const;
  [[nodiscard]] bool get(const std::string& key, bool fallback) const;

  /// Keys the program never consumed: typos, and values a typed getter
  /// could not parse.
  [[nodiscard]] std::vector<std::string> unused() const;

  /// The usage error for the first flag the program cannot honour, or
  /// nullopt: "bad value 'V' for --KEY" for a value a typed getter refused
  /// (reported first, even if a later getter read the raw text), else
  /// "unknown flag --KEY" for a key nothing read.
  [[nodiscard]] std::optional<std::string> rejection() const;

 private:
  struct Value {
    std::string text;
    bool read = false;     ///< a getter returned it
    bool refused = false;  ///< a typed getter could not parse it
  };
  mutable std::map<std::string, Value> values_;
};

/// Observability flags shared by every alertsim driver binary (figure
/// benches, examples):
///   --trace-out=FILE    structured per-event trace; extension picks the
///                       sink (.jsonl / .csv / else Chrome trace_event JSON)
///   --metrics-out=FILE  run-manifest JSON (config, seed, digests, metrics,
///                       profile, series) — schema alertsim-run-manifest/1
///   --log-level=LEVEL   none|error|warn|info|debug (default none)
///   --reps=N            replications per point
///   --threads=N         worker threads for replication fan-out
///                       (0 = hardware concurrency, the default)
struct CommonFlags {
  std::string trace_out;
  std::string metrics_out;
  std::string log_level = "none";
  std::int64_t reps = 0;     ///< 0 = the driver's default
  std::int64_t threads = 0;  ///< 0 = hardware concurrency

  /// Extract (and mark consumed) the shared keys from parsed args.
  static CommonFlags from(const CliArgs& args);
};

}  // namespace alert::util
