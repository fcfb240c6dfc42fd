#include "util/cli.hpp"

#include "util/parse.hpp"

namespace alert::util {

std::optional<CliArgs> CliArgs::parse(int argc, const char* const* argv,
                                      std::string* error) {
  CliArgs args;
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0 || token.size() <= 2) {
      if (error != nullptr) *error = "unexpected argument: " + token;
      return std::nullopt;
    }
    token.erase(0, 2);
    const std::size_t eq = token.find('=');
    if (eq != std::string::npos) {
      args.values_[token.substr(0, eq)].text = token.substr(eq + 1);
      continue;
    }
    // `--key value` when the next token is not itself a flag; otherwise a
    // boolean `--flag`.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      args.values_[token].text = argv[i + 1];
      ++i;
    } else {
      args.values_[token].text = "true";
    }
  }
  return args;
}

std::string CliArgs::get(const std::string& key,
                         const std::string& fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  it->second.read = true;
  return it->second.text;
}

namespace {

/// The typed getters: a value that does not parse whole (util/parse.hpp)
/// yields the fallback and is marked refused for rejection() to report.
template <typename T, typename Values, typename Parse>
T get_parsed(Values& values, const std::string& key, T fallback,
             Parse parse) {
  const auto it = values.find(key);
  if (it == values.end()) return fallback;
  T value{};
  if (!parse(it->second.text, &value)) {
    it->second.refused = true;
    return fallback;
  }
  it->second.read = true;
  return value;
}

}  // namespace

double CliArgs::get(const std::string& key, double fallback) const {
  return get_parsed(values_, key, fallback, parse_number<double>);
}

std::int64_t CliArgs::get(const std::string& key,
                          std::int64_t fallback) const {
  return get_parsed(values_, key, fallback, parse_number<std::int64_t>);
}

bool CliArgs::get(const std::string& key, bool fallback) const {
  return get_parsed(values_, key, fallback, parse_bool);
}

CommonFlags CommonFlags::from(const CliArgs& args) {
  CommonFlags flags;
  flags.trace_out = args.get("trace-out", std::string());
  flags.metrics_out = args.get("metrics-out", std::string());
  flags.log_level = args.get("log-level", std::string("none"));
  flags.reps = args.get("reps", static_cast<std::int64_t>(0));
  flags.threads = args.get("threads", static_cast<std::int64_t>(0));
  return flags;
}

std::vector<std::string> CliArgs::unused() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_) {
    if (!value.read || value.refused) out.push_back(key);
  }
  return out;
}

std::optional<std::string> CliArgs::rejection() const {
  std::optional<std::string> unknown;
  for (const auto& [key, value] : values_) {
    if (value.refused) return "bad value '" + value.text + "' for --" + key;
    if (!value.read && !unknown) unknown = "unknown flag --" + key;
  }
  return unknown;
}

}  // namespace alert::util
