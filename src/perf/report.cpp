#include "perf/report.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "obs/json.hpp"
#include "obs/json_value.hpp"
#include "util/atomic_file.hpp"
#include "util/check.hpp"

namespace alert::perf {

namespace {

[[nodiscard]] const char* platform_tag() {
#if defined(__linux__)
  return "linux";
#elif defined(__APPLE__)
  return "darwin";
#elif defined(_WIN32)
  return "windows";
#else
  return "unknown";
#endif
}

}  // namespace

HostFingerprint HostFingerprint::current() {
  HostFingerprint fp;
  fp.os = platform_tag();
#if defined(__VERSION__)
  fp.compiler = __VERSION__;
#else
  fp.compiler = "unknown";
#endif
#if defined(NDEBUG)
  fp.build_type = "release";
#else
  fp.build_type = "debug";
#endif
  fp.hardware_threads = std::thread::hardware_concurrency();
  return fp;
}

std::string HostFingerprint::summary() const {
  return os + ", " + compiler + ", " + build_type + ", " +
         std::to_string(hardware_threads) + " hw threads";
}

const BenchMetric* BenchReport::find(std::string_view name) const {
  for (const BenchMetric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void BenchReport::add_metric(BenchMetric metric) {
  ALERT_INVARIANT(find(metric.name) == nullptr,
                  "duplicate bench metric name");
  const auto pos = std::lower_bound(
      metrics.begin(), metrics.end(), metric,
      [](const BenchMetric& a, const BenchMetric& b) { return a.name < b.name; });
  metrics.insert(pos, std::move(metric));
}

void BenchReport::write_json(std::ostream& out) const {
  obs::JsonWriter w(out);
  w.begin_object();
  w.field("schema", kBenchSchema);
  w.field("suite", suite);
  w.field("version", version);

  w.key("host");
  w.begin_object();
  w.field("os", host.os);
  w.field("compiler", host.compiler);
  w.field("build_type", host.build_type);
  w.field("hardware_threads",
          static_cast<std::uint64_t>(host.hardware_threads));
  w.end_object();

  w.key("metrics");
  w.begin_array();
  for (const BenchMetric& m : metrics) {
    w.begin_object();
    w.field("name", m.name);
    w.field("unit", m.unit);
    w.field("value", m.value);
    w.field("iqr", m.iqr);
    w.field("repeats", static_cast<std::uint64_t>(m.repeats));
    w.field("higher_is_better", m.higher_is_better);
    w.field("tolerance_pct", m.tolerance_pct);
    w.end_object();
  }
  w.end_array();

  w.end_object();
  out << '\n';
}

bool BenchReport::write_file(const std::string& path) const {
  return util::write_file_atomic(
      path, [this](std::ostream& out) { write_json(out); });
}

std::optional<BenchReport> load_report(std::string_view json,
                                       std::string* error) {
  const auto fail = [error](std::string message) -> std::optional<BenchReport> {
    if (error != nullptr) *error = std::move(message);
    return std::nullopt;
  };
  const auto doc = obs::parse_json(json, error);
  if (!doc) return std::nullopt;
  if (!doc->is_object()) return fail("bench report must be a JSON object");
  const obs::JsonValue* schema = doc->find("schema");
  if (schema == nullptr || schema->as_string() != kBenchSchema) {
    return fail(std::string("bench report schema must be '") + kBenchSchema +
                "'");
  }

  BenchReport report;
  const obs::JsonValue* suite = doc->find("suite");
  if (suite == nullptr || !suite->is_string() || suite->as_string().empty()) {
    return fail("bench report needs a non-empty string 'suite'");
  }
  report.suite = suite->as_string();
  const obs::JsonValue* version = doc->find("version");
  if (version == nullptr || !version->is_string()) {
    return fail("bench report needs a string 'version'");
  }
  report.version = version->as_string();

  const obs::JsonValue* host = doc->find("host");
  if (host == nullptr || !host->is_object()) {
    return fail("bench report needs a 'host' object");
  }
  const auto host_str = [host](const char* key) {
    const obs::JsonValue* v = host->find(key);
    return v != nullptr ? v->as_string() : std::string();
  };
  report.host.os = host_str("os");
  report.host.compiler = host_str("compiler");
  report.host.build_type = host_str("build_type");
  if (const obs::JsonValue* v = host->find("hardware_threads")) {
    report.host.hardware_threads = static_cast<unsigned>(v->as_u64());
  }

  const obs::JsonValue* metrics = doc->find("metrics");
  if (metrics == nullptr || !metrics->is_array()) {
    return fail("bench report needs a 'metrics' array");
  }
  for (std::size_t i = 0; i < metrics->size(); ++i) {
    const obs::JsonValue& m = metrics->at(i);
    const std::string where = "metrics[" + std::to_string(i) + "]";
    if (!m.is_object()) return fail(where + " must be an object");
    BenchMetric metric;
    const obs::JsonValue* name = m.find("name");
    if (name == nullptr || !name->is_string() || name->as_string().empty()) {
      return fail(where + " needs a non-empty string 'name'");
    }
    metric.name = name->as_string();
    const obs::JsonValue* unit = m.find("unit");
    if (unit == nullptr || !unit->is_string()) {
      return fail(where + " needs a string 'unit'");
    }
    metric.unit = unit->as_string();
    const obs::JsonValue* value = m.find("value");
    if (value == nullptr || !value->is_number()) {
      return fail(where + " needs a numeric 'value'");
    }
    metric.value = value->as_double();
    if (const obs::JsonValue* v = m.find("iqr")) metric.iqr = v->as_double();
    if (const obs::JsonValue* v = m.find("repeats")) {
      metric.repeats = static_cast<std::size_t>(v->as_u64());
    }
    if (const obs::JsonValue* v = m.find("higher_is_better")) {
      metric.higher_is_better = v->as_bool();
    }
    const obs::JsonValue* tolerance = m.find("tolerance_pct");
    if (tolerance == nullptr || !tolerance->is_number() ||
        tolerance->as_double() <= 0.0) {
      return fail(where + " needs a positive numeric 'tolerance_pct'");
    }
    metric.tolerance_pct = tolerance->as_double();
    if (report.find(metric.name) != nullptr) {
      return fail(where + " duplicates metric '" + metric.name + "'");
    }
    report.add_metric(std::move(metric));
  }
  return report;
}

std::optional<BenchReport> load_report_file(const std::string& path,
                                            std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open '" + path + "'";
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return load_report(buffer.str(), error);
}

}  // namespace alert::perf
