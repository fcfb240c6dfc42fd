#include "campaign/result_codec.hpp"

#include <sstream>
#include <utility>
#include <variant>
#include <vector>

#include "obs/json.hpp"
#include "obs/json_value.hpp"

namespace alert::campaign {

namespace {

void write_acc_state(obs::JsonWriter& w, const util::Accumulator& acc) {
  const util::Accumulator::State s = acc.state();
  w.begin_array();
  w.value(static_cast<std::uint64_t>(s.n));
  w.value(s.mean);
  w.value(s.m2);
  w.value(s.min);
  w.value(s.max);
  w.end_array();
}

void write_double_array(obs::JsonWriter& w, const std::vector<double>& v) {
  w.begin_array();
  for (const double x : v) w.value(x);
  w.end_array();
}

bool parse_acc_state(const obs::JsonValue* v, util::Accumulator* out) {
  if (v == nullptr || !v->is_array() || v->size() != 5) return false;
  util::Accumulator::State s;
  s.n = static_cast<std::size_t>(v->at(0).as_u64());
  s.mean = v->at(1).as_double();
  s.m2 = v->at(2).as_double();
  s.min = v->at(3).as_double();
  s.max = v->at(4).as_double();
  *out = util::Accumulator::from_state(s);
  return true;
}

bool parse_double_array(const obs::JsonValue* v, std::vector<double>* out) {
  if (v == nullptr || !v->is_array()) return false;
  out->clear();
  out->reserve(v->size());
  for (const obs::JsonValue& x : v->array()) out->push_back(x.as_double());
  return true;
}

bool parse_metric_kind(std::string_view name, obs::MetricKind* out) {
  for (const obs::MetricKind kind :
       {obs::MetricKind::Counter, obs::MetricKind::Gauge,
        obs::MetricKind::Sample, obs::MetricKind::Histogram}) {
    if (name == obs::metric_kind_name(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

/// RunResult's scalar and per-index fields in cache-entry order: one list
/// drives both the writer and the parser. A missing scalar reads as 0 (the
/// RunResult default); a missing array fails the entry.
struct ResultField {
  const char* key;
  std::variant<std::uint64_t core::RunResult::*, double core::RunResult::*,
               std::vector<double> core::RunResult::*>
      member;
};

constexpr ResultField kResultFields[] = {
    {"sent", &core::RunResult::sent},
    {"delivered", &core::RunResult::delivered},
    {"mean_latency_s", &core::RunResult::mean_latency_s},
    {"mean_e2e_delay_s", &core::RunResult::mean_e2e_delay_s},
    {"mean_hops", &core::RunResult::mean_hops},
    {"mean_participants", &core::RunResult::mean_participants},
    {"mean_route_overlap", &core::RunResult::mean_route_overlap},
    {"rf_per_packet", &core::RunResult::rf_per_packet},
    {"partitions_per_packet", &core::RunResult::partitions_per_packet},
    {"control_hops_per_packet", &core::RunResult::control_hops_per_packet},
    {"cumulative_participants", &core::RunResult::cumulative_participants},
    {"remaining_by_sample", &core::RunResult::remaining_by_sample},
    {"cover_packets_per_data", &core::RunResult::cover_packets_per_data},
    {"timing_source_rate", &core::RunResult::timing_source_rate},
    {"timing_dest_rate", &core::RunResult::timing_dest_rate},
    {"intersection_success", &core::RunResult::intersection_success},
    {"intersection_identified", &core::RunResult::intersection_identified},
    {"intersection_frequency", &core::RunResult::intersection_frequency},
    {"compromise_targeted", &core::RunResult::compromise_targeted},
    {"compromise_blocked", &core::RunResult::compromise_blocked},
    {"location_update_messages", &core::RunResult::location_update_messages},
    {"hello_messages", &core::RunResult::hello_messages},
    {"energy_total_j", &core::RunResult::energy_total_j},
    {"energy_crypto_j", &core::RunResult::energy_crypto_j},
    {"energy_per_delivered_j", &core::RunResult::energy_per_delivered_j},
    {"energy_max_node_j", &core::RunResult::energy_max_node_j},
    {"trace_digest", &core::RunResult::trace_digest},
    {"events_executed", &core::RunResult::events_executed},
    {"packets_opened", &core::RunResult::packets_opened},
    {"packets_expired", &core::RunResult::packets_expired},
};

void write_field(obs::JsonWriter& w, const char* key, std::uint64_t v) {
  w.field(key, v);
}
void write_field(obs::JsonWriter& w, const char* key, double v) {
  w.field(key, v);
}
void write_field(obs::JsonWriter& w, const char* key,
                 const std::vector<double>& v) {
  w.key(key);
  write_double_array(w, v);
}

bool parse_field(const obs::JsonValue* v, std::uint64_t* out) {
  if (v != nullptr) *out = v->as_u64();
  return true;
}
bool parse_field(const obs::JsonValue* v, double* out) {
  if (v != nullptr) *out = v->as_double();
  return true;
}
bool parse_field(const obs::JsonValue* v, std::vector<double>* out) {
  return parse_double_array(v, out);
}

}  // namespace

void write_run_result_json(std::ostream& out, const core::RunResult& run) {
  obs::JsonWriter w(out);
  w.begin_object();
  w.field("schema", kResultCacheSchema);
  for (const ResultField& f : kResultFields) {
    std::visit([&](auto member) { write_field(w, f.key, run.*member); },
               f.member);
  }

  w.key("metrics");
  w.begin_object();
  w.field("replications",
          static_cast<std::uint64_t>(run.metrics.replications));
  w.key("values");
  w.begin_array();
  for (const obs::MetricValue& m : run.metrics.metrics) {
    w.begin_object();
    w.field("name", m.name);
    w.field("kind", obs::metric_kind_name(m.kind));
    w.field("total", m.total);
    w.key("per_rep");
    write_acc_state(w, m.per_rep);
    w.key("samples");
    write_acc_state(w, m.samples);
    w.field("lo", m.lo);
    w.field("hi", m.hi);
    w.key("bins");
    w.begin_array();
    for (const std::uint64_t b : m.bins) w.value(b);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("profile");
  w.begin_array();
  for (const obs::ScopeStats& s : run.profile.scopes) {
    w.begin_object();
    w.field("name", s.name);
    w.field("count", s.count);
    w.field("total_ns", s.total_ns);
    w.field("max_ns", s.max_ns);
    w.end_object();
  }
  w.end_array();

  w.end_object();
  out << '\n';
}

std::string run_result_to_json(const core::RunResult& run) {
  std::ostringstream out;
  write_run_result_json(out, run);
  return out.str();
}

std::optional<core::RunResult> parse_run_result(std::string_view json,
                                                std::string* error) {
  const auto doc = obs::parse_json(json, error);
  if (!doc) return std::nullopt;
  const auto fail = [error](const char* message)
      -> std::optional<core::RunResult> {
    if (error != nullptr) *error = message;
    return std::nullopt;
  };
  if (!doc->is_object()) return fail("cache entry must be an object");
  const obs::JsonValue* schema = doc->find("schema");
  if (schema == nullptr || schema->as_string() != kResultCacheSchema) {
    return fail("cache entry schema mismatch");
  }

  core::RunResult run;
  for (const ResultField& f : kResultFields) {
    const bool ok = std::visit(
        [&](auto member) {
          return parse_field(doc->find(f.key), &(run.*member));
        },
        f.member);
    if (!ok) return fail("cache entry missing a per-packet/per-budget array");
  }

  const obs::JsonValue* metrics = doc->find("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    return fail("cache entry missing metrics");
  }
  if (const obs::JsonValue* v = metrics->find("replications"); v != nullptr) {
    run.metrics.replications = static_cast<std::size_t>(v->as_u64());
  }
  const obs::JsonValue* values = metrics->find("values");
  if (values == nullptr || !values->is_array()) {
    return fail("cache entry missing metrics.values");
  }
  for (const obs::JsonValue& mv : values->array()) {
    if (!mv.is_object()) return fail("metric entry must be an object");
    obs::MetricValue m;
    if (const obs::JsonValue* v = mv.find("name")) m.name = v->as_string();
    const obs::JsonValue* kind = mv.find("kind");
    if (kind == nullptr || !parse_metric_kind(kind->as_string(), &m.kind)) {
      return fail("metric entry has an unknown kind");
    }
    if (const obs::JsonValue* v = mv.find("total")) m.total = v->as_u64();
    if (!parse_acc_state(mv.find("per_rep"), &m.per_rep) ||
        !parse_acc_state(mv.find("samples"), &m.samples)) {
      return fail("metric entry missing accumulator state");
    }
    if (const obs::JsonValue* v = mv.find("lo")) m.lo = v->as_double();
    if (const obs::JsonValue* v = mv.find("hi")) m.hi = v->as_double();
    const obs::JsonValue* bins = mv.find("bins");
    if (bins == nullptr || !bins->is_array()) {
      return fail("metric entry missing bins");
    }
    m.bins.reserve(bins->size());
    for (const obs::JsonValue& b : bins->array()) {
      m.bins.push_back(b.as_u64());
    }
    run.metrics.metrics.push_back(std::move(m));
  }

  const obs::JsonValue* profile = doc->find("profile");
  if (profile == nullptr || !profile->is_array()) {
    return fail("cache entry missing profile");
  }
  for (const obs::JsonValue& sv : profile->array()) {
    if (!sv.is_object()) return fail("profile scope must be an object");
    obs::ScopeStats s;
    if (const obs::JsonValue* v = sv.find("name")) s.name = v->as_string();
    if (const obs::JsonValue* v = sv.find("count")) s.count = v->as_u64();
    if (const obs::JsonValue* v = sv.find("total_ns")) {
      s.total_ns = v->as_u64();
    }
    if (const obs::JsonValue* v = sv.find("max_ns")) s.max_ns = v->as_u64();
    run.profile.scopes.push_back(std::move(s));
  }
  return run;
}

}  // namespace alert::campaign
