#include "campaign/spec.hpp"

#include <fstream>
#include <map>
#include <sstream>

#include "core/scenario_codec.hpp"
#include "obs/json_value.hpp"

namespace alert::campaign {

core::ScenarioConfig paper_default_scenario() {
  core::ScenarioConfig cfg;
  cfg.field = {0.0, 0.0, 1000.0, 1000.0};
  cfg.node_count = 200;
  cfg.speed_mps = 2.0;
  cfg.radio_range_m = 250.0;
  cfg.flow_count = 10;
  cfg.packet_interval_s = 2.0;
  cfg.payload_bytes = 512;
  cfg.duration_s = 100.0;
  cfg.alert.partitions_h = 5;
  cfg.seed = 0xA1E47;
  return cfg;
}

const char* paper_defaults_line() {
  return "defaults: 1000x1000 m, 200 nodes, 2 m/s, 250 m range, 10 flows, "
         "512 B CBR every 2 s, 100 s, H=5";
}

namespace {

util::SeriesPoint from_acc(double x, const util::Accumulator& a) {
  return {x, a.mean(), a.ci95_halfwidth()};
}

util::SeriesPoint from_acc_scaled(double x, const util::Accumulator& a,
                                  double scale) {
  return {x, a.mean() * scale, a.ci95_halfwidth() * scale};
}

struct NamedExtractor {
  const char* name;
  util::SeriesPoint (*fn)(double, const core::ExperimentResult&);
};

constexpr NamedExtractor kExtractors[] = {
    {"delivery_rate",
     [](double x, const core::ExperimentResult& r) {
       return from_acc(x, r.delivery_rate);
     }},
    {"latency_ms",
     [](double x, const core::ExperimentResult& r) {
       return from_acc_scaled(x, r.latency_s, 1e3);
     }},
    {"e2e_delay_ms",
     [](double x, const core::ExperimentResult& r) {
       return from_acc_scaled(x, r.e2e_delay_s, 1e3);
     }},
    {"hops",
     [](double x, const core::ExperimentResult& r) {
       return from_acc(x, r.hops);
     }},
    {"hops_with_control",
     [](double x, const core::ExperimentResult& r) {
       return from_acc(x, r.hops_with_control);
     }},
    {"participants",
     [](double x, const core::ExperimentResult& r) {
       return from_acc(x, r.participants);
     }},
    {"route_overlap",
     [](double x, const core::ExperimentResult& r) {
       return from_acc(x, r.route_overlap);
     }},
    {"rf_per_packet",
     [](double x, const core::ExperimentResult& r) {
       return from_acc(x, r.rf_per_packet);
     }},
    {"partitions_per_packet",
     [](double x, const core::ExperimentResult& r) {
       return from_acc(x, r.partitions_per_packet);
     }},
    {"cover_per_data",
     [](double x, const core::ExperimentResult& r) {
       return from_acc(x, r.cover_per_data);
     }},
    {"energy_per_delivered_j",
     [](double x, const core::ExperimentResult& r) {
       return from_acc(x, r.energy_per_delivered_j);
     }},
    {"energy_total_j",
     [](double x, const core::ExperimentResult& r) {
       return from_acc(x, r.energy_total_j);
     }},
    {"energy_crypto_j",
     [](double x, const core::ExperimentResult& r) {
       return from_acc(x, r.energy_crypto_j);
     }},
    {"energy_max_node_j",
     [](double x, const core::ExperimentResult& r) {
       return from_acc(x, r.energy_max_node_j);
     }},
    {"timing_source_rate",
     [](double x, const core::ExperimentResult& r) {
       return from_acc(x, r.timing_source_rate);
     }},
    {"timing_dest_rate",
     [](double x, const core::ExperimentResult& r) {
       return from_acc(x, r.timing_dest_rate);
     }},
    {"intersection_success",
     [](double x, const core::ExperimentResult& r) {
       return from_acc(x, r.intersection_success);
     }},
    {"intersection_identified",
     [](double x, const core::ExperimentResult& r) {
       return from_acc(x, r.intersection_identified);
     }},
    {"intersection_frequency",
     [](double x, const core::ExperimentResult& r) {
       return from_acc(x, r.intersection_frequency);
     }},
};

}  // namespace

std::optional<YMetricFn> y_metric_extractor(std::string_view name) {
  for (const NamedExtractor& e : kExtractors) {
    if (name == e.name) return YMetricFn(e.fn);
  }
  return std::nullopt;
}

std::vector<std::string> y_metric_names() {
  std::vector<std::string> out;
  out.reserve(std::size(kExtractors));
  for (const NamedExtractor& e : kExtractors) out.emplace_back(e.name);
  return out;
}

void default_reduce(const CampaignSpec& spec,
                    const std::vector<PointResult>& points,
                    const ReduceContext& ctx, obs::RunManifest& manifest) {
  const auto fn = y_metric_extractor(spec.y_metric);
  if (!fn) return;  // validated at spec-construction time
  std::vector<util::Series> series;
  for (const PointResult& pr : points) {
    util::Series* target = nullptr;
    for (util::Series& s : series) {
      if (s.name == pr.spec->curve) {
        target = &s;
        break;
      }
    }
    if (target == nullptr) {
      series.push_back(util::Series{pr.spec->curve, {}});
      target = &series.back();
    }
    target->points.push_back(
        (*fn)(pr.spec->x, pr.result));
  }
  for (util::Series& s : series) manifest.series.push_back(std::move(s));
  manifest.notes.push_back("(reps per point: " + std::to_string(ctx.reps) +
                           ")");
}

namespace {

/// Render a JSON scalar as the string apply_scenario_param expects:
/// strings pass through, numbers keep their raw source token (exact),
/// booleans become "true"/"false".
bool scalar_to_string(const obs::JsonValue& v, std::string* out) {
  switch (v.kind()) {
    case obs::JsonValue::Kind::String:
      *out = v.as_string();
      return true;
    case obs::JsonValue::Kind::Number:
      *out = v.raw_number();
      return true;
    case obs::JsonValue::Kind::Bool:
      *out = v.as_bool() ? "true" : "false";
      return true;
    default:
      return false;
  }
}

bool apply_param_object(const obs::JsonValue& obj, core::ScenarioConfig* cfg,
                        const std::string& where, std::string* error) {
  if (!obj.is_object()) {
    if (error != nullptr) *error = where + " must be an object";
    return false;
  }
  for (const auto& [key, value] : obj.object()) {
    std::string text;
    if (!scalar_to_string(value, &text)) {
      if (error != nullptr) {
        *error = where + "." + key + ": value must be a scalar";
      }
      return false;
    }
    std::string param_error;
    if (!core::apply_scenario_param(*cfg, key, text, &param_error)) {
      if (error != nullptr) *error = where + ": " + param_error;
      return false;
    }
  }
  return true;
}

}  // namespace

std::optional<CampaignSpec> load_spec_json(std::string_view json,
                                           std::string* error) {
  const auto doc = obs::parse_json(json, error);
  if (!doc) return std::nullopt;
  if (!doc->is_object()) {
    if (error != nullptr) *error = "spec must be a JSON object";
    return std::nullopt;
  }

  const auto fail = [error](const std::string& message)
      -> std::optional<CampaignSpec> {
    if (error != nullptr) *error = message;
    return std::nullopt;
  };

  const obs::JsonValue* schema = doc->find("schema");
  if (schema == nullptr || schema->as_string() != kSpecSchema) {
    return fail(std::string("spec schema must be \"") + kSpecSchema + "\"");
  }

  CampaignSpec spec;
  const obs::JsonValue* name = doc->find("name");
  if (name == nullptr || !name->is_string() || name->as_string().empty()) {
    return fail("spec needs a non-empty string \"name\"");
  }
  spec.name = name->as_string();
  if (const obs::JsonValue* v = doc->find("title"); v != nullptr) {
    spec.title = v->as_string();
  }
  if (spec.title.empty()) spec.title = spec.name;
  if (const obs::JsonValue* v = doc->find("banner"); v != nullptr) {
    spec.banner = v->as_string();
  }
  if (spec.banner.empty()) spec.banner = spec.title;
  if (const obs::JsonValue* v = doc->find("x_label"); v != nullptr) {
    spec.x_label = v->as_string();
  }
  if (const obs::JsonValue* v = doc->find("y_label"); v != nullptr) {
    spec.y_label = v->as_string();
  }
  if (const obs::JsonValue* v = doc->find("reps"); v != nullptr) {
    const std::int64_t reps = v->as_i64(-1);
    if (reps <= 0 ||
        static_cast<std::size_t>(reps) > core::kMaxReplications) {
      return fail("\"reps\" must be a positive integer");
    }
    spec.fallback_reps = static_cast<std::size_t>(reps);
  }

  const obs::JsonValue* y_metric = doc->find("y_metric");
  if (y_metric == nullptr || !y_metric->is_string()) {
    return fail("spec needs a string \"y_metric\"");
  }
  spec.y_metric = y_metric->as_string();
  if (!y_metric_extractor(spec.y_metric)) {
    std::string known;
    for (const std::string& n : y_metric_names()) {
      known += known.empty() ? n : ", " + n;
    }
    return fail("unknown y_metric \"" + spec.y_metric + "\" (known: " +
                known + ")");
  }

  core::ScenarioConfig base = paper_default_scenario();
  if (const obs::JsonValue* v = doc->find("base"); v != nullptr) {
    if (!apply_param_object(*v, &base, "base", error)) return std::nullopt;
  }

  const obs::JsonValue* x = doc->find("x");
  if (x == nullptr || !x->is_object()) {
    return fail("spec needs an object \"x\" with \"param\" and \"values\"");
  }
  const obs::JsonValue* x_param = x->find("param");
  const obs::JsonValue* x_values = x->find("values");
  if (x_param == nullptr || !x_param->is_string() || x_values == nullptr ||
      !x_values->is_array() || x_values->size() == 0) {
    return fail("\"x\" needs a string \"param\" and a non-empty array "
                "\"values\"");
  }
  if (spec.x_label.empty()) spec.x_label = x_param->as_string();
  if (spec.y_label.empty()) spec.y_label = spec.y_metric;

  struct Curve {
    std::string name;
    const obs::JsonValue* set;  ///< may be nullptr (no overrides)
  };
  std::vector<Curve> curves;
  if (const obs::JsonValue* v = doc->find("curves"); v != nullptr) {
    if (!v->is_array() || v->size() == 0) {
      return fail("\"curves\" must be a non-empty array");
    }
    for (const obs::JsonValue& c : v->array()) {
      const obs::JsonValue* cname = c.find("name");
      if (!c.is_object() || cname == nullptr || !cname->is_string()) {
        return fail("each curve needs a string \"name\"");
      }
      curves.push_back({cname->as_string(), c.find("set")});
    }
  } else {
    curves.push_back({spec.name, nullptr});
  }

  for (const Curve& curve : curves) {
    core::ScenarioConfig curve_base = base;
    if (curve.set != nullptr &&
        !apply_param_object(*curve.set, &curve_base,
                            "curves[" + curve.name + "].set", error)) {
      return std::nullopt;
    }
    for (const obs::JsonValue& xv : x_values->array()) {
      std::string text;
      if (!scalar_to_string(xv, &text)) {
        return fail("x.values entries must be scalars");
      }
      PointSpec point;
      point.curve = curve.name;
      point.x = xv.as_double();
      point.config = curve_base;
      std::string param_error;
      if (!core::apply_scenario_param(point.config, x_param->as_string(),
                                      text, &param_error)) {
        return fail("x sweep: " + param_error);
      }
      spec.points.push_back(std::move(point));
    }
  }

  if (const obs::JsonValue* v = doc->find("notes"); v != nullptr) {
    if (!v->is_array()) return fail("\"notes\" must be an array of strings");
    for (const obs::JsonValue& n : v->array()) {
      spec.notes.push_back(n.as_string());
    }
  }
  return spec;
}

std::optional<CampaignSpec> load_spec_file(const std::string& path,
                                           std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot read spec file: " + path;
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto spec = load_spec_json(buffer.str(), error);
  if (!spec && error != nullptr) *error = path + ": " + *error;
  return spec;
}

}  // namespace alert::campaign
