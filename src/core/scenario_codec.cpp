#include "core/scenario_codec.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <utility>

#include "crypto/sha1.hpp"

namespace alert::core {

namespace {

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string fmt_bool(bool b) { return b ? "true" : "false"; }

bool parse_double_strict(std::string_view s, double* out) {
  if (s.empty()) return false;
  const std::string copy(s);
  char* end = nullptr;
  const double v = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size()) return false;
  *out = v;
  return true;
}

bool parse_u64_strict(std::string_view s, std::uint64_t* out) {
  if (s.empty() || s[0] == '-') return false;
  const std::string copy(s);
  char* end = nullptr;
  const unsigned long long v = std::strtoull(copy.c_str(), &end, 10);
  if (end != copy.c_str() + copy.size()) return false;
  *out = v;
  return true;
}

bool parse_size_strict(std::string_view s, std::size_t* out) {
  std::uint64_t v = 0;
  if (!parse_u64_strict(s, &v)) return false;
  *out = static_cast<std::size_t>(v);
  return true;
}

bool parse_int_strict(std::string_view s, int* out) {
  if (s.empty()) return false;
  const std::string copy(s);
  char* end = nullptr;
  const long v = std::strtol(copy.c_str(), &end, 10);
  if (end != copy.c_str() + copy.size()) return false;
  *out = static_cast<int>(v);
  return true;
}

bool parse_bool_strict(std::string_view s, bool* out) {
  if (s == "true" || s == "1" || s == "yes" || s == "on") {
    *out = true;
    return true;
  }
  if (s == "false" || s == "0" || s == "no" || s == "off") {
    *out = false;
    return true;
  }
  return false;
}

/// Outage list codec: "x:y:radius:start:end" discs joined by ';' (empty
/// string = no outages). The canonical dump uses the same rendering, so a
/// round-trip through apply_scenario_param is exact.
std::string format_outages(const std::vector<faults::Outage>& outages) {
  std::string out;
  for (const faults::Outage& o : outages) {
    if (!out.empty()) out += ';';
    out += fmt_double(o.center.x) + ':' + fmt_double(o.center.y) + ':' +
           fmt_double(o.radius_m) + ':' + fmt_double(o.start_s) + ':' +
           fmt_double(o.end_s);
  }
  return out;
}

bool parse_outages(std::string_view s, std::vector<faults::Outage>* out) {
  out->clear();
  if (s.empty()) return true;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t semi = std::min(s.find(';', pos), s.size());
    const std::string_view disc = s.substr(pos, semi - pos);
    if (std::count(disc.begin(), disc.end(), ':') != 4) {
      return false;  // exactly x:y:radius:start:end — no extra fields
    }
    double vals[5];
    std::size_t field = 0, at = 0;
    while (field < 5) {
      const std::size_t colon = std::min(disc.find(':', at), disc.size());
      if (!parse_double_strict(disc.substr(at, colon - at), &vals[field])) {
        return false;
      }
      ++field;
      if (colon == disc.size()) break;
      at = colon + 1;
    }
    if (field != 5) return false;
    out->push_back(faults::Outage{{vals[0], vals[1]}, vals[2], vals[3],
                                  vals[4]});
    if (semi == s.size()) break;
    pos = semi + 1;
  }
  return true;
}

/// One sweepable parameter: how to set it from a string.
using Setter =
    std::function<bool(ScenarioConfig&, std::string_view value)>;

const std::map<std::string, Setter, std::less<>>& setters() {
  static const std::map<std::string, Setter, std::less<>> kSetters = [] {
    std::map<std::string, Setter, std::less<>> m;
    const auto size_field = [&m](const char* key, std::size_t ScenarioConfig::* f) {
      m[key] = [f](ScenarioConfig& c, std::string_view v) {
        return parse_size_strict(v, &(c.*f));
      };
    };
    const auto double_field = [&m](const char* key, double ScenarioConfig::* f) {
      m[key] = [f](ScenarioConfig& c, std::string_view v) {
        return parse_double_strict(v, &(c.*f));
      };
    };
    const auto bool_field = [&m](const char* key, bool ScenarioConfig::* f) {
      m[key] = [f](ScenarioConfig& c, std::string_view v) {
        return parse_bool_strict(v, &(c.*f));
      };
    };

    size_field("node_count", &ScenarioConfig::node_count);
    size_field("flow_count", &ScenarioConfig::flow_count);
    size_field("payload_bytes", &ScenarioConfig::payload_bytes);
    size_field("packets_per_flow", &ScenarioConfig::packets_per_flow);
    size_field("group_count", &ScenarioConfig::group_count);
    double_field("speed_mps", &ScenarioConfig::speed_mps);
    double_field("radio_range_m", &ScenarioConfig::radio_range_m);
    double_field("packet_interval_s", &ScenarioConfig::packet_interval_s);
    double_field("duration_s", &ScenarioConfig::duration_s);
    double_field("traffic_start_s", &ScenarioConfig::traffic_start_s);
    double_field("min_pair_distance_m", &ScenarioConfig::min_pair_distance_m);
    double_field("max_pair_distance_m", &ScenarioConfig::max_pair_distance_m);
    double_field("group_range_m", &ScenarioConfig::group_range_m);
    double_field("hello_period_s", &ScenarioConfig::hello_period_s);
    double_field("pseudonym_period_s", &ScenarioConfig::pseudonym_period_s);
    double_field("residency_sample_period_s",
                 &ScenarioConfig::residency_sample_period_s);
    bool_field("destination_update", &ScenarioConfig::destination_update);
    bool_field("run_attacks", &ScenarioConfig::run_attacks);

    m["seed"] = [](ScenarioConfig& c, std::string_view v) {
      return parse_u64_strict(v, &c.seed);
    };
    m["protocol"] = [](ScenarioConfig& c, std::string_view v) {
      const auto kind = parse_protocol_kind(v);
      if (!kind) return false;
      c.protocol = *kind;
      return true;
    };
    m["mobility"] = [](ScenarioConfig& c, std::string_view v) {
      const auto kind = parse_mobility_kind(v);
      if (!kind) return false;
      c.mobility = *kind;
      return true;
    };
    m["location.server_count"] = [](ScenarioConfig& c, std::string_view v) {
      return parse_size_strict(v, &c.location.server_count);
    };
    m["location.update_period_s"] = [](ScenarioConfig& c,
                                       std::string_view v) {
      return parse_double_strict(v, &c.location.update_period_s);
    };
    m["alert.partitions_h"] = [](ScenarioConfig& c, std::string_view v) {
      return parse_int_strict(v, &c.alert.partitions_h);
    };
    // Alias used by the run-manifest params block and the paper's prose.
    m["partitions_h"] = m["alert.partitions_h"];
    m["alert.max_retransmissions"] = [](ScenarioConfig& c,
                                        std::string_view v) {
      return parse_int_strict(v, &c.alert.max_retransmissions);
    };
    m["alert.notify_and_go"] = [](ScenarioConfig& c, std::string_view v) {
      return parse_bool_strict(v, &c.alert.notify_and_go);
    };
    m["alert.notify_t0_s"] = [](ScenarioConfig& c, std::string_view v) {
      return parse_double_strict(v, &c.alert.notify_t0_s);
    };
    m["alert.intersection_countermeasure"] = [](ScenarioConfig& c,
                                                std::string_view v) {
      return parse_bool_strict(v, &c.alert.intersection_countermeasure);
    };
    m["gpsr.use_perimeter"] = [](ScenarioConfig& c, std::string_view v) {
      return parse_bool_strict(v, &c.gpsr.use_perimeter);
    };
    m["alarm.dissemination_period_s"] = [](ScenarioConfig& c,
                                           std::string_view v) {
      return parse_double_strict(v, &c.alarm.dissemination_period_s);
    };
    m["zap.zone_side_m"] = [](ScenarioConfig& c, std::string_view v) {
      return parse_double_strict(v, &c.zap.zone_side_m);
    };

    // Fault injection (src/faults) and link-layer ARQ. These keys are
    // sweepable like any other, but only appear in the canonical dump when
    // the plan is active (see canonical_scenario).
    m["faults.loss.iid"] = [](ScenarioConfig& c, std::string_view v) {
      return parse_double_strict(v, &c.faults.loss.iid);
    };
    m["faults.loss.gilbert"] = [](ScenarioConfig& c, std::string_view v) {
      return parse_bool_strict(v, &c.faults.loss.gilbert);
    };
    m["faults.loss.ge_p_good_bad"] = [](ScenarioConfig& c,
                                        std::string_view v) {
      return parse_double_strict(v, &c.faults.loss.ge_p_good_bad);
    };
    m["faults.loss.ge_p_bad_good"] = [](ScenarioConfig& c,
                                        std::string_view v) {
      return parse_double_strict(v, &c.faults.loss.ge_p_bad_good);
    };
    m["faults.loss.ge_loss_good"] = [](ScenarioConfig& c,
                                       std::string_view v) {
      return parse_double_strict(v, &c.faults.loss.ge_loss_good);
    };
    m["faults.loss.ge_loss_bad"] = [](ScenarioConfig& c,
                                      std::string_view v) {
      return parse_double_strict(v, &c.faults.loss.ge_loss_bad);
    };
    m["faults.churn.mttf_s"] = [](ScenarioConfig& c, std::string_view v) {
      return parse_double_strict(v, &c.faults.churn.mttf_s);
    };
    m["faults.churn.mttr_s"] = [](ScenarioConfig& c, std::string_view v) {
      return parse_double_strict(v, &c.faults.churn.mttr_s);
    };
    m["faults.outages"] = [](ScenarioConfig& c, std::string_view v) {
      return parse_outages(v, &c.faults.outages);
    };
    m["mac.arq.enabled"] = [](ScenarioConfig& c, std::string_view v) {
      return parse_bool_strict(v, &c.mac.arq.enabled);
    };
    m["mac.arq.retry_limit"] = [](ScenarioConfig& c, std::string_view v) {
      return parse_int_strict(v, &c.mac.arq.retry_limit);
    };
    m["mac.arq.ack_timeout_s"] = [](ScenarioConfig& c, std::string_view v) {
      return parse_double_strict(v, &c.mac.arq.ack_timeout_s);
    };
    m["mac.arq.backoff_base_s"] = [](ScenarioConfig& c, std::string_view v) {
      return parse_double_strict(v, &c.mac.arq.backoff_base_s);
    };
    m["mac.arq.ack_bytes"] = [](ScenarioConfig& c, std::string_view v) {
      return parse_size_strict(v, &c.mac.arq.ack_bytes);
    };
    return m;
  }();
  return kSetters;
}

}  // namespace

const char* mobility_name(MobilityKind k) {
  switch (k) {
    case MobilityKind::RandomWaypoint: return "random_waypoint";
    case MobilityKind::Group: return "group";
    case MobilityKind::Static: return "static";
  }
  return "?";
}

std::optional<ProtocolKind> parse_protocol_kind(std::string_view name) {
  std::string lower(name);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (lower == "alert") return ProtocolKind::Alert;
  if (lower == "gpsr") return ProtocolKind::Gpsr;
  if (lower == "alarm") return ProtocolKind::Alarm;
  if (lower == "ao2p") return ProtocolKind::Ao2p;
  if (lower == "zap") return ProtocolKind::Zap;
  return std::nullopt;
}

std::optional<MobilityKind> parse_mobility_kind(std::string_view name) {
  if (name == "rwp" || name == "random_waypoint") {
    return MobilityKind::RandomWaypoint;
  }
  if (name == "group") return MobilityKind::Group;
  if (name == "static") return MobilityKind::Static;
  return std::nullopt;
}

std::string canonical_scenario(const ScenarioConfig& c) {
  // NOTE: every semantic ScenarioConfig field must appear here. When adding
  // a field to ScenarioConfig (or any nested config), add its line below —
  // and bump kSimulationEpoch if the default value changes existing
  // behaviour. The unit test pins the rendering of the default config.
  // Exception: fields whose default is provably inert (the fault plan and
  // the ARQ block — an all-off plan changes no RNG draw, event, or audit
  // word) are emitted only when active, so default dumps and campaign cache
  // keys stay byte-identical across the feature's introduction and warm
  // caches stay warm.
  std::vector<std::pair<std::string, std::string>> kv;
  const auto put = [&kv](std::string key, std::string value) {
    kv.emplace_back(std::move(key), std::move(value));
  };

  put("field.min.x", fmt_double(c.field.min.x));
  put("field.min.y", fmt_double(c.field.min.y));
  put("field.max.x", fmt_double(c.field.max.x));
  put("field.max.y", fmt_double(c.field.max.y));
  put("node_count", std::to_string(c.node_count));

  put("mobility", mobility_name(c.mobility));
  put("speed_mps", fmt_double(c.speed_mps));
  put("group_count", std::to_string(c.group_count));
  put("group_range_m", fmt_double(c.group_range_m));

  put("radio_range_m", fmt_double(c.radio_range_m));
  put("mac.bandwidth_bps", fmt_double(c.mac.bandwidth_bps));
  put("mac.slot_s", fmt_double(c.mac.slot_s));
  put("mac.difs_s", fmt_double(c.mac.difs_s));
  put("mac.propagation_mps", fmt_double(c.mac.propagation_mps));
  put("mac.contention_per_neighbor",
      fmt_double(c.mac.contention_per_neighbor));
  put("hello_period_s", fmt_double(c.hello_period_s));
  put("pseudonym_period_s", fmt_double(c.pseudonym_period_s));

  put("flow_count", std::to_string(c.flow_count));
  put("packet_interval_s", fmt_double(c.packet_interval_s));
  put("payload_bytes", std::to_string(c.payload_bytes));
  put("packets_per_flow", std::to_string(c.packets_per_flow));
  put("traffic_start_s", fmt_double(c.traffic_start_s));
  put("min_pair_distance_m", fmt_double(c.min_pair_distance_m));
  put("max_pair_distance_m", fmt_double(c.max_pair_distance_m));
  put("duration_s", fmt_double(c.duration_s));

  put("destination_update", fmt_bool(c.destination_update));
  put("location.server_count", std::to_string(c.location.server_count));
  put("location.update_period_s", fmt_double(c.location.update_period_s));
  put("location.replication_period_s",
      fmt_double(c.location.replication_period_s));

  put("crypto.symmetric_encrypt_s",
      fmt_double(c.crypto_cost.symmetric_encrypt_s));
  put("crypto.symmetric_decrypt_s",
      fmt_double(c.crypto_cost.symmetric_decrypt_s));
  put("crypto.public_encrypt_s", fmt_double(c.crypto_cost.public_encrypt_s));
  put("crypto.public_decrypt_s", fmt_double(c.crypto_cost.public_decrypt_s));
  put("crypto.sign_s", fmt_double(c.crypto_cost.sign_s));
  put("crypto.verify_s", fmt_double(c.crypto_cost.verify_s));
  put("crypto.hash_s", fmt_double(c.crypto_cost.hash_s));

  put("protocol", protocol_name(c.protocol));
  put("alert.partitions_h", std::to_string(c.alert.partitions_h));
  put("alert.k_anonymity",
      c.alert.k_anonymity ? fmt_double(*c.alert.k_anonymity) : "none");
  put("alert.max_hops", std::to_string(c.alert.max_hops));
  put("alert.per_hop_processing_s",
      fmt_double(c.alert.per_hop_processing_s));
  put("alert.notify_and_go", fmt_bool(c.alert.notify_and_go));
  put("alert.notify_t_s", fmt_double(c.alert.notify_t_s));
  put("alert.notify_t0_s", fmt_double(c.alert.notify_t0_s));
  put("alert.cover_bytes", std::to_string(c.alert.cover_bytes));
  put("alert.intersection_countermeasure",
      fmt_bool(c.alert.intersection_countermeasure));
  put("alert.countermeasure_m", std::to_string(c.alert.countermeasure_m));
  put("alert.bitmap_flips", std::to_string(c.alert.bitmap_flips));
  put("alert.send_confirmation", fmt_bool(c.alert.send_confirmation));
  put("alert.confirm_timeout_s", fmt_double(c.alert.confirm_timeout_s));
  put("alert.max_retransmissions",
      std::to_string(c.alert.max_retransmissions));
  put("alert.use_nak", fmt_bool(c.alert.use_nak));
  put("alert.use_perimeter_fallback",
      fmt_bool(c.alert.use_perimeter_fallback));

  put("gpsr.max_hops", std::to_string(c.gpsr.max_hops));
  put("gpsr.use_perimeter", fmt_bool(c.gpsr.use_perimeter));
  put("gpsr.per_hop_processing_s", fmt_double(c.gpsr.per_hop_processing_s));

  put("alarm.dissemination_period_s",
      fmt_double(c.alarm.dissemination_period_s));
  put("alarm.max_hops", std::to_string(c.alarm.max_hops));
  put("alarm.per_hop_processing_s",
      fmt_double(c.alarm.per_hop_processing_s));

  put("ao2p.max_hops", std::to_string(c.ao2p.max_hops));
  put("ao2p.per_hop_processing_s", fmt_double(c.ao2p.per_hop_processing_s));
  put("ao2p.contention_phase_s", fmt_double(c.ao2p.contention_phase_s));
  put("ao2p.virtual_extension_m", fmt_double(c.ao2p.virtual_extension_m));

  put("zap.zone_side_m", fmt_double(c.zap.zone_side_m));
  put("zap.max_hops", std::to_string(c.zap.max_hops));
  put("zap.per_hop_processing_s", fmt_double(c.zap.per_hop_processing_s));
  put("zap.flood_rebroadcast", fmt_bool(c.zap.flood_rebroadcast));

  // Fault plan + ARQ: conditional on activity (see NOTE above). Once any
  // fault knob or the ARQ is on, every knob of both blocks is emitted —
  // partial dumps would make two different active configs collide.
  if (c.faults.any() || c.mac.arq.enabled) {
    put("faults.loss.iid", fmt_double(c.faults.loss.iid));
    put("faults.loss.gilbert", fmt_bool(c.faults.loss.gilbert));
    put("faults.loss.ge_p_good_bad", fmt_double(c.faults.loss.ge_p_good_bad));
    put("faults.loss.ge_p_bad_good", fmt_double(c.faults.loss.ge_p_bad_good));
    put("faults.loss.ge_loss_good", fmt_double(c.faults.loss.ge_loss_good));
    put("faults.loss.ge_loss_bad", fmt_double(c.faults.loss.ge_loss_bad));
    put("faults.churn.mttf_s", fmt_double(c.faults.churn.mttf_s));
    put("faults.churn.mttr_s", fmt_double(c.faults.churn.mttr_s));
    put("faults.outages", format_outages(c.faults.outages));
    put("mac.arq.enabled", fmt_bool(c.mac.arq.enabled));
    put("mac.arq.retry_limit", std::to_string(c.mac.arq.retry_limit));
    put("mac.arq.ack_timeout_s", fmt_double(c.mac.arq.ack_timeout_s));
    put("mac.arq.backoff_base_s", fmt_double(c.mac.arq.backoff_base_s));
    put("mac.arq.ack_bytes", std::to_string(c.mac.arq.ack_bytes));
  }

  put("residency_sample_period_s", fmt_double(c.residency_sample_period_s));
  put("run_attacks", fmt_bool(c.run_attacks));
  {
    std::string budgets;
    for (const std::size_t b : c.compromise_budgets) {
      if (!budgets.empty()) budgets += ',';
      budgets += std::to_string(b);
    }
    put("compromise_budgets", budgets);
  }
  put("seed", std::to_string(c.seed));

  std::sort(kv.begin(), kv.end());
  std::string out;
  for (const auto& [key, value] : kv) {
    out += key;
    out += '=';
    out += value;
    out += '\n';
  }
  return out;
}

std::string scenario_unit_key(const ScenarioConfig& config,
                              std::uint64_t replication) {
  std::string doc = canonical_scenario(config);
  doc += "replication=";
  doc += std::to_string(replication);
  doc += '\n';
  doc += "epoch=";
  doc += kSimulationEpoch;
  doc += '\n';
  const crypto::Sha1Digest digest = crypto::Sha1::hash(doc);
  static const char* kHex = "0123456789abcdef";
  std::string hex;
  hex.reserve(digest.size() * 2);
  for (const std::uint8_t byte : digest) {
    hex.push_back(kHex[byte >> 4]);
    hex.push_back(kHex[byte & 0xF]);
  }
  return hex;
}

bool apply_scenario_param(ScenarioConfig& config, std::string_view key,
                          std::string_view value, std::string* error) {
  const auto& table = setters();
  const auto it = table.find(key);
  if (it == table.end()) {
    if (error != nullptr) {
      *error = "unknown scenario parameter '" + std::string(key) + "'";
    }
    return false;
  }
  if (!it->second(config, value)) {
    if (error != nullptr) {
      *error = "bad value '" + std::string(value) + "' for scenario parameter '" +
               std::string(key) + "'";
    }
    return false;
  }
  return true;
}

std::vector<std::string> scenario_param_keys() {
  std::vector<std::string> keys;
  keys.reserve(setters().size());
  for (const auto& [key, setter] : setters()) keys.push_back(key);
  return keys;
}

}  // namespace alert::core
