#include "core/scenario_codec.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <concepts>
#include <iterator>

#include "crypto/sha1.hpp"
#include "util/parse.hpp"

namespace alert::core {

namespace {

// --- value codecs ------------------------------------------------------------
// render() appends a field's canonical text; parse() reads it back, so a
// dump line applied through apply_scenario_param() restores the field
// exactly. A failed parse leaves the field untouched.

void render(double v, std::string& out) {
  // Byte-identical to printf's "%.17g" (full round-trip precision).
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v,
                                std::chars_format::general, 17)
                      .ptr);
}

template <std::integral T>
void render(T v, std::string& out) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void render(bool v, std::string& out) { out += v ? "true" : "false"; }
void render(MobilityKind v, std::string& out) { out += mobility_name(v); }
void render(ProtocolKind v, std::string& out) { out += protocol_name(v); }

void render(const std::optional<double>& v, std::string& out) {
  if (v) {
    render(*v, out);
  } else {
    out += "none";
  }
}

/// Outage list: "x:y:radius:start:end" discs joined by ';' (empty = none).
void render(const std::vector<faults::Outage>& outages, std::string& out) {
  for (std::size_t i = 0; i < outages.size(); ++i) {
    const faults::Outage& o = outages[i];
    if (i > 0) out += ';';
    for (const double v : {o.center.x, o.center.y, o.radius_m, o.start_s}) {
      render(v, out);
      out += ':';
    }
    render(o.end_s, out);
  }
}

/// Compromise budgets: joined by ',' (empty = none).
void render(const std::vector<std::size_t>& budgets, std::string& out) {
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    if (i > 0) out += ',';
    render(budgets[i], out);
  }
}

template <typename T>
  requires(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>)
bool parse(std::string_view s, T* out) {
  return util::parse_number(s, out);
}

bool parse(std::string_view s, bool* out) { return util::parse_bool(s, out); }

bool parse(std::string_view s, MobilityKind* out) {
  const auto kind = parse_mobility_kind(s);
  if (kind) *out = *kind;
  return kind.has_value();
}

bool parse(std::string_view s, ProtocolKind* out) {
  const auto kind = parse_protocol_kind(s);
  if (kind) *out = *kind;
  return kind.has_value();
}

bool parse(std::string_view s, std::optional<double>* out) {
  double v = 0.0;
  if (s == "none") {
    out->reset();
  } else if (parse(s, &v)) {
    *out = v;
  } else {
    return false;
  }
  return true;
}

/// Split `s` on `sep` and parse every piece (empty `s` = empty list; an
/// empty piece, as a trailing `sep` leaves, fails). All or nothing.
template <typename T, typename ParseItem>
bool parse_list(std::string_view s, char sep, std::vector<T>* out,
                ParseItem parse_item) {
  std::vector<T> items;
  while (!s.empty()) {
    const std::size_t cut = s.find(sep);
    T item{};
    if (!parse_item(s.substr(0, cut), &item)) return false;
    items.push_back(item);
    if (cut == std::string_view::npos) break;
    s.remove_prefix(cut + 1);
    if (s.empty()) return false;
  }
  *out = std::move(items);
  return true;
}

bool parse(std::string_view s, std::vector<faults::Outage>* out) {
  return parse_list(s, ';', out, [](std::string_view disc,
                                    faults::Outage* o) {
    double* const fields[] = {&o->center.x, &o->center.y, &o->radius_m,
                              &o->start_s, &o->end_s};
    for (double* field : fields) {
      // Exactly five fields: the last ends the disc, the others a ':'.
      const std::size_t colon = disc.find(':');
      if ((colon == std::string_view::npos) != (field == fields[4])) {
        return false;
      }
      if (!parse(disc.substr(0, colon), field)) return false;
      if (colon != std::string_view::npos) disc.remove_prefix(colon + 1);
    }
    return true;
  });
}

bool parse(std::string_view s, std::vector<std::size_t>* out) {
  return parse_list(s, ',', out, [](std::string_view item, std::size_t* v) {
    return parse(item, v);
  });
}

// --- the knob table ----------------------------------------------------------

/// One canonical scenario key: renders its field into the dump and parses
/// it back from a string.
struct Knob {
  std::string_view key;
  void (*render)(const ScenarioConfig&, std::string&);
  bool (*parse)(std::string_view, ScenarioConfig&);
};

/// The row for the field `Get` selects (a captureless `[](auto& c) ->
/// auto& { return c.<field>; }`, written by ALERT_KNOB below); the field's
/// type picks the codec.
template <typename Get>
constexpr Knob knob(std::string_view key, Get /*field*/) {
  return {key,
          [](const ScenarioConfig& c, std::string& out) {
            render(Get{}(c), out);
          },
          [](std::string_view v, ScenarioConfig& c) {
            return parse(v, &Get{}(c));
          }};
}

// A row keyed by its field's path in ScenarioConfig, or by `key` where the
// two differ.
#define ALERT_KNOB_AS(key, path) \
  knob(key, [](auto& c) -> auto& { return c.path; })
#define ALERT_KNOB(path) ALERT_KNOB_AS(#path, path)

// Every semantic ScenarioConfig field has exactly one row here, in sorted
// key order (the dump's order; a static_assert below checks it). A new
// field gets a row, and kSimulationEpoch is bumped if its default changes
// what existing configs compute. Observability options (ScenarioConfig::obs)
// have none: they never change a replication's results.
constexpr Knob kKnobs[] = {
    ALERT_KNOB(alarm.dissemination_period_s),
    ALERT_KNOB(alarm.max_hops),
    ALERT_KNOB(alarm.per_hop_processing_s),
    ALERT_KNOB(alert.bitmap_flips),
    ALERT_KNOB(alert.confirm_timeout_s),
    ALERT_KNOB(alert.countermeasure_m),
    ALERT_KNOB(alert.cover_bytes),
    ALERT_KNOB(alert.intersection_countermeasure),
    ALERT_KNOB(alert.k_anonymity),
    ALERT_KNOB(alert.max_hops),
    ALERT_KNOB(alert.max_retransmissions),
    ALERT_KNOB(alert.notify_and_go),
    ALERT_KNOB(alert.notify_t0_s),
    ALERT_KNOB(alert.notify_t_s),
    ALERT_KNOB(alert.partitions_h),
    ALERT_KNOB(alert.per_hop_processing_s),
    ALERT_KNOB(alert.send_confirmation),
    ALERT_KNOB(alert.use_nak),
    ALERT_KNOB(alert.use_perimeter_fallback),
    ALERT_KNOB(ao2p.contention_phase_s),
    ALERT_KNOB(ao2p.max_hops),
    ALERT_KNOB(ao2p.per_hop_processing_s),
    ALERT_KNOB(ao2p.virtual_extension_m),
    ALERT_KNOB(compromise_budgets),
    ALERT_KNOB_AS("crypto.hash_s", crypto_cost.hash_s),
    ALERT_KNOB_AS("crypto.public_decrypt_s", crypto_cost.public_decrypt_s),
    ALERT_KNOB_AS("crypto.public_encrypt_s", crypto_cost.public_encrypt_s),
    ALERT_KNOB_AS("crypto.sign_s", crypto_cost.sign_s),
    ALERT_KNOB_AS("crypto.symmetric_decrypt_s",
                  crypto_cost.symmetric_decrypt_s),
    ALERT_KNOB_AS("crypto.symmetric_encrypt_s",
                  crypto_cost.symmetric_encrypt_s),
    ALERT_KNOB_AS("crypto.verify_s", crypto_cost.verify_s),
    ALERT_KNOB(destination_update),
    ALERT_KNOB(duration_s),
    ALERT_KNOB(faults.churn.mttf_s),
    ALERT_KNOB(faults.churn.mttr_s),
    ALERT_KNOB(faults.loss.ge_loss_bad),
    ALERT_KNOB(faults.loss.ge_loss_good),
    ALERT_KNOB(faults.loss.ge_p_bad_good),
    ALERT_KNOB(faults.loss.ge_p_good_bad),
    ALERT_KNOB(faults.loss.gilbert),
    ALERT_KNOB(faults.loss.iid),
    ALERT_KNOB(faults.outages),
    ALERT_KNOB(field.max.x),
    ALERT_KNOB(field.max.y),
    ALERT_KNOB(field.min.x),
    ALERT_KNOB(field.min.y),
    ALERT_KNOB(flow_count),
    ALERT_KNOB(gpsr.max_hops),
    ALERT_KNOB(gpsr.per_hop_processing_s),
    ALERT_KNOB(gpsr.use_perimeter),
    ALERT_KNOB(group_count),
    ALERT_KNOB(group_range_m),
    ALERT_KNOB(hello_period_s),
    ALERT_KNOB(location.replication_period_s),
    ALERT_KNOB(location.server_count),
    ALERT_KNOB(location.update_period_s),
    ALERT_KNOB(mac.arq.ack_bytes),
    ALERT_KNOB(mac.arq.ack_timeout_s),
    ALERT_KNOB(mac.arq.backoff_base_s),
    ALERT_KNOB(mac.arq.enabled),
    ALERT_KNOB(mac.arq.retry_limit),
    ALERT_KNOB(mac.bandwidth_bps),
    ALERT_KNOB(mac.contention_per_neighbor),
    ALERT_KNOB(mac.difs_s),
    ALERT_KNOB(mac.propagation_mps),
    ALERT_KNOB(mac.slot_s),
    ALERT_KNOB(max_pair_distance_m),
    ALERT_KNOB(min_pair_distance_m),
    ALERT_KNOB(mobility),
    ALERT_KNOB(node_count),
    ALERT_KNOB(packet_interval_s),
    ALERT_KNOB(packets_per_flow),
    ALERT_KNOB(payload_bytes),
    ALERT_KNOB(protocol),
    ALERT_KNOB(pseudonym_period_s),
    ALERT_KNOB(radio_range_m),
    ALERT_KNOB(residency_sample_period_s),
    ALERT_KNOB(run_attacks),
    ALERT_KNOB(seed),
    ALERT_KNOB(speed_mps),
    ALERT_KNOB(traffic_start_s),
    ALERT_KNOB(zap.flood_rebroadcast),
    ALERT_KNOB(zap.max_hops),
    ALERT_KNOB(zap.per_hop_processing_s),
    ALERT_KNOB(zap.zone_side_m),
};

#undef ALERT_KNOB
#undef ALERT_KNOB_AS

constexpr bool key_less(const Knob& a, const Knob& b) { return a.key < b.key; }
static_assert(std::is_sorted(std::begin(kKnobs), std::end(kKnobs), key_less),
              "kKnobs must stay in sorted key order: it is the dump's order "
              "and apply_scenario_param binary-searches it");

/// The fault plan and link-layer ARQ are inert while off (no RNG draw,
/// event or audit word changes), so their rows are left out of the dump
/// then: default dumps and cache keys stay those from before the features
/// existed, and warm caches stay warm. Once anything in either block is on,
/// every row of both is emitted — partial dumps would let two different
/// active configs collide.
bool fault_row(std::string_view key) {
  return key.starts_with("faults.") || key.starts_with("mac.arq.");
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
  const bool faults_on = c.faults.any() || c.mac.arq.enabled;
  std::string out;
  out.reserve(4096);
  for (const Knob& k : kKnobs) {
    if (!faults_on && fault_row(k.key)) continue;
    out += k.key;
    out += '=';
    k.render(c, out);
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
  if (key == "partitions_h") key = "alert.partitions_h";  // the paper's name
  const Knob* it = std::lower_bound(
      std::begin(kKnobs), std::end(kKnobs), key,
      [](const Knob& k, std::string_view want) { return k.key < want; });
  if (it == std::end(kKnobs) || it->key != key) {
    if (error != nullptr) {
      *error = "unknown scenario parameter '" + std::string(key) + "'";
    }
    return false;
  }
  if (!it->parse(value, config)) {
    if (error != nullptr) {
      *error = "bad value '" + std::string(value) + "' for scenario parameter '" +
               std::string(key) + "'";
    }
    return false;
  }
  return true;
}

}  // namespace alert::core
