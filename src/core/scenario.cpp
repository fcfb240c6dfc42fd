#include "core/scenario.hpp"

namespace alert::core {

const char* protocol_name(ProtocolKind k) {
  switch (k) {
    case ProtocolKind::Alert: return "ALERT";
    case ProtocolKind::Gpsr: return "GPSR";
    case ProtocolKind::Alarm: return "ALARM";
    case ProtocolKind::Ao2p: return "AO2P";
    case ProtocolKind::Zap: return "ZAP";
  }
  return "?";
}

net::NetworkConfig ScenarioConfig::network_config() const {
  net::NetworkConfig cfg;
  cfg.field = field;
  cfg.node_count = node_count;
  cfg.radio_range_m = radio_range_m;
  cfg.mac = mac;
  cfg.hello_period_s = hello_period_s;
  cfg.neighbor_max_age_s = 2.5 * hello_period_s;
  cfg.pseudonym_period_s = pseudonym_period_s;
  cfg.crypto_cost = crypto_cost;
  cfg.faults = faults;
  return cfg;
}

}  // namespace alert::core
