#include "obs/manifest.hpp"

#include "alertsim_build_version.h"  // generated: ALERTSIM_BUILD_VERSION
#include "obs/series.hpp"
#include "util/atomic_file.hpp"

namespace alert::obs {

const char* build_version() { return ALERTSIM_BUILD_VERSION; }

void RunManifest::write_json(std::ostream& out) const {
  JsonWriter w(out);
  w.begin_object();
  w.field("schema", kManifestSchema);
  w.field("name", name);
  w.field("title", title);
  w.field("x_label", x_label);
  w.field("y_label", y_label);
  w.field("version", build_version());
  w.field("seed", seed);
  w.field("replications", replications);

  w.key("params");
  w.begin_object();
  for (const auto& [key, value] : params) w.field(key, value);
  w.end_object();

  w.key("trace_digests");
  w.begin_array();
  for (const std::uint64_t d : trace_digests) w.value(d);
  w.end_array();

  // Optional: present only when memory recording was requested, so default
  // manifests stay byte-identical across live/cached/resumed runs.
  if (peak_rss_bytes > 0) w.field("peak_rss_bytes", peak_rss_bytes);

  w.key("metrics");
  metrics.write_json(w);

  w.key("profile");
  profile.write_json(w);

  w.key("series");
  write_series_json(w, series);

  w.key("notes");
  w.begin_array();
  for (const std::string& n : notes) w.value(n);
  w.end_array();

  w.end_object();
  out << '\n';
}

bool RunManifest::write_file(const std::string& path) const {
  return util::write_file_atomic(
      path, [this](std::ostream& out) { write_json(out); });
}

}  // namespace alert::obs
