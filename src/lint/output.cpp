#include "lint/output.hpp"

#include "obs/json.hpp"

namespace alert::analysis_tools {

void write_text(std::ostream& out, const ScanReport& report) {
  for (const Finding& f : report.findings) {
    out << f.path << ':' << f.line << ':' << f.column << ": error: "
        << f.message << " [" << f.rule << "]\n";
  }
  out << report.files_scanned << " file(s) scanned, "
      << report.findings.size() << " finding(s), " << report.waived
      << " waived, " << report.stale_waivers() << " stale waiver(s)\n";
}

namespace {

void write_finding_fields(obs::JsonWriter& w, const Finding& f) {
  w.field("rule", f.rule);
  w.field("path", f.path);
  w.field("line", static_cast<std::uint64_t>(f.line));
  w.field("column", static_cast<std::uint64_t>(f.column));
  w.field("severity", "error");
  w.field("message", f.message);
}

}  // namespace

void write_json(std::ostream& out, const ScanReport& report) {
  obs::JsonWriter w(out);
  w.begin_object();
  w.field("tool", "alertsim-analyzer");
  w.field("files_scanned", static_cast<std::uint64_t>(report.files_scanned));
  w.field("waived", static_cast<std::uint64_t>(report.waived));
  w.field("stale_waivers",
          static_cast<std::uint64_t>(report.stale_waivers()));
  w.key("findings");
  w.begin_array();
  for (const Finding& f : report.findings) {
    w.begin_object();
    write_finding_fields(w, f);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << '\n';
}

void write_sarif(std::ostream& out, const ScanReport& report,
                 const std::vector<RuleInfo>& rules) {
  obs::JsonWriter w(out);
  w.begin_object();
  w.field("$schema",
          "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
          "Schemata/sarif-schema-2.1.0.json");
  w.field("version", "2.1.0");
  w.key("runs");
  w.begin_array();
  w.begin_object();

  w.key("tool");
  w.begin_object();
  w.key("driver");
  w.begin_object();
  w.field("name", "alertsim-analyzer");
  w.field("informationUri", "docs/VERIFICATION.md");
  w.key("rules");
  w.begin_array();
  for (const RuleInfo& r : rules) {
    w.begin_object();
    w.field("id", r.id);
    w.key("shortDescription");
    w.begin_object();
    w.field("text", r.description);
    w.end_object();
    w.key("defaultConfiguration");
    w.begin_object();
    w.field("level", "error");
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();  // driver
  w.end_object();  // tool

  w.key("results");
  w.begin_array();
  for (const Finding& f : report.findings) {
    w.begin_object();
    w.field("ruleId", f.rule);
    w.field("level", "error");
    w.key("message");
    w.begin_object();
    w.field("text", f.message);
    w.end_object();
    w.key("locations");
    w.begin_array();
    w.begin_object();
    w.key("physicalLocation");
    w.begin_object();
    w.key("artifactLocation");
    w.begin_object();
    w.field("uri", f.path);
    w.field("uriBaseId", "SRCROOT");
    w.end_object();
    w.key("region");
    w.begin_object();
    w.field("startLine", static_cast<std::uint64_t>(f.line));
    w.field("startColumn",
            static_cast<std::uint64_t>(f.column == 0 ? 1 : f.column));
    w.end_object();
    w.end_object();  // physicalLocation
    w.end_object();  // location
    w.end_array();
    w.end_object();  // result
  }
  w.end_array();
  w.end_object();  // run
  w.end_array();
  w.end_object();
  out << '\n';
}

}  // namespace alert::analysis_tools
