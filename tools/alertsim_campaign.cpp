// alertsim-campaign: run scenario-sweep campaigns through the campaign
// engine — one spec (--spec FILE), a directory of specs (--spec DIR), one
// registry figure (--figure NAME) or the whole built-in registry of paper
// figures (--all) in a single process. Every campaign writes one
// "alertsim-run-manifest/1" document, --out-dir/<name>.json (default
// campaign-out/). Completed (scenario, replication) units are served from
// the content-addressed result cache, so a second invocation — or a resume
// after a crash — skips every computed point and reproduces byte-identical
// manifests.
//
// Usage:
//   alertsim-campaign --list
//   alertsim-campaign --all [--reps N] [--threads N]
//   alertsim-campaign --figure fig14a_latency_vs_nodes
//   alertsim-campaign --spec specs/my_sweep.json --out-dir results
//   Cache control: --cache-dir DIR | --no-cache

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "campaign/engine.hpp"
#include "campaign/figures.hpp"
#include "campaign/spec.hpp"
#include "core/experiment.hpp"
#include "obs/series.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"

namespace {

namespace fs = std::filesystem;
using namespace alert;

int usage(const char* msg) {
  if (msg != nullptr) std::fprintf(stderr, "alertsim-campaign: %s\n", msg);
  std::fprintf(
      stderr,
      "usage: alertsim-campaign (--all | --figure NAME | --spec PATH | "
      "--list)\n"
      "       [--reps N] [--threads N] [--out-dir DIR] [--trace-out FILE]\n"
      "       [--cache-dir DIR] [--no-cache] [--peak-rss]\n"
      "       [--log-level L]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  const auto args = util::CliArgs::parse(argc, argv, &error);
  if (!args) return usage(error.c_str());
  const util::CommonFlags flags = util::CommonFlags::from(*args);

  const bool all = args->get("all", false);
  const bool list = args->get("list", false);
  const std::string figure = args->get("figure", std::string());
  const std::string spec_path = args->get("spec", std::string());
  const std::string out_dir = args->get("out-dir", std::string("campaign-out"));

  campaign::CampaignOptions base_options;
  base_options.cache_dir = args->get("cache-dir", std::string());
  base_options.use_cache = !args->get("no-cache", false);
  base_options.record_peak_rss = args->get("peak-rss", false);

  // CommonFlags consumes --metrics-out, but one invocation may write many
  // manifests: refuse it rather than silently writing none.
  if (args->has("metrics-out")) {
    return usage(
        "--metrics-out is not a campaign flag: pass --out-dir DIR, and the "
        "manifest is written to DIR/<name>.json");
  }
  if (const auto bad = args->rejection()) return usage(bad->c_str());
  if (const auto level = util::parse_log_level(flags.log_level)) {
    util::set_log_level(*level);
  } else {
    return usage(("bad --log-level=" + flags.log_level).c_str());
  }
  if (flags.reps < 0 ||
      static_cast<std::uint64_t>(flags.reps) > core::kMaxReplications) {
    const std::string limit = std::to_string(core::kMaxReplications);
    return usage(("--reps must be in 0.." + limit).c_str());
  }
  if (flags.threads < 0) return usage("--threads must be >= 0");
  base_options.reps = static_cast<std::size_t>(flags.reps);
  base_options.threads = static_cast<std::size_t>(flags.threads);

  if (list) {
    for (const campaign::FigureDef& def : campaign::figure_registry()) {
      const campaign::CampaignSpec spec = def.build();
      obs::print_text_line(spec.name + "  (" + spec.banner + ")");
    }
    return 0;
  }

  // --- collect the campaigns to run ---------------------------------------
  std::vector<campaign::CampaignSpec> specs;
  if (all) {
    for (const campaign::FigureDef& def : campaign::figure_registry()) {
      specs.push_back(def.build());
    }
  }
  if (!figure.empty()) {
    const campaign::FigureDef* def = campaign::find_figure(figure);
    if (def == nullptr) {
      return usage(("unknown figure '" + figure + "' (see --list)").c_str());
    }
    specs.push_back(def->build());
  }
  if (!spec_path.empty()) {
    std::vector<std::string> files;
    std::error_code ec;
    if (fs::is_directory(spec_path, ec)) {
      for (const auto& entry : fs::directory_iterator(spec_path, ec)) {
        if (entry.path().extension() == ".json") {
          files.push_back(entry.path().string());
        }
      }
      std::sort(files.begin(), files.end());
      if (files.empty()) {
        return usage(("no .json specs in '" + spec_path + "'").c_str());
      }
    } else {
      files.push_back(spec_path);
    }
    for (const std::string& file : files) {
      auto spec = campaign::load_spec_file(file, &error);
      if (!spec) {  // the loader's message already names the file
        std::fprintf(stderr, "alertsim-campaign: %s\n", error.c_str());
        return 2;
      }
      specs.push_back(std::move(*spec));
    }
  }
  if (specs.empty()) return usage("nothing to run");

  {
    std::error_code ec;
    fs::create_directories(out_dir, ec);
    if (ec) {
      std::fprintf(stderr, "alertsim-campaign: cannot create '%s': %s\n",
                   out_dir.c_str(), ec.message().c_str());
      return 1;
    }
  }

  // --- run ----------------------------------------------------------------
  int exit_code = 0;
  std::size_t total_units = 0;
  std::size_t total_cached = 0;
  std::size_t total_executed = 0;
  std::size_t total_store_errors = 0;
  std::size_t total_journal_errors = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    campaign::CampaignOptions options = base_options;
    options.metrics_out =
        (fs::path(out_dir) / (specs[i].name + ".json")).string();
    // One trace file holds one replication's events; attach the sink to the
    // first campaign only instead of overwriting it per figure.
    if (i == 0) options.trace_out = flags.trace_out;
    const campaign::CampaignOutcome outcome =
        campaign::run_campaign(specs[i], options);
    if (outcome.exit_code != 0) exit_code = outcome.exit_code;
    total_units += outcome.units_total;
    total_cached += outcome.cache_hits;
    total_executed += outcome.executed;
    total_store_errors += outcome.cache_store_errors;
    total_journal_errors += outcome.journal_write_errors;
    obs::print_text_line("");
  }
  std::string summary =
      "campaign summary: " + std::to_string(specs.size()) + " figures, " +
      std::to_string(total_units) + " units, " +
      std::to_string(total_cached) + " cached, " +
      std::to_string(total_executed) + " executed";
  // Degraded persistence is never silent: completed units whose results or
  // journal lines missed the disk will re-execute on the next resume.
  if (total_store_errors > 0 || total_journal_errors > 0) {
    summary += ", DEGRADED (" + std::to_string(total_store_errors) +
               " cache store errors, " + std::to_string(total_journal_errors) +
               " journal write errors)";
  }
  obs::print_text_line(summary);
  return exit_code;
}
