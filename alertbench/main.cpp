// alertsim-bench: run one pass of a benchmark workload in this process and
// write what it measured as JSON. run.py starts one process per pass, so
// each pass's peak RSS is its own; see README.md for the workloads and
// metrics.
//
// Usage:
//   alertsim-bench --workload paper-cold|paper-warm|arena-10k --seed N
//                  --cache-root DIR --out-dir DIR --tmp-dir DIR
//                  --result FILE [--trace --spans FILE]
//
// Exit status: 0 when the result was written (correctness is judged by the
// caller from its contents), 1 when it could not be written, 2 on usage.

#include <cstdio>
#include <fstream>
#include <string>

#include "pass.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"

namespace {

int usage(const std::string& msg) {
  std::fprintf(stderr, "alertsim-bench: %s\n", msg.c_str());
  std::fprintf(stderr,
               "usage: alertsim-bench --workload NAME --seed N --cache-root "
               "DIR --out-dir DIR\n"
               "       --tmp-dir DIR --result FILE [--trace --spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace alertbench;
  std::string error;
  const auto args = alert::util::CliArgs::parse(argc, argv, &error);
  if (!args) return usage(error);

  PassOptions options;
  const std::string workload = args->get("workload", std::string());
  const std::int64_t seed = args->get("seed", std::int64_t{-1});
  options.cache_root = args->get("cache-root", std::string());
  options.out_dir = args->get("out-dir", std::string());
  options.tmp_dir = args->get("tmp-dir", std::string());
  options.traced = args->get("trace", false);
  const std::string result_path = args->get("result", std::string());
  const std::string spans_path = args->get("spans", std::string());
  for (const std::string& key : args->unused()) {
    return usage("unknown flag --" + key);
  }

  const auto parsed = parse_workload(workload);
  if (!parsed) return usage("unknown workload '" + workload + "'");
  options.workload = *parsed;
  if (seed < 0) return usage("--seed must be a non-negative integer");
  options.seed = static_cast<std::uint64_t>(seed);
  if (options.cache_root.empty() || options.out_dir.empty() ||
      options.tmp_dir.empty() || result_path.empty()) {
    return usage("--cache-root, --out-dir, --tmp-dir and --result are required");
  }
  if (options.traced == spans_path.empty()) {
    return usage("--trace and --spans go together");
  }

  // The campaign CLI's default: no log lines, tables to stdout.
  alert::util::set_log_level(alert::util::LogLevel::None);
  const PassResult result = run_pass(options);

  std::ofstream out(result_path, std::ios::binary | std::ios::trunc);
  write_pass_json(out, result);
  if (!out.good()) {
    std::fprintf(stderr, "alertsim-bench: cannot write %s\n",
                 result_path.c_str());
    return 1;
  }
  if (options.traced) {
    std::ofstream spans(spans_path, std::ios::binary | std::ios::trunc);
    write_spans_json(spans, result.spans, result.origin_ns);
    if (!spans.good()) {
      std::fprintf(stderr, "alertsim-bench: cannot write %s\n",
                   spans_path.c_str());
      return 1;
    }
  }
  return 0;
}
