#include "campaign/cache.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <system_error>
#include <utility>

#include "campaign/result_codec.hpp"
#include "util/atomic_file.hpp"
#include "util/logging.hpp"

namespace alert::campaign {

namespace fs = std::filesystem;

std::string default_cache_root() {
  if (const char* env = std::getenv("ALERTSIM_CACHE_DIR");
      env != nullptr && env[0] != '\0') {
    return env;
  }
  return ".alertsim-cache";
}

ResultCache::ResultCache(std::string root) : root_(std::move(root)) {}

std::string ResultCache::object_path(const std::string& key) const {
  const std::string shard = key.size() >= 2 ? key.substr(0, 2) : key;
  return (fs::path(root_) / "objects" / shard / (key + ".json")).string();
}

std::optional<core::RunResult> ResultCache::load(
    const std::string& key) const {
  std::ifstream in(object_path(key), std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string error;
  auto run = parse_run_result(buffer.str(), &error);
  if (!run) {
    ALERT_LOG_WARN("cache: corrupt entry %s (%s), treating as miss",
                   key.c_str(), error.c_str());
  }
  return run;
}

bool ResultCache::store(const std::string& key,
                        const core::RunResult& run) const {
  const fs::path final_path(object_path(key));
  std::error_code ec;
  fs::create_directories(final_path.parent_path(), ec);
  if (ec) {
    ALERT_LOG_ERROR("cache: cannot create %s: %s",
                    final_path.parent_path().string().c_str(),
                    ec.message().c_str());
    store_errors_.fetch_add(1);
    return false;
  }
  if (!util::write_file_atomic(final_path.string(), [&run](std::ostream& out) {
        write_run_result_json(out, run);
      })) {
    store_errors_.fetch_add(1);
    return false;
  }
  return true;
}

}  // namespace alert::campaign
