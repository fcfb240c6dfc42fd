#include "campaign/cache.hpp"

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <utility>

#include <unistd.h>

#include "campaign/result_codec.hpp"
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
  // Unique temp name in the final directory (rename is atomic within one
  // filesystem); a process-wide counter disambiguates concurrent writers of
  // the same key inside this process.
  // Deliberate process-wide state: the counter only names temp files and
  // never influences results.
  static std::atomic<std::uint64_t> sequence{0};  // alert-lint: allow(mutable-global)
  std::ostringstream tmp_name;
  tmp_name << final_path.filename().string() << ".tmp."
           << static_cast<unsigned long>(::getpid()) << "."
           << sequence.fetch_add(1);
  const fs::path tmp_path = final_path.parent_path() / tmp_name.str();
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      ALERT_LOG_ERROR("cache: cannot open %s for writing",
                      tmp_path.string().c_str());
      store_errors_.fetch_add(1);
      return false;
    }
    write_run_result_json(out, run);
    if (!out.good()) {
      ALERT_LOG_ERROR("cache: short write to %s", tmp_path.string().c_str());
      out.close();
      fs::remove(tmp_path, ec);
      store_errors_.fetch_add(1);
      return false;
    }
  }
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    ALERT_LOG_ERROR("cache: rename %s -> %s failed: %s",
                    tmp_path.string().c_str(), final_path.string().c_str(),
                    ec.message().c_str());
    fs::remove(tmp_path, ec);
    store_errors_.fetch_add(1);
    return false;
  }
  return true;
}

}  // namespace alert::campaign
