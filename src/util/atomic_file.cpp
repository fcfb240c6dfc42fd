#include "util/atomic_file.hpp"

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <system_error>

#include <unistd.h>

#include "util/logging.hpp"

namespace alert::util {

bool write_file_atomic(const std::string& path,
                       const std::function<void(std::ostream&)>& write) {
  namespace fs = std::filesystem;
  // Rename is atomic within one filesystem, so the temp file lives beside
  // the target. The pid and a process-wide counter keep concurrent writers
  // of the same path (threads or processes) off each other's temp files.
  // Deliberate process-wide state: the counter only names temp files and
  // never influences results.
  static std::atomic<std::uint64_t> sequence{0};  // alert-lint: allow(mutable-global)
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(sequence.fetch_add(1));
  std::error_code ec;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      ALERT_LOG_ERROR("cannot open '%s' for writing", tmp.c_str());
      return false;
    }
    write(out);
    if (!out.good()) {
      ALERT_LOG_ERROR("short write to '%s'", tmp.c_str());
      out.close();
      fs::remove(tmp, ec);
      return false;
    }
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    ALERT_LOG_ERROR("rename '%s' -> '%s' failed: %s", tmp.c_str(),
                    path.c_str(), ec.message().c_str());
    fs::remove(tmp, ec);
    return false;
  }
  return true;
}

}  // namespace alert::util
