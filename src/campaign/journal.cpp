#include "campaign/journal.hpp"

#include <filesystem>
#include <sstream>
#include <system_error>
#include <utility>
#include <vector>

#include "util/logging.hpp"

namespace alert::campaign {

namespace {

constexpr const char* kJournalHeader = "alertsim-campaign-journal/1";

/// Split one record line into whitespace-separated tokens.
std::vector<std::string> tokens_of(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> out;
  std::string token;
  while (in >> token) out.push_back(std::move(token));
  return out;
}

}  // namespace

Journal::Journal(const std::string& dir, const std::string& name) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    ALERT_LOG_ERROR("journal: cannot create %s: %s", dir.c_str(),
                    ec.message().c_str());
  }
  path_ = (fs::path(dir) / (name + ".journal")).string();

  bool existed = false;
  {
    std::ifstream in(path_);
    std::string line;
    bool first = true;
    while (std::getline(in, line)) {
      existed = true;
      if (first) {
        first = false;
        continue;  // header line
      }
      // Only complete, well-formed records count — a torn tail line from a
      // killed process is dropped here and rewritten when the unit reruns.
      // (A torn key can also surface as a complete-looking line with a
      // truncated hex key; it matches no real unit, so it is inert.)
      const std::vector<std::string> parts = tokens_of(line);
      if (parts.size() == 2 && parts[0] == "done") {
        done_.insert(parts[1]);
      }
    }
  }
  out_.open(path_, std::ios::app);
  if (!out_) {
    ALERT_LOG_ERROR("journal: cannot open %s for append", path_.c_str());
    write_error_logged_ = true;
    ++write_errors_;
    return;
  }
  if (!existed) {
    std::lock_guard lk(mutex_);
    append_line(std::string(kJournalHeader) + ' ' + name);
  }
}

bool Journal::contains(const std::string& key) const {
  std::lock_guard lk(mutex_);
  return done_.contains(key);
}

std::size_t Journal::done_count() const {
  std::lock_guard lk(mutex_);
  return done_.size();
}

void Journal::append_line(const std::string& line) {
  if (!out_.is_open()) {
    ++write_errors_;
    return;
  }
  // One buffered write + flush per line: the stream buffer is empty between
  // records, so each record reaches the kernel as one write.
  out_ << line << '\n';
  out_.flush();
  if (!out_.good()) {
    ++write_errors_;
    if (!write_error_logged_) {
      // Log once, not per record: a full disk would otherwise flood stderr
      // with one error per completed unit.
      write_error_logged_ = true;
      ALERT_LOG_ERROR(
          "journal: write to %s failed — resume records from here on are "
          "lost (counted in campaign.journal.write_errors)",
          path_.c_str());
    }
    out_.clear();  // keep trying: a transient failure shouldn't wedge it
  }
}

void Journal::mark_done(const std::string& key) {
  std::lock_guard lk(mutex_);
  if (!done_.insert(key).second) return;
  append_line("done " + key);
}

std::size_t Journal::write_errors() const {
  std::lock_guard lk(mutex_);
  return write_errors_;
}

}  // namespace alert::campaign
