#pragma once

/// \file journal.hpp
/// Append-only journal of completed work units for one campaign. The
/// result cache (cache.hpp) is the authoritative resume record — a unit is
/// "done" iff its cache entry exists — so the journal is deliberately
/// simple bookkeeping: one flushed line per completed unit lets an
/// interrupted run be audited (how far did it get?) and lets the smoke
/// tests assert that a resume skipped completed units. A torn final line
/// from a killed process is ignored on reload.
///
/// One process writes a journal: the campaign engine's pool threads call
/// mark_done concurrently, and the mutex serialises their appends. Each
/// line is flushed as it is written, so a kill loses at most the line in
/// flight.
///
/// Format (text, one record per line):
///   alertsim-campaign-journal/1 <campaign name>
///   done <64-hex-or-40-hex unit key>
///
/// Write failures (disk full, revoked directory) are detected after every
/// flush, logged once, and counted (write_errors()) — the engine surfaces
/// the count as the `campaign.journal.write_errors` obs counter instead of
/// silently losing resume records.

#include <cstddef>
#include <fstream>
#include <mutex>
#include <set>
#include <string>

namespace alert::campaign {

class Journal {
 public:
  /// Opens (creating directories and the file as needed)
  /// `<dir>/<name>.journal` and loads the units a previous run completed.
  /// mark_done is safe from pool workers.
  Journal(const std::string& dir, const std::string& name);

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] bool contains(const std::string& key) const;
  [[nodiscard]] std::size_t done_count() const;

  /// Record one completed unit (idempotent) and flush the line.
  void mark_done(const std::string& key);

  /// Lines that failed to reach the file (logged once, then counted).
  [[nodiscard]] std::size_t write_errors() const;

 private:
  void append_line(const std::string& line);  ///< callers hold mutex_

  std::string path_;
  mutable std::mutex mutex_;
  std::set<std::string> done_;
  std::size_t write_errors_ = 0;
  bool write_error_logged_ = false;
  std::ofstream out_;
};

}  // namespace alert::campaign
