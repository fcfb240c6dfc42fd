#pragma once

/// \file cache.hpp
/// Content-addressed on-disk result cache. One entry stores one
/// replication's RunResult (result_codec.hpp), keyed by
/// core::scenario_unit_key — the SHA-1 of (canonical scenario, replication
/// index, simulation epoch). Layout, sharded on the first key byte to keep
/// directories small:
///
///   <root>/objects/<key[0:2]>/<key>.json
///
/// Writes go to a unique temp file in the final directory and are renamed
/// into place, so concurrent writers and killed processes can never leave a
/// torn entry under the final name; a corrupt or unparsable entry is
/// treated as a miss and overwritten by the next store. The cache is the
/// authoritative record for crash-safe resume (the per-campaign journal is
/// bookkeeping on top; see journal.hpp).

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "core/experiment.hpp"

namespace alert::campaign {

/// $ALERTSIM_CACHE_DIR when set and non-empty, else ".alertsim-cache".
[[nodiscard]] std::string default_cache_root();

class ResultCache {
 public:
  explicit ResultCache(std::string root);

  [[nodiscard]] const std::string& root() const { return root_; }
  [[nodiscard]] std::string object_path(const std::string& key) const;

  /// Load the entry for `key`; nullopt on miss *or* on a corrupt entry.
  [[nodiscard]] std::optional<core::RunResult> load(
      const std::string& key) const;

  /// Atomically store (temp file + rename). Returns false and logs on I/O
  /// failure — the campaign still completes, it just cannot resume free.
  /// Failures are also counted (store_errors()) so a sweep silently degraded
  /// to cache-less execution is visible in the campaign summary
  /// (`campaign.cache.store_errors`).
  bool store(const std::string& key, const core::RunResult& run) const;

  /// store() calls that failed over this cache's lifetime (thread-safe).
  [[nodiscard]] std::size_t store_errors() const {
    return store_errors_.load();
  }

 private:
  std::string root_;
  /// mutable: store() is logically const (the cache is write-through state
  /// on disk); the counter is observability, not cache content.
  mutable std::atomic<std::size_t> store_errors_{0};
};

}  // namespace alert::campaign
