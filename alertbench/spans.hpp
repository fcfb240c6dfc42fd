#pragma once

/// \file spans.hpp
/// The traced pass's spans: one record per call the benchmark makes into a
/// layer (name, start, end, parent), kept in memory and written once at
/// exit. Unit-level spans carry the unit's cache key as their id, so every
/// span of one (scenario, replication) unit can be grouped.
///
/// Also the two pieces of arithmetic the per-layer report rests on: a
/// span's self time, and the percentile rule.

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace alertbench {

inline constexpr std::int64_t kNoParent = -1;

struct Span {
  std::string name;
  std::string id;  ///< unit key for unit-level spans, campaign name above
  std::int64_t parent = kNoParent;  ///< index into the span list
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  /// `unit` spans only: when the unit was submitted to the pool, so
  /// start_ns - queued_ns is its wait for a worker.
  std::uint64_t queued_ns = 0;

  [[nodiscard]] std::uint64_t duration_ns() const { return end_ns - start_ns; }
};

/// Thread-safe in-memory span list. Indices returned by open() are stable.
class SpanRecorder {
 public:
  std::size_t open(std::string name, std::int64_t parent, std::string id,
                   std::uint64_t queued_ns = 0);
  void close(std::size_t index);

  /// The spans recorded so far (call after every worker has joined).
  [[nodiscard]] std::vector<Span> spans() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string name, std::int64_t parent,
             std::string id, std::uint64_t queued_ns = 0)
      : recorder_(recorder),
        index_(recorder.open(std::move(name), parent, std::move(id),
                             queued_ns)) {}
  ~ScopedSpan() { recorder_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::int64_t index() const {
    return static_cast<std::int64_t>(index_);
  }

 private:
  SpanRecorder& recorder_;
  std::size_t index_;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers. Children may overlap
/// (pool workers run sibling units concurrently); overlapping time is
/// subtracted once.
[[nodiscard]] std::vector<std::uint64_t> self_times(
    const std::vector<Span>& spans);

/// Fewest samples for which `percent` is reported: the median needs one;
/// any higher percentile needs at least ten samples beyond it (so p90
/// needs 100).
[[nodiscard]] std::size_t min_samples(unsigned percent);

/// Nearest-rank percentile of `samples`, or nullopt below min_samples().
[[nodiscard]] std::optional<std::uint64_t> percentile(
    std::vector<std::uint64_t> samples, unsigned percent);

/// Write spans (times relative to `origin_ns`) with their self times as
/// one JSON document.
void write_spans_json(std::ostream& out, const std::vector<Span>& spans,
                      std::uint64_t origin_ns);

}  // namespace alertbench
