#include "spans.hpp"

#include <algorithm>
#include <utility>

#include "obs/json.hpp"
#include "obs/profile.hpp"

namespace alertbench {

std::size_t SpanRecorder::open(std::string name, std::int64_t parent,
                               std::string id, std::uint64_t queued_ns) {
  Span span;
  span.name = std::move(name);
  span.id = std::move(id);
  span.parent = parent;
  span.queued_ns = queued_ns;
  span.start_ns = alert::obs::monotonic_ns();
  std::lock_guard lock(mutex_);
  spans_.push_back(std::move(span));
  return spans_.size() - 1;
}

void SpanRecorder::close(std::size_t index) {
  const std::uint64_t now = alert::obs::monotonic_ns();
  std::lock_guard lock(mutex_);
  spans_[index].end_ns = now;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

std::vector<std::uint64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent != kNoParent) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_ns, span.end_ns);
    }
  }
  std::vector<std::uint64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint64_t lo = spans[i].start_ns;
    const std::uint64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::uint64_t covered = 0;
    std::uint64_t reach = lo;  // covered time is accounted up to here
    for (const auto& [start, end] : kids) {
      const std::uint64_t from = std::max(start, reach);
      const std::uint64_t to = std::min(end, hi);
      if (to > from) {
        covered += to - from;
        reach = to;
      }
    }
    self[i] = spans[i].duration_ns() - covered;
  }
  return self;
}

std::size_t min_samples(unsigned percent) {
  if (percent <= 50) return 1;
  if (percent >= 100) return static_cast<std::size_t>(-1);
  // n * (100 - p) / 100 >= 10, in integers.
  const std::size_t beyond = 100 - percent;
  return (1000 + beyond - 1) / beyond;
}

std::optional<std::uint64_t> percentile(std::vector<std::uint64_t> samples,
                                        unsigned percent) {
  if (samples.empty() || samples.size() < min_samples(percent)) {
    return std::nullopt;
  }
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest value with at least percent% of samples at
  // or below it.
  const std::size_t rank = (samples.size() * percent + 99) / 100;
  return samples[std::max<std::size_t>(rank, 1) - 1];
}

void write_spans_json(std::ostream& out, const std::vector<Span>& spans,
                      std::uint64_t origin_ns) {
  const std::vector<std::uint64_t> self = self_times(spans);
  alert::obs::JsonWriter w(out);
  w.begin_object();
  w.field("schema", "alertbench-spans/1");
  w.key("spans");
  w.begin_array();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    w.begin_object();
    w.field("index", static_cast<std::uint64_t>(i));
    w.field("name", s.name);
    w.field("id", s.id);
    w.field("parent", s.parent);
    w.field("start_ns", s.start_ns - origin_ns);
    w.field("end_ns", s.end_ns - origin_ns);
    w.field("self_ns", self[i]);
    if (s.queued_ns != 0) w.field("queued_ns", s.queued_ns - origin_ns);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << '\n';
}

}  // namespace alertbench
