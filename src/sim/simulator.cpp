#include "sim/simulator.hpp"

#include <bit>
#include <memory>
#include <utility>

#include "util/check.hpp"

namespace alert::sim {

void Simulator::schedule_in(Time delay, EventQueue::Action action) {
  ALERT_INVARIANT(delay >= 0.0, "negative scheduling delay");
  queue_.schedule(now_ + delay, std::move(action));
}

void Simulator::schedule_at(Time when, EventQueue::Action action) {
  ALERT_INVARIANT(when >= now_, "scheduling into the past");
  queue_.schedule(when, std::move(action));
}

namespace {

// Self-rescheduling functor for schedule_periodic. Each firing enqueues a
// fresh copy of itself, so ownership of the user action follows the queue
// entry — no reference cycle, and draining or destroying the queue releases
// the action. (A lambda capturing a shared_ptr to its own std::function
// keeps itself alive forever.)
struct PeriodicTick {
  Simulator* sim;
  std::shared_ptr<std::function<void()>> action;  // shared: copies stay cheap
  Time period;

  void operator()() const {
    (*action)();
    sim->schedule_in(period, PeriodicTick{*this});
  }
};

}  // namespace

void Simulator::schedule_periodic(Time start, Time period,
                                  std::function<void()> action) {
  ALERT_INVARIANT(period > 0.0, "periodic event with non-positive period");
  auto shared = std::make_shared<std::function<void()>>(std::move(action));
  // `this` outlives the queue, so the raw back-pointer is safe.
  schedule_at(start, PeriodicTick{this, std::move(shared), period});
}

std::uint64_t Simulator::run_until(Time horizon) {
  std::uint64_t count = 0;
  while (!queue_.empty() && queue_.next_time() <= horizon) {
    auto fired = queue_.pop();
    ALERT_INVARIANT(fired.time >= now_,
                    "simulation clock would move backwards");
    now_ = fired.time;
    audit(std::bit_cast<std::uint64_t>(fired.time));
    audit(fired.seq);
    {
      ALERT_OBS_TIMED(profiler_, dispatch_scope_);
      fired.action();
    }
    ++executed_;
    ++count;
  }
  if (now_ < horizon) now_ = horizon;
  return count;
}

}  // namespace alert::sim
