// Fixture: wallclock-in-sim, transitive form. measure_step() holds no
// clock token itself (no direct read to report) but
// reaches the host clock in util/host_timer.cpp through a call — flagged
// at the call site. profiled_step() calls the obs probe, whose clock
// reads are allowlisted, and stays silent.
// EXPECT: wallclock-in-sim 1

namespace alert::sim {

long measure_step() {
  return util::host_timer_sample();  // flagged: reaches a host clock read
}

long profiled_step() {
  return obs::profile_probe_sample();  // fine: obs profiling is exempt
}

}  // namespace alert::sim
