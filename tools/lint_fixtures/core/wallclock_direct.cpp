// Fixture: wallclock-in-sim, direct form. core/ is simulated-time like
// sim/, net/ and routing/, so the host-clock read in a core/ function is
// reported at the read.
// EXPECT: wallclock-in-sim 1
#include <chrono>

namespace alert::core {

long checkpoint_stamp() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

}  // namespace alert::core
