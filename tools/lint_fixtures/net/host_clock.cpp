// Fixture: wallclock-in-sim, direct form under net/ — the network layer
// runs on simulated time like sim/ and routing/, so the POSIX clock read
// here is reported at the read.
// EXPECT: wallclock-in-sim 1
#include <sys/time.h>

namespace alert::net {

long frame_stamp_us() {
  timeval tv{};
  gettimeofday(&tv, nullptr);
  return tv.tv_usec;
}

}  // namespace alert::net
