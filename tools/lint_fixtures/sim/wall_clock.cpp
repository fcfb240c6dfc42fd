// Fixture: direct host-clock reads inside a simulator directory. Four
// banned forms; the waived one and the comment/string mentions do not count.
// EXPECT: wallclock-in-sim 4
#include <chrono>
#include <ctime>

long bad_time() { return time(nullptr); }
long bad_clock() { return clock(); }
auto bad_chrono() { return std::chrono::system_clock::now(); }
auto bad_steady() { return std::chrono::steady_clock::now(); }

auto waived() {
  return std::chrono::system_clock::now();  // alert-lint: allow(wallclock-in-sim)
}

// time(nullptr) in a comment is fine; so is "clock()" in a string:
const char* s = "time(nullptr) clock() std::chrono::steady_clock";
