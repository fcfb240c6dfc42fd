// Fixture: every raw randomness source, outside util/rng — rng-discipline
// must flag each line, namespace scope included. A waiver silences it.
// EXPECT: rng-discipline 4
#include <cstdlib>
#include <random>

int bad_c_rand() { return rand(); }
void bad_c_srand() { srand(42); }
int bad_device() { return static_cast<int>(std::random_device{}()); }
std::mt19937 bad_engine;

// Waived line — must NOT count:
std::mt19937 waived_engine;  // alert-lint: allow(rng-discipline)

// Mentions in comments must not count: rand(), std::random_device.
const char* not_code = "srand(1); std::mt19937 in a string";

// The two TU-scope engines above are also mutable-global findings (the
// rng-discipline waiver on one of them does not silence the other rule).
// EXPECT: mutable-global 2
