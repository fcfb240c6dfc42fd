// Fixture: stale-waiver — every waiver must suppress a finding. The first
// absorbs a real float-type finding and stays quiet; the second sits on a
// clean line and the third names no known rule, so both are reported.
// EXPECT: stale-waiver 2

const float kAbsorbed = 1.0f;  // alert-lint: allow(float-type)
const double kClean = 2.0;  // alert-lint: allow(float-type)
const double kUnknown = 3.0;  // alert-lint: allow(no-such-rule)
