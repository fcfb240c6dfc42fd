// Fixture: exhaustive-enum — the tag opts any enum in (net::DropReason is
// one). The complete switch passes; the defaulted switch and the
// missing-case switch are flagged; the waived switch passes; the drifted
// re-declaration is flagged against the first declaration.
// EXPECT: exhaustive-enum 3

// alert-lint: exhaustive-enum
enum class PhaseStub { Greedy, Fallback, Deliver };

int complete_ok(PhaseStub p) {
  switch (p) {
    case PhaseStub::Greedy: return 1;
    case PhaseStub::Fallback: return 2;
    case PhaseStub::Deliver: return 3;
  }
  return 0;
}

int defaulted_bad(PhaseStub p) {
  switch (p) {
    case PhaseStub::Greedy: return 1;
    case PhaseStub::Fallback: return 2;
    case PhaseStub::Deliver: return 3;
    default: return 0;
  }
}

int missing_bad(PhaseStub p) {
  switch (p) {
    case PhaseStub::Greedy: return 1;
    case PhaseStub::Fallback: return 2;
  }
  return 0;
}

int missing_waived(PhaseStub p) {
  switch (p) {  // alert-lint: allow(exhaustive-enum)
    case PhaseStub::Greedy: return 1;
  }
  return 0;
}

namespace drifted {
// alert-lint: exhaustive-enum
enum class PhaseStub { Greedy, Fallback };
}  // namespace drifted
