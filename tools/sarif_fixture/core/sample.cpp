// SARIF golden-file fixture: two deliberate findings (a mutable global and
// a raw rand() call) whose SARIF 2.1.0 rendering is pinned byte-for-byte by
// the lint.sarif_golden ctest entry. Kept outside lint_fixtures/ so the
// self-test's EXPECT bookkeeping never couples to the golden file. If the
// SARIF writer changes shape intentionally, regenerate expected.sarif with:
//   alertsim-analyzer --root tools/sarif_fixture --format sarif \
//       --output tools/sarif_fixture/expected.sarif

int g_counter = 0;

int draw() { return rand() % 7; }
