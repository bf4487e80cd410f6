// R12 (float-equal) fixture for tests/lint_selftest.py.  Never compiled;
// the linter treats it as if it lived under src/ (--pretend-dir src).
// Lines tagged `// expect-lint: <rule>` must be flagged; untagged lines
// must not.
//
// R12 is the textual half of the float-equality gate: it catches ==/!=
// against a floating-point literal.  Variable-vs-variable compares are the
// numeric replay profile's job (-Wfloat-equal), mirroring how R9's text
// rule and -Wthread-safety split the concurrency checks.
namespace fixture {

bool hits(double x, float w) {
  bool a = x == 0.0;   // expect-lint: float-equal
  bool b = 1.0 != x;   // expect-lint: float-equal
  bool c = w == 1.0f;  // expect-lint: float-equal
  bool d = x != 1e-9;  // expect-lint: float-equal
  bool e = .5 == x;    // expect-lint: float-equal
  return a && b && c && d && e;
}

bool misses(double x, double y, int i) {
  bool a = x <= 0.0 || x >= 1.0;  // ordering compares carry no equality trap
  bool b = i == 0 && i != 10;     // integer compares are exact by nature
  bool c = x == y;                // var-vs-var: -Wfloat-equal's job (preset)
  double z = 0.0;                 // plain initialization, not a compare
  return a && b && c && z < x;
}

bool sanctioned(double x) {
  // The helpers from util/numeric.hpp are the approved spellings.
  return mac::exact_zero(x) || mac::approx_eq(x, 1.0, 1e-9);
}

bool opted_out(double x) {
  bool sentinel = x == -1.0;  // lint: allow(float-equal) -- -1.0 is an uncomputed sentinel, compares exactly
  // A bare allow() on a justification-required rule is itself a finding.
  bool bare = x == 2.0;  // lint: allow(float-equal)  // expect-lint: float-equal
  return sentinel && bare;
}

}  // namespace fixture
