// R20 (unguarded-mutex) fixture for tests/lint_selftest.py.  Never compiled;
// the linter treats it as if it lived under src/ (--pretend-dir src).
// Lines tagged `// expect-lint: <rule>` must be flagged; untagged lines
// must not.
//
// R20 requires every util::Mutex member to guard something: some member in
// the same file carries MAC_GUARDED_BY(<mutex>), or some function carries
// MAC_REQUIRES(<mutex>).  A mutex guarding nothing leaves the state it was
// meant to protect invisible to clang -Wthread-safety.
#include <vector>

#include "util/annotations.hpp"
#include "util/sync.hpp"

namespace fixture {

class Unguarded {
 private:
  // A comment naming MAC_GUARDED_BY(bare_mu_) does not count.
  mutable metas::util::Mutex bare_mu_;  // expect-lint: unguarded-mutex
  std::vector<int> items_;
};

class Guarded {
 public:
  void push(int v) MAC_REQUIRES(req_mu_);

 private:
  mutable metas::util::Mutex mu_;
  std::vector<int> items_ MAC_GUARDED_BY(mu_);
  metas::util::Mutex req_mu_;
};

}  // namespace fixture
