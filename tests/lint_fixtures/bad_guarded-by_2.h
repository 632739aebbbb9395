// LOBLINT-FIXTURE-PATH: src/exec/bad_queue.h
//
// An unguarded member whose type spells a function signature inside its
// template arguments (the ThreadPool task queue shape). The parentheses
// of `void()` belong to the type, not to a method declaration, so the
// missing LOB_GUARDED_BY must still be reported.

#ifndef LOB_TESTS_LINT_FIXTURES_BAD_GUARDED_BY_2_H_
#define LOB_TESTS_LINT_FIXTURES_BAD_GUARDED_BY_2_H_

#include <deque>
#include <functional>

#include "common/mutex.h"

namespace lob {

class BadQueue {
 private:
  Mutex mu_;
  std::deque<std::function<void()>> queue_;  // BAD: no LOB_GUARDED_BY
};

}  // namespace lob

#endif  // LOB_TESTS_LINT_FIXTURES_BAD_GUARDED_BY_2_H_
