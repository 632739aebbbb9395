// LOBLINT-FIXTURE-PATH: src/esm/good_sync.cc
//
// The sanctioned form: an annotated lob::Mutex with an RAII MutexLock, so
// the acquisition is analyzable by Clang.

#include "common/mutex.h"

namespace lob {

class GoodCounter {
 public:
  int Next() LOB_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return ++count_;
  }

 private:
  Mutex mu_;
  int count_ LOB_GUARDED_BY(mu_) = 0;
};

}  // namespace lob
