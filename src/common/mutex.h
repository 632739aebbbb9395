// Capability-annotated synchronization primitives. Under Clang with
// -Wthread-safety the LOB_* macros expand to the capability attributes, so
// locking contracts (LOB_GUARDED_BY, LOB_REQUIRES, ...) are checked at
// compile time; under other compilers they expand to nothing. Mutex,
// MutexLock and CondVar are std::mutex and friends carrying those
// annotations. Raw std::mutex / std::lock_guard outside src/common/ is a
// lint error (LOB008). See CONTRIBUTING.md "Thread-safety".

#ifndef LOB_COMMON_MUTEX_H_
#define LOB_COMMON_MUTEX_H_

#include <condition_variable>
#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define LOB_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef LOB_THREAD_ANNOTATION
#define LOB_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

/// Marks a type as a lockable capability ("mutex" in diagnostics).
#define LOB_CAPABILITY(x) LOB_THREAD_ANNOTATION(capability(x))

/// Marks an RAII type whose constructor acquires and destructor releases.
#define LOB_SCOPED_CAPABILITY LOB_THREAD_ANNOTATION(scoped_lockable)

/// Data member may only be read/written while `x` is held.
#define LOB_GUARDED_BY(x) LOB_THREAD_ANNOTATION(guarded_by(x))

/// Function requires the listed capabilities to be held on entry (and
/// leaves them held).
#define LOB_REQUIRES(...) \
  LOB_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function acquires the listed capabilities (caller must not hold them).
#define LOB_ACQUIRE(...) LOB_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the listed capabilities (caller must hold them).
#define LOB_RELEASE(...) LOB_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Caller must NOT hold the listed capabilities (deadlock prevention for
/// self-locking methods).
#define LOB_EXCLUDES(...) LOB_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

namespace lob {

/// Capability-annotated exclusive mutex. Prefer the RAII MutexLock over
/// manual Lock/Unlock. Constant-initialized, so a function-local static
/// Mutex is safe to use from static initializers.
class LOB_CAPABILITY("mutex") Mutex {
 public:
  constexpr Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() LOB_ACQUIRE() { mu_.lock(); }
  void Unlock() LOB_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock for Mutex (the annotated std::lock_guard analogue).
class LOB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) LOB_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() LOB_RELEASE() { mu_->Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Condition variable for use with Mutex. No predicate overload on
/// purpose: Clang's analysis cannot see through a predicate lambda, so
/// callers write the canonical `while (!cond) cv.Wait(&mu);` loop, which
/// the analysis understands.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu` and waits; re-acquires `mu` before
  /// returning. Spurious wakeups happen — always wait in a loop.
  void Wait(Mutex* mu) LOB_REQUIRES(mu) {
    std::unique_lock<std::mutex> l(mu->mu_, std::adopt_lock);
    cv_.wait(l);
    l.release();  // ownership stays with the caller's Mutex
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace lob

#endif  // LOB_COMMON_MUTEX_H_
