// ThreadOwner: the one-thread contract of a database, checked at run time.
//
// A StorageSystem and everything reachable from it (SimDisk, BufferPool,
// DatabaseArea, PositionalTree, the engines, ObsRegistry, TraceSession,
// TimelineSampler) is used by one thread at a time, so none of it carries
// a latch. SimDisk holds one ThreadOwner per database; it binds to the
// first thread that makes a checked call, and a checked call from any
// other thread afterwards aborts with a diagnostic naming the entry point
// (see docs/ARCHITECTURE.md "Concurrency model"). The check is one
// compare of per-thread tokens and is compiled into every build type.

#ifndef LOB_COMMON_THREAD_OWNER_H_
#define LOB_COMMON_THREAD_OWNER_H_

#include <atomic>
#include <cstdio>
#include <cstdint>
#include <cstdlib>

namespace lob {

namespace internal {

/// Process-unique token of the calling thread, assigned on first use and
/// never reused (std::thread::id values are recycled once a thread has
/// been joined, so a later thread could pass for the owner).
inline uint64_t CurrentThreadToken() {
  static std::atomic<uint64_t> next{0};
  thread_local uint64_t token = 0;
  if (token == 0) token = next.fetch_add(1, std::memory_order_relaxed) + 1;
  return token;
}

[[noreturn]] inline void ThreadOwnerViolation(const char* entry) {
  std::fprintf(stderr,
               "thread-confinement violation: %s called from a thread that "
               "does not own this database; a StorageSystem and everything "
               "reachable from it is used by one thread — see "
               "common/thread_owner.h\n",
               entry);
  std::abort();
}

}  // namespace internal

/// Owner-thread record. Unbound until the first Check; bound for life
/// after it.
class ThreadOwner {
 public:
  ThreadOwner() = default;
  ThreadOwner(const ThreadOwner&) = delete;
  ThreadOwner& operator=(const ThreadOwner&) = delete;

  /// Binds the record to the calling thread if unbound; aborts naming
  /// `entry` (e.g. "BufferPool::FixPage") if another thread owns it.
  void Check(const char* entry) {
    const uint64_t self = internal::CurrentThreadToken();
    uint64_t owner = owner_.load(std::memory_order_relaxed);
    if (owner == self) return;
    // Relaxed is enough: the record orders nothing, it only has to see a
    // foreign owner, and a racing bind fails the exchange.
    if (owner == 0 &&
        owner_.compare_exchange_strong(owner, self,
                                       std::memory_order_relaxed)) {
      return;
    }
    internal::ThreadOwnerViolation(entry);
  }

 private:
  std::atomic<uint64_t> owner_{0};  ///< thread token; 0 = unbound
};

}  // namespace lob

#endif  // LOB_COMMON_THREAD_OWNER_H_
