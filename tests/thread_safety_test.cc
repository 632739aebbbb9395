// Tests for the threading contracts: a database is confined to one thread
// (common/thread_owner.h — a second thread aborts, a ParallelRunner job
// that owns its database passes), and the annotated primitives
// (common/mutex.h) that guard the state really shared across threads:
// a CondVar handshake completes, LOB_LOG_WARN lines stay untorn under
// concurrency, and the ThreadPool shutdown contract aborts loudly.
//
// The death tests put this binary under the `death` ctest label: gtest
// death tests fork, which ThreadSanitizer does not support, so TSan runs
// use `ctest -LE death`.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/mutex.h"
#include "core/factory.h"
#include "core/storage_system.h"
#include "exec/parallel_runner.h"
#include "exec/thread_pool.h"

namespace lob {
namespace {

// ------------------------------------------------------------ cond vars

TEST(CondVarTest, HandshakeSurvivesWait) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  std::thread producer([&] {
    MutexLock lock(&mu);
    ready = true;
    cv.NotifyAll();
  });
  {
    MutexLock lock(&mu);
    while (!ready) cv.Wait(&mu);
  }
  producer.join();
}

// ------------------------------------------------- thread confinement

// Creates an ESM object and round-trips `bytes` through it: enough to fix
// pages, allocate, write and read on `sys`.
bool DriveDatabase(StorageSystem* sys, size_t bytes) {
  auto mgr = CreateEsmManager(sys, 4);
  auto id = mgr->Create();
  if (!id.ok()) return false;
  const std::string data(bytes, 'x');
  if (!mgr->Append(*id, data).ok()) return false;
  std::string back;
  if (!mgr->Read(*id, 0, bytes, &back).ok()) return false;
  return back == data;
}

TEST(ThreadOwnerTest, DatabaseBuiltAndUsedInsideAJobPasses) {
  // The bench, campaign and lobbench pattern: every job builds and drives
  // its own StorageSystem on whichever worker runs it.
  ThreadPool pool(3);
  ParallelRunner runner(&pool);
  const Mapped<int> mapped =
      runner.Map<int>(6, [](size_t i, JobOutput* /*out*/) {
        StorageSystem sys;
        return DriveDatabase(&sys, 20000 + i * 1000) ? 1 : 0;
      });
  for (size_t i = 0; i < mapped.values.size(); ++i) {
    EXPECT_EQ(mapped.values[i], 1) << "job " << i;
  }
}

using ThreadOwnerDeathTest = ::testing::Test;

TEST(ThreadOwnerDeathTest, SecondThreadAbortsAtPoolAndDiskEntry) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  StorageSystem sys;
  bool driven = false;
  std::thread a([&] { driven = DriveDatabase(&sys, 30000); });
  a.join();
  ASSERT_TRUE(driven);  // thread A owns the database now
  const AreaId meta = sys.meta_area()->id();
  EXPECT_DEATH(
      {
        std::thread b([&] {
          auto g = sys.pool()->FixPage(meta, 0, FixMode::kRead);
          (void)g;
        });
        b.join();
      },
      "thread-confinement violation: BufferPool::FixPage called from a "
      "thread that does not own this database");
  EXPECT_DEATH(
      {
        std::thread b([&] {
          std::vector<char> page(sys.config().page_size);
          (void)sys.disk()->Read(meta, 0, 1, page.data());
        });
        b.join();
      },
      "thread-confinement violation: SimDisk::Read called from a thread "
      "that does not own this database");
}

// --------------------------------------------------------- warn-log sink

// Redirects fd 2 to a file for the block's lifetime so the test can read
// back what LOB_LOG_WARN wrote.
class StderrCapture {
 public:
  explicit StderrCapture(const std::string& path) {
    std::fflush(stderr);
    saved_fd_ = dup(2);
    int fd = open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
    dup2(fd, 2);
    close(fd);
  }
  ~StderrCapture() {
    std::fflush(stderr);
    dup2(saved_fd_, 2);
    close(saved_fd_);
  }

 private:
  int saved_fd_;
};

TEST(LogSinkTest, ConcurrentWarnLinesAreUntorn) {
  const std::string path = ::testing::TempDir() + "/lob_warn_capture.txt";
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  {
    StderrCapture capture(path);
    ThreadPool pool(kThreads);
    std::vector<std::future<void>> done;
    done.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      done.push_back(pool.Submit([t] {
        for (int i = 0; i < kPerThread; ++i) {
          LOB_LOG_WARN("thread %d message %d payload abcdefghijklmnop", t,
                       i);
        }
      }));
    }
    for (auto& f : done) f.get();
  }
  // Every line must be a complete, untorn warn record; counts per thread
  // must add up. Interleaving order across threads is unconstrained.
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  int counts[kThreads] = {0};
  int total = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++total;
    int t = -1;
    int i = -1;
    ASSERT_EQ(std::sscanf(line.c_str(),
                          "[lob:warn] %*[^:]:%*d: thread %d message %d "
                          "payload abcdefghijklmnop",
                          &t, &i),
              2)
        << "torn or malformed line: " << line;
    ASSERT_GE(t, 0);
    ASSERT_LT(t, kThreads);
    EXPECT_GE(i, 0);
    EXPECT_LT(i, kPerThread);
    ++counts[t];
  }
  EXPECT_EQ(total, kThreads * kPerThread);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(counts[t], kPerThread) << "thread " << t << " lost lines";
  }
}

// -------------------------------------- ThreadPool shutdown contract

// The illegal sides of the shutdown contract must fail loudly instead of
// silently dropping work (tasks vanishing into a destructed queue was
// the original bug): a Submit from a non-worker thread after Shutdown
// aborts, and a Shutdown from inside a task body (which would self-join)
// aborts. The legal drain-submit side is covered in exec_test.cc.

TEST(ThreadPoolDeathTest, ForeignSubmitAfterShutdownAborts) {
  EXPECT_DEATH(
      {
        ThreadPool pool(1);
        pool.Shutdown();
        pool.Submit([] {});  // would never run
      },
      "Submit after Shutdown");
}

TEST(ThreadPoolDeathTest, ShutdownFromWorkerThreadAborts) {
  EXPECT_DEATH(
      {
        ThreadPool pool(1);
        pool.Submit([&pool] { pool.Shutdown(); }).get();
      },
      "self-join");
}

}  // namespace
}  // namespace lob
