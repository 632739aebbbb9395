#include <gtest/gtest.h>

#include "buffer/op_context.h"

#include "common/logging.h"
#include "iomodel/sim_disk.h"

namespace lob {
namespace {

// Fails every foreground I/O call after `k` successes, until ClearFaults().
FaultSpec StickyAfter(uint64_t k) {
  FaultSpec spec;
  spec.kind = FaultKind::kSticky;
  spec.after_calls = k;
  return spec;
}

class OpContextTest : public ::testing::Test {
 protected:
  OpContextTest() : disk_(cfg_), pool_(&disk_, cfg_) {
    area_ = disk_.CreateArea();
  }

  void StageDirty(PageId page, char fill) {
    auto g = pool_.FixPage(area_, page, FixMode::kNew);
    LOB_CHECK_OK(g.status());
    g->mutable_data()[0] = fill;
    g->MarkDirty();
  }

  StorageConfig cfg_;
  SimDisk disk_;
  BufferPool pool_;
  AreaId area_ = 0;
};

TEST_F(OpContextTest, FinishFlushesDeferredRanges) {
  OpContext ctx(&pool_);
  StageDirty(0, 'a');
  StageDirty(1, 'b');
  ctx.DeferFlush(area_, 0, 2);
  EXPECT_EQ(disk_.stats().write_calls, 0u);
  ASSERT_TRUE(ctx.Finish().ok());
  EXPECT_EQ(disk_.stats().write_calls, 1u)
      << "contiguous dirty run flushes in one sequential call";
  EXPECT_EQ(disk_.stats().pages_written, 2u);
}

TEST_F(OpContextTest, FinishSkipsCleanPages) {
  OpContext ctx(&pool_);
  auto g = pool_.FixPage(area_, 5, FixMode::kNew);
  ASSERT_TRUE(g.ok());
  g->Release();
  ctx.DeferFlush(area_, 5, 1);
  ASSERT_TRUE(ctx.Finish().ok());
  EXPECT_EQ(disk_.stats().write_calls, 0u) << "clean pages are not written";
}

TEST_F(OpContextTest, DuplicateDefersAreHarmless) {
  OpContext ctx(&pool_);
  StageDirty(3, 'x');
  ctx.DeferFlush(area_, 3, 1);
  ctx.DeferFlush(area_, 3, 1);
  ASSERT_TRUE(ctx.Finish().ok());
  EXPECT_EQ(disk_.stats().write_calls, 1u)
      << "second flush finds the page clean";
}

TEST_F(OpContextTest, ShadowTrackingResetsOnFinish) {
  OpContext ctx(&pool_);
  EXPECT_FALSE(ctx.AlreadyShadowed(area_, 9));
  ctx.NoteShadowed(area_, 9);
  EXPECT_TRUE(ctx.AlreadyShadowed(area_, 9));
  ASSERT_TRUE(ctx.Finish().ok());
  EXPECT_FALSE(ctx.AlreadyShadowed(area_, 9))
      << "a new operation may shadow the page again";
}

TEST_F(OpContextTest, ContextIsReusableAcrossOperations) {
  OpContext ctx(&pool_);
  for (int op = 0; op < 3; ++op) {
    StageDirty(static_cast<PageId>(10 + op), 'y');
    ctx.DeferFlush(area_, static_cast<PageId>(10 + op), 1);
    ASSERT_TRUE(ctx.Finish().ok());
  }
  EXPECT_EQ(disk_.stats().write_calls, 3u);
}

TEST_F(OpContextTest, NonContiguousDirtyRunsSplitCalls) {
  OpContext ctx(&pool_);
  StageDirty(20, 'a');
  StageDirty(22, 'b');  // hole at 21
  ctx.DeferFlush(area_, 20, 3);
  ASSERT_TRUE(ctx.Finish().ok());
  EXPECT_EQ(disk_.stats().write_calls, 2u)
      << "a hole in the dirty run costs a second seek";
}

TEST_F(OpContextTest, FailedFinishClearsDeferredState) {
  // Seed-code regression: a Finish that failed mid-flush returned early,
  // leaving the deferred ranges in place; the next operation on the same
  // context re-flushed the stale ranges. After the fix, state is cleared
  // on every exit path.
  OpContext ctx(&pool_);
  StageDirty(0, 'a');
  ctx.DeferFlush(area_, 0, 1);
  disk_.ArmFault(StickyAfter(0));
  EXPECT_FALSE(ctx.Finish().ok()) << "injected I/O failure must propagate";
  disk_.ClearFaults();
  EXPECT_FALSE(ctx.has_pending())
      << "a failed Finish must still clear the context";

  // Next operation: only its own range may be flushed. Page 0 is still
  // dirty in the pool (its flush failed), so a leaked deferred range
  // would cost an extra write call here.
  StageDirty(7, 'b');
  ctx.DeferFlush(area_, 7, 1);
  ASSERT_TRUE(ctx.Finish().ok());
  EXPECT_EQ(disk_.stats().write_calls, 1u)
      << "stale ranges from the failed operation must not be re-flushed";
  EXPECT_EQ(disk_.stats().pages_written, 1u);
}

TEST_F(OpContextTest, FailedFinishClearsShadowMarks) {
  OpContext ctx(&pool_);
  StageDirty(0, 'a');
  ctx.DeferFlush(area_, 0, 1);
  ctx.NoteShadowed(area_, 3);
  disk_.ArmFault(StickyAfter(0));
  ASSERT_FALSE(ctx.Finish().ok());
  disk_.ClearFaults();
  EXPECT_FALSE(ctx.AlreadyShadowed(area_, 3))
      << "the next operation must be allowed to shadow the page again";
}

TEST_F(OpContextTest, FinishAttemptsRemainingRangesAfterFailure) {
  // Best-effort durability: a failure on the first range must not skip
  // the later ones.
  OpContext ctx(&pool_);
  StageDirty(0, 'a');
  StageDirty(5, 'b');
  ctx.DeferFlush(area_, 0, 1);
  ctx.DeferFlush(area_, 5, 1);
  disk_.ArmFault(StickyAfter(1));  // first flush succeeds, second fails
  EXPECT_FALSE(ctx.Finish().ok());
  disk_.ClearFaults();
  EXPECT_EQ(disk_.stats().write_calls, 1u)
      << "the second range still flushed after the first failed";
}

TEST_F(OpContextTest, DoubleFaultPreservesFirstErrorAndClearsState) {
  // Two distinct injected faults during one Finish: the *first* error's
  // Status must be the one returned (later failures must not overwrite
  // it) and the context must still come out cleared.
  OpContext ctx(&pool_);
  StageDirty(0, 'a');
  StageDirty(5, 'b');
  StageDirty(9, 'c');
  ctx.DeferFlush(area_, 0, 1);
  ctx.DeferFlush(area_, 5, 1);
  ctx.DeferFlush(area_, 9, 1);

  FaultSpec first;
  first.after_calls = 0;
  first.message = "fault-one";
  disk_.ArmFault(first);
  FaultSpec second;
  second.after_calls = 0;  // fires on the next call after `first` fired
  second.message = "fault-two";
  disk_.ArmFault(second);

  Status s = ctx.Finish();
  disk_.ClearFaults();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.message(), "fault-one")
      << "the first fault's Status must be preserved, got: " << s.ToString();
  EXPECT_FALSE(ctx.has_pending())
      << "a doubly-failed Finish must still clear the context";
  // Third range still flushed (best-effort past both faults).
  EXPECT_EQ(disk_.stats().write_calls, 1u);

  // The context stays usable: the next op flushes only its own range.
  StageDirty(20, 'd');
  ctx.DeferFlush(area_, 20, 1);
  ASSERT_TRUE(ctx.Finish().ok());
  EXPECT_EQ(disk_.stats().write_calls, 2u);
}

TEST_F(OpContextTest, AbortDropsPendingWorkWithoutWriting) {
  OpContext ctx(&pool_);
  StageDirty(11, 'z');
  ctx.DeferFlush(area_, 11, 1);
  ctx.NoteShadowed(area_, 12);
  EXPECT_TRUE(ctx.has_pending());
  ctx.Abort();
  EXPECT_FALSE(ctx.has_pending());
  EXPECT_FALSE(ctx.AlreadyShadowed(area_, 12));
  ASSERT_TRUE(ctx.Finish().ok());
  EXPECT_EQ(disk_.stats().write_calls, 0u)
      << "aborted ranges are never written";
}

}  // namespace
}  // namespace lob
