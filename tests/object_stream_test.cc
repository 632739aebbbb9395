#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/rng.h"
#include "core/factory.h"
#include "core/object_stream.h"
#include "core/storage_system.h"

namespace lob {
namespace {

// Fails every foreground I/O call after `k` successes, until ClearFaults().
FaultSpec StickyAfter(uint64_t k) {
  FaultSpec spec;
  spec.kind = FaultKind::kSticky;
  spec.after_calls = k;
  return spec;
}

std::string Pattern(uint64_t seed, size_t n) {
  std::string out(n, '\0');
  Rng rng(seed);
  for (auto& c : out) c = static_cast<char>('a' + rng.Uniform(0, 25));
  return out;
}

class ObjectStreamTest : public ::testing::TestWithParam<int> {
 protected:
  ObjectStreamTest() {
    switch (GetParam()) {
      case 0:
        mgr_ = CreateEsmManager(&sys_, 4);
        break;
      case 1:
        mgr_ = CreateStarburstManager(&sys_);
        break;
      default:
        mgr_ = CreateEosManager(&sys_, 4);
        break;
    }
    auto id = mgr_->Create();
    LOB_CHECK_OK(id.status());
    id_ = *id;
  }

  StorageSystem sys_;
  std::unique_ptr<LargeObjectManager> mgr_;
  ObjectId id_ = 0;
};

TEST_P(ObjectStreamTest, WriterStagesSmallWrites) {
  ObjectWriter writer(mgr_.get(), id_, /*chunk_bytes=*/10000);
  std::string oracle;
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    std::string piece = Pattern(rng.Next(), rng.Uniform(1, 500));
    ASSERT_TRUE(writer.Write(piece).ok());
    oracle += piece;
  }
  ASSERT_TRUE(writer.Flush().ok());
  EXPECT_EQ(writer.bytes_written(), oracle.size());
  std::string got;
  ASSERT_TRUE(mgr_->Read(id_, 0, oracle.size(), &got).ok());
  EXPECT_EQ(got, oracle);
}

TEST_P(ObjectStreamTest, StagingReducesAppendCalls) {
  // 1000 tiny writes staged into 16 K chunks: far fewer I/O calls than
  // 1000 appends would make.
  sys_.ResetStats();
  {
    ObjectWriter writer(mgr_.get(), id_, 16 * 1024);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_TRUE(writer.Write(Pattern(static_cast<uint64_t>(i), 100)).ok());
    }
    ASSERT_TRUE(writer.Flush().ok());
  }
  EXPECT_LT(sys_.stats().write_calls, 50u) << sys_.stats().ToString();
}

TEST_P(ObjectStreamTest, ReaderStreamsWholeObject) {
  const std::string oracle = Pattern(2, 300000);
  ASSERT_TRUE(mgr_->Append(id_, oracle).ok());
  ObjectReader reader(mgr_.get(), id_, 32 * 1024);
  std::string assembled, piece;
  while (true) {
    ASSERT_TRUE(reader.Read(7777, &piece).ok());
    if (piece.empty()) break;
    assembled += piece;
  }
  EXPECT_EQ(assembled, oracle);
  auto at_end = reader.AtEnd();
  ASSERT_TRUE(at_end.ok());
  EXPECT_TRUE(*at_end);
}

TEST_P(ObjectStreamTest, ReaderSeekAndTell) {
  const std::string oracle = Pattern(3, 100000);
  ASSERT_TRUE(mgr_->Append(id_, oracle).ok());
  ObjectReader reader(mgr_.get(), id_);
  ASSERT_TRUE(reader.Seek(50000).ok());
  EXPECT_EQ(reader.Tell(), 50000u);
  std::string piece;
  ASSERT_TRUE(reader.Read(100, &piece).ok());
  EXPECT_EQ(piece, oracle.substr(50000, 100));
  EXPECT_EQ(reader.Tell(), 50100u);
  // Seeking backwards within the buffered window works too.
  ASSERT_TRUE(reader.Seek(50050).ok());
  ASSERT_TRUE(reader.Read(50, &piece).ok());
  EXPECT_EQ(piece, oracle.substr(50050, 50));
  EXPECT_FALSE(reader.Seek(oracle.size() + 1).ok());
}

TEST_P(ObjectStreamTest, ReadPastEndIsShort) {
  ASSERT_TRUE(mgr_->Append(id_, Pattern(4, 1000)).ok());
  ObjectReader reader(mgr_.get(), id_);
  std::string piece;
  ASSERT_TRUE(reader.Read(5000, &piece).ok());
  EXPECT_EQ(piece.size(), 1000u);
  ASSERT_TRUE(reader.Read(10, &piece).ok());
  EXPECT_TRUE(piece.empty());
}

TEST_P(ObjectStreamTest, SequentialChunksShareBufferedIo) {
  const std::string oracle = Pattern(5, 256 * 1024);
  ASSERT_TRUE(mgr_->Append(id_, oracle).ok());
  ASSERT_TRUE(sys_.FlushAll().ok());
  sys_.ResetStats();
  ObjectReader reader(mgr_.get(), id_, 64 * 1024);
  std::string piece;
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(reader.Read(4096, &piece).ok());
  }
  // 256 K consumed in 4 K pieces: only 4 underlying 64 K range reads
  // (each at most a handful of I/O calls across 16-page ESM leaves).
  EXPECT_LE(sys_.stats().read_calls, 20u) << sys_.stats().ToString();
}

TEST_P(ObjectStreamTest, WriterLastStatusIsStickyAcrossFailedFlush) {
  ObjectWriter writer(mgr_.get(), id_, /*chunk_bytes=*/64 * 1024);
  EXPECT_TRUE(writer.last_status().ok());
  const std::string piece = Pattern(6, 5000);
  ASSERT_TRUE(writer.Write(piece).ok()) << "stays staged, no I/O yet";

  sys_.disk()->ArmFault(StickyAfter(0));
  Status failed = writer.Flush();
  EXPECT_FALSE(failed.ok()) << "injected failure must propagate";
  EXPECT_FALSE(writer.last_status().ok())
      << "the failure must be recorded, not just returned";
  sys_.disk()->ClearFaults();

  // The staged bytes were not lost: a retry lands them.
  ASSERT_TRUE(writer.Flush().ok());
  EXPECT_FALSE(writer.last_status().ok())
      << "last_status is sticky: later successes do not clear the record";
  std::string got;
  ASSERT_TRUE(mgr_->Read(id_, 0, piece.size(), &got).ok());
  EXPECT_EQ(got, piece);
}

TEST_P(ObjectStreamTest, WriterRecordsFailureFromWriteTriggeredAppend) {
  // A Write large enough to fill the staging buffer triggers an Append
  // inside Write itself; an I/O failure there must surface both as the
  // returned Status and in last_status.
  ObjectWriter writer(mgr_.get(), id_, /*chunk_bytes=*/8 * 1024);
  sys_.disk()->ArmFault(StickyAfter(0));
  Status s = writer.Write(Pattern(7, 16 * 1024));
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(writer.last_status().ok());
  sys_.disk()->ClearFaults();
}

TEST_P(ObjectStreamTest, WriterDoubleFaultPreservesFirstError) {
  // Two distinct one-shot faults across two failing flushes: last_status
  // must keep the *first* error (the root cause), and the writer must
  // stay usable — the staged bytes land once the faults clear.
  ObjectWriter writer(mgr_.get(), id_, /*chunk_bytes=*/64 * 1024);
  const std::string piece = Pattern(8, 5000);
  ASSERT_TRUE(writer.Write(piece).ok());

  FaultSpec first;
  first.kind = FaultKind::kOneShot;
  first.after_calls = 0;  // countdowns are relative to arming
  first.message = "double-fault-one";
  sys_.disk()->ArmFault(first);
  EXPECT_FALSE(writer.Flush().ok());

  FaultSpec second = first;
  second.message = "double-fault-two";
  sys_.disk()->ArmFault(second);
  Status retry = writer.Flush();
  EXPECT_FALSE(retry.ok());
  EXPECT_NE(retry.message().find("double-fault-two"), std::string::npos)
      << "the retry's own failure is the one returned: " << retry.ToString();
  EXPECT_NE(writer.last_status().message().find("double-fault-one"),
            std::string::npos)
      << "last_status must keep the first fault, got: "
      << writer.last_status().ToString();
  sys_.disk()->ClearFaults();

  ASSERT_TRUE(writer.Flush().ok());
  std::string got;
  ASSERT_TRUE(mgr_->Read(id_, 0, piece.size(), &got).ok());
  EXPECT_EQ(got, piece);
  EXPECT_NE(writer.last_status().message().find("double-fault-one"),
            std::string::npos)
      << "success does not clear the sticky first error";
}

std::string EngineName3(const ::testing::TestParamInfo<int>& param_info) {
  return param_info.param == 0   ? "Esm"
         : param_info.param == 1 ? "Starburst"
                                 : "Eos";
}

INSTANTIATE_TEST_SUITE_P(Engines, ObjectStreamTest,
                         ::testing::Values(0, 1, 2), EngineName3);

}  // namespace
}  // namespace lob
