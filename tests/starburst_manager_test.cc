#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>

#include "common/rng.h"
#include "core/storage_system.h"
#include "starburst/starburst_manager.h"

namespace lob {
namespace {

std::string Pattern(uint64_t seed, size_t n) {
  std::string out(n, '\0');
  Rng rng(seed);
  for (auto& c : out) c = static_cast<char>('a' + rng.Uniform(0, 25));
  return out;
}

class StarburstTest : public ::testing::Test {
 protected:
  StarburstTest() {
    sys_ = std::make_unique<StorageSystem>(cfg_);
    StarburstOptions opt;
    mgr_ = std::make_unique<StarburstManager>(sys_.get(), opt);
    auto id = mgr_->Create();
    LOB_CHECK_OK(id.status());
    id_ = *id;
  }

  void ExpectContent(const std::string& oracle) {
    auto size = mgr_->Size(id_);
    ASSERT_TRUE(size.ok());
    ASSERT_EQ(*size, oracle.size());
    std::string got;
    ASSERT_TRUE(mgr_->Read(id_, 0, oracle.size(), &got).ok());
    ASSERT_EQ(got, oracle);
    ASSERT_TRUE(mgr_->Validate(id_).ok());
  }

  StorageConfig cfg_;
  std::unique_ptr<StorageSystem> sys_;
  std::unique_ptr<StarburstManager> mgr_;
  ObjectId id_ = 0;
};

TEST_F(StarburstTest, EmptyObject) {
  auto size = mgr_->Size(id_);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 0u);
}

TEST_F(StarburstTest, SegmentsDoubleInSize) {
  // Build with 3K appends: the first segment is 1 page, then 2, 4, 8, ...
  // (paper 2.2, Figure 2).
  std::string oracle;
  for (int i = 0; i < 40; ++i) {
    std::string c = Pattern(static_cast<uint64_t>(i), 3000);
    ASSERT_TRUE(mgr_->Append(id_, c).ok());
    oracle += c;
  }
  ExpectContent(oracle);
  auto stats = mgr_->GetStorageStats(id_);
  ASSERT_TRUE(stats.ok());
  // 120000 bytes need 30 pages: doubling 1+2+4+8+16 = 31 pages over 5
  // segments covers it.
  EXPECT_EQ(stats->segments, 5u);
  EXPECT_EQ(stats->leaf_pages, 31u);
}

TEST_F(StarburstTest, KnownSizeUsesFewSegments) {
  // One big append: first segment = object size (up to the max): a single
  // segment.
  const std::string data = Pattern(1, 1000000);
  ASSERT_TRUE(mgr_->Append(id_, data).ok());
  auto stats = mgr_->GetStorageStats(id_);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->segments, 1u);
  ExpectContent(data);
}

TEST_F(StarburstTest, TrimLastFreesSlack) {
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(mgr_->Append(id_, Pattern(static_cast<uint64_t>(i), 3000)).ok());
  }
  // 120000 bytes need 30 pages; doubling allocated 31.
  auto before = mgr_->GetStorageStats(id_);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(mgr_->TrimLast(id_).ok());
  auto after = mgr_->GetStorageStats(id_);
  ASSERT_TRUE(after.ok());
  EXPECT_LT(after->leaf_pages, before->leaf_pages);
  EXPECT_EQ(after->leaf_pages, 30u);
  ExpectContent([&] {
    std::string oracle;
    for (int i = 0; i < 40; ++i) oracle += Pattern(static_cast<uint64_t>(i), 3000);
    return oracle;
  }());
}

TEST_F(StarburstTest, AppendAfterTrimRebuildsLastSegment) {
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(mgr_->Append(id_, Pattern(static_cast<uint64_t>(i), 3000)).ok());
  }
  ASSERT_TRUE(mgr_->TrimLast(id_).ok());
  std::string oracle;
  for (int i = 0; i < 40; ++i) oracle += Pattern(static_cast<uint64_t>(i), 3000);
  const std::string more = Pattern(99, 50000);
  ASSERT_TRUE(mgr_->Append(id_, more).ok());
  oracle += more;
  ExpectContent(oracle);
}

TEST_F(StarburstTest, ReadAcrossSegmentBoundaries) {
  std::string oracle;
  for (int i = 0; i < 20; ++i) {
    std::string c = Pattern(static_cast<uint64_t>(i), 10000);
    ASSERT_TRUE(mgr_->Append(id_, c).ok());
    oracle += c;
  }
  Rng rng(7);
  for (int i = 0; i < 40; ++i) {
    const uint64_t off = rng.Uniform(0, oracle.size() - 1);
    const uint64_t n = rng.Uniform(1, oracle.size() - off);
    std::string got;
    ASSERT_TRUE(mgr_->Read(id_, off, n, &got).ok());
    ASSERT_EQ(got, oracle.substr(off, n));
  }
}

TEST_F(StarburstTest, InsertRewritesTail) {
  std::string oracle = Pattern(2, 300000);
  ASSERT_TRUE(mgr_->Append(id_, oracle).ok());
  const std::string ins = Pattern(3, 12345);
  ASSERT_TRUE(mgr_->Insert(id_, 150000, ins).ok());
  oracle.insert(150000, ins);
  ExpectContent(oracle);
}

TEST_F(StarburstTest, DeleteRewritesTail) {
  std::string oracle = Pattern(4, 300000);
  ASSERT_TRUE(mgr_->Append(id_, oracle).ok());
  ASSERT_TRUE(mgr_->Delete(id_, 100000, 50000).ok());
  oracle.erase(100000, 50000);
  ExpectContent(oracle);
}

TEST_F(StarburstTest, DeleteAllBytes) {
  ASSERT_TRUE(mgr_->Append(id_, Pattern(5, 100000)).ok());
  ASSERT_TRUE(mgr_->Delete(id_, 0, 100000).ok());
  ExpectContent("");
  EXPECT_EQ(sys_->leaf_area()->allocated_pages(), 0u);
  // The growth pattern restarts with the next append.
  ASSERT_TRUE(mgr_->Append(id_, "fresh start").ok());
  ExpectContent("fresh start");
}

TEST_F(StarburstTest, ReplaceInPlaceKeepsStructure) {
  std::string oracle = Pattern(6, 200000);
  ASSERT_TRUE(mgr_->Append(id_, oracle).ok());
  auto before = mgr_->GetStorageStats(id_);
  ASSERT_TRUE(before.ok());
  const std::string rep = Pattern(7, 30000);
  ASSERT_TRUE(mgr_->Replace(id_, 50000, rep).ok());
  oracle.replace(50000, rep.size(), rep);
  ExpectContent(oracle);
  auto after = mgr_->GetStorageStats(id_);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->segments, before->segments);
  EXPECT_EQ(after->leaf_pages, before->leaf_pages);
}

TEST_F(StarburstTest, InsertCostIndependentOfOperationSize) {
  // Table 3: insert cost is flat in the operation size (the copy
  // dominates).
  ASSERT_TRUE(mgr_->Append(id_, Pattern(8, 2 * 1024 * 1024)).ok());
  auto cost_of_insert = [&](uint64_t n) -> double {
    IoStats before = sys_->stats();
    LOB_CHECK_OK(mgr_->Insert(id_, 1000, Pattern(9, n)));
    IoStats delta = sys_->stats() - before;
    LOB_CHECK_OK(mgr_->Delete(id_, 1000, n));  // restore size
    return delta.ms;
  };
  const double small = cost_of_insert(100);
  const double large = cost_of_insert(100000);
  EXPECT_LT(large / small, 1.25)
      << "insert cost should barely depend on operation size";
}

TEST_F(StarburstTest, FullCopyCostsMoreThanTailCopy) {
  const std::string data = Pattern(10, 2 * 1024 * 1024);
  auto measure = [&](UpdateCopyMode mode) {
    StorageSystem sys(cfg_);
    StarburstOptions opt;
    opt.copy_mode = mode;
    StarburstManager mgr(&sys, opt);
    auto id = mgr.Create();
    LOB_CHECK_OK(id.status());
    // Build in 64K chunks so the field spans several doubling segments;
    // with a single segment, tail copy degenerates to full copy.
    for (size_t at = 0; at < data.size(); at += 64 * 1024) {
      LOB_CHECK_OK(
          mgr.Append(*id, std::string_view(data).substr(at, 64 * 1024)));
    }
    double total = 0;
    Rng rng(11);
    for (int i = 0; i < 10; ++i) {
      const uint64_t off = rng.Uniform(0, data.size() - 1);
      IoStats before = sys.stats();
      LOB_CHECK_OK(mgr.Insert(*id, off, "0123456789"));
      total += (sys.stats() - before).ms;
      LOB_CHECK_OK(mgr.Delete(*id, off, 10));
    }
    return total / 10;
  };
  const double tail = measure(UpdateCopyMode::kTailCopy);
  const double full = measure(UpdateCopyMode::kFullCopy);
  EXPECT_GT(full, tail) << "full copy reads/writes strictly more";
}

TEST_F(StarburstTest, RejectsOutOfRange) {
  ASSERT_TRUE(mgr_->Append(id_, Pattern(12, 1000)).ok());
  std::string out;
  EXPECT_EQ(mgr_->Read(id_, 500, 600, &out).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(mgr_->Insert(id_, 1001, "x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(mgr_->Delete(id_, 900, 200).code(), StatusCode::kOutOfRange);
}

TEST_F(StarburstTest, DestroyFreesEverything) {
  ASSERT_TRUE(mgr_->Append(id_, Pattern(13, 500000)).ok());
  ASSERT_GT(sys_->leaf_area()->allocated_pages(), 0u);
  ASSERT_TRUE(mgr_->Destroy(id_).ok());
  EXPECT_EQ(sys_->leaf_area()->allocated_pages(), 0u);
  EXPECT_EQ(sys_->meta_area()->allocated_pages(), 0u);
}

// Property test: random op mix against a std::string oracle.
TEST_F(StarburstTest, RandomOpsMatchOracle) {
  std::string oracle;
  Rng rng(777);
  for (int step = 0; step < 200; ++step) {
    const double p = rng.NextDouble();
    if (oracle.empty() || p < 0.35) {
      std::string data = Pattern(rng.Next(), rng.Uniform(1, 60000));
      if (oracle.empty() || rng.Bernoulli(0.5)) {
        ASSERT_TRUE(mgr_->Append(id_, data).ok()) << "step " << step;
        oracle += data;
      } else {
        const uint64_t off = rng.Uniform(0, oracle.size());
        ASSERT_TRUE(mgr_->Insert(id_, off, data).ok()) << "step " << step;
        oracle.insert(off, data);
      }
    } else if (p < 0.55) {
      const uint64_t off = rng.Uniform(0, oracle.size() - 1);
      const uint64_t n =
          rng.Uniform(1, std::min<uint64_t>(oracle.size() - off, 40000));
      ASSERT_TRUE(mgr_->Delete(id_, off, n).ok()) << "step " << step;
      oracle.erase(off, n);
    } else if (p < 0.8) {
      const uint64_t off = rng.Uniform(0, oracle.size() - 1);
      const uint64_t n = rng.Uniform(1, oracle.size() - off);
      std::string got;
      ASSERT_TRUE(mgr_->Read(id_, off, n, &got).ok()) << "step " << step;
      ASSERT_EQ(got, oracle.substr(off, n)) << "step " << step;
    } else {
      const uint64_t off = rng.Uniform(0, oracle.size() - 1);
      const uint64_t n = rng.Uniform(1, oracle.size() - off);
      std::string data = Pattern(rng.Next(), n);
      ASSERT_TRUE(mgr_->Replace(id_, off, data).ok()) << "step " << step;
      oracle.replace(off, n, data);
    }
    if (step % 40 == 0) {
      ASSERT_TRUE(mgr_->Validate(id_).ok()) << "step " << step;
    }
  }
  ExpectContent(oracle);
}

// ---- Tail rebuild: bytes and pinned metered I/O per op ----

// Metered I/O of one op: calls and pages each way.
struct IoPin {
  uint64_t read_calls;
  uint64_t write_calls;
  uint64_t pages_read;
  uint64_t pages_written;
};

// Drives every Starburst copy site (SpliceBytes, the trimmed-last-segment
// rebuild in Append, the shadowed Replace) on an object whose tail is
// longer than the 512 KB copy buffer, so chunk edges fall inside spans.
// After each op the bytes must equal a std::string reference and the op's
// metered I/O must equal figures pinned from the copying implementation
// (scratch tail string): moving the tail through borrowed page views
// changes host work only, never a call or a page.
TEST_F(StarburstTest, TailRebuildBytesAndIoArePinned) {
  ASSERT_TRUE(cfg_.shadowing);
  ASSERT_EQ(cfg_.copy_buffer_bytes, 512u * 1024u);
  // A 2-page first append fixes the pattern at 2, 4, 8, ... pages, so the
  // first two segments take the pool's buffered path and later ones the
  // unbuffered 3-step path.
  std::string oracle = Pattern(100, 8000);
  ASSERT_TRUE(mgr_->Append(id_, oracle).ok());
  for (int i = 0; i < 96; ++i) {
    const std::string c = Pattern(200 + static_cast<uint64_t>(i), 20000);
    ASSERT_TRUE(mgr_->Append(id_, c).ok());
    oracle += c;
  }
  ExpectContent(oracle);

  auto check = [&](const char* what, const std::function<Status()>& op,
                   const IoPin& want) {
    const IoStats before = sys_->stats();
    ASSERT_TRUE(op().ok()) << what;
    const IoStats d = IoStats::Delta(before, sys_->stats());
    EXPECT_EQ(d.read_calls, want.read_calls) << what;
    EXPECT_EQ(d.write_calls, want.write_calls) << what;
    EXPECT_EQ(d.pages_read, want.pages_read) << what;
    EXPECT_EQ(d.pages_written, want.pages_written) << what;
    ExpectContent(oracle);
  };

  // Shift by a non-page multiple inside the large segments.
  const std::string ins = Pattern(1, 5001);
  oracle.insert(100003, ins);
  check("insert, unaligned shift",
        [&] { return mgr_->Insert(id_, 100003, ins); }, {9, 6, 457, 458});
  oracle.erase(700001, 3333);
  check("delete, unaligned shift",
        [&] { return mgr_->Delete(id_, 700001, 3333); }, {6, 3, 345, 346});
  const std::string head = Pattern(2, 7777);
  oracle.insert(0, head);
  check("insert at 0", [&] { return mgr_->Insert(id_, 0, head); },
        {9, 9, 471, 474});
  const uint64_t cut = oracle.size() - 300017;
  oracle.erase(cut);
  check("delete through the end",
        [&] { return mgr_->Delete(id_, cut, 300017); }, {3, 2, 146, 146});
  // The rebuilt last segment is trimmed to its bytes, so an append that
  // overflows it rebuilds it to pattern size (Append step 3).
  const std::string more = Pattern(3, 50000);
  oracle += more;
  check("append onto trimmed last segment",
        [&] { return mgr_->Append(id_, more); }, {2, 3, 146, 159});
  // Shadowed replaces: one across the two buffered segments, one inside a
  // segment larger than the copy buffer.
  const std::string rep_small = Pattern(4, 3000);
  oracle.replace(8000, rep_small.size(), rep_small);
  check("shadowed replace, buffered segments",
        [&] { return mgr_->Replace(id_, 8000, rep_small); }, {2, 2, 6, 6});
  const std::string rep_big = Pattern(5, 9000);
  oracle.replace(1200077, rep_big.size(), rep_big);
  check("shadowed replace, large segment",
        [&] { return mgr_->Replace(id_, 1200077, rep_big); }, {1, 2, 157, 158});
}

}  // namespace
}  // namespace lob
