#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "iomodel/disk_image.h"
#include "iomodel/sim_disk.h"

namespace lob {
namespace {

StorageConfig TestConfig() { return StorageConfig{}; }

TEST(SimDiskTest, RoundTripSinglePage) {
  SimDisk disk(TestConfig());
  AreaId a = disk.CreateArea();
  std::vector<char> out(4096, 'x'), in(4096);
  ASSERT_TRUE(disk.Write(a, 5, 1, out.data()).ok());
  ASSERT_TRUE(disk.Read(a, 5, 1, in.data()).ok());
  EXPECT_EQ(std::memcmp(out.data(), in.data(), 4096), 0);
}

TEST(SimDiskTest, UnwrittenPagesReadAsZeros) {
  SimDisk disk(TestConfig());
  AreaId a = disk.CreateArea();
  std::vector<char> in(4096, 'x');
  ASSERT_TRUE(disk.Read(a, 99, 1, in.data()).ok());
  for (char c : in) EXPECT_EQ(c, 0);
}

TEST(SimDiskTest, MultiPageCallMovesAllPages) {
  SimDisk disk(TestConfig());
  AreaId a = disk.CreateArea();
  std::vector<char> out(3 * 4096);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<char>(i % 251);
  }
  ASSERT_TRUE(disk.Write(a, 10, 3, out.data()).ok());
  std::vector<char> in(3 * 4096);
  ASSERT_TRUE(disk.Read(a, 10, 3, in.data()).ok());
  EXPECT_EQ(out, in);
}

TEST(SimDiskTest, CostModelMatchesPaperExample) {
  // Paper 4.1: reading a 3-block (12K) segment costs 33 + 4*3 = 45 ms;
  // reading the same blocks with 3 calls costs (33+4)*3 = 111 ms.
  SimDisk disk(TestConfig());
  AreaId a = disk.CreateArea();
  std::vector<char> buf(3 * 4096);
  ASSERT_TRUE(disk.Read(a, 0, 3, buf.data()).ok());
  EXPECT_DOUBLE_EQ(disk.stats().ms, 45.0);
  EXPECT_EQ(disk.stats().read_calls, 1u);
  EXPECT_EQ(disk.stats().pages_read, 3u);

  disk.ResetStats();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(disk.Read(a, static_cast<PageId>(i), 1, buf.data()).ok());
  }
  EXPECT_DOUBLE_EQ(disk.stats().ms, 111.0);
  EXPECT_EQ(disk.stats().Seeks(), 3u);
}

TEST(SimDiskTest, WritesAreMeteredLikeReads) {
  SimDisk disk(TestConfig());
  AreaId a = disk.CreateArea();
  std::vector<char> buf(2 * 4096, 1);
  ASSERT_TRUE(disk.Write(a, 0, 2, buf.data()).ok());
  EXPECT_DOUBLE_EQ(disk.stats().ms, 33.0 + 8.0);
  EXPECT_EQ(disk.stats().write_calls, 1u);
  EXPECT_EQ(disk.stats().pages_written, 2u);
  EXPECT_EQ(disk.stats().read_calls, 0u);
}

TEST(SimDiskTest, StatsSnapshotsSubtract) {
  SimDisk disk(TestConfig());
  AreaId a = disk.CreateArea();
  std::vector<char> buf(4096, 1);
  ASSERT_TRUE(disk.Write(a, 0, 1, buf.data()).ok());
  IoStats before = disk.stats();
  ASSERT_TRUE(disk.Read(a, 0, 1, buf.data()).ok());
  IoStats delta = disk.stats() - before;
  EXPECT_EQ(delta.read_calls, 1u);
  EXPECT_EQ(delta.write_calls, 0u);
  EXPECT_DOUBLE_EQ(delta.ms, 37.0);
}

TEST(SimDiskTest, MultipleAreasAreIndependent) {
  SimDisk disk(TestConfig());
  AreaId a = disk.CreateArea();
  AreaId b = disk.CreateArea();
  EXPECT_NE(a, b);
  std::vector<char> one(4096, 1), two(4096, 2), in(4096);
  ASSERT_TRUE(disk.Write(a, 0, 1, one.data()).ok());
  ASSERT_TRUE(disk.Write(b, 0, 1, two.data()).ok());
  ASSERT_TRUE(disk.Read(a, 0, 1, in.data()).ok());
  EXPECT_EQ(in[0], 1);
  ASSERT_TRUE(disk.Read(b, 0, 1, in.data()).ok());
  EXPECT_EQ(in[0], 2);
}

TEST(SimDiskTest, RejectsBadArguments) {
  SimDisk disk(TestConfig());
  AreaId a = disk.CreateArea();
  std::vector<char> buf(4096);
  EXPECT_FALSE(disk.Read(a + 10, 0, 1, buf.data()).ok());
  EXPECT_FALSE(disk.Read(a, 0, 0, buf.data()).ok());
  EXPECT_FALSE(disk.Read(a, kInvalidPage, 1, buf.data()).ok());
}

TEST(SimDiskTest, HighWaterTracksWrites) {
  SimDisk disk(TestConfig());
  AreaId a = disk.CreateArea();
  EXPECT_EQ(disk.AreaHighWater(a), 0u);
  std::vector<char> buf(4096, 1);
  ASSERT_TRUE(disk.Write(a, 41, 1, buf.data()).ok());
  EXPECT_EQ(disk.AreaHighWater(a), 42u);
}

// ---- Page arena: chunked page images ----

constexpr uint32_t kP = 4096;

// Bytes of `n` pages starting at `first` whose byte i is (page * 31 + i +
// salt) mod 251, so every page and offset is distinct.
std::vector<char> Pattern(PageId first, uint32_t n, uint32_t salt) {
  std::vector<char> out(size_t{n} * kP);
  for (size_t i = 0; i < out.size(); ++i) {
    const size_t page = first + i / kP;
    out[i] = static_cast<char>((page * 31 + i % kP + salt) % 251);
  }
  return out;
}

std::vector<char> ReadPages(SimDisk* disk, AreaId a, PageId first,
                            uint32_t n) {
  std::vector<char> out(size_t{n} * kP, '?');
  LOB_CHECK_OK(disk->Read(a, first, n, out.data()));
  return out;
}

TEST(SimDiskArena, ViewsStayValidWhileTheAreaGrows) {
  SimDisk disk(TestConfig());
  const AreaId a = disk.CreateArea();
  const std::vector<char> first = Pattern(0, 3, 1);
  MutPageRef imgs[3];
  const char* srcs[3] = {first.data(), first.data() + kP,
                         first.data() + 2 * kP};
  ASSERT_TRUE(disk.WriteRun(a, 0, 3, srcs, imgs).ok());
  PageRef refs[3];
  ASSERT_TRUE(disk.ReadRun(a, 0, 3, refs).ok());
  // Grow the area far past its first chunk, one page and one run at a
  // time, then sparsely.
  for (PageId p = 3; p < 600; ++p) {
    ASSERT_TRUE(disk.Write(a, p, 1, Pattern(p, 1, 2).data()).ok());
  }
  ASSERT_TRUE(disk.Write(a, 600, 300, Pattern(600, 300, 3).data()).ok());
  ASSERT_TRUE(disk.Write(a, 5000, 1, Pattern(5000, 1, 4).data()).ok());
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(refs[i].data, disk.PeekPage(a, i)) << "page " << i;
    EXPECT_EQ(imgs[i].data, disk.PeekPage(a, i)) << "page " << i;
    EXPECT_EQ(0, std::memcmp(refs[i].data, first.data() + i * kP, kP));
  }
  // The views are live images: a later write shows through them.
  ASSERT_TRUE(disk.Write(a, 1, 1, Pattern(1, 1, 9).data()).ok());
  EXPECT_EQ(0, std::memcmp(refs[1].data, Pattern(1, 1, 9).data(), kP));
  EXPECT_EQ(ReadPages(&disk, a, 600, 300), Pattern(600, 300, 3));
}

TEST(SimDiskArena, RunsCrossChunkBoundaries) {
  SimDisk disk(TestConfig());
  const AreaId a = disk.CreateArea();
  // Pages 5..74 cross several chunk boundaries whatever the chunk size
  // below 64 pages.
  const std::vector<char> bytes = Pattern(5, 70, 1);
  ASSERT_TRUE(disk.Write(a, 5, 70, bytes.data()).ok());
  EXPECT_EQ(ReadPages(&disk, a, 5, 70), bytes);
  std::vector<char> window(bytes.begin() + 9 * kP, bytes.begin() + 41 * kP);
  EXPECT_EQ(ReadPages(&disk, a, 14, 32), window);

  std::vector<PageRef> refs(70);
  ASSERT_TRUE(disk.ReadRun(a, 5, 70, refs.data()).ok());
  for (uint32_t i = 0; i < 70; ++i) {
    ASSERT_EQ(refs[i].data, disk.PeekPage(a, 5 + i)) << "page " << 5 + i;
    EXPECT_EQ(0, std::memcmp(refs[i].data, bytes.data() + i * kP, kP));
  }

  // WriteRun across boundaries: fresh bytes, zero-fill and self-views.
  const std::vector<char> fresh = Pattern(10, 40, 7);
  std::vector<const char*> srcs(40);
  std::vector<char> expect(bytes.begin() + 5 * kP, bytes.begin() + 45 * kP);
  for (uint32_t i = 0; i < 40; ++i) {
    if (i % 5 == 0) {
      srcs[i] = nullptr;
      std::fill(expect.begin() + i * kP, expect.begin() + (i + 1) * kP, 0);
    } else if (i % 5 == 1) {
      srcs[i] = disk.PeekPage(a, 10 + i);  // unchanged
    } else {
      srcs[i] = fresh.data() + i * kP;
      std::copy(fresh.begin() + i * kP, fresh.begin() + (i + 1) * kP,
                expect.begin() + i * kP);
    }
  }
  std::vector<MutPageRef> imgs(40);
  ASSERT_TRUE(disk.WriteRun(a, 10, 40, srcs.data(), imgs.data()).ok());
  EXPECT_EQ(ReadPages(&disk, a, 10, 40), expect);
  for (uint32_t i = 0; i < 40; ++i) {
    EXPECT_EQ(imgs[i].data, disk.PeekPage(a, 10 + i)) << "page " << 10 + i;
  }

  // WriteSpans across boundaries from unaligned pieces, last page padded.
  const std::vector<char> src = Pattern(0, 40, 11);
  const ByteSpan spans[] = {{src.data(), 3 * kP + 17},
                            {nullptr, 20 * kP},
                            {src.data() + 100, 10 * kP - 50}};
  std::vector<char> stream(src.begin(), src.begin() + 3 * kP + 17);
  stream.resize(stream.size() + 20 * kP, 0);
  stream.insert(stream.end(), src.begin() + 100, src.begin() + 10 * kP + 50);
  stream.resize(33 * kP, 0);
  ASSERT_TRUE(disk.WriteSpans(a, 30, spans, 3).ok());
  EXPECT_EQ(ReadPages(&disk, a, 30, 33), stream);
  EXPECT_EQ(disk.AreaHighWater(a), 75u);
}

TEST(SimDiskArena, UnwrittenPagesOfAllocatedAndRecycledChunksAreAbsent) {
  // A destroyed disk leaves its chunks, full of 0x5A bytes, for reuse.
  std::set<const char*> old_images;
  {
    SimDisk old(TestConfig());
    const AreaId a = old.CreateArea();
    const std::vector<char> junk(64 * kP, 0x5A);
    ASSERT_TRUE(old.Write(a, 0, 64, junk.data()).ok());
    for (PageId p = 0; p < 64; ++p) old_images.insert(old.PeekPage(a, p));
  }
  SimDisk disk(TestConfig());
  const AreaId a = disk.CreateArea();
  ASSERT_TRUE(disk.Write(a, 0, 1, Pattern(0, 1, 1).data()).ok());
  ASSERT_TRUE(disk.Write(a, 2, 1, Pattern(2, 1, 1).data()).ok());
  // The new disk's first chunk is one the old disk released.
  EXPECT_EQ(old_images.count(disk.PeekPage(a, 0)), 1u);

  std::vector<char> expect = Pattern(0, 3, 1);
  std::fill(expect.begin() + kP, expect.begin() + 2 * kP, 0);
  expect.resize(64 * kP, 0);
  EXPECT_EQ(ReadPages(&disk, a, 0, 64), expect);
  std::vector<PageRef> refs(64);
  ASSERT_TRUE(disk.ReadRun(a, 0, 64, refs.data()).ok());
  for (PageId p = 0; p < 64; ++p) {
    const bool written = p == 0 || p == 2;
    EXPECT_EQ(refs[p].data != nullptr, written) << "page " << p;
    EXPECT_EQ(disk.PeekPage(a, p) != nullptr, written) << "page " << p;
  }
  EXPECT_EQ(disk.AreaHighWater(a), 3u);

  // Only the written pages are saved.
  const std::string path =
      std::string(::testing::TempDir()) + "/lobstore_arena.img";
  ASSERT_TRUE(SaveDiskImage(disk, path).ok());
  SimDisk loaded(TestConfig());
  ASSERT_TRUE(LoadDiskImage(&loaded, path).ok());
  std::remove(path.c_str());
  EXPECT_EQ(loaded.AreaHighWater(a), 3u);
  EXPECT_EQ(loaded.PeekPage(a, 1), nullptr);
  ASSERT_NE(loaded.PeekPage(a, 2), nullptr);
  EXPECT_EQ(ReadPages(&loaded, a, 0, 64), expect);
}

TEST(SimDiskArena, HighWaterIsHighestWrittenPagePlusOne) {
  SimDisk disk(TestConfig());
  const AreaId a = disk.CreateArea();
  const AreaId b = disk.CreateArea();
  std::vector<char> buf(8 * kP, 1);
  ASSERT_TRUE(disk.Write(a, 100, 4, buf.data()).ok());
  EXPECT_EQ(disk.AreaHighWater(a), 104u);
  // Lower writes, reads and zero-copy reads past it leave it alone.
  ASSERT_TRUE(disk.Write(a, 3, 1, buf.data()).ok());
  ASSERT_TRUE(disk.Read(a, 200, 8, buf.data()).ok());
  PageRef refs[8];
  ASSERT_TRUE(disk.ReadRun(a, 300, 8, refs).ok());
  EXPECT_EQ(disk.AreaHighWater(a), 104u);
  EXPECT_EQ(disk.AreaHighWater(b), 0u);
  const ByteSpan span{buf.data(), 1};
  ASSERT_TRUE(disk.WriteSpans(b, 17, &span, 1).ok());
  EXPECT_EQ(disk.AreaHighWater(b), 18u);
}

TEST(IoStatsTest, ArithmeticAndToString) {
  IoStats s;
  s.read_calls = 2;
  s.write_calls = 1;
  s.pages_read = 5;
  s.pages_written = 1;
  s.ms = 10;
  IoStats t = s + s;
  EXPECT_EQ(t.Seeks(), 6u);
  EXPECT_EQ(t.PagesTransferred(), 12u);
  EXPECT_DOUBLE_EQ((t - s).ms, 10.0);
  EXPECT_NE(s.ToString().find("reads=2"), std::string::npos);
}

}  // namespace
}  // namespace lob
