// Contract tests for zero-copy page I/O (ISSUE 7): borrowed PageRef /
// frame views must alias the live disk image, materialize on mutation
// (copy-on-write), survive eviction and SaveState/RestoreState, keep
// fault injection firing on the batched ReadRun/WriteRun entry points,
// and produce byte-identical images and modeled costs with the zero-copy
// path disabled (StorageConfig::pool_zero_copy = false). The byte-gather
// WriteSpans must meter and fault like Write, and the span view of a
// segment range must match ReadSegmentRange byte for byte and call for
// call.

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "buffer/buffer_pool.h"
#include "buffer/page_table.h"
#include "iomodel/sim_disk.h"

namespace lob {
namespace {

StorageConfig SmallConfig() {
  StorageConfig cfg;
  cfg.buffer_pool_pages = 4;
  return cfg;
}

std::vector<char> PageOf(const StorageConfig& cfg, char fill) {
  return std::vector<char>(cfg.page_size, fill);
}

// ---- SimDisk borrowed-view contract ----

TEST(SimDiskZeroCopy, ReadRunAliasesLiveImage) {
  StorageConfig cfg;
  SimDisk disk(cfg);
  const AreaId a = disk.CreateArea();
  auto page = PageOf(cfg, 'a');
  ASSERT_TRUE(disk.Write(a, 0, 1, page.data()).ok());

  PageRef ref;
  ASSERT_TRUE(disk.ReadRun(a, 0, 1, &ref).ok());
  ASSERT_NE(ref.data, nullptr);
  EXPECT_EQ(ref.data, disk.PeekPage(a, 0));  // borrowed, not copied
  EXPECT_EQ(ref.data[0], 'a');

  // The view is live: a later write shows through it.
  page.assign(cfg.page_size, 'b');
  ASSERT_TRUE(disk.Write(a, 0, 1, page.data()).ok());
  EXPECT_EQ(ref.data[0], 'b');
}

TEST(SimDiskZeroCopy, ReadRunNeverWrittenPageIsNull) {
  StorageConfig cfg;
  SimDisk disk(cfg);
  const AreaId a = disk.CreateArea();
  auto page = PageOf(cfg, 'x');
  ASSERT_TRUE(disk.Write(a, 2, 1, page.data()).ok());

  PageRef refs[3];
  ASSERT_TRUE(disk.ReadRun(a, 0, 3, refs).ok());
  EXPECT_EQ(refs[0].data, nullptr);  // reads as zeros
  EXPECT_EQ(refs[1].data, nullptr);
  ASSERT_NE(refs[2].data, nullptr);
  EXPECT_EQ(refs[2].data[0], 'x');
}

TEST(SimDiskZeroCopy, ReadRunMeteredLikeRead) {
  StorageConfig cfg;
  SimDisk disk(cfg);
  SimDisk plain(cfg);
  const AreaId a = disk.CreateArea();
  const AreaId b = plain.CreateArea();
  auto buf = std::vector<char>(4 * cfg.page_size, 'm');
  ASSERT_TRUE(disk.Write(a, 0, 4, buf.data()).ok());
  ASSERT_TRUE(plain.Write(b, 0, 4, buf.data()).ok());

  PageRef refs[4];
  ASSERT_TRUE(disk.ReadRun(a, 0, 4, refs).ok());
  ASSERT_TRUE(plain.Read(b, 0, 4, buf.data()).ok());
  EXPECT_EQ(disk.stats().ms, plain.stats().ms);
  EXPECT_EQ(disk.stats().Seeks(), plain.stats().Seeks());
  EXPECT_EQ(disk.stats().PagesTransferred(), plain.stats().PagesTransferred());
}

TEST(SimDiskZeroCopy, WriteRunGatherZeroFillAndSelfView) {
  StorageConfig cfg;
  SimDisk disk(cfg);
  const AreaId a = disk.CreateArea();
  auto p0 = PageOf(cfg, 'p');
  auto p1 = PageOf(cfg, 'q');
  const char* srcs[2] = {p0.data(), p1.data()};
  MutPageRef imgs[2];
  ASSERT_TRUE(disk.WriteRun(a, 0, 2, srcs, imgs).ok());
  ASSERT_NE(imgs[0].data, nullptr);
  EXPECT_EQ(imgs[0].data, disk.PeekPage(a, 0));
  EXPECT_EQ(imgs[0].data[0], 'p');
  EXPECT_EQ(imgs[1].data[0], 'q');

  // null src = zero-fill; a src aliasing the page's own image = no-op.
  const char* srcs2[2] = {nullptr, imgs[1].data};
  ASSERT_TRUE(disk.WriteRun(a, 0, 2, srcs2).ok());
  EXPECT_EQ(disk.PeekPage(a, 0)[0], '\0');
  EXPECT_EQ(disk.PeekPage(a, 1)[0], 'q');
}

TEST(SimDiskZeroCopy, FaultsFireOnRunCallsWithSameCountdown) {
  // after_calls == 2: exactly two matching calls succeed, the third
  // fails — where a run of N pages is ONE call, exactly as Read/Write.
  StorageConfig cfg;
  SimDisk disk(cfg);
  const AreaId a = disk.CreateArea();
  auto buf = std::vector<char>(2 * cfg.page_size, 'f');
  const char* srcs[2] = {buf.data(), buf.data() + cfg.page_size};

  FaultSpec spec;
  spec.kind = FaultKind::kOneShot;
  spec.after_calls = 2;
  disk.ArmFault(spec);

  ASSERT_TRUE(disk.WriteRun(a, 0, 2, srcs).ok());  // call 1
  PageRef refs[2];
  ASSERT_TRUE(disk.ReadRun(a, 0, 2, refs).ok());   // call 2
  EXPECT_FALSE(disk.ReadRun(a, 0, 2, refs).ok());  // call 3: fault fires
  ASSERT_TRUE(disk.ReadRun(a, 0, 2, refs).ok());   // one-shot: healed
}

TEST(SimDiskZeroCopy, WriteFaultLeavesImageUntouched) {
  StorageConfig cfg;
  SimDisk disk(cfg);
  const AreaId a = disk.CreateArea();
  auto page = PageOf(cfg, 'o');
  ASSERT_TRUE(disk.Write(a, 0, 1, page.data()).ok());

  FaultSpec spec;
  spec.kind = FaultKind::kOneShot;
  spec.match_reads = false;
  disk.ArmFault(spec);
  auto next = PageOf(cfg, 'n');
  const char* srcs[1] = {next.data()};
  ASSERT_FALSE(disk.WriteRun(a, 0, 1, srcs).ok());
  EXPECT_EQ(disk.PeekPage(a, 0)[0], 'o');  // failed write changed nothing
}

// ---- SimDisk byte-gather write (WriteSpans) ----

std::string PageBytes(const SimDisk& disk, AreaId a, PageId p) {
  const char* img = disk.PeekPage(a, p);
  return img == nullptr ? std::string(disk.page_size(), '\0')
                        : std::string(img, disk.page_size());
}

TEST(SimDiskGatherWrite, SpansCrossPagesZeroSizeAndNullSpans) {
  StorageConfig cfg;
  SimDisk disk(cfg);
  const AreaId a = disk.CreateArea();
  const uint32_t P = cfg.page_size;
  const std::string x(1000, 'x');
  const std::string y(P + 1000, 'y');
  const std::string z(P - 7, 'z');
  // x | (empty) | 2000 zeros | y | (empty) | z: y straddles the first
  // page boundary, z the second, and the last page is 103 bytes short.
  const ByteSpan spans[] = {{x.data(), x.size()}, {y.data(), 0},
                            {nullptr, 2000},      {y.data(), y.size()},
                            {nullptr, 0},         {z.data(), z.size()}};
  MutPageRef imgs[3];
  ASSERT_TRUE(disk.WriteSpans(a, 4, spans, 6, imgs).ok());
  const std::string want =
      x + std::string(2000, '\0') + y + z + std::string(103, '\0');
  ASSERT_EQ(want.size(), 3u * P);
  for (PageId i = 0; i < 3; ++i) {
    EXPECT_EQ(imgs[i].data, disk.PeekPage(a, 4 + i));
    EXPECT_EQ(PageBytes(disk, a, 4 + i), want.substr(size_t{i} * P, P))
        << "page " << i;
  }
  EXPECT_EQ(disk.AreaHighWater(a), 7u);
}

TEST(SimDiskGatherWrite, PartialLastPageIsZeroPadded) {
  StorageConfig cfg;
  SimDisk disk(cfg);
  const AreaId a = disk.CreateArea();
  auto old = PageOf(cfg, 'o');
  ASSERT_TRUE(disk.Write(a, 0, 1, old.data()).ok());
  ASSERT_TRUE(disk.Write(a, 1, 1, old.data()).ok());
  const std::string head(cfg.page_size + 100, 'h');
  const ByteSpan span{head.data(), head.size()};
  ASSERT_TRUE(disk.WriteSpans(a, 0, &span, 1).ok());
  EXPECT_EQ(PageBytes(disk, a, 0), std::string(cfg.page_size, 'h'));
  // The old bytes past the stream are overwritten with zeros.
  EXPECT_EQ(PageBytes(disk, a, 1),
            std::string(100, 'h') + std::string(cfg.page_size - 100, '\0'));
}

TEST(SimDiskGatherWrite, MeteredLikeWriteOfTheSameRange) {
  StorageConfig cfg;
  SimDisk spans_disk(cfg);
  SimDisk plain(cfg);
  const AreaId a = spans_disk.CreateArea();
  const AreaId b = plain.CreateArea();
  const std::string bytes(2 * cfg.page_size + 5, 's');
  const ByteSpan spans[] = {{bytes.data(), 10}, {bytes.data() + 10,
                                                 bytes.size() - 10}};
  ASSERT_TRUE(spans_disk.WriteSpans(a, 9, spans, 2).ok());
  std::vector<char> buf(3 * cfg.page_size, 's');
  ASSERT_TRUE(plain.Write(b, 9, 3, buf.data()).ok());
  const IoStats& got = spans_disk.stats();
  const IoStats& want = plain.stats();
  EXPECT_EQ(got.read_calls, want.read_calls);
  EXPECT_EQ(got.write_calls, want.write_calls);
  EXPECT_EQ(got.pages_read, want.pages_read);
  EXPECT_EQ(got.pages_written, want.pages_written);
  EXPECT_EQ(got.ms, want.ms);
  EXPECT_EQ(spans_disk.foreground_calls(), plain.foreground_calls());
}

TEST(SimDiskGatherWrite, EmptyStreamIsAnUncountedInvalidCall) {
  StorageConfig cfg;
  SimDisk disk(cfg);
  const AreaId a = disk.CreateArea();
  const ByteSpan empty{nullptr, 0};
  EXPECT_EQ(disk.WriteSpans(a, 0, &empty, 1).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(disk.stats().Seeks(), 0u);
  EXPECT_EQ(disk.foreground_calls(), 0u);
}

TEST(SimDiskGatherWrite, FaultFiresBeforeAnyByteLandsWithWriteRunCountdown) {
  // The same one-shot write fault armed on two disks: the span write and
  // the page-pointer WriteRun must fail on the same call, leave the
  // target images untouched, and advance the same counters.
  StorageConfig cfg;
  SimDisk spans_disk(cfg);
  SimDisk run_disk(cfg);
  const AreaId a = spans_disk.CreateArea();
  const AreaId b = run_disk.CreateArea();
  auto old = PageOf(cfg, 'o');
  for (PageId p = 0; p < 2; ++p) {
    ASSERT_TRUE(spans_disk.Write(a, p, 1, old.data()).ok());
    ASSERT_TRUE(run_disk.Write(b, p, 1, old.data()).ok());
  }
  FaultSpec spec;
  spec.kind = FaultKind::kOneShot;
  spec.match_reads = false;
  spec.after_calls = 1;
  spans_disk.ArmFault(spec);
  run_disk.ArmFault(spec);

  auto next = std::vector<char>(2 * cfg.page_size, 'n');
  const ByteSpan spans[] = {{next.data(), 100},
                            {next.data() + 100, next.size() - 100}};
  const char* srcs[2] = {next.data(), next.data() + cfg.page_size};
  ASSERT_TRUE(spans_disk.WriteSpans(a, 4, spans, 2).ok());  // call 1
  ASSERT_TRUE(run_disk.WriteRun(b, 4, 2, srcs).ok());
  EXPECT_FALSE(spans_disk.WriteSpans(a, 0, spans, 2).ok());  // fires
  EXPECT_FALSE(run_disk.WriteRun(b, 0, 2, srcs).ok());
  for (PageId p = 0; p < 2; ++p) {
    EXPECT_EQ(PageBytes(spans_disk, a, p), std::string(cfg.page_size, 'o'));
    EXPECT_EQ(PageBytes(run_disk, b, p), std::string(cfg.page_size, 'o'));
  }
  EXPECT_EQ(spans_disk.foreground_calls(), run_disk.foreground_calls());
  EXPECT_EQ(spans_disk.faults_fired(), 1u);
  EXPECT_EQ(run_disk.faults_fired(), 1u);
  EXPECT_EQ(spans_disk.stats().write_calls, run_disk.stats().write_calls);
  ASSERT_TRUE(spans_disk.WriteSpans(a, 0, spans, 2).ok());  // healed
  EXPECT_EQ(PageBytes(spans_disk, a, 1), std::string(cfg.page_size, 'n'));
}

// ---- BufferPool::ViewSegmentRange against ReadSegmentRange ----

std::string Flatten(const SpanList& list) {
  std::string out;
  for (size_t i = 0; i < list.count(); ++i) {
    const ByteSpan& s = list.spans()[i];
    if (s.data == nullptr) {
      out.append(s.size, '\0');
    } else {
      out.append(s.data, s.size);
    }
  }
  return out;
}

// One disk + pool seeded with 16 recognizable pages (page 13 never
// written, so it reads as zeros), optionally with a dirty cached page.
struct ViewRig {
  ViewRig(const StorageConfig& cfg, int dirty_page)
      : disk(cfg), pool(&disk, cfg) {
    area = disk.CreateArea();
    const uint32_t P = cfg.page_size;
    std::vector<char> page(P);
    for (PageId p = 0; p < 16; ++p) {
      if (p == 13) continue;
      for (uint32_t i = 0; i < P; ++i) {
        page[i] = static_cast<char>('A' + (p * 7 + i) % 50);
      }
      LOB_CHECK_OK(disk.Write(area, p, 1, page.data()));
    }
    if (dirty_page >= 0) {
      auto g = pool.FixPage(area, static_cast<PageId>(dirty_page),
                            FixMode::kRead);
      LOB_CHECK_OK(g.status());
      std::memset(g->mutable_data() + 10, '#', 20);
      g->MarkDirty();
    }
  }
  SimDisk disk;
  BufferPool pool;
  AreaId area = 0;
};

TEST(BufferPoolView, MatchesReadSegmentRangeBytesAndIo) {
  const uint64_t P = StorageConfig().page_size;
  const uint64_t valid = 16 * P - 300;
  struct Case {
    const char* name;
    uint64_t off;
    uint64_t n;
    int dirty_page;  // -1: none
  };
  const Case cases[] = {
      {"buffered, aligned", 0, 2 * P, -1},
      {"buffered, unaligned", P - 9, 2 * P, -1},
      {"buffered, dirty cached page", P + 5, 3 * P, 2},
      {"unbuffered, aligned", P, 8 * P, -1},
      {"unbuffered, unaligned both ends", P / 2 + 3, 9 * P + 100, -1},
      {"unbuffered, aligned start, partial end", 2 * P, 6 * P + 1, -1},
      {"unbuffered, never-written middle page", 10 * P + 1, 5 * P, -1},
      {"unbuffered, dirty cached middle page", 3, 8 * P + 200, 5},
      {"unbuffered, chunk into the valid tail", 7 * P + 11,
       valid - 7 * P - 11, -1},
  };
  for (const bool zero_copy : {true, false}) {
    StorageConfig cfg;
    cfg.pool_zero_copy = zero_copy;
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(c.name) +
                   (zero_copy ? " (zero-copy pool)" : " (copying pool)"));
      ViewRig read_rig(cfg, c.dirty_page);
      ViewRig view_rig(cfg, c.dirty_page);
      const IoStats read_before = read_rig.disk.stats();
      const IoStats view_before = view_rig.disk.stats();

      std::string got(c.n, '?');
      ASSERT_TRUE(read_rig.pool
                      .ReadSegmentRange(read_rig.area, 0, valid, c.off, c.n,
                                        got.data())
                      .ok());
      SpanList view;
      view.Append("prefix", 6);  // the view appends after existing bytes
      ASSERT_TRUE(view_rig.pool
                      .ViewSegmentRange(view_rig.area, 0, valid, c.off, c.n,
                                        &view)
                      .ok());
      EXPECT_EQ(view.bytes(), c.n + 6);
      EXPECT_EQ(Flatten(view), "prefix" + got);

      const IoStats rd = IoStats::Delta(read_before, read_rig.disk.stats());
      const IoStats vd = IoStats::Delta(view_before, view_rig.disk.stats());
      EXPECT_EQ(vd.read_calls, rd.read_calls);
      EXPECT_EQ(vd.write_calls, rd.write_calls);
      EXPECT_EQ(vd.pages_read, rd.pages_read);
      EXPECT_EQ(vd.pages_written, rd.pages_written);
      EXPECT_EQ(vd.ms, rd.ms);
      EXPECT_EQ(view_rig.pool.CachedPagesSorted(),
                read_rig.pool.CachedPagesSorted());
      EXPECT_EQ(view_rig.pool.hits(), read_rig.pool.hits());
      EXPECT_EQ(view_rig.pool.misses(), read_rig.pool.misses());
    }
  }
}

TEST(BufferPoolView, MiddlePagesBorrowedBoundaryBytesStaged) {
  StorageConfig cfg;
  ViewRig rig(cfg, -1);
  const uint64_t P = cfg.page_size;
  SpanList view;
  ASSERT_TRUE(
      rig.pool.ViewSegmentRange(rig.area, 0, 16 * P, 100, 6 * P, &view).ok());
  // Partial page 0, whole pages 1..5, partial page 6. Pages 1..5 share an
  // arena chunk, so their images are adjacent and borrow as one span.
  ASSERT_EQ(view.count(), 3u);
  const ByteSpan* s = view.spans();
  EXPECT_EQ(s[1].data, rig.disk.PeekPage(rig.area, 1));
  EXPECT_EQ(s[1].size, 5 * P);
  for (PageId p = 1; p <= 5; ++p) {
    EXPECT_EQ(s[1].data + (p - 1) * P, rig.disk.PeekPage(rig.area, p))
        << "page " << p;
  }
  // Boundary bytes are copies: neither the disk image nor a pool frame,
  // both of which may change or go away later in the operation.
  EXPECT_NE(s[0].data, rig.disk.PeekPage(rig.area, 0) + 100);
  EXPECT_NE(s[2].data, rig.disk.PeekPage(rig.area, 6));
  EXPECT_EQ(s[0].size, P - 100);
  EXPECT_EQ(s[2].size, 100u);
  // Evicting and invalidating the boundary frames leaves the view intact.
  const std::string before = Flatten(view);
  ASSERT_TRUE(rig.pool.Invalidate(rig.area, 0, 16).ok());
  EXPECT_EQ(Flatten(view), before);
}

TEST(SpanListTest, MergesContiguousPiecesAndSlicesWithCursor) {
  const std::string a = "0123456789";
  SpanList list;
  list.Append(a.data(), 4);
  list.Append(a.data() + 4, 6);  // continues the previous piece
  list.Append(nullptr, 3);
  list.Append(nullptr, 2);  // zeros after zeros
  list.Append(a.data(), 0);  // empty pieces are dropped
  list.AppendCopy("xy", 2);
  list.AppendCopy("z", 1);  // consecutive copies are contiguous
  EXPECT_EQ(list.count(), 3u);
  EXPECT_EQ(list.bytes(), 18u);
  EXPECT_EQ(Flatten(list), a + std::string(5, '\0') + "xyz");

  SpanCursor cur(list);
  SpanList out;
  cur.Take(3, &out);
  cur.Skip(9);
  cur.Take(6, &out);
  EXPECT_EQ(Flatten(out), "012" + std::string(3, '\0') + "xyz");
  list.Clear();
  EXPECT_EQ(list.count(), 0u);
  EXPECT_EQ(list.bytes(), 0u);
}

// ---- BufferPool copy-on-write contract ----

TEST(BufferPoolZeroCopy, CleanFrameBorrowsDiskImage) {
  StorageConfig cfg = SmallConfig();
  SimDisk disk(cfg);
  BufferPool pool(&disk, cfg);
  const AreaId a = disk.CreateArea();
  auto page = PageOf(cfg, 'z');
  ASSERT_TRUE(disk.Write(a, 0, 1, page.data()).ok());

  auto g = pool.FixPage(a, 0, FixMode::kRead);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->data(), disk.PeekPage(a, 0));  // aliases the image
}

TEST(BufferPoolZeroCopy, MutableViewMaterializesBeforeWriting) {
  StorageConfig cfg = SmallConfig();
  SimDisk disk(cfg);
  BufferPool pool(&disk, cfg);
  const AreaId a = disk.CreateArea();
  auto page = PageOf(cfg, 'c');
  ASSERT_TRUE(disk.Write(a, 0, 1, page.data()).ok());

  auto g = pool.FixPage(a, 0, FixMode::kRead);
  ASSERT_TRUE(g.ok());
  char* m = g->mutable_data();
  EXPECT_NE(m, disk.PeekPage(a, 0));  // private pool copy now
  EXPECT_EQ(m[0], 'c');               // with the image's bytes
  m[0] = 'd';
  g->MarkDirty();
  // Dirty content lives only in the pool until flushed.
  EXPECT_EQ(disk.PeekPage(a, 0)[0], 'c');
  ASSERT_TRUE(pool.FlushRun(a, 0, 1).ok());
  EXPECT_EQ(disk.PeekPage(a, 0)[0], 'd');
}

TEST(BufferPoolZeroCopy, InjectedFlushFaultCannotLeakDirtyBytes) {
  StorageConfig cfg = SmallConfig();
  SimDisk disk(cfg);
  BufferPool pool(&disk, cfg);
  const AreaId a = disk.CreateArea();
  auto page = PageOf(cfg, 'k');
  ASSERT_TRUE(disk.Write(a, 0, 1, page.data()).ok());

  {
    auto g = pool.FixPage(a, 0, FixMode::kRead);
    ASSERT_TRUE(g.ok());
    g->mutable_data()[0] = 'L';
    g->MarkDirty();
  }
  FaultSpec spec;
  spec.kind = FaultKind::kSticky;
  spec.match_reads = false;
  disk.ArmFault(spec);
  EXPECT_FALSE(pool.FlushRun(a, 0, 1).ok());
  // The failed flush must not have leaked the unflushed byte.
  EXPECT_EQ(disk.PeekPage(a, 0)[0], 'k');
  disk.ClearFaults();
  ASSERT_TRUE(pool.FlushRun(a, 0, 1).ok());
  EXPECT_EQ(disk.PeekPage(a, 0)[0], 'L');
}

TEST(BufferPoolZeroCopy, BorrowSurvivesSaveRestoreAcrossEvictions) {
  StorageConfig cfg = SmallConfig();
  SimDisk disk(cfg);
  BufferPool pool(&disk, cfg);
  const AreaId a = disk.CreateArea();
  for (PageId p = 0; p < 8; ++p) {
    auto page = PageOf(cfg, static_cast<char>('A' + p));
    ASSERT_TRUE(disk.Write(a, p, 1, page.data()).ok());
  }
  // Fill the pool with borrowed frames 0..3.
  for (PageId p = 0; p < 4; ++p) {
    auto g = pool.FixPage(a, p, FixMode::kRead);
    ASSERT_TRUE(g.ok());
  }
  BufferPool::State saved = pool.SaveState();

  // A read-only audit walk cycles other pages through the pool,
  // evicting every saved frame.
  for (PageId p = 4; p < 8; ++p) {
    auto g = pool.FixPage(a, p, FixMode::kRead);
    ASSERT_TRUE(g.ok());
    EXPECT_EQ(g->data()[0], 'A' + static_cast<char>(p));
  }
  pool.RestoreState(saved);

  // The restored borrowed frames still serve the right bytes, as hits.
  for (PageId p = 0; p < 4; ++p) {
    EXPECT_TRUE(pool.IsCached(a, p));
    auto g = pool.FixPage(a, p, FixMode::kRead);
    ASSERT_TRUE(g.ok());
    EXPECT_EQ(g->data()[0], 'A' + static_cast<char>(p));
    EXPECT_EQ(g->data(), disk.PeekPage(a, p));
  }
}

TEST(BufferPoolZeroCopy, InvalidateDropsBorrowedFrame) {
  StorageConfig cfg = SmallConfig();
  SimDisk disk(cfg);
  BufferPool pool(&disk, cfg);
  const AreaId a = disk.CreateArea();
  auto page = PageOf(cfg, 'v');
  ASSERT_TRUE(disk.Write(a, 0, 1, page.data()).ok());
  { auto g = pool.FixPage(a, 0, FixMode::kRead); ASSERT_TRUE(g.ok()); }
  ASSERT_TRUE(pool.IsCached(a, 0));
  ASSERT_TRUE(pool.Invalidate(a, 0, 1).ok());
  EXPECT_FALSE(pool.IsCached(a, 0));
}

// ---- Differential: pool_zero_copy on vs off ----

// Drives an identical segment-I/O workload through two pools that differ
// only in pool_zero_copy and demands byte-identical disk images and
// identical modeled costs: borrow-vs-copy must be a wall-clock-only
// concern.
TEST(BufferPoolZeroCopy, DifferentialZeroCopyOnOff) {
  StorageConfig on = SmallConfig();
  on.pool_zero_copy = true;
  StorageConfig off = SmallConfig();
  off.pool_zero_copy = false;

  SimDisk disk_on(on), disk_off(off);
  BufferPool pool_on(&disk_on, on), pool_off(&disk_off, off);
  const AreaId a_on = disk_on.CreateArea();
  const AreaId a_off = disk_off.CreateArea();

  auto drive = [&](SimDisk* disk, BufferPool* pool, AreaId area) {
    const uint32_t P = disk->page_size();
    std::vector<char> buf(16 * P);
    for (size_t i = 0; i < buf.size(); ++i) {
      buf[i] = static_cast<char>('0' + (i * 7) % 64);
    }
    // Fresh segment write, bypassing the pool.
    ASSERT_TRUE(
        pool->WriteFreshSegment(area, 0, buf.data(), 10 * P + 123).ok());
    // Buffered read-modify-write of an unaligned range.
    ASSERT_TRUE(pool->WriteSegmentRange(area, 0, 10 * P + 123, P / 2,
                                        P + 17, buf.data())
                    .ok());
    // Large unbuffered write crossing many pages.
    ASSERT_TRUE(pool->WriteSegmentRange(area, 0, 10 * P + 123, 2 * P + 5,
                                        7 * P, buf.data())
                    .ok());
    // Reads: buffered window and unbuffered 3-step.
    std::vector<char> out(9 * P);
    ASSERT_TRUE(pool->ReadSegmentRange(area, 0, 10 * P + 123, P - 9,
                                       2 * P, out.data())
                    .ok());
    ASSERT_TRUE(pool->ReadSegmentRange(area, 0, 10 * P + 123, 3,
                                       8 * P + 200, out.data())
                    .ok());
    ASSERT_TRUE(pool->FlushRun(area, 0, 16).ok());
  };
  drive(&disk_on, &pool_on, a_on);
  drive(&disk_off, &pool_off, a_off);

  EXPECT_EQ(disk_on.stats().ms, disk_off.stats().ms);
  EXPECT_EQ(disk_on.stats().Seeks(), disk_off.stats().Seeks());
  EXPECT_EQ(disk_on.stats().PagesTransferred(),
            disk_off.stats().PagesTransferred());
  ASSERT_EQ(disk_on.AreaHighWater(a_on), disk_off.AreaHighWater(a_off));
  for (PageId p = 0; p < disk_on.AreaHighWater(a_on); ++p) {
    const char* img_on = disk_on.PeekPage(a_on, p);
    const char* img_off = disk_off.PeekPage(a_off, p);
    if (img_on == nullptr || img_off == nullptr) {
      EXPECT_EQ(img_on == nullptr, img_off == nullptr) << "page " << p;
      continue;
    }
    EXPECT_EQ(0, std::memcmp(img_on, img_off, on.page_size)) << "page " << p;
  }
}

// Coherence of the pool with direct I/O over ranges longer than the pool:
// ViewSegmentRange writes back the dirty frames among its middle pages in
// ascending page order, WriteFreshSegment refreshes the frames it covers,
// and Invalidate drops the covered frames in page order up to a pinned
// one. Frames are fixed out of page order so slot order differs from page
// order, with dirty and borrowed frames inside and outside each range.
// Both pool modes must produce the expected bytes, calls and cached sets.
TEST(BufferPoolZeroCopy, CoherenceOverRangesLongerThanThePool) {
  for (const bool zero_copy : {true, false}) {
    SCOPED_TRACE(zero_copy ? "zero-copy pool" : "copying pool");
    StorageConfig cfg;
    cfg.buffer_pool_pages = 6;
    cfg.pool_zero_copy = zero_copy;
    const uint64_t P = cfg.page_size;
    SimDisk disk(cfg);
    BufferPool pool(&disk, cfg);
    const AreaId a = disk.CreateArea();
    std::string image(24 * P, '\0');
    for (size_t i = 0; i < image.size(); ++i) {
      image[i] = static_cast<char>('A' + (i / P * 7 + i % P) % 50);
    }
    ASSERT_TRUE(disk.Write(a, 0, 24, image.data()).ok());
    auto fix = [&](PageId p) {
      auto g = pool.FixPage(a, p, FixMode::kRead);
      LOB_CHECK_OK(g.status());
      return std::move(*g);
    };
    auto dirty = [&](PageId p, char c) {
      PageGuard g = fix(p);
      std::memset(g.mutable_data() + 8, c, 16);
      g.MarkDirty();
    };
    auto poke = [&](PageId p, char c) {  // what a written-back `dirty` does
      std::memset(&image[p * P + 8], c, 16);
    };
    using CP = BufferPool::CachedPage;
    auto io_since = [&](const IoStats& before) {
      const IoStats d = IoStats::Delta(before, disk.stats());
      return std::vector<uint64_t>{d.read_calls, d.pages_read, d.write_calls,
                                   d.pages_written};
    };

    fix(2);  // borrowed (zero-copy) inside the view's middle pages
    dirty(9, 'p');
    dirty(5, 'x');
    dirty(7, 'y');
    dirty(20, 'z');  // dirty outside every range below
    fix(22);         // clean outside every range below

    // A fault on page 7's write-back stops the view after page 5's and
    // before page 9's: the dirty pages go out in ascending page order.
    FaultSpec on7;
    on7.match_reads = false;
    on7.match_range = true;
    on7.area = a;
    on7.first_page = 7;
    on7.last_page = 7;
    disk.ArmFault(on7);
    IoStats before = disk.stats();
    SpanList failed;
    EXPECT_FALSE(
        pool.ViewSegmentRange(a, 0, 24 * P, 100, 12 * P, &failed).ok());
    EXPECT_FALSE(pool.IsDirty(a, 5));
    EXPECT_TRUE(pool.IsDirty(a, 7));
    EXPECT_TRUE(pool.IsDirty(a, 9));
    EXPECT_EQ(io_since(before), (std::vector<uint64_t>{1, 1, 1, 1}));
    poke(5, 'x');

    before = disk.stats();
    SpanList view;
    ASSERT_TRUE(pool.ViewSegmentRange(a, 0, 24 * P, 100, 12 * P, &view).ok());
    poke(7, 'y');
    poke(9, 'p');
    EXPECT_EQ(Flatten(view), image.substr(100, 12 * P));
    EXPECT_EQ(io_since(before), (std::vector<uint64_t>{2, 12, 2, 2}));
    EXPECT_EQ(pool.CachedPagesSorted(),
              (std::vector<CP>{{a, 0, false}, {a, 5, false}, {a, 7, false},
                               {a, 12, false}, {a, 20, true},
                               {a, 22, false}}));

    // A fresh segment over pages 4..13 refreshes the cached 5 (dirty
    // again), 7 and 12 and leaves the frames outside alone.
    dirty(5, 'q');
    std::string fresh(10 * P - 7, '\0');
    for (size_t i = 0; i < fresh.size(); ++i) {
      fresh[i] = static_cast<char>('0' + (i * 13) % 64);
    }
    before = disk.stats();
    ASSERT_TRUE(pool.WriteFreshSegment(a, 4, fresh.data(), fresh.size()).ok());
    EXPECT_EQ(io_since(before), (std::vector<uint64_t>{0, 0, 1, 10}));
    image.replace(4 * P, 10 * P, fresh + std::string(7, '\0'));
    EXPECT_EQ(pool.CachedPagesSorted(),
              (std::vector<CP>{{a, 0, false}, {a, 5, false}, {a, 7, false},
                               {a, 12, false}, {a, 20, true},
                               {a, 22, false}}));
    for (PageId p : {5u, 7u, 12u}) {
      EXPECT_EQ(std::string(fix(p).data(), P), image.substr(p * P, P))
          << "page " << p;
    }

    // Invalidating pages 3..17 drops 5 and the dirty 7 unwritten, then
    // stops at the pinned 12; once unpinned, 12 goes too.
    dirty(7, 'r');
    before = disk.stats();
    {
      PageGuard pin = fix(12);
      EXPECT_EQ(pool.Invalidate(a, 3, 15).code(), StatusCode::kInternal);
    }
    EXPECT_EQ(pool.CachedPagesSorted(),
              (std::vector<CP>{{a, 0, false}, {a, 12, false}, {a, 20, true},
                               {a, 22, false}}));
    ASSERT_TRUE(pool.Invalidate(a, 3, 15).ok());
    EXPECT_EQ(pool.CachedPagesSorted(),
              (std::vector<CP>{{a, 0, false}, {a, 20, true}, {a, 22, false}}));
    EXPECT_EQ(io_since(before), (std::vector<uint64_t>{0, 0, 0, 0}));

    ASSERT_TRUE(pool.FlushAll().ok());
    poke(20, 'z');
    for (PageId p = 0; p < 24; ++p) {
      ASSERT_NE(disk.PeekPage(a, p), nullptr);
      EXPECT_EQ(std::string(disk.PeekPage(a, p), P), image.substr(p * P, P))
          << "page " << p;
    }
    EXPECT_EQ(disk.stats().read_calls, 9u);
    EXPECT_EQ(disk.stats().write_calls, 6u);
  }
}

// ---- PageTable unit coverage ----

TEST(PageTableTest, InsertFindEraseOverwrite) {
  PageTable t;
  EXPECT_EQ(t.Find(42), -1);
  t.Insert(42, 7);
  EXPECT_EQ(t.Find(42), 7);
  t.Insert(42, 9);  // overwrite, not duplicate
  EXPECT_EQ(t.Find(42), 9);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.Erase(42));
  EXPECT_FALSE(t.Erase(42));
  EXPECT_EQ(t.Find(42), -1);
  EXPECT_EQ(t.size(), 0u);
}

TEST(PageTableTest, GrowsPastInitialCapacityAndBackShifts) {
  PageTable t;
  // Hundreds of inserts force several rehashes past the 16-bucket floor.
  for (uint64_t k = 0; k < 500; ++k) t.Insert(k * 0x9E3779B97F4A7C15ULL, 1);
  EXPECT_EQ(t.size(), 500u);
  // Erase every other key; the survivors must all stay findable
  // (backward-shift deletion leaves no tombstones to stumble over).
  for (uint64_t k = 0; k < 500; k += 2) {
    EXPECT_TRUE(t.Erase(k * 0x9E3779B97F4A7C15ULL));
  }
  for (uint64_t k = 1; k < 500; k += 2) {
    EXPECT_EQ(t.Find(k * 0x9E3779B97F4A7C15ULL), 1) << k;
  }
  for (uint64_t k = 0; k < 500; k += 2) {
    EXPECT_EQ(t.Find(k * 0x9E3779B97F4A7C15ULL), -1) << k;
  }
}

TEST(PageTableTest, MatchesReferenceMapUnderChurn) {
  PageTable t;
  std::vector<std::pair<uint64_t, uint32_t>> ref;
  uint64_t rng = 12345;
  auto next = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int i = 0; i < 5000; ++i) {
    const uint64_t key = next() % 257;  // small key space: heavy churn
    if (next() % 3 == 0) {
      t.Erase(key);
      for (auto it = ref.begin(); it != ref.end(); ++it) {
        if (it->first == key) { ref.erase(it); break; }
      }
    } else {
      const uint32_t slot = static_cast<uint32_t>(next() % 1000);
      t.Insert(key, slot);
      bool found = false;
      for (auto& kv : ref) {
        if (kv.first == key) { kv.second = slot; found = true; break; }
      }
      if (!found) ref.emplace_back(key, slot);
    }
  }
  EXPECT_EQ(t.size(), ref.size());
  for (const auto& kv : ref) {
    EXPECT_EQ(t.Find(kv.first), static_cast<int>(kv.second)) << kv.first;
  }
}

}  // namespace
}  // namespace lob
