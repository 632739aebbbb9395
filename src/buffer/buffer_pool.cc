#include "buffer/buffer_pool.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "common/math_util.h"
#include "obs/obs_registry.h"
#include "trace/trace_span.h"

namespace lob {

// ----------------------------------------------------------------- SpanList

void SpanList::Append(const char* data, uint64_t n) {
  if (n == 0) return;
  bytes_ += n;
  if (!spans_.empty()) {
    ByteSpan& last = spans_.back();
    const bool continues = data == nullptr
                               ? last.data == nullptr
                               : last.data != nullptr &&
                                     last.data + last.size == data;
    if (continues) {
      last.size += n;
      return;
    }
  }
  spans_.push_back(ByteSpan{data, n});
}

void SpanList::AppendCopy(const char* data, uint64_t n) {
  if (n == 0) return;
  // Unaligned staging keeps consecutive copies contiguous, so they merge.
  char* stage = staged_.Allocate(n, /*align=*/1);
  std::memcpy(stage, data, n);
  Append(stage, n);
}

void SpanList::Clear() {
  spans_.clear();
  staged_.Reset();
  bytes_ = 0;
}

void SpanCursor::Take(uint64_t n, SpanList* out) {
  while (n > 0) {
    LOB_CHECK_LT(span_, list_.count());
    const ByteSpan& span = list_.spans()[span_];
    const uint64_t take = std::min(span.size - used_, n);
    if (out != nullptr) {
      out->Append(span.data == nullptr ? nullptr : span.data + used_, take);
    }
    used_ += take;
    n -= take;
    if (used_ == span.size) {
      ++span_;
      used_ = 0;
    }
  }
}

// ---------------------------------------------------------------- PageGuard

PageGuard::PageGuard(BufferPool* pool, uint32_t slot)
    : pool_(pool), slot_(slot) {}

PageGuard::PageGuard(PageGuard&& other) noexcept
    : pool_(other.pool_), slot_(other.slot_) {
  other.pool_ = nullptr;
}

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    slot_ = other.slot_;
    other.pool_ = nullptr;
  }
  return *this;
}

PageGuard::~PageGuard() { Release(); }

const char* PageGuard::data() const {
  LOB_CHECK(pool_ != nullptr);
  ReaderMutexLock lock(&pool_->mu_);
  // The returned pointer outlives the latch but not the pin: frame slots
  // and borrowed page images are stable while the pin count is non-zero.
  return pool_->FrameDataLocked(slot_);
}

char* PageGuard::mutable_data() {
  LOB_CHECK(pool_ != nullptr);
  WriterMutexLock lock(&pool_->mu_);
  return pool_->MaterializeSlotLocked(slot_);
}

void PageGuard::MarkDirty() {
  LOB_CHECK(pool_ != nullptr);
  WriterMutexLock lock(&pool_->mu_);
  pool_->MaterializeSlotLocked(slot_);
  pool_->frames_[slot_].dirty = true;
}

void PageGuard::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(slot_);
    pool_ = nullptr;
  }
}

// --------------------------------------------------------------- BufferPool

BufferPool::BufferPool(SimDisk* disk, const StorageConfig& config)
    : disk_(disk), config_(config) {
  LOB_CHECK_GE(config_.buffer_pool_pages, 2u);
  LOB_CHECK_LE(config_.max_pool_segment_pages, config_.buffer_pool_pages);
  arena_.resize(static_cast<size_t>(config_.buffer_pool_pages) *
                config_.page_size);
  frames_.resize(config_.buffer_pool_pages);
}

int BufferPool::FindSlot(AreaId area, PageId page) const {
  return map_.Find(Key(area, page));
}

char* BufferPool::MaterializeSlotLocked(uint32_t slot) {
  Frame& f = frames_[slot];
  if (f.borrow != nullptr) {
    std::memcpy(SlotData(slot), f.borrow, config_.page_size);
    f.borrow = nullptr;
  }
  return SlotData(slot);
}

void BufferPool::UnpinLocked(uint32_t slot) {
  Frame& f = frames_[slot];
  LOB_CHECK_GT(f.pins, 0u);
  f.pins--;
}

void BufferPool::Unpin(uint32_t slot) {
  WriterMutexLock lock(&mu_);
  UnpinLocked(slot);
}

Status BufferPool::EvictSlot(uint32_t slot) {
  Frame& f = frames_[slot];
  if (!f.valid) return Status::OK();
  if (f.pins != 0) return Status::Internal("evicting pinned page");
  evictions_++;
  if (f.dirty) {
    LOB_TRACE_SPAN(disk_, "pool.evict");
    LOB_RETURN_IF_ERROR(disk_->Write(f.area, f.page, 1, SlotData(slot)));
  }
  map_.Erase(Key(f.area, f.page));
  f.valid = false;
  f.dirty = false;
  f.borrow = nullptr;
  return Status::OK();
}

StatusOr<uint32_t> BufferPool::GetFreeSlot() {
  // Invalid frame first; then LRU among unpinned clean frames; then LRU
  // among unpinned dirty frames (paper 3.2: free least recently used clean
  // pages followed by dirty pages).
  int best_invalid = -1;
  int best_clean = -1;
  int best_dirty = -1;
  for (uint32_t i = 0; i < frames_.size(); ++i) {
    const Frame& f = frames_[i];
    if (!f.valid) {
      best_invalid = static_cast<int>(i);
      break;
    }
    if (f.pins != 0) continue;
    if (!f.dirty) {
      if (best_clean < 0 || f.lru < frames_[static_cast<uint32_t>(
                                         best_clean)].lru) {
        best_clean = static_cast<int>(i);
      }
    } else {
      if (best_dirty < 0 || f.lru < frames_[static_cast<uint32_t>(
                                         best_dirty)].lru) {
        best_dirty = static_cast<int>(i);
      }
    }
  }
  int victim = best_invalid >= 0 ? best_invalid
               : best_clean >= 0 ? best_clean
                                 : best_dirty;
  if (victim < 0) return Status::NoSpace("all buffer frames are pinned");
  LOB_RETURN_IF_ERROR(EvictSlot(static_cast<uint32_t>(victim)));
  return static_cast<uint32_t>(victim);
}

StatusOr<PageGuard> BufferPool::FixPage(AreaId area, PageId page,
                                        FixMode mode) {
  WriterMutexLock lock(&mu_);
  auto slot_or = FixSlotLocked(area, page, mode);
  if (!slot_or.ok()) return slot_or.status();
  return PageGuard(this, *slot_or);
}

StatusOr<uint32_t> BufferPool::FixSlotLocked(AreaId area, PageId page,
                                             FixMode mode) {
  int existing = FindSlot(area, page);
  if (existing >= 0) {
    uint32_t slot = static_cast<uint32_t>(existing);
    Frame& f = frames_[slot];
    f.pins++;
    f.lru = ++tick_;
    hits_++;
    return slot;
  }
  auto slot_or = GetFreeSlot();
  if (!slot_or.ok()) return slot_or.status();
  uint32_t slot = *slot_or;
  Frame& f = frames_[slot];
  if (mode == FixMode::kRead) {
    PageRef ref;
    {
      LOB_TRACE_SPAN(disk_, "pool.miss");
      LOB_RETURN_IF_ERROR(disk_->ReadRun(area, page, 1, &ref));
    }
    if (ref.data != nullptr && config_.pool_zero_copy) {
      f.borrow = ref.data;
    } else if (ref.data != nullptr) {
      std::memcpy(SlotData(slot), ref.data, config_.page_size);
      f.borrow = nullptr;
    } else {
      // Never-written page: reads as zeros.
      std::memset(SlotData(slot), 0, config_.page_size);
      f.borrow = nullptr;
    }
    misses_++;
  } else {
    std::memset(SlotData(slot), 0, config_.page_size);
    f.borrow = nullptr;
  }
  f.area = area;
  f.page = page;
  f.valid = true;
  f.dirty = false;
  f.pins = 1;
  f.lru = ++tick_;
  map_.Insert(Key(area, page), slot);
  return slot;
}

Status BufferPool::FlushAndDropRange(AreaId area, PageId first,
                                     uint32_t n_pages) {
  for (uint32_t i = 0; i < n_pages; ++i) {
    int s = FindSlot(area, first + i);
    if (s < 0) continue;
    Frame& f = frames_[static_cast<uint32_t>(s)];
    if (f.pins != 0) return Status::Internal("page pinned during drop");
    LOB_RETURN_IF_ERROR(EvictSlot(static_cast<uint32_t>(s)));
  }
  return Status::OK();
}

Status BufferPool::ReadSegmentRange(AreaId area, PageId seg_first,
                                    uint64_t seg_valid_bytes,
                                    uint64_t byte_off, uint64_t n_bytes,
                                    char* dst) {
  WriterMutexLock lock(&mu_);
  char* out = dst;
  LOB_RETURN_IF_ERROR(ReadRangeLocked(
      area, seg_first, seg_valid_bytes, byte_off, n_bytes,
      [&out](const char* data, uint64_t n, bool /*borrowed*/) {
        if (data == nullptr) {
          std::memset(out, 0, n);
        } else {
          std::memcpy(out, data, n);
        }
        out += n;
      }));
  LOB_CHECK_EQ(static_cast<uint64_t>(out - dst), n_bytes);
  return Status::OK();
}

Status BufferPool::ViewSegmentRange(AreaId area, PageId seg_first,
                                    uint64_t seg_valid_bytes,
                                    uint64_t byte_off, uint64_t n_bytes,
                                    SpanList* out) {
  WriterMutexLock lock(&mu_);
  const uint64_t before = out->bytes();
  LOB_RETURN_IF_ERROR(ReadRangeLocked(
      area, seg_first, seg_valid_bytes, byte_off, n_bytes,
      [out](const char* data, uint64_t n, bool borrowed) {
        if (borrowed) {
          out->Append(data, n);
        } else {
          out->AppendCopy(data, n);
        }
      }));
  LOB_CHECK_EQ(out->bytes() - before, n_bytes);
  return Status::OK();
}

template <typename Sink>
Status BufferPool::ReadRangeLocked(AreaId area, PageId seg_first,
                                   uint64_t seg_valid_bytes,
                                   uint64_t byte_off, uint64_t n_bytes,
                                   const Sink& sink) {
  if (n_bytes == 0) return Status::OK();
  if (byte_off + n_bytes > seg_valid_bytes) {
    return Status::OutOfRange("read past segment valid bytes");
  }
  const uint64_t P = config_.page_size;
  const PageId p0 = seg_first + static_cast<PageId>(byte_off / P);
  const PageId p1 =
      seg_first + static_cast<PageId>((byte_off + n_bytes - 1) / P);
  const uint32_t np = p1 - p0 + 1;
  // Hands the part of page p inside the requested range to the sink.
  auto emit_part = [&](PageId p, const char* page_data) {
    const uint64_t page_begin = static_cast<uint64_t>(p - seg_first) * P;
    const uint64_t lo = std::max(byte_off, page_begin);
    const uint64_t hi = std::min(byte_off + n_bytes, page_begin + P);
    sink(page_data + (lo - page_begin), hi - lo, false);
  };

  if (np <= config_.max_pool_segment_pages) {
    // Buffered path: make sure the run is cached. If any page misses, the
    // whole run is (re)fetched with a single I/O call into a contiguous
    // frame window; if no window can be freed, fall back to page-at-a-time.
    bool all_cached = true;
    for (PageId p = p0; p <= p1; ++p) {
      if (FindSlot(area, p) < 0) {
        all_cached = false;
        break;
      }
    }
    if (!all_cached) {
      Status loaded = Status::NoSpace("");
      // Find a window of np contiguous unpinned slots. (Borrowed frames
      // no longer need slot contiguity, but the window search — and so
      // the eviction sequence — is kept identical to the copying pool.)
      for (uint32_t w = 0; w + np <= frames_.size(); ++w) {
        bool usable = true;
        for (uint32_t i = 0; i < np; ++i) {
          if (frames_[w + i].pins != 0) {
            usable = false;
            break;
          }
        }
        if (!usable) continue;
        LOB_RETURN_IF_ERROR(FlushAndDropRange(area, p0, np));
        for (uint32_t i = 0; i < np; ++i) {
          LOB_RETURN_IF_ERROR(EvictSlot(w + i));
        }
        ScratchMark sm(&scratch_);
        PageRef* refs = scratch_.AllocArray<PageRef>(np);
        {
          LOB_TRACE_SPAN(disk_, "pool.refetch");
          LOB_RETURN_IF_ERROR(disk_->ReadRun(area, p0, np, refs));
        }
        misses_++;
        for (uint32_t i = 0; i < np; ++i) {
          Frame& f = frames_[w + i];
          if (refs[i].data != nullptr && config_.pool_zero_copy) {
            f.borrow = refs[i].data;
          } else if (refs[i].data != nullptr) {
            std::memcpy(SlotData(w + i), refs[i].data, config_.page_size);
            f.borrow = nullptr;
          } else {
            std::memset(SlotData(w + i), 0, config_.page_size);
            f.borrow = nullptr;
          }
          f.area = area;
          f.page = p0 + i;
          f.valid = true;
          f.dirty = false;
          f.pins = 0;
          f.lru = ++tick_;
          map_.Insert(Key(area, p0 + i), w + i);
        }
        loaded = Status::OK();
        break;
      }
      if (!loaded.ok()) {
        // Degenerate fallback: everything else is pinned; fetch page by
        // page (one seek each), handing each page over while its pin is
        // held since a later fetch may evict an earlier page again.
        for (PageId p = p0; p <= p1; ++p) {
          auto s_or = FixSlotLocked(area, p, FixMode::kRead);
          if (!s_or.ok()) return s_or.status();
          emit_part(p, FrameDataLocked(*s_or));
          UnpinLocked(*s_or);
        }
        return Status::OK();
      }
    }
    // Hand the requested bytes over from the frames.
    for (PageId p = p0; p <= p1; ++p) {
      int s = FindSlot(area, p);
      LOB_CHECK_GE(s, 0);
      frames_[static_cast<uint32_t>(s)].lru = ++tick_;
      emit_part(p, FrameDataLocked(static_cast<uint32_t>(s)));
    }
    return Status::OK();
  }

  // Unbuffered path with 3-step boundary handling (paper Figure 4): the
  // partial first and last blocks travel through the pool, the full
  // middle blocks are borrowed straight from the disk images.
  PageId mid_first = p0;
  uint32_t mid_count = np;
  if (byte_off % P != 0) {
    auto s_or = FixSlotLocked(area, p0, FixMode::kRead);
    if (!s_or.ok()) return s_or.status();
    emit_part(p0, FrameDataLocked(*s_or));
    UnpinLocked(*s_or);
    ++mid_first;
    --mid_count;
  }
  const bool tail_partial = mid_count > 0 && (byte_off + n_bytes) % P != 0;
  if (tail_partial) --mid_count;
  if (mid_count > 0) {
    // Keep direct I/O coherent with the pool: write back any dirty cached
    // copies first (clean cached copies already match the disk image).
    for (uint32_t i = 0; i < mid_count; ++i) {
      int s = FindSlot(area, mid_first + i);
      if (s >= 0 && frames_[static_cast<uint32_t>(s)].dirty) {
        Frame& f = frames_[static_cast<uint32_t>(s)];
        LOB_RETURN_IF_ERROR(
            disk_->Write(f.area, f.page, 1, SlotData(static_cast<uint32_t>(s))));
        f.dirty = false;
      }
    }
    ScratchMark sm(&scratch_);
    PageRef* refs = scratch_.AllocArray<PageRef>(mid_count);
    {
      LOB_TRACE_SPAN(disk_, "pool.read_run");
      LOB_RETURN_IF_ERROR(disk_->ReadRun(area, mid_first, mid_count, refs));
    }
    for (uint32_t i = 0; i < mid_count; ++i) sink(refs[i].data, P, true);
  }
  if (tail_partial) {
    auto s_or = FixSlotLocked(area, p1, FixMode::kRead);
    if (!s_or.ok()) return s_or.status();
    emit_part(p1, FrameDataLocked(*s_or));
    UnpinLocked(*s_or);
  }
  return Status::OK();
}

Status BufferPool::WriteSegmentRange(AreaId area, PageId seg_first,
                                     uint64_t seg_valid_bytes,
                                     uint64_t byte_off, uint64_t n_bytes,
                                     const char* src) {
  if (n_bytes == 0) return Status::OK();
  WriterMutexLock lock(&mu_);
  const uint64_t P = config_.page_size;
  const PageId p0 = seg_first + static_cast<PageId>(byte_off / P);
  const PageId p1 =
      seg_first + static_cast<PageId>((byte_off + n_bytes - 1) / P);
  const uint32_t np = p1 - p0 + 1;

  // Does page p (absolute) hold valid bytes outside the written interval?
  auto needs_read = [&](PageId p) {
    const uint64_t page_begin = static_cast<uint64_t>(p - seg_first) * P;
    const uint64_t valid_hi = std::min(seg_valid_bytes, page_begin + P);
    if (valid_hi <= page_begin) return false;  // no valid bytes on the page
    const uint64_t w_lo = std::max(byte_off, page_begin);
    const uint64_t w_hi = std::min(byte_off + n_bytes, page_begin + P);
    return page_begin < w_lo || w_hi < valid_hi;
  };

  if (np <= config_.max_pool_segment_pages) {
    // Buffered: stage into frames; the caller flushes at operation end.
    for (PageId p = p0; p <= p1; ++p) {
      auto s_or = FixSlotLocked(
          area, p, needs_read(p) ? FixMode::kRead : FixMode::kNew);
      if (!s_or.ok()) return s_or.status();
      const uint64_t page_begin = static_cast<uint64_t>(p - seg_first) * P;
      const uint64_t lo = std::max(byte_off, page_begin);
      const uint64_t hi = std::min(byte_off + n_bytes, page_begin + P);
      std::memcpy(MaterializeSlotLocked(*s_or) + (lo - page_begin),
                  src + (lo - byte_off), hi - lo);
      frames_[*s_or].dirty = true;
      UnpinLocked(*s_or);
    }
    return Status::OK();
  }

  // Unbuffered: gather-write the full run with one I/O call. Middle pages
  // are fully covered by `src` and go straight from the caller's buffer;
  // boundary pages that keep valid bytes outside the write travel through
  // the pool (3-step I/O, paper Figure 4) into an arena staging page.
  ScratchMark sm(&scratch_);
  const char** srcs = scratch_.AllocArray<const char*>(np);
  for (PageId p = p0; p <= p1; ++p) {
    const uint64_t page_begin = static_cast<uint64_t>(p - seg_first) * P;
    const uint32_t i = p - p0;
    if (page_begin >= byte_off && page_begin + P <= byte_off + n_bytes) {
      srcs[i] = src + (page_begin - byte_off);
      continue;
    }
    char* stage = scratch_.Allocate(P);
    if (needs_read(p)) {
      auto s_or = FixSlotLocked(area, p, FixMode::kRead);
      if (!s_or.ok()) return s_or.status();
      std::memcpy(stage, FrameDataLocked(*s_or), P);
      UnpinLocked(*s_or);
    } else {
      std::memset(stage, 0, P);
    }
    const uint64_t lo = std::max(byte_off, page_begin);
    const uint64_t hi = std::min(byte_off + n_bytes, page_begin + P);
    std::memcpy(stage + (lo - page_begin), src + (lo - byte_off), hi - lo);
    srcs[i] = stage;
  }
  MutPageRef* imgs = scratch_.AllocArray<MutPageRef>(np);
  {
    LOB_TRACE_SPAN(disk_, "pool.write_run");
    LOB_RETURN_IF_ERROR(disk_->WriteRun(area, p0, np, srcs, imgs));
  }
  // Refresh any cached copies so the pool stays coherent: re-borrow the
  // freshly written images instead of copying them back.
  for (PageId p = p0; p <= p1; ++p) {
    int s = FindSlot(area, p);
    if (s < 0) continue;
    Frame& f = frames_[static_cast<uint32_t>(s)];
    if (config_.pool_zero_copy) {
      f.borrow = imgs[p - p0].data;
    } else {
      std::memcpy(SlotData(static_cast<uint32_t>(s)), imgs[p - p0].data, P);
      f.borrow = nullptr;
    }
    f.dirty = false;
  }
  return Status::OK();
}

Status BufferPool::WriteFreshSegment(AreaId area, PageId first,
                                     const ByteSpan* spans, size_t n_spans) {
  uint64_t n_bytes = 0;
  for (size_t i = 0; i < n_spans; ++i) n_bytes += spans[i].size;
  if (n_bytes == 0) return Status::OK();
  WriterMutexLock lock(&mu_);
  const uint64_t P = config_.page_size;
  const uint32_t np = static_cast<uint32_t>((n_bytes + P - 1) / P);
  ScratchMark sm(&scratch_);
  MutPageRef* imgs = scratch_.AllocArray<MutPageRef>(np);
  {
    LOB_TRACE_SPAN(disk_, "pool.write_fresh");
    LOB_RETURN_IF_ERROR(disk_->WriteSpans(area, first, spans, n_spans, imgs));
  }
  for (uint32_t i = 0; i < np; ++i) {
    int s = FindSlot(area, first + i);
    if (s < 0) continue;
    Frame& f = frames_[static_cast<uint32_t>(s)];
    if (config_.pool_zero_copy) {
      f.borrow = imgs[i].data;
    } else {
      std::memcpy(SlotData(static_cast<uint32_t>(s)), imgs[i].data, P);
      f.borrow = nullptr;
    }
    f.dirty = false;
  }
  return Status::OK();
}

Status BufferPool::FlushRun(AreaId area, PageId first, uint32_t n_pages) {
  WriterMutexLock lock(&mu_);
  return FlushRunLocked(area, first, n_pages);
}

Status BufferPool::FlushRunLocked(AreaId area, PageId first,
                                  uint32_t n_pages) {
  uint32_t i = 0;
  while (i < n_pages) {
    int s = FindSlot(area, first + i);
    if (s < 0 || !frames_[static_cast<uint32_t>(s)].dirty) {
      ++i;
      continue;
    }
    // Maximal contiguous dirty run starting at first + i, gathered
    // directly from the frames (dirty frames are never borrows, so their
    // bytes live in the pool slots).
    ScratchMark sm(&scratch_);
    ArenaVec<uint32_t> slots(&scratch_);
    slots.push_back(static_cast<uint32_t>(s));
    uint32_t j = i + 1;
    while (j < n_pages) {
      int sj = FindSlot(area, first + j);
      if (sj < 0 || !frames_[static_cast<uint32_t>(sj)].dirty) break;
      slots.push_back(static_cast<uint32_t>(sj));
      ++j;
    }
    const uint32_t count = j - i;
    const char** srcs = scratch_.AllocArray<const char*>(count);
    for (uint32_t k = 0; k < count; ++k) {
      LOB_CHECK(frames_[slots[k]].borrow == nullptr);
      srcs[k] = SlotData(slots[k]);
    }
    {
      LOB_TRACE_SPAN(disk_, "pool.flush");
      LOB_RETURN_IF_ERROR(disk_->WriteRun(area, first + i, count, srcs));
    }
    for (uint32_t k = 0; k < count; ++k) {
      frames_[slots[k]].dirty = false;
    }
    i = j;
  }
  return Status::OK();
}

Status BufferPool::FlushAll() {
  WriterMutexLock lock(&mu_);
  // Collect dirty pages, sorted, and flush maximal contiguous runs.
  std::vector<std::pair<uint64_t, uint32_t>> dirty;  // (key, slot)
  for (uint32_t i = 0; i < frames_.size(); ++i) {
    const Frame& f = frames_[i];
    if (f.valid && f.dirty) dirty.emplace_back(Key(f.area, f.page), i);
  }
  std::sort(dirty.begin(), dirty.end());
  size_t i = 0;
  while (i < dirty.size()) {
    size_t j = i + 1;
    while (j < dirty.size() && dirty[j].first == dirty[j - 1].first + 1) ++j;
    const Frame& f0 = frames_[dirty[i].second];
    LOB_RETURN_IF_ERROR(
        FlushRunLocked(f0.area, f0.page, static_cast<uint32_t>(j - i)));
    i = j;
  }
  return Status::OK();
}

Status BufferPool::Invalidate(AreaId area, PageId first, uint32_t n_pages) {
  WriterMutexLock lock(&mu_);
  for (uint32_t i = 0; i < n_pages; ++i) {
    int s = FindSlot(area, first + i);
    if (s < 0) continue;
    Frame& f = frames_[static_cast<uint32_t>(s)];
    if (f.pins != 0) return Status::Internal("invalidating pinned page");
    map_.Erase(Key(f.area, f.page));
    f.valid = false;
    f.dirty = false;
    f.borrow = nullptr;
  }
  return Status::OK();
}

std::vector<BufferPool::CachedPage> BufferPool::CachedPagesSorted() const {
  // Walk the frame table (a vector, slot order) rather than the hash
  // lookup table, then pin the ordering explicitly: the result must be a
  // pure function of *which* pages are cached, never of insertion order
  // or hash seeding.
  ReaderMutexLock lock(&mu_);
  std::vector<CachedPage> out;
  out.reserve(frames_.size());
  for (const Frame& f : frames_) {
    if (f.valid) out.push_back({f.area, f.page, f.dirty});
  }
  std::sort(out.begin(), out.end(),
            [](const CachedPage& a, const CachedPage& b) {
              return a.area != b.area ? a.area < b.area : a.page < b.page;
            });
  return out;
}

bool BufferPool::IsCached(AreaId area, PageId page) const {
  ReaderMutexLock lock(&mu_);
  return FindSlot(area, page) >= 0;
}

bool BufferPool::IsDirty(AreaId area, PageId page) const {
  ReaderMutexLock lock(&mu_);
  int s = FindSlot(area, page);
  return s >= 0 && frames_[static_cast<uint32_t>(s)].dirty;
}

BufferPool::State BufferPool::SaveState() const {
  ReaderMutexLock lock(&mu_);
  for (const Frame& f : frames_) LOB_CHECK_EQ(f.pins, 0u);
  State state;
  state.arena = arena_;
  state.frames = frames_;
  state.map = map_;
  state.tick = tick_;
  state.hits = hits_;
  state.misses = misses_;
  state.evictions = evictions_;
  return state;
}

void BufferPool::RestoreState(const State& state) {
  WriterMutexLock lock(&mu_);
  for (const Frame& f : frames_) LOB_CHECK_EQ(f.pins, 0u);
  // A read-only walk can still have *written* to disk (evicting a dirty
  // victim); restoring the frame's dirty bit afterwards is safe because
  // the content did not change, so the eventual re-write is identical.
  arena_ = state.arena;
  frames_ = state.frames;
  map_ = state.map;
  tick_ = state.tick;
  hits_ = state.hits;
  misses_ = state.misses;
  evictions_ = state.evictions;
}

void BufferPool::PublishCounters(ObsRegistry* obs) const {
  ReaderMutexLock lock(&mu_);
  obs->Counter("pool.fix_hits") = hits_;
  obs->Counter("pool.fix_misses") = misses_;
  obs->Counter("pool.evictions") = evictions_;
}

}  // namespace lob
