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
  // Frame slots and borrowed page images are stable while the pin is held.
  return pool_->FrameData(slot_);
}

char* PageGuard::mutable_data() {
  LOB_CHECK(pool_ != nullptr);
  return pool_->MaterializeSlot(slot_);
}

void PageGuard::MarkDirty() {
  LOB_CHECK(pool_ != nullptr);
  pool_->MaterializeSlot(slot_);
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

uint32_t BufferPool::FramesInRange(AreaId area, PageId first,
                                   uint32_t n_pages, uint32_t* out) const {
  uint32_t n = 0;
  if (n_pages <= frames_.size()) {
    // A range no longer than the pool: a lookup per page is cheaper than
    // a scan and a sort, and finds the frames in page order.
    for (uint32_t i = 0; i < n_pages; ++i) {
      const int s = FindSlot(area, first + i);
      if (s >= 0) out[n++] = static_cast<uint32_t>(s);
    }
    return n;
  }
  for (uint32_t i = 0; i < frames_.size(); ++i) {
    const Frame& f = frames_[i];
    // Unsigned wrap-around puts pages below `first` out of range too.
    if (f.valid && f.area == area && f.page - first < n_pages) out[n++] = i;
  }
  std::sort(out, out + n, [this](uint32_t a, uint32_t b) {
    return frames_[a].page < frames_[b].page;
  });
  return n;
}

void BufferPool::RefreshFrames(AreaId area, PageId first, uint32_t n,
                               const MutPageRef* imgs) {
  ScratchMark sm(&scratch_);
  uint32_t* slots = scratch_.AllocArray<uint32_t>(frames_.size());
  const uint32_t cached = FramesInRange(area, first, n, slots);
  for (uint32_t k = 0; k < cached; ++k) {
    Frame& f = frames_[slots[k]];
    const char* img = imgs[f.page - first].data;
    if (config_.pool_zero_copy) {
      f.borrow = img;
    } else {
      std::memcpy(SlotData(slots[k]), img, config_.page_size);
      f.borrow = nullptr;
    }
    f.dirty = false;
  }
}

char* BufferPool::MaterializeSlot(uint32_t slot) {
  Frame& f = frames_[slot];
  if (f.borrow != nullptr) {
    std::memcpy(SlotData(slot), f.borrow, config_.page_size);
    f.borrow = nullptr;
  }
  return SlotData(slot);
}

void BufferPool::Unpin(uint32_t slot) {
  Frame& f = frames_[slot];
  LOB_CHECK_GT(f.pins, 0u);
  f.pins--;
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
  disk_->CheckOwner("BufferPool::FixPage");
  int existing = FindSlot(area, page);
  if (existing >= 0) {
    uint32_t slot = static_cast<uint32_t>(existing);
    Frame& f = frames_[slot];
    f.pins++;
    f.lru = ++tick_;
    hits_++;
    return PageGuard(this, slot);
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
  return PageGuard(this, slot);
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
  disk_->CheckOwner("BufferPool::ReadSegmentRange");
  char* out = dst;
  LOB_RETURN_IF_ERROR(ReadRange(
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
  disk_->CheckOwner("BufferPool::ViewSegmentRange");
  const uint64_t before = out->bytes();
  LOB_RETURN_IF_ERROR(ReadRange(
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
Status BufferPool::ReadRange(AreaId area, PageId seg_first,
                             uint64_t seg_valid_bytes, uint64_t byte_off,
                             uint64_t n_bytes, const Sink& sink) {
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
          auto g = FixPage(area, p, FixMode::kRead);
          if (!g.ok()) return g.status();
          emit_part(p, g->data());
        }
        return Status::OK();
      }
    }
    // Hand the requested bytes over from the frames.
    for (PageId p = p0; p <= p1; ++p) {
      int s = FindSlot(area, p);
      LOB_CHECK_GE(s, 0);
      frames_[static_cast<uint32_t>(s)].lru = ++tick_;
      emit_part(p, FrameData(static_cast<uint32_t>(s)));
    }
    return Status::OK();
  }

  // Unbuffered path with 3-step boundary handling (paper Figure 4): the
  // partial first and last blocks travel through the pool, the full
  // middle blocks are borrowed straight from the disk images.
  PageId mid_first = p0;
  uint32_t mid_count = np;
  if (byte_off % P != 0) {
    auto g = FixPage(area, p0, FixMode::kRead);
    if (!g.ok()) return g.status();
    emit_part(p0, g->data());
    ++mid_first;
    --mid_count;
  }
  const bool tail_partial = mid_count > 0 && (byte_off + n_bytes) % P != 0;
  if (tail_partial) --mid_count;
  if (mid_count > 0) {
    // Keep direct I/O coherent with the pool: write back any dirty cached
    // copies first, in ascending page order (clean cached copies already
    // match the disk image).
    ScratchMark sm(&scratch_);
    uint32_t* slots = scratch_.AllocArray<uint32_t>(frames_.size());
    const uint32_t cached = FramesInRange(area, mid_first, mid_count, slots);
    for (uint32_t k = 0; k < cached; ++k) {
      Frame& f = frames_[slots[k]];
      if (!f.dirty) continue;
      LOB_RETURN_IF_ERROR(disk_->Write(f.area, f.page, 1, SlotData(slots[k])));
      f.dirty = false;
    }
    PageRef* refs = scratch_.AllocArray<PageRef>(mid_count);
    {
      LOB_TRACE_SPAN(disk_, "pool.read_run");
      LOB_RETURN_IF_ERROR(disk_->ReadRun(area, mid_first, mid_count, refs));
    }
    for (uint32_t i = 0; i < mid_count; ++i) sink(refs[i].data, P, true);
  }
  if (tail_partial) {
    auto g = FixPage(area, p1, FixMode::kRead);
    if (!g.ok()) return g.status();
    emit_part(p1, g->data());
  }
  return Status::OK();
}

Status BufferPool::WriteSegmentRange(AreaId area, PageId seg_first,
                                     uint64_t seg_valid_bytes,
                                     uint64_t byte_off, uint64_t n_bytes,
                                     const char* src) {
  disk_->CheckOwner("BufferPool::WriteSegmentRange");
  if (n_bytes == 0) return Status::OK();
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
      auto g =
          FixPage(area, p, needs_read(p) ? FixMode::kRead : FixMode::kNew);
      if (!g.ok()) return g.status();
      const uint64_t page_begin = static_cast<uint64_t>(p - seg_first) * P;
      const uint64_t lo = std::max(byte_off, page_begin);
      const uint64_t hi = std::min(byte_off + n_bytes, page_begin + P);
      std::memcpy(g->mutable_data() + (lo - page_begin),
                  src + (lo - byte_off), hi - lo);
      g->MarkDirty();
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
      auto g = FixPage(area, p, FixMode::kRead);
      if (!g.ok()) return g.status();
      std::memcpy(stage, g->data(), P);
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
  RefreshFrames(area, p0, np, imgs);
  return Status::OK();
}

Status BufferPool::WriteFreshSegment(AreaId area, PageId first,
                                     const ByteSpan* spans, size_t n_spans) {
  disk_->CheckOwner("BufferPool::WriteFreshSegment");
  uint64_t n_bytes = 0;
  for (size_t i = 0; i < n_spans; ++i) n_bytes += spans[i].size;
  if (n_bytes == 0) return Status::OK();
  const uint64_t P = config_.page_size;
  const uint32_t np = static_cast<uint32_t>((n_bytes + P - 1) / P);
  ScratchMark sm(&scratch_);
  MutPageRef* imgs = scratch_.AllocArray<MutPageRef>(np);
  {
    LOB_TRACE_SPAN(disk_, "pool.write_fresh");
    LOB_RETURN_IF_ERROR(disk_->WriteSpans(area, first, spans, n_spans, imgs));
  }
  RefreshFrames(area, first, np, imgs);
  return Status::OK();
}

Status BufferPool::FlushRun(AreaId area, PageId first, uint32_t n_pages) {
  disk_->CheckOwner("BufferPool::FlushRun");
  ScratchMark sm(&scratch_);
  uint32_t* slots = scratch_.AllocArray<uint32_t>(frames_.size());
  const uint32_t cached = FramesInRange(area, first, n_pages, slots);
  const char** srcs = scratch_.AllocArray<const char*>(frames_.size());
  uint32_t k = 0;
  while (k < cached) {
    if (!frames_[slots[k]].dirty) {
      ++k;
      continue;
    }
    // Maximal run of dirty frames caching consecutive pages, gathered
    // directly from the frames (dirty frames are never borrows, so their
    // bytes live in the pool slots).
    uint32_t end = k + 1;
    while (end < cached && frames_[slots[end]].dirty &&
           frames_[slots[end]].page == frames_[slots[end - 1]].page + 1) {
      ++end;
    }
    for (uint32_t r = k; r < end; ++r) {
      LOB_CHECK(frames_[slots[r]].borrow == nullptr);
      srcs[r - k] = SlotData(slots[r]);
    }
    {
      LOB_TRACE_SPAN(disk_, "pool.flush");
      LOB_RETURN_IF_ERROR(
          disk_->WriteRun(area, frames_[slots[k]].page, end - k, srcs));
    }
    for (uint32_t r = k; r < end; ++r) frames_[slots[r]].dirty = false;
    k = end;
  }
  return Status::OK();
}

Status BufferPool::FlushAll() {
  disk_->CheckOwner("BufferPool::FlushAll");
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
        FlushRun(f0.area, f0.page, static_cast<uint32_t>(j - i)));
    i = j;
  }
  return Status::OK();
}

Status BufferPool::Invalidate(AreaId area, PageId first, uint32_t n_pages) {
  disk_->CheckOwner("BufferPool::Invalidate");
  ScratchMark sm(&scratch_);
  uint32_t* slots = scratch_.AllocArray<uint32_t>(frames_.size());
  const uint32_t cached = FramesInRange(area, first, n_pages, slots);
  for (uint32_t k = 0; k < cached; ++k) {
    Frame& f = frames_[slots[k]];
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
  return FindSlot(area, page) >= 0;
}

bool BufferPool::IsDirty(AreaId area, PageId page) const {
  int s = FindSlot(area, page);
  return s >= 0 && frames_[static_cast<uint32_t>(s)].dirty;
}

BufferPool::State BufferPool::SaveState() const {
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
  disk_->CheckOwner("BufferPool::RestoreState");
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
  obs->Counter("pool.fix_hits") = hits_;
  obs->Counter("pool.fix_misses") = misses_;
  obs->Counter("pool.evictions") = evictions_;
}

}  // namespace lob
