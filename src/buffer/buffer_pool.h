// BufferPool: the paper's hybrid buffering scheme for large objects (3.2).
//
// A small pool of page frames (12 pages in the study) backed by SimDisk.
// Single pages are fixed/unfixed with pin counts and an LRU policy that
// frees least-recently-used *clean* pages before dirty ones. Multi-block
// segments of up to `max_pool_segment_pages` (4 in the study) physically
// adjacent pages can be read into contiguous frames with one I/O call.
// Larger segments bypass the pool: byte ranges that do not match block
// boundaries use the 3-step I/O of Figure 4 — the partial first and last
// blocks travel through the pool, the full middle blocks move directly
// between disk and the caller (copied out by ReadSegmentRange, lent as
// borrowed page views by ViewSegmentRange).
//
// Writes mirror reads: small runs are written into frames, marked dirty and
// flushed by the caller at operation end (one sequential I/O call per
// contiguous dirty run); large runs go directly to disk in one call.
//
// Zero-copy contract: clean frames *borrow* the SimDisk page image instead
// of holding a private copy (Frame::borrow; page images are stable for the
// life of the disk). A frame materializes — copies the image into its pool
// slot — the moment a caller takes a mutable view (PageGuard::mutable_data
// or MarkDirty), so dirty content lives only in the pool until flushed and
// an injected fault can never leak unflushed bytes into the disk image.
// Invariant: a borrowing frame is never dirty. `StorageConfig::
// pool_zero_copy = false` materializes every fetch immediately (the
// differential tests run both modes and demand identical images and
// modeled costs). None of this changes the metered call sequence: borrow
// vs copy is a wall-clock concern only.

#ifndef LOB_BUFFER_BUFFER_POOL_H_
#define LOB_BUFFER_BUFFER_POOL_H_

#include <cstdint>
#include <vector>

#include "common/arena.h"
#include "common/config.h"
#include "common/status.h"
#include "buffer/page_table.h"
#include "iomodel/sim_disk.h"

namespace lob {

class BufferPool;
class ObsRegistry;

/// A byte stream assembled from pieces: borrowed disk-page views, caller
/// bytes, and bytes staged into the list's own storage. It is what
/// ViewSegmentRange produces and what WriteFreshSegment's span form
/// consumes, so a shifted tail moves from old pages to fresh pages with
/// one host copy. Appending a piece that continues the previous one in
/// memory (or zeros after zeros) extends it instead of adding a span.
class SpanList {
 public:
  /// Appends `n` bytes at `data` (null = zeros) by reference: they must
  /// stay valid and unchanged while the list is in use.
  void Append(const char* data, uint64_t n);

  /// Appends a copy of `n` bytes at `data`, held by the list.
  void AppendCopy(const char* data, uint64_t n);

  const ByteSpan* spans() const { return spans_.data(); }
  size_t count() const { return spans_.size(); }
  uint64_t bytes() const { return bytes_; }

  /// Empties the list (staged storage is kept for reuse).
  void Clear();

 private:
  std::vector<ByteSpan> spans_;
  ScratchArena staged_{4096};
  uint64_t bytes_ = 0;
};

/// Sequential reader over a SpanList: hands out consecutive byte ranges
/// of it as spans that reference the source list's pieces.
class SpanCursor {
 public:
  explicit SpanCursor(const SpanList& list) : list_(list) {}

  /// Appends the next `n` bytes of the source to `out` by reference.
  void Take(uint64_t n, SpanList* out);

  /// Moves past the next `n` bytes.
  void Skip(uint64_t n) { Take(n, nullptr); }

 private:
  const SpanList& list_;
  size_t span_ = 0;   ///< current span of the source
  uint64_t used_ = 0; ///< bytes of it already taken
};

/// RAII pin on one page frame. Movable, not copyable; unpins on destruction.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, uint32_t slot);
  PageGuard(PageGuard&& other) noexcept;
  PageGuard& operator=(PageGuard&& other) noexcept;
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  ~PageGuard();

  bool valid() const { return pool_ != nullptr; }

  /// Read-only view of the page. May point directly at the disk image
  /// (borrowed frame); valid while the pin is held.
  const char* data() const;

  /// Mutable view of the page; materializes a borrowed frame first so
  /// writes land in the pool, not the disk image. Does not mark dirty —
  /// call MarkDirty once the modification is real.
  char* mutable_data();

  /// Marks the pinned page dirty (materializing it if borrowed); it will
  /// be written back on flush/eviction.
  void MarkDirty();

  /// Explicitly unpins; the guard becomes invalid.
  void Release();

 private:
  BufferPool* pool_ = nullptr;
  uint32_t slot_ = 0;
};

/// How a page is fixed.
enum class FixMode {
  kRead,  ///< load from disk on miss
  kNew,   ///< do not load: caller will overwrite the whole page
};

/// Buffer pool over a SimDisk. Like everything reachable from its
/// StorageSystem it is used by one thread at a time; the fixing and I/O
/// entry points check that through the disk's owner record
/// (SimDisk::CheckOwner), so a pool and its disk share one owner. Frame
/// pointers handed out via PageGuard stay valid while the pin is held.
class BufferPool {
 public:
  BufferPool(SimDisk* disk, const StorageConfig& config);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins `page` of `area` in the pool. With kRead the page is fetched on a
  /// miss (one 1-page I/O call); with kNew the frame is zero-initialized.
  [[nodiscard]]
  StatusOr<PageGuard> FixPage(AreaId area, PageId page, FixMode mode);

  /// Reads `n_bytes` starting `byte_off` bytes into the segment that begins
  /// at page `seg_first`, into `dst`, applying the hybrid policy above.
  /// `seg_valid_bytes` is the number of meaningful bytes in the segment
  /// (bytes past it read as zero without validation).
  [[nodiscard]] Status ReadSegmentRange(AreaId area, PageId seg_first,
                          uint64_t seg_valid_bytes, uint64_t byte_off,
                          uint64_t n_bytes, char* dst);

  /// View form of ReadSegmentRange: the same I/O calls and pool effects,
  /// but the bytes are appended to `out` as spans. Whole pages the
  /// unbuffered path reads come back as borrowed views of the disk images
  /// (valid until those pages are next written); bytes that pass through
  /// pool frames — partial boundary pages and buffered runs — are staged
  /// into `out`, because a frame can be evicted before the view is used.
  [[nodiscard]] Status ViewSegmentRange(AreaId area, PageId seg_first,
                          uint64_t seg_valid_bytes, uint64_t byte_off,
                          uint64_t n_bytes, SpanList* out);

  /// Writes `n_bytes` at `byte_off` into the segment starting at
  /// `seg_first`. Boundary pages that intersect `seg_valid_bytes` and are
  /// only partially overwritten are read-modified-written; pages entirely
  /// past the valid bytes are not read. Small runs stay dirty in the pool
  /// (flush with FlushRun at operation end); large runs are written to disk
  /// immediately in one call.
  [[nodiscard]] Status WriteSegmentRange(AreaId area, PageId seg_first,
                           uint64_t seg_valid_bytes, uint64_t byte_off,
                           uint64_t n_bytes, const char* src);

  /// Writes the byte stream `spans` into a freshly allocated segment
  /// starting at `first` with a single I/O call (SimDisk::WriteSpans),
  /// bypassing the pool and zero-padding the last page. Cached copies of
  /// the covered pages are refreshed. Use for shadow copies and newly
  /// created segments: "copy, update, flush" with one sequential write
  /// (paper 3.3/3.4).
  [[nodiscard]]
  Status WriteFreshSegment(AreaId area, PageId first, const ByteSpan* spans,
                           size_t n_spans);

  /// One-span case: writes `n_bytes` at `data`.
  [[nodiscard]]
  Status WriteFreshSegment(AreaId area, PageId first, const char* data,
                           uint64_t n_bytes) {
    const ByteSpan span{data, n_bytes};
    return WriteFreshSegment(area, first, &span, 1);
  }

  /// Writes back every dirty cached page in [first, first+n_pages) using one
  /// I/O call per maximal contiguous dirty run; pages stay cached clean.
  [[nodiscard]] Status FlushRun(AreaId area, PageId first, uint32_t n_pages);

  /// Writes back all dirty pages (one call per page run per area).
  [[nodiscard]] Status FlushAll();

  /// Drops cached copies of [first, first+n_pages): dirty pages are *not*
  /// written back (their content is superseded); pinned pages are an error.
  [[nodiscard]] Status Invalidate(AreaId area, PageId first, uint32_t n_pages);

  /// True if the page currently resides in the pool.
  bool IsCached(AreaId area, PageId page) const;
  bool IsDirty(AreaId area, PageId page) const;

  uint32_t pool_pages() const { return config_.buffer_pool_pages; }
  uint32_t page_size() const { return config_.page_size; }
  SimDisk* disk() const { return disk_; }

  /// Number of FixPage calls served without disk I/O (for tests/metrics).
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  /// Number of valid frames evicted to make room (dirty or clean).
  uint64_t evictions() const { return evictions_; }

  /// Copies the pool counters into `obs` as the `pool.fix_hits`,
  /// `pool.fix_misses` and `pool.evictions` counters (overwriting, not
  /// accumulating, so repeated exports stay idempotent). The counters
  /// live here as plain fields to keep FixPage off the registry's map
  /// lookups; exporters call this at snapshot time instead.
  void PublishCounters(ObsRegistry* obs) const;

  /// One entry of the ordered cached-page enumeration below.
  struct CachedPage {
    AreaId area = 0;
    PageId page = kInvalidPage;
    bool dirty = false;

    bool operator==(const CachedPage& o) const {
      return area == o.area && page == o.page && dirty == o.dirty;
    }
  };

  /// Ordered enumeration of the cached pages, sorted by (area, page).
  ///
  /// This is the only sanctioned way to walk the pool's contents for
  /// stats/timeline/trace output: the internal lookup table is an
  /// open-addressing hash table whose bucket order is hash- and history-
  /// dependent, so enumerating it directly would leak nondeterministic
  /// ordering into exporters (tools/lob_lint.py rule LOB002/unordered-iter
  /// rejects such iteration; the buffer_pool_test permutation test pins
  /// this function's insertion-order independence).
  std::vector<CachedPage> CachedPagesSorted() const;

 private:
  friend class PageGuard;

  struct Frame {
    AreaId area = 0;
    PageId page = kInvalidPage;
    /// Borrowed disk page image backing a clean frame; nullptr when the
    /// frame's pool slot holds the bytes. Never set while dirty.
    const char* borrow = nullptr;
    bool valid = false;
    bool dirty = false;
    uint32_t pins = 0;
    uint64_t lru = 0;
  };

  char* SlotData(uint32_t slot) {
    return arena_.data() + static_cast<size_t>(slot) * config_.page_size;
  }
  const char* SlotData(uint32_t slot) const {
    return arena_.data() + static_cast<size_t>(slot) * config_.page_size;
  }

  /// The frame's current bytes: the borrowed image or the pool slot.
  const char* FrameData(uint32_t slot) const {
    const Frame& f = frames_[slot];
    return f.borrow != nullptr ? f.borrow : SlotData(slot);
  }

  /// Copies a borrowed image into the frame's pool slot (no-op when
  /// already materialized) and returns the now-private slot bytes.
  char* MaterializeSlot(uint32_t slot);

  static uint64_t Key(AreaId area, PageId page) {
    return (static_cast<uint64_t>(area) << 32) | page;
  }

  int FindSlot(AreaId area, PageId page) const;

  /// Writes to `out` (room for one entry per frame) the slots of the
  /// frames caching a page of [first, first + n_pages) of `area`, in
  /// ascending page order, and returns their number. A range longer than
  /// the pool is served by one pass over the frames, not a lookup per
  /// page: it can span thousands of pages, the pool holds a dozen.
  uint32_t FramesInRange(AreaId area, PageId first, uint32_t n_pages,
                         uint32_t* out) const;

  /// Points the cached frames of the freshly written pages [first, first
  /// + n) at their new images `imgs` (borrowing or copying per
  /// pool_zero_copy), marking them clean.
  void RefreshFrames(AreaId area, PageId first, uint32_t n,
                     const MutPageRef* imgs);

  /// Picks a victim frame (unpinned; clean preferred, then LRU), writing a
  /// dirty victim back. Returns slot or error if everything is pinned.
  [[nodiscard]] StatusOr<uint32_t> GetFreeSlot();

  /// Evicts whatever lives in `slot` (must be unpinned), flushing if dirty.
  [[nodiscard]] Status EvictSlot(uint32_t slot);

  /// Flushes (if dirty) and drops any cached pages within the range.
  /// Fails if one of them is pinned.
  [[nodiscard]]
  Status FlushAndDropRange(AreaId area, PageId first, uint32_t n_pages);

  /// The hybrid read policy behind ReadSegmentRange and ViewSegmentRange:
  /// validates and issues the I/O for bytes [byte_off, byte_off + n_bytes)
  /// of the segment at `seg_first` and hands the bytes, in order, to
  /// `sink(data, n, borrowed)`. A `borrowed` piece is a whole disk-page
  /// image (null = zeros) that stays valid after the call; any other
  /// piece points into a pool frame and is valid only inside the sink.
  template <typename Sink>
  [[nodiscard]] Status ReadRange(AreaId area, PageId seg_first,
                                 uint64_t seg_valid_bytes, uint64_t byte_off,
                                 uint64_t n_bytes, const Sink& sink);

  void Unpin(uint32_t slot);

  SimDisk* const disk_;
  const StorageConfig config_;
  std::vector<char> arena_;
  std::vector<Frame> frames_;
  PageTable map_;
  /// Staging for run I/O gather/scatter arrays.
  ScratchArena scratch_;
  uint64_t tick_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;

 public:
  /// Opaque snapshot of the cached state: page contents, frame table,
  /// lookup map, LRU clock and hit/miss counters. Audit walks (e.g.
  /// timeline sampling, which reads index pages through the pool inside
  /// an UnmeteredSection) bracket themselves with SaveState/RestoreState
  /// so inspecting storage state cannot perturb the eviction order — and
  /// therefore the measured cost — of the operations that follow. Both
  /// calls require every frame to be unpinned. Borrowed frames snapshot
  /// by pointer: page images never move or disappear, and a read-only
  /// walk can only write a page image by evicting a dirty frame for it —
  /// which cannot coexist with a borrowed frame for the same page.
  struct State {
   private:
    friend class BufferPool;
    std::vector<char> arena;
    std::vector<Frame> frames;
    PageTable map;
    uint64_t tick = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };
  State SaveState() const;
  void RestoreState(const State& state);
};

}  // namespace lob

#endif  // LOB_BUFFER_BUFFER_POOL_H_
