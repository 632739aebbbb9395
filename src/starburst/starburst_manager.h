// StarburstManager: the Starburst long field manager (paper 2.2, 3.5;
// Lehman & Lindsay 1989).
//
// Extent-based allocation through the binary buddy system. When the
// eventual size of a long field is not known in advance, successive
// segments double in size - first append size, 2x, 4x, ... - until the
// maximum segment size is reached, after which maximum-size segments are
// used; the last segment is trimmed. The long field descriptor holds the
// size of the first and last segments plus an array of pointers to all
// segments; intermediate sizes are implicit in the pattern of growth.
//
// Sequential/random reads, appends and byte-range replaces are efficient.
// Inserting or deleting bytes in the middle necessarily changes the field
// length and, because of the implicit-size descriptor, forces the field
// from the affected segment onward (or, in kFullCopy mode, the entire
// field) to be copied into a new set of segments. The prototype copies
// through a 512 K-byte staging buffer whose allocation cost is not
// modeled, exactly as in paper 3.5.

#ifndef LOB_STARBURST_STARBURST_MANAGER_H_
#define LOB_STARBURST_STARBURST_MANAGER_H_

#include <vector>

#include "buddy/scoped_extent.h"
#include "core/large_object.h"
#include "core/storage_system.h"

namespace lob {

/// How much of the long field an insert/delete rewrites.
enum class UpdateCopyMode {
  /// Copy from the segment containing the start byte through the end
  /// (the implementation described in paper 3.5).
  kTailCopy,
  /// Copy the entire field ("the entire long field ... must be copied",
  /// paper 2.2). Matches Table 3's flat 22.3 s per update on a 10 M-byte
  /// object.
  kFullCopy,
};

struct StarburstOptions {
  /// Cap on segment size (pages). Doubling stops here. 8192 pages = 32
  /// M-byte segments with 4K pages, the paper's buddy-system maximum.
  uint32_t max_segment_pages = 8192;

  UpdateCopyMode copy_mode = UpdateCopyMode::kTailCopy;
};

/// Starburst-style long field manager over a StorageSystem.
class StarburstManager : public LargeObjectManager {
 public:
  StarburstManager(StorageSystem* sys, const StarburstOptions& options);

  [[nodiscard]] StatusOr<ObjectId> Create() override;
  [[nodiscard]] Status Destroy(ObjectId id) override;
  [[nodiscard]] StatusOr<uint64_t> Size(ObjectId id) override;
  [[nodiscard]] Status Read(ObjectId id, uint64_t offset, uint64_t n,
              std::string* out) override;
  [[nodiscard]] Status Append(ObjectId id, std::string_view data) override;
  [[nodiscard]]
  Status Insert(ObjectId id, uint64_t offset, std::string_view data) override;
  [[nodiscard]]
  Status Delete(ObjectId id, uint64_t offset, uint64_t n) override;
  [[nodiscard]]
  Status Replace(ObjectId id, uint64_t offset, std::string_view data) override;
  [[nodiscard]]
  StatusOr<ObjectStorageStats> GetStorageStats(ObjectId id) override;
  [[nodiscard]] Status Validate(ObjectId id) override;
  [[nodiscard]] Status VisitSegments(
      ObjectId id,
      const std::function<Status(uint64_t, uint32_t)>& fn) override;
  [[nodiscard]] Status VisitOwnedExtents(
      ObjectId id,
      const std::function<Status(const OwnedExtent&)>& fn) override;
  [[nodiscard]] Status Trim(ObjectId id) override { return TrimLast(id); }
  Engine engine() const override { return Engine::kStarburst; }

  const StarburstOptions& options() const { return options_; }

  /// Frees the unused whole pages at the right end of the last segment
  /// ("the last segment is trimmed", paper 2.2). Appending afterwards
  /// first refills the trimmed segment's partial page and then rebuilds it
  /// to its pattern size.
  [[nodiscard]] Status TrimLast(ObjectId id);

 private:
  /// Decoded long field descriptor.
  struct Descriptor {
    uint32_t used_bytes = 0;
    uint32_t first_pages = 0;      ///< size of the first segment, pages
    uint32_t last_alloc_pages = 0; ///< allocated size of the last segment
    std::vector<PageId> ptrs;
  };

  /// Location of one segment, derived from the descriptor.
  struct SegInfo {
    PageId page;
    uint64_t start;    ///< object-relative offset of its first byte
    uint64_t bytes;    ///< useful bytes
    uint32_t alloc;    ///< allocated pages
  };

  AreaId leaf_area_id() const { return sys_->leaf_area()->id(); }
  uint32_t page_size() const { return sys_->config().page_size; }

  /// Pattern size (pages) of the segment at position `i`.
  uint32_t PatternPages(uint32_t first_pages, uint32_t i) const;

  [[nodiscard]] StatusOr<Descriptor> Load(ObjectId id);
  [[nodiscard]] Status Save(ObjectId id, const Descriptor& d);

  /// Expands the descriptor into per-segment locations.
  std::vector<SegInfo> MapSegments(const Descriptor& d) const;

  /// Appends object bytes [off, off+n) to `out` as views (see
  /// BufferPool::ViewSegmentRange), one I/O call per (segment, copy-buffer
  /// chunk) intersection. The views borrow the old segments' pages, which
  /// stay allocated and unwritten until the caller's Save() commits.
  [[nodiscard]]
  Status ViewRange(const std::vector<SegInfo>& map, uint64_t off, uint64_t n,
                   SpanList* out);

  /// Writes the next `n` bytes of `src` into the fresh segment at `first`
  /// through copy-buffer-sized chunks (paper 3.5). Chunks are page-aligned,
  /// so each lands in fresh pages with one sequential call.
  [[nodiscard]]
  Status WriteFreshChunks(PageId first, uint64_t n, SpanCursor* src);

  /// Appends `data`, filling the last segment then allocating
  /// pattern-sized successors. Freshly allocated segments are handed back
  /// armed in `fresh`; segments the new descriptor no longer references
  /// are appended to `to_free`. The caller must Save() the descriptor (the
  /// single durable commit point), then CommitAndFree(); until then an
  /// error path rolls the guards back and the on-disk object is untouched.
  [[nodiscard]]
  Status AppendLocked(ObjectId id, Descriptor* d, std::string_view data,
                      OpContext* ctx, std::vector<ScopedExtent>* fresh,
                      std::vector<Segment>* to_free);

  /// Replaces segments [k, end) with segments holding the byte stream
  /// `tail`, following the pattern sizes for positions k, k+1, ...;
  /// writes go through copy-buffer-sized chunks. Same guard protocol as
  /// AppendLocked: new segments stay armed in `fresh` until the caller
  /// saves the descriptor. The *caller* queues the replaced segments for
  /// freeing — this function only builds.
  [[nodiscard]]
  Status RebuildTail(Descriptor* d, size_t k, const SpanList& tail,
                     OpContext* ctx, std::vector<ScopedExtent>* fresh);

  /// After a successful Save(): disarms every guard in `fresh` and frees
  /// the replaced segments in `to_free` (dropping their cached pages).
  /// Free is infallible under I/O faults, so this cannot strand the
  /// now-committed descriptor.
  [[nodiscard]]
  Status CommitAndFree(std::vector<ScopedExtent>* fresh,
                       const std::vector<Segment>& to_free);

  /// Shared implementation of Insert/Delete: splice the byte stream.
  [[nodiscard]]
  Status SpliceBytes(ObjectId id, uint64_t offset, std::string_view inserted,
                     uint64_t deleted);

  StorageSystem* sys_;
  StarburstOptions options_;
};

}  // namespace lob

#endif  // LOB_STARBURST_STARBURST_MANAGER_H_
