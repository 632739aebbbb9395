#include "starburst/starburst_manager.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "trace/trace_span.h"
#include "common/math_util.h"

namespace lob {

namespace {

constexpr uint32_t kDescriptorMagic = 0x4C4F4244;  // "LOBD"
constexpr uint32_t kHeaderBytes = 20;

uint32_t LoadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
void StoreU32(char* p, uint32_t v) { std::memcpy(p, &v, 4); }

}  // namespace

StarburstManager::StarburstManager(StorageSystem* sys,
                                   const StarburstOptions& options)
    : sys_(sys), options_(options) {
  LOB_CHECK_GE(options_.max_segment_pages, 1u);
  options_.max_segment_pages = std::min(
      options_.max_segment_pages, sys->leaf_area()->max_segment_pages());
}

uint32_t StarburstManager::PatternPages(uint32_t first_pages,
                                        uint32_t i) const {
  if (first_pages == 0) return 0;
  if (i >= 31) return options_.max_segment_pages;
  const uint64_t pages = static_cast<uint64_t>(first_pages) << i;
  return static_cast<uint32_t>(
      std::min<uint64_t>(pages, options_.max_segment_pages));
}

StatusOr<ObjectId> StarburstManager::Create() {
  OpScope obs_scope(sys_->disk(), "starburst.create");
  auto ext =
      ScopedExtent::Allocate(sys_->meta_area(), sys_->pool(), 1);
  if (!ext.ok()) return ext.status();
  auto g = sys_->pool()->FixPage(sys_->meta_area()->id(), ext->first_page(),
                                 FixMode::kNew);
  if (!g.ok()) return g.status();  // guard reclaims the descriptor page
  StoreU32(g->mutable_data(), kDescriptorMagic);
  g->MarkDirty();
  ext->Commit();
  return ext->first_page();
}

StatusOr<StarburstManager::Descriptor> StarburstManager::Load(ObjectId id) {
  auto g = sys_->pool()->FixPage(sys_->meta_area()->id(), id, FixMode::kRead);
  if (!g.ok()) return g.status();
  const char* p = g->data();
  if (LoadU32(p) != kDescriptorMagic) {
    return Status::Corruption("bad long field descriptor magic");
  }
  Descriptor d;
  d.used_bytes = LoadU32(p + 4);
  d.first_pages = LoadU32(p + 8);
  d.last_alloc_pages = LoadU32(p + 12);
  const uint32_t nsegs = LoadU32(p + 16);
  const uint32_t cap = (page_size() - kHeaderBytes) / 4;
  if (nsegs > cap) return Status::Corruption("descriptor segment overflow");
  d.ptrs.resize(nsegs);
  for (uint32_t i = 0; i < nsegs; ++i) {
    d.ptrs[i] = LoadU32(p + kHeaderBytes + 4 * i);
  }
  return d;
}

Status StarburstManager::Save(ObjectId id, const Descriptor& d) {
  const uint32_t cap = (page_size() - kHeaderBytes) / 4;
  if (d.ptrs.size() > cap) {
    return Status::NoSpace("long field descriptor full");
  }
  auto g = sys_->pool()->FixPage(sys_->meta_area()->id(), id, FixMode::kRead);
  if (!g.ok()) return g.status();
  char* p = g->mutable_data();
  StoreU32(p, kDescriptorMagic);
  StoreU32(p + 4, d.used_bytes);
  StoreU32(p + 8, d.first_pages);
  StoreU32(p + 12, d.last_alloc_pages);
  StoreU32(p + 16, static_cast<uint32_t>(d.ptrs.size()));
  for (size_t i = 0; i < d.ptrs.size(); ++i) {
    StoreU32(p + kHeaderBytes + 4 * i, d.ptrs[i]);
  }
  g->MarkDirty();  // descriptor reaches disk on eviction or FlushAll
  return Status::OK();
}

std::vector<StarburstManager::SegInfo> StarburstManager::MapSegments(
    const Descriptor& d) const {
  std::vector<SegInfo> map;
  map.reserve(d.ptrs.size());
  uint64_t at = 0;
  for (uint32_t i = 0; i < d.ptrs.size(); ++i) {
    SegInfo seg;
    seg.page = d.ptrs[i];
    seg.start = at;
    if (i + 1 < d.ptrs.size()) {
      seg.alloc = PatternPages(d.first_pages, i);
      seg.bytes = static_cast<uint64_t>(seg.alloc) * page_size();
    } else {
      seg.alloc = d.last_alloc_pages;
      seg.bytes = d.used_bytes - at;
    }
    at += seg.bytes;
    map.push_back(seg);
  }
  return map;
}

Status StarburstManager::ViewRange(const std::vector<SegInfo>& map,
                                   uint64_t off, uint64_t n, SpanList* out) {
  uint64_t done = 0;
  for (const SegInfo& seg : map) {
    if (done == n) break;
    const uint64_t seg_end = seg.start + seg.bytes;
    if (seg_end <= off + done) continue;
    const uint64_t local = off + done - seg.start;
    const uint64_t take = std::min(seg.bytes - local, n - done);
    // One I/O call per copy-buffer-sized chunk within the segment.
    uint64_t part = 0;
    while (part < take) {
      const uint64_t chunk =
          std::min<uint64_t>(take - part, sys_->config().copy_buffer_bytes);
      LOB_RETURN_IF_ERROR(sys_->pool()->ViewSegmentRange(
          leaf_area_id(), seg.page, seg.bytes, local + part, chunk, out));
      part += chunk;
    }
    done += take;
  }
  if (done != n) return Status::OutOfRange("read past long field end");
  return Status::OK();
}

Status StarburstManager::WriteFreshChunks(PageId first, uint64_t n,
                                          SpanCursor* src) {
  const uint64_t P = page_size();
  SpanList chunk;
  uint64_t part = 0;
  while (part < n) {
    const uint64_t len =
        std::min<uint64_t>(n - part, sys_->config().copy_buffer_bytes);
    chunk.Clear();
    src->Take(len, &chunk);
    LOB_RETURN_IF_ERROR(sys_->pool()->WriteFreshSegment(
        leaf_area_id(), first + static_cast<PageId>(part / P), chunk.spans(),
        chunk.count()));
    part += len;
  }
  return Status::OK();
}

Status StarburstManager::Read(ObjectId id, uint64_t offset, uint64_t n,
                              std::string* out) {
  OpScope obs_scope(sys_->disk(), "starburst.read");
  auto d = Load(id);
  if (!d.ok()) return d.status();
  if (offset + n > d->used_bytes) {
    return Status::OutOfRange("read past object end");
  }
  out->resize(n);
  if (n == 0) return Status::OK();
  // User reads are not chunked by the copy buffer: read whole ranges per
  // segment (the copy buffer only stages update copying, paper 3.5).
  auto map = MapSegments(*d);
  uint64_t done = 0;
  for (const SegInfo& seg : map) {
    if (done == n) break;
    const uint64_t seg_end = seg.start + seg.bytes;
    if (seg_end <= offset + done) continue;
    const uint64_t local = offset + done - seg.start;
    const uint64_t take = std::min(seg.bytes - local, n - done);
    LOB_RETURN_IF_ERROR(sys_->pool()->ReadSegmentRange(
        leaf_area_id(), seg.page, seg.bytes, local, take, out->data() + done));
    done += take;
  }
  return Status::OK();
}

Status StarburstManager::AppendLocked(ObjectId id, Descriptor* d,
                                      std::string_view data, OpContext* ctx,
                                      std::vector<ScopedExtent>* fresh,
                                      std::vector<Segment>* to_free) {
  (void)id;
  uint64_t pos = 0;
  const uint64_t P = page_size();
  // 1. Fill whatever allocated space the last segment still has.
  if (!d->ptrs.empty()) {
    auto map = MapSegments(*d);
    const SegInfo& last = map.back();
    const uint64_t capacity = static_cast<uint64_t>(last.alloc) * P;
    if (last.bytes < capacity) {
      const uint64_t take = std::min<uint64_t>(capacity - last.bytes,
                                               data.size());
      LOB_RETURN_IF_ERROR(sys_->pool()->WriteSegmentRange(
          leaf_area_id(), last.page, last.bytes, last.bytes, take,
          data.data()));
      const PageId p0 = last.page + static_cast<PageId>(last.bytes / P);
      const PageId p1 =
          last.page + static_cast<PageId>((last.bytes + take - 1) / P);
      ctx->DeferFlush(leaf_area_id(), p0, p1 - p0 + 1);
      d->used_bytes += static_cast<uint32_t>(take);
      pos = take;
    }
  }
  if (pos == data.size()) return Status::OK();

  // 2. The pattern's first segment size is set by the first append.
  if (d->ptrs.empty() && d->first_pages == 0) {
    d->first_pages = static_cast<uint32_t>(std::min<uint64_t>(
        CeilDiv(data.size() - pos, P), options_.max_segment_pages));
  }

  // 3. A trimmed last segment that overflowed is rebuilt to pattern size
  //    together with the remaining data (keeps intermediate sizes
  //    implicit). The old last segment is only *queued* for freeing: if
  //    the rebuild fails part-way the on-disk descriptor still references
  //    it, so releasing it here would be corruption, not cleanup.
  if (!d->ptrs.empty()) {
    const uint32_t last_idx = static_cast<uint32_t>(d->ptrs.size() - 1);
    if (d->last_alloc_pages != PatternPages(d->first_pages, last_idx)) {
      auto map = MapSegments(*d);
      const SegInfo& last = map.back();
      SpanList tail;
      LOB_RETURN_IF_ERROR(ViewRange(map, last.start, last.bytes, &tail));
      tail.Append(data.data() + pos, data.size() - pos);
      to_free->push_back(Segment{last.page, last.alloc});
      d->ptrs.pop_back();
      d->used_bytes -= static_cast<uint32_t>(last.bytes);
      return RebuildTail(d, d->ptrs.size(), tail, ctx, fresh);
    }
  }

  // 4. Allocate pattern-sized successors until the data is stored. The
  //    last segment keeps its full pattern allocation and is filled by
  //    subsequent appends; trimming happens when updates reorganize it.
  //    Each segment stays armed until the caller saves the descriptor.
  while (pos < data.size()) {
    const uint32_t idx = static_cast<uint32_t>(d->ptrs.size());
    const uint32_t pattern = PatternPages(d->first_pages, idx);
    if (pattern == 0) return Status::Internal("empty growth pattern");
    const uint64_t rem = data.size() - pos;
    const uint32_t pages = pattern;
    auto seg = ScopedExtent::Allocate(sys_->leaf_area(), sys_->pool(), pages);
    if (!seg.ok()) return seg.status();
    const uint64_t take = std::min<uint64_t>(
        static_cast<uint64_t>(pages) * P, rem);
    LOB_RETURN_IF_ERROR(sys_->pool()->WriteFreshSegment(
        leaf_area_id(), seg->first_page(), data.data() + pos, take));
    d->ptrs.push_back(seg->first_page());
    fresh->push_back(std::move(*seg));
    d->last_alloc_pages = pages;
    d->used_bytes += static_cast<uint32_t>(take);
    pos += take;
  }
  return Status::OK();
}

Status StarburstManager::Append(ObjectId id, std::string_view data) {
  if (data.empty()) return Status::OK();
  OpScope obs_scope(sys_->disk(), "starburst.append");
  auto d = Load(id);
  if (!d.ok()) return d.status();
  OpContext ctx(sys_->pool(), sys_->arena());
  std::vector<ScopedExtent> fresh;
  std::vector<Segment> to_free;
  LOB_RETURN_IF_ERROR(AppendLocked(id, &d.value(), data, &ctx, &fresh,
                                   &to_free));
  // Save() is the commit point: once the descriptor references the new
  // segments the guards disarm and the replaced ones are released.
  LOB_RETURN_IF_ERROR(Save(id, *d));
  LOB_RETURN_IF_ERROR(CommitAndFree(&fresh, to_free));
  return ctx.Finish();
}

Status StarburstManager::RebuildTail(Descriptor* d, size_t k,
                                     const SpanList& tail, OpContext* ctx,
                                     std::vector<ScopedExtent>* fresh) {
  LOB_TRACE_SPAN(sys_->disk(), "sb.rebuild_tail");
  const uint64_t P = page_size();
  LOB_CHECK_LE(k, d->ptrs.size());
  d->ptrs.resize(k);
  // Segments [0, k) are middles: pattern-sized and full by invariant.
  uint64_t prefix = 0;
  for (size_t i = 0; i < k; ++i) {
    prefix += static_cast<uint64_t>(
                  PatternPages(d->first_pages, static_cast<uint32_t>(i))) *
              P;
  }
  d->used_bytes = static_cast<uint32_t>(prefix);

  if (tail.bytes() == 0) {
    if (k == 0) {
      d->first_pages = 0;
      d->last_alloc_pages = 0;
    } else {
      d->last_alloc_pages =
          PatternPages(d->first_pages, static_cast<uint32_t>(k - 1));
    }
    return Status::OK();
  }
  if (d->first_pages == 0) {
    d->first_pages = static_cast<uint32_t>(
        std::min<uint64_t>(CeilDiv(tail.bytes(), P),
                           options_.max_segment_pages));
  }
  SpanCursor src(tail);
  uint64_t pos = 0;
  while (pos < tail.bytes()) {
    const uint32_t idx = static_cast<uint32_t>(d->ptrs.size());
    const uint32_t pattern = PatternPages(d->first_pages, idx);
    const uint64_t rem = tail.bytes() - pos;
    const uint32_t pages = static_cast<uint32_t>(
        std::min<uint64_t>(pattern, CeilDiv(rem, P)));
    auto seg = ScopedExtent::Allocate(sys_->leaf_area(), sys_->pool(), pages);
    if (!seg.ok()) return seg.status();
    const uint64_t take =
        std::min<uint64_t>(static_cast<uint64_t>(pages) * P, rem);
    LOB_RETURN_IF_ERROR(WriteFreshChunks(seg->first_page(), take, &src));
    (void)ctx;
    d->ptrs.push_back(seg->first_page());
    fresh->push_back(std::move(*seg));
    d->last_alloc_pages = pages;
    d->used_bytes += static_cast<uint32_t>(take);
    pos += take;
  }
  return Status::OK();
}

Status StarburstManager::CommitAndFree(std::vector<ScopedExtent>* fresh,
                                       const std::vector<Segment>& to_free) {
  for (ScopedExtent& ext : *fresh) ext.Commit();
  fresh->clear();
  for (const Segment& seg : to_free) {
    // Invalidate before Free so a reuse of the pages cannot observe stale
    // cached content or pay for a stale flush.
    LOB_RETURN_IF_ERROR(
        sys_->pool()->Invalidate(leaf_area_id(), seg.first_page, seg.pages));
    LOB_RETURN_IF_ERROR(sys_->leaf_area()->Free(seg));
  }
  return Status::OK();
}

Status StarburstManager::SpliceBytes(ObjectId id, uint64_t offset,
                                     std::string_view inserted,
                                     uint64_t deleted) {
  LOB_TRACE_SPAN(sys_->disk(), "sb.splice");
  auto d = Load(id);
  if (!d.ok()) return d.status();
  if (offset + deleted > d->used_bytes) {
    return Status::OutOfRange("update past object end");
  }
  OpContext ctx(sys_->pool(), sys_->arena());
  auto map = MapSegments(*d);
  // Segment containing the start byte (tail copy) or 0 (full copy).
  size_t k = 0;
  if (options_.copy_mode == UpdateCopyMode::kTailCopy) {
    while (k + 1 < map.size() &&
           map[k].start + map[k].bytes <= offset) {
      ++k;
    }
  }
  const uint64_t prefix = map.empty() ? 0 : map[k].start;
  const uint64_t size = d->used_bytes;

  // Assemble the new tail, through copy-buffer-sized reads, as views of
  // the old bytes around the inserted ones.
  SpanList tail;
  LOB_RETURN_IF_ERROR(ViewRange(map, prefix, offset - prefix, &tail));
  tail.Append(inserted.data(), inserted.size());
  LOB_RETURN_IF_ERROR(
      ViewRange(map, offset + deleted, size - offset - deleted, &tail));
  // Build the new tail first; the old segments stay allocated (and
  // referenced by the on-disk descriptor) until Save() commits, so a fault
  // anywhere in the rebuild leaves the object readable and fsck-clean —
  // and nothing writes them, so the views above stay valid.
  std::vector<ScopedExtent> fresh;
  std::vector<Segment> to_free;
  for (size_t i = k; i < map.size(); ++i) {
    to_free.push_back(Segment{map[i].page, map[i].alloc});
  }
  LOB_RETURN_IF_ERROR(RebuildTail(&d.value(), k, tail, &ctx, &fresh));
  LOB_RETURN_IF_ERROR(Save(id, *d));
  LOB_RETURN_IF_ERROR(CommitAndFree(&fresh, to_free));
  return ctx.Finish();
}

Status StarburstManager::Insert(ObjectId id, uint64_t offset,
                                std::string_view data) {
  if (data.empty()) return Status::OK();
  OpScope obs_scope(sys_->disk(), "starburst.insert");
  auto d = Load(id);
  if (!d.ok()) return d.status();
  if (offset > d->used_bytes) {
    return Status::OutOfRange("insert past object end");
  }
  if (offset == d->used_bytes) return Append(id, data);
  return SpliceBytes(id, offset, data, 0);
}

Status StarburstManager::Delete(ObjectId id, uint64_t offset, uint64_t n) {
  if (n == 0) return Status::OK();
  OpScope obs_scope(sys_->disk(), "starburst.delete");
  return SpliceBytes(id, offset, {}, n);
}

Status StarburstManager::Replace(ObjectId id, uint64_t offset,
                                 std::string_view data) {
  if (data.empty()) return Status::OK();
  OpScope obs_scope(sys_->disk(), "starburst.replace");
  auto d = Load(id);
  if (!d.ok()) return d.status();
  if (offset + data.size() > d->used_bytes) {
    return Status::OutOfRange("replace past object end");
  }
  OpContext ctx(sys_->pool(), sys_->arena());
  auto map = MapSegments(*d);
  std::vector<ScopedExtent> fresh;
  std::vector<Segment> to_free;
  SpanList old_bytes;
  SpanList content;
  uint64_t done = 0;
  for (size_t i = 0; i < map.size() && done < data.size(); ++i) {
    SegInfo& seg = map[i];
    const uint64_t seg_end = seg.start + seg.bytes;
    if (seg_end <= offset + done) continue;
    const uint64_t local = offset + done - seg.start;
    const uint64_t take = std::min(seg.bytes - local, data.size() - done);
    if (sys_->config().shadowing) {
      // Shadow the whole segment (paper 3.3): copy to a new segment with
      // the replaced bytes applied. The shadow stays armed and the old
      // segment stays live until the descriptor commits below — a fault
      // while shadowing a later segment must leave every earlier old
      // segment intact, since the on-disk descriptor still points there.
      // The segment is viewed with one call and the replaced bytes are
      // spliced into the span list, so each byte is copied once.
      old_bytes.Clear();
      LOB_RETURN_IF_ERROR(sys_->pool()->ViewSegmentRange(
          leaf_area_id(), seg.page, seg.bytes, 0, seg.bytes, &old_bytes));
      content.Clear();
      SpanCursor old_cur(old_bytes);
      old_cur.Take(local, &content);
      content.Append(data.data() + done, take);
      old_cur.Skip(take);
      old_cur.Take(seg.bytes - local - take, &content);
      auto ns =
          ScopedExtent::Allocate(sys_->leaf_area(), sys_->pool(), seg.alloc);
      if (!ns.ok()) return ns.status();
      SpanCursor src(content);
      LOB_RETURN_IF_ERROR(WriteFreshChunks(ns->first_page(), seg.bytes, &src));
      to_free.push_back(Segment{seg.page, seg.alloc});
      d->ptrs[i] = ns->first_page();
      seg.page = ns->first_page();
      fresh.push_back(std::move(*ns));
    } else {
      LOB_RETURN_IF_ERROR(sys_->pool()->WriteSegmentRange(
          leaf_area_id(), seg.page, seg.bytes, local, take,
          data.data() + done));
      const PageId p0 = seg.page + static_cast<PageId>(local / page_size());
      const PageId p1 = seg.page + static_cast<PageId>((local + take - 1) /
                                                       page_size());
      ctx.DeferFlush(leaf_area_id(), p0, p1 - p0 + 1);
    }
    done += take;
  }
  LOB_RETURN_IF_ERROR(Save(id, *d));
  LOB_RETURN_IF_ERROR(CommitAndFree(&fresh, to_free));
  return ctx.Finish();
}

StatusOr<uint64_t> StarburstManager::Size(ObjectId id) {
  OpScope obs_scope(sys_->disk(), "starburst.size");
  auto d = Load(id);
  if (!d.ok()) return d.status();
  return static_cast<uint64_t>(d->used_bytes);
}

Status StarburstManager::Destroy(ObjectId id) {
  OpScope obs_scope(sys_->disk(), "starburst.destroy");
  auto d = Load(id);
  if (!d.ok()) return d.status();
  for (const SegInfo& seg : MapSegments(*d)) {
    LOB_RETURN_IF_ERROR(sys_->leaf_area()->Free(seg.page, seg.alloc));
    LOB_RETURN_IF_ERROR(
        sys_->pool()->Invalidate(leaf_area_id(), seg.page, seg.alloc));
  }
  LOB_RETURN_IF_ERROR(sys_->pool()->Invalidate(sys_->meta_area()->id(), id, 1));
  return sys_->meta_area()->Free(id, 1);
}

Status StarburstManager::TrimLast(ObjectId id) {
  OpScope obs_scope(sys_->disk(), "starburst.trim");
  auto d = Load(id);
  if (!d.ok()) return d.status();
  if (d->ptrs.empty()) return Status::OK();
  auto map = MapSegments(*d);
  const SegInfo& last = map.back();
  const uint32_t needed =
      static_cast<uint32_t>(CeilDiv(last.bytes, page_size()));
  if (needed < last.alloc) {
    // Commit the shrunken allocation in the descriptor first: if the
    // trimmed pages were freed before the descriptor said so, a fault in
    // Save would leave the descriptor claiming pages the allocator has
    // already handed back (double-allocation hazard). Free itself is
    // infallible under I/O faults, so this order cannot leak.
    d->last_alloc_pages = needed;
    LOB_RETURN_IF_ERROR(Save(id, *d));
    LOB_RETURN_IF_ERROR(sys_->leaf_area()->Free(last.page + needed,
                                                last.alloc - needed));
  }
  return Status::OK();
}

StatusOr<ObjectStorageStats> StarburstManager::GetStorageStats(ObjectId id) {
  auto d = Load(id);
  if (!d.ok()) return d.status();
  ObjectStorageStats out;
  out.object_bytes = d->used_bytes;
  out.index_pages = 1;  // the descriptor
  out.segments = static_cast<uint32_t>(d->ptrs.size());
  for (const SegInfo& seg : MapSegments(*d)) out.leaf_pages += seg.alloc;
  out.tree_height = 1;
  return out;
}

Status StarburstManager::VisitSegments(
    ObjectId id, const std::function<Status(uint64_t, uint32_t)>& fn) {
  auto d = Load(id);
  if (!d.ok()) return d.status();
  for (const SegInfo& seg : MapSegments(*d)) {
    LOB_RETURN_IF_ERROR(fn(seg.bytes, seg.alloc));
  }
  return Status::OK();
}

Status StarburstManager::VisitOwnedExtents(
    ObjectId id, const std::function<Status(const OwnedExtent&)>& fn) {
  auto d = Load(id);
  if (!d.ok()) return d.status();
  LOB_RETURN_IF_ERROR(fn({sys_->meta_area()->id(), id, 1}));
  for (const SegInfo& seg : MapSegments(*d)) {
    LOB_RETURN_IF_ERROR(fn({leaf_area_id(), seg.page, seg.alloc}));
  }
  return Status::OK();
}

Status StarburstManager::Validate(ObjectId id) {
  auto d = Load(id);
  if (!d.ok()) return d.status();
  auto map = MapSegments(*d);
  uint64_t total = 0;
  for (size_t i = 0; i < map.size(); ++i) {
    const SegInfo& seg = map[i];
    if (i + 1 < map.size()) {
      if (seg.bytes != static_cast<uint64_t>(seg.alloc) * page_size()) {
        return Status::Corruption("middle segment not full");
      }
    } else {
      if (seg.bytes == 0 && map.size() > 0 && d->used_bytes != total) {
        return Status::Corruption("empty last segment");
      }
      if (CeilDiv(seg.bytes, page_size()) > seg.alloc) {
        return Status::Corruption("last segment bytes exceed allocation");
      }
    }
    total += seg.bytes;
  }
  if (total != d->used_bytes) {
    return Status::Corruption("segment bytes do not sum to object size");
  }
  return Status::OK();
}

}  // namespace lob
