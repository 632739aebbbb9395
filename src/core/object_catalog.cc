#include "core/object_catalog.h"

#include <cstring>
#include <optional>

#include "buddy/scoped_extent.h"
#include "buffer/op_context.h"

namespace lob {

namespace {

constexpr uint32_t kCatalogMagic = 0x4C4F4243;  // "LOBC"
constexpr uint32_t kHeaderBytes = 12;

uint32_t LoadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
void StoreU32(char* p, uint32_t v) { std::memcpy(p, &v, 4); }
uint16_t LoadU16(const char* p) {
  uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}
void StoreU16(char* p, uint16_t v) { std::memcpy(p, &v, 2); }

// Walk callbacks for callers that need only pages or only entries.
constexpr auto kIgnoreEntry = [](const auto&...) { return false; };
constexpr auto kIgnorePage = [](const auto&) { return Status::OK(); };

}  // namespace

ObjectCatalog::ObjectCatalog(StorageSystem* sys) : sys_(sys) {}

StatusOr<PageId> ObjectCatalog::Create() {
  auto ext = ScopedExtent::Allocate(sys_->meta_area(), sys_->pool(), 1);
  if (!ext.ok()) return ext.status();
  // On failure the guard reclaims the head page.
  LOB_RETURN_IF_ERROR(FormatEmpty(ext->first_page()));
  ext->Commit();
  head_ = ext->first_page();
  return head_;
}

Status ObjectCatalog::FormatEmpty(PageId page) {
  auto g = sys_->pool()->FixPage(area_id(), page, FixMode::kNew);
  if (!g.ok()) return g.status();
  char* p = g->mutable_data();
  StoreU32(p, kCatalogMagic);
  StoreU32(p + 4, kInvalidPage);
  StoreU32(p + 8, 0);  // no entries, no bytes used
  g->MarkDirty();
  return Status::OK();
}

Status ObjectCatalog::Open(PageId head) {
  auto g = sys_->pool()->FixPage(area_id(), head, FixMode::kRead);
  if (!g.ok()) return g.status();
  if (LoadU32(g->data()) != kCatalogMagic) {
    return Status::Corruption("not a catalog page");
  }
  head_ = head;
  return Status::OK();
}

template <typename OnEntry, typename OnPage>
Status ObjectCatalog::Walk(PageId first, OnEntry&& on_entry,
                           OnPage&& on_page) {
  if (head_ == kInvalidPage) return Status::Internal("catalog not open");
  // Chain pages are distinct meta-area pages, so a longer chain loops.
  const DatabaseArea* meta = sys_->meta_area();
  uint64_t budget = uint64_t{meta->num_spaces()} * meta->blocks_per_space();
  for (PageInfo info{first}; info.page != kInvalidPage;
       info.page = info.next) {
    if (budget-- == 0) return Status::Corruption("catalog chain loops");
    {
      auto g = sys_->pool()->FixPage(area_id(), info.page, FixMode::kRead);
      if (!g.ok()) return g.status();
      const char* p = g->data();
      if (LoadU32(p) != kCatalogMagic) {
        return Status::Corruption("bad catalog magic");
      }
      info.next = LoadU32(p + 4);
      info.count = LoadU16(p + 8);
      info.used = LoadU16(p + 10);
      const size_t end = kHeaderBytes + info.used;
      if (end > sys_->config().page_size) {
        return Status::Corruption("catalog page overflows");
      }
      size_t at = kHeaderBytes;
      for (uint16_t i = 0; i < info.count; ++i) {
        const size_t len = at < end ? static_cast<uint8_t>(p[at]) : 0;
        if (at + 1 + len + 4 > end) {
          return Status::Corruption("catalog entry truncated");
        }
        const std::string_view name(p + at + 1, len);
        if (on_entry(info, name, LoadU32(p + at + 1 + len), at)) {
          return Status::OK();
        }
        at += EntryBytes(name);
      }
      if (at != end) return Status::Corruption("catalog entries miss used");
    }
    LOB_RETURN_IF_ERROR(on_page(info));
  }
  return Status::OK();
}

Status ObjectCatalog::Put(std::string_view name, ObjectId id) {
  if (name.empty() || name.size() > 255) {
    return Status::InvalidArgument("catalog names are 1..255 bytes");
  }
  // The whole chain is scanned for the name; the entry goes to the first
  // page with room, or to a fresh page linked after the tail.
  const size_t need = EntryBytes(name);
  bool bound = false;
  PageInfo target, tail;
  auto same = [&](const PageInfo&, std::string_view n, ObjectId, size_t) {
    bound = n == name;
    return bound;
  };
  auto room = [&](const PageInfo& info) {
    if (target.page == kInvalidPage &&
        kHeaderBytes + info.used + need <= sys_->config().page_size) {
      target = info;
    }
    tail = info;
    return Status::OK();
  };
  LOB_RETURN_IF_ERROR(Walk(head_, same, room));
  if (bound) return Status::InvalidArgument("name already bound");
  if (target.page == kInvalidPage) {
    // Grow the chain. The fresh page is committed only once the tail's
    // next pointer durably references it.
    auto ext = ScopedExtent::Allocate(sys_->meta_area(), sys_->pool(), 1);
    if (!ext.ok()) return ext.status();
    LOB_RETURN_IF_ERROR(FormatEmpty(ext->first_page()));
    {
      auto g = sys_->pool()->FixPage(area_id(), tail.page, FixMode::kRead);
      if (!g.ok()) return g.status();
      StoreU32(g->mutable_data() + 4, ext->first_page());
      g->MarkDirty();
      LOB_RETURN_IF_ERROR(sys_->pool()->FlushRun(area_id(), tail.page, 1));
    }
    ext->Commit();
    // Scan the fresh page before writing it, as a walk reaching it would:
    // the pool sees the same fixes whether the chain grew or not.
    LOB_RETURN_IF_ERROR(Walk(ext->first_page(), kIgnoreEntry, room));
  }
  auto g = sys_->pool()->FixPage(area_id(), target.page, FixMode::kRead);
  if (!g.ok()) return g.status();
  char* p = g->mutable_data();
  char* entry = p + kHeaderBytes + target.used;
  entry[0] = static_cast<char>(name.size());
  std::memcpy(entry + 1, name.data(), name.size());
  StoreU32(entry + 1 + name.size(), id);
  StoreU16(p + 8, static_cast<uint16_t>(target.count + 1));
  StoreU16(p + 10, static_cast<uint16_t>(target.used + need));
  g->MarkDirty();
  // Catalog updates are flushed immediately: they are rare and must not
  // be lost behind large-object traffic evictions.
  return sys_->pool()->FlushRun(area_id(), target.page, 1);
}

StatusOr<ObjectId> ObjectCatalog::Get(std::string_view name) {
  std::optional<ObjectId> found;
  auto match = [&](const PageInfo&, std::string_view n, ObjectId id, size_t) {
    if (n == name) found = id;
    return found.has_value();
  };
  LOB_RETURN_IF_ERROR(Walk(head_, match, kIgnorePage));
  if (!found) return Status::NotFound("no such object name");
  return *found;
}

StatusOr<bool> ObjectCatalog::Contains(std::string_view name) {
  auto id = Get(name);
  if (id.ok()) return true;
  if (id.status().code() == StatusCode::kNotFound) return false;
  return id.status();
}

Status ObjectCatalog::Remove(std::string_view name) {
  PageInfo hit;
  size_t at = 0;
  auto match = [&](const PageInfo& info, std::string_view n, ObjectId,
                   size_t offset) {
    if (n != name) return false;
    hit = info;
    at = offset;
    return true;
  };
  LOB_RETURN_IF_ERROR(Walk(head_, match, kIgnorePage));
  if (hit.page == kInvalidPage) return Status::NotFound("no such object name");
  auto g = sys_->pool()->FixPage(area_id(), hit.page, FixMode::kRead);
  if (!g.ok()) return g.status();
  // Compact in place; bytes past the new `used` keep their stale content.
  char* p = g->mutable_data();
  const size_t gone = EntryBytes(name);
  std::memmove(p + at, p + at + gone, kHeaderBytes + hit.used - at - gone);
  StoreU16(p + 8, static_cast<uint16_t>(hit.count - 1));
  StoreU16(p + 10, static_cast<uint16_t>(hit.used - gone));
  g->MarkDirty();
  return sys_->pool()->FlushRun(area_id(), hit.page, 1);
}

StatusOr<std::vector<std::pair<std::string, ObjectId>>>
ObjectCatalog::List() {
  std::vector<std::pair<std::string, ObjectId>> out;
  auto add = [&](const PageInfo&, std::string_view n, ObjectId id, size_t) {
    out.emplace_back(n, id);
    return false;
  };
  LOB_RETURN_IF_ERROR(Walk(head_, add, kIgnorePage));
  return out;
}

StatusOr<uint64_t> ObjectCatalog::Size() {
  uint64_t n = 0;
  auto count = [&](const PageInfo& info) {
    n += info.count;
    return Status::OK();
  };
  LOB_RETURN_IF_ERROR(Walk(head_, kIgnoreEntry, count));
  return n;
}

StatusOr<std::vector<PageId>> ObjectCatalog::Pages() {
  std::vector<PageId> out;
  auto add = [&](const PageInfo& info) {
    out.push_back(info.page);
    return Status::OK();
  };
  LOB_RETURN_IF_ERROR(Walk(head_, kIgnoreEntry, add));
  return out;
}

Status ObjectCatalog::Drop() {
  if (head_ == kInvalidPage) return Status::OK();
  auto free = [&](const PageInfo& info) {
    Status st = sys_->pool()->Invalidate(area_id(), info.page, 1);
    return st.ok() ? sys_->meta_area()->Free(info.page, 1) : st;
  };
  LOB_RETURN_IF_ERROR(Walk(head_, kIgnoreEntry, free));
  head_ = kInvalidPage;
  return Status::OK();
}

}  // namespace lob
