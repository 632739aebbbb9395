#include "core/object_catalog.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "buddy/scoped_extent.h"
#include "buffer/op_context.h"

namespace lob {

namespace {

constexpr uint32_t kCatalogMagic = 0x4C4F4243;  // "LOBC"
constexpr uint32_t kHeaderBytes = 12;
constexpr uint32_t kMinEntryBytes = 6;  // a one-byte name
// A memo slot holds an entry's offset minus this, so 0 marks a free slot
// and any offset inside a u16 `used` fits.
constexpr uint32_t kSlotBias = kHeaderBytes - 1;

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
constexpr auto kIgnoreEntry = [](const auto&...) {};
constexpr auto kIgnorePage = [](const auto&) { return Status::OK(); };

}  // namespace

ObjectCatalog::PageMemo::PageMemo(uint32_t page_size)
    // Even a page full of one-byte names leaves a slot free, and the slot
    // count is a multiple of Erase's 16-slot blocks.
    : slots(std::max(std::bit_ceil(std::min(page_size - kHeaderBytes,
                                            uint32_t{UINT16_MAX}) /
                                       kMinEntryBytes +
                                   1),
                     uint32_t{16}),
            0) {}

bool ObjectCatalog::PageMemo::Matches(const char* p) const {
  return std::memcmp(p, image.data(), image.size()) == 0;
}

std::string_view ObjectCatalog::PageMemo::NameAt(uint16_t slot) const {
  const char* entry = image.data() + slot + kSlotBias;
  return {entry + 1, static_cast<uint8_t>(entry[0])};
}

size_t ObjectCatalog::PageMemo::Home(std::string_view name) const {
  return std::hash<std::string_view>{}(name) & (slots.size() - 1);
}

uint32_t ObjectCatalog::PageMemo::Find(std::string_view name) const {
  const size_t mask = slots.size() - 1;
  for (size_t i = Home(name); slots[i] != 0; i = (i + 1) & mask) {
    if (NameAt(slots[i]) == name) return slots[i] + kSlotBias;
  }
  return 0;
}

bool ObjectCatalog::PageMemo::Insert(uint32_t at) {
  const auto slot = static_cast<uint16_t>(at - kSlotBias);
  const std::string_view name = NameAt(slot);
  const size_t mask = slots.size() - 1;
  size_t i = Home(name);
  for (; slots[i] != 0; i = (i + 1) & mask) {
    if (NameAt(slots[i]) == name) return false;
  }
  slots[i] = slot;
  return true;
}

void ObjectCatalog::PageMemo::Erase(uint32_t at, uint32_t gone) {
  const auto slot = static_cast<uint16_t>(at - kSlotBias);
  const size_t mask = slots.size() - 1;
  size_t hole = Home(NameAt(slot));
  while (slots[hole] != slot) hole = (hole + 1) & mask;
  // Backward-shift deletion: a later member of the probe run moves into
  // the hole unless its home lies after the hole.
  for (size_t j = (hole + 1) & mask; slots[j] != 0; j = (j + 1) & mask) {
    if (((j - Home(NameAt(slots[j]))) & mask) >= ((j - hole) & mask)) {
      slots[hole] = slots[j];
      hole = j;
    }
  }
  slots[hole] = 0;
  // Branch-free over fixed 16-slot blocks, which compilers vectorize.
  const auto step = static_cast<uint16_t>(gone);
  for (size_t b = 0; b < slots.size(); b += 16) {
    uint16_t* block = &slots[b];
    for (int k = 0; k < 16; ++k) {
      block[k] = static_cast<uint16_t>(block[k] - (block[k] > slot ? step : 0));
    }
  }
}

ObjectCatalog::ObjectCatalog(StorageSystem* sys) : sys_(sys) {}

ObjectCatalog::PageMemo* ObjectCatalog::MemoFor(PageId page, const char* p) {
  auto it = memos_.find(page);
  if (it == memos_.end()) return nullptr;
  if (it->second.Matches(p)) return &it->second;
  memos_.erase(it);
  return nullptr;
}

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

template <typename OnEntry>
Status ObjectCatalog::ScanPage(const char* p, PageInfo* info,
                               OnEntry&& on_entry) const {
  if (LoadU32(p) != kCatalogMagic) {
    return Status::Corruption("bad catalog magic");
  }
  info->next = LoadU32(p + 4);
  info->count = LoadU16(p + 8);
  info->used = LoadU16(p + 10);
  const size_t end = kHeaderBytes + info->used;
  if (end > sys_->config().page_size) {
    return Status::Corruption("catalog page overflows");
  }
  size_t at = kHeaderBytes;
  for (uint16_t i = 0; i < info->count; ++i) {
    const size_t len = at < end ? static_cast<uint8_t>(p[at]) : 0;
    if (at + 1 + len + 4 > end) {
      return Status::Corruption("catalog entry truncated");
    }
    const std::string_view name(p + at + 1, len);
    on_entry(*info, name, LoadU32(p + at + 1 + len), at);
    at += EntryBytes(name);
  }
  if (at != end) return Status::Corruption("catalog entries miss used");
  return Status::OK();
}

template <typename Visit, typename OnPage>
Status ObjectCatalog::Chain(PageId first, Visit&& visit, OnPage&& on_page) {
  if (head_ == kInvalidPage) return Status::Internal("catalog not open");
  // Chain pages are distinct meta-area pages, so a longer chain loops.
  const DatabaseArea* meta = sys_->meta_area();
  uint64_t budget = uint64_t{meta->num_spaces()} * meta->blocks_per_space();
  for (PageInfo info{first}; info.page != kInvalidPage;
       info.page = info.next) {
    if (budget-- == 0) return Status::Corruption("catalog chain loops");
    bool stop = false;
    {
      auto g = sys_->pool()->FixPage(area_id(), info.page, FixMode::kRead);
      if (!g.ok()) return g.status();
      LOB_RETURN_IF_ERROR(visit(&info, g->data(), &stop));
    }
    if (stop) return Status::OK();
    LOB_RETURN_IF_ERROR(on_page(info));
  }
  return Status::OK();
}

template <typename OnEntry, typename OnPage>
Status ObjectCatalog::Walk(PageId first, OnEntry&& on_entry,
                           OnPage&& on_page) {
  auto scan = [&](PageInfo* info, const char* p, bool*) {
    return ScanPage(p, info, on_entry);
  };
  return Chain(first, scan, on_page);
}

template <typename OnPage>
Status ObjectCatalog::Find(PageId first, std::string_view name, Hit* hit,
                           OnPage&& on_page) {
  auto visit = [&](PageInfo* info, const char* p, bool* stop) {
    if (const PageMemo* memo = MemoFor(info->page, p)) {
      info->next = LoadU32(p + 4);
      info->count = LoadU16(p + 8);
      info->used = LoadU16(p + 10);
      const uint32_t at = memo->Find(name);
      if (at != 0) {
        *hit = {*info, at, LoadU32(p + at + 1 + name.size())};
        *stop = true;
      }
      return Status::OK();
    }
    const uint32_t page_size = sys_->config().page_size;
    PageMemo fresh(page_size);
    fresh.image.assign(p, page_size);
    bool unique = true;
    const Status st = ScanPage(p, info, [&](const PageInfo& i,
                                            std::string_view n, ObjectId id,
                                            size_t offset) {
      const auto at = static_cast<uint32_t>(offset);
      if (!*stop && n == name) {
        *hit = {i, at, id};
        *stop = true;
      }
      unique = fresh.Insert(at) && unique;
    });
    if (st.ok() && unique) {
      fresh.image.resize(kHeaderBytes + info->used);
      memos_.emplace(info->page, std::move(fresh));
    }
    return *stop ? Status::OK() : st;
  };
  return Chain(first, visit, on_page);
}

Status ObjectCatalog::Put(std::string_view name, ObjectId id) {
  if (name.empty() || name.size() > 255) {
    return Status::InvalidArgument("catalog names are 1..255 bytes");
  }
  // The whole chain is scanned for the name; the entry goes to the first
  // page with room, or to a fresh page linked after the tail.
  const size_t need = EntryBytes(name);
  Hit hit;
  PageInfo target, tail;
  auto room = [&](const PageInfo& info) {
    if (target.page == kInvalidPage &&
        kHeaderBytes + info.used + need <= sys_->config().page_size) {
      target = info;
    }
    tail = info;
    return Status::OK();
  };
  LOB_RETURN_IF_ERROR(Find(head_, name, &hit, room));
  if (hit.info.page != kInvalidPage) {
    return Status::InvalidArgument("name already bound");
  }
  if (target.page == kInvalidPage) {
    // Grow the chain. The fresh page is committed only once the tail's
    // next pointer durably references it.
    auto ext = ScopedExtent::Allocate(sys_->meta_area(), sys_->pool(), 1);
    if (!ext.ok()) return ext.status();
    LOB_RETURN_IF_ERROR(FormatEmpty(ext->first_page()));
    {
      auto g = sys_->pool()->FixPage(area_id(), tail.page, FixMode::kRead);
      if (!g.ok()) return g.status();
      char* p = g->mutable_data();
      PageMemo* memo = MemoFor(tail.page, p);
      StoreU32(p + 4, ext->first_page());
      if (memo != nullptr) StoreU32(memo->image.data() + 4, ext->first_page());
      g->MarkDirty();
      LOB_RETURN_IF_ERROR(sys_->pool()->FlushRun(area_id(), tail.page, 1));
    }
    ext->Commit();
    // Scan the fresh page before writing it, as a walk reaching it would:
    // the pool sees the same fixes whether the chain grew or not.
    LOB_RETURN_IF_ERROR(Find(ext->first_page(), name, &hit, room));
  }
  auto g = sys_->pool()->FixPage(area_id(), target.page, FixMode::kRead);
  if (!g.ok()) return g.status();
  char* p = g->mutable_data();
  PageMemo* memo = MemoFor(target.page, p);
  char* entry = p + kHeaderBytes + target.used;
  entry[0] = static_cast<char>(name.size());
  std::memcpy(entry + 1, name.data(), name.size());
  StoreU32(entry + 1 + name.size(), id);
  StoreU16(p + 8, static_cast<uint16_t>(target.count + 1));
  StoreU16(p + 10, static_cast<uint16_t>(target.used + need));
  g->MarkDirty();
  // A memo that matched the page before the edit follows it through; the
  // name is on no page, so it indexes.
  if (memo != nullptr) {
    memo->image.assign(p, kHeaderBytes + target.used + need);
    memo->Insert(static_cast<uint32_t>(entry - p));
  }
  // Catalog updates are flushed immediately: they are rare and must not
  // be lost behind large-object traffic evictions.
  return sys_->pool()->FlushRun(area_id(), target.page, 1);
}

StatusOr<ObjectId> ObjectCatalog::Get(std::string_view name) {
  Hit hit;
  LOB_RETURN_IF_ERROR(Find(head_, name, &hit, kIgnorePage));
  if (hit.info.page == kInvalidPage) {
    return Status::NotFound("no such object name");
  }
  return hit.id;
}

StatusOr<bool> ObjectCatalog::Contains(std::string_view name) {
  auto id = Get(name);
  if (id.ok()) return true;
  if (id.status().code() == StatusCode::kNotFound) return false;
  return id.status();
}

Status ObjectCatalog::Remove(std::string_view name) {
  Hit hit;
  LOB_RETURN_IF_ERROR(Find(head_, name, &hit, kIgnorePage));
  const PageInfo& info = hit.info;
  if (info.page == kInvalidPage) return Status::NotFound("no such object name");
  auto g = sys_->pool()->FixPage(area_id(), info.page, FixMode::kRead);
  if (!g.ok()) return g.status();
  // Compact in place; bytes past the new `used` keep their stale content.
  char* p = g->mutable_data();
  PageMemo* memo = MemoFor(info.page, p);
  const auto gone = static_cast<uint32_t>(EntryBytes(name));
  std::memmove(p + hit.at, p + hit.at + gone,
               kHeaderBytes + info.used - hit.at - gone);
  StoreU16(p + 8, static_cast<uint16_t>(info.count - 1));
  StoreU16(p + 10, static_cast<uint16_t>(info.used - gone));
  g->MarkDirty();
  if (memo != nullptr) {
    memo->Erase(hit.at, gone);
    memo->image.assign(p, kHeaderBytes + info.used - gone);
  }
  return sys_->pool()->FlushRun(area_id(), info.page, 1);
}

StatusOr<std::vector<std::pair<std::string, ObjectId>>>
ObjectCatalog::List() {
  std::vector<std::pair<std::string, ObjectId>> out;
  auto add = [&](const PageInfo&, std::string_view n, ObjectId id, size_t) {
    out.emplace_back(n, id);
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
  memos_.clear();
  auto free = [&](const PageInfo& info) {
    Status st = sys_->pool()->Invalidate(area_id(), info.page, 1);
    return st.ok() ? sys_->meta_area()->Free(info.page, 1) : st;
  };
  LOB_RETURN_IF_ERROR(Walk(head_, kIgnoreEntry, free));
  head_ = kInvalidPage;
  return Status::OK();
}

}  // namespace lob
