// ObjectCatalog: a named directory of large objects.
//
// The paper's storage managers identify an object by the page number of
// its root or descriptor; real clients need a way to find that page again.
// The catalog is a chain of meta-area pages mapping UTF-8 names to object
// ids - the role the file/directory layer plays above EXODUS or Starburst.
//
// Layout of a catalog page (4 KB):
//   [0]  u32 magic 'LOBC'
//   [4]  u32 next page (kInvalidPage when last in chain)
//   [8]  u16 entry count
//   [10] u16 bytes used by entries
//   [12] entries: { u8 name_len, name bytes, u32 object id } packed
//
// Entries never span pages; a page that cannot fit a new entry links to a
// freshly allocated successor. Removal compacts the page in place.
//
// Name lookups (Get, Contains, Put's duplicate check, Remove) keep a memo
// per chain page: the bytes a full validating scan accepted plus an index
// of entry offsets by name. The memo answers only while the pinned frame
// holds exactly those bytes, so every answer equals the scan's.

#ifndef LOB_CORE_OBJECT_CATALOG_H_
#define LOB_CORE_OBJECT_CATALOG_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/large_object.h"
#include "core/storage_system.h"

namespace lob {

/// Name -> ObjectId directory stored in the meta area.
class ObjectCatalog {
 public:
  explicit ObjectCatalog(StorageSystem* sys);

  /// Allocates and formats an empty catalog; returns its head page.
  [[nodiscard]] StatusOr<PageId> Create();

  /// Opens an existing catalog rooted at `head` (validates the magic).
  [[nodiscard]] Status Open(PageId head);

  /// Binds `name` to `id`. Fails with InvalidArgument if the name is
  /// empty, longer than 255 bytes, or already bound.
  [[nodiscard]] Status Put(std::string_view name, ObjectId id);

  /// Looks a name up.
  [[nodiscard]] StatusOr<ObjectId> Get(std::string_view name);

  /// Removes a binding (NotFound if absent). The object itself is not
  /// destroyed - the catalog only stores references.
  [[nodiscard]] Status Remove(std::string_view name);

  /// True if the name is bound.
  [[nodiscard]] StatusOr<bool> Contains(std::string_view name);

  /// All bindings, in chain order.
  [[nodiscard]] StatusOr<std::vector<std::pair<std::string, ObjectId>>> List();

  /// Number of bindings.
  [[nodiscard]] StatusOr<uint64_t> Size();

  /// Frees every catalog page (bindings only; objects survive).
  [[nodiscard]] Status Drop();

  /// The meta-area pages of the catalog chain, head first. Ground truth
  /// for the consistency checker (src/check), which must account for
  /// every allocated meta page.
  [[nodiscard]] StatusOr<std::vector<PageId>> Pages();

  PageId head() const { return head_; }

 private:
  /// Header of a validated catalog page, as a chain walk yields it.
  struct PageInfo {
    PageId page = kInvalidPage;
    PageId next = kInvalidPage;
    uint16_t count = 0;
    uint16_t used = 0;
  };

  /// A chain page as a full validating scan accepted it: `image` is its
  /// bytes [0, 12 + used) and `slots` a linear-probing index of its entry
  /// offsets by name (each less 11, so 0 marks a free slot). A scan's
  /// answers depend on nothing but those bytes, so while a pinned frame
  /// holds exactly `image`, the index gives the scan's answer for any
  /// name. Pages whose entries repeat a name get no memo.
  struct PageMemo {
    explicit PageMemo(uint32_t page_size);
    /// True while the frame `p` holds exactly `image`.
    bool Matches(const char* p) const;
    /// Offset of the entry named `name`, or 0 if the page has none.
    uint32_t Find(std::string_view name) const;
    /// Indexes the entry at `at`; false if its name is indexed already.
    bool Insert(uint32_t at);
    /// Unindexes the `gone`-byte entry at `at` and moves the offsets after
    /// it down by `gone`, as a compacting removal moves the entries. Reads
    /// names from `image`, so it runs before `image` takes the removal.
    void Erase(uint32_t at, uint32_t gone);

    std::string image;
    std::vector<uint16_t> slots;

   private:
    std::string_view NameAt(uint16_t slot) const;
    size_t Home(std::string_view name) const;
  };

  /// Where a name lookup found its entry; `info.page` stays kInvalidPage
  /// when the chain does not bind the name.
  struct Hit {
    PageInfo info;
    uint32_t at = 0;
    ObjectId id = 0;
  };

  AreaId area_id() const { return sys_->meta_area()->id(); }

  /// The memo of `page` if it matches the pinned frame `p`; a memo that
  /// does not is dropped. An edit takes the memo before it changes the
  /// frame and then applies the same change to it.
  PageMemo* MemoFor(PageId page, const char* p);

  /// Formats `page` as an empty catalog page, left dirty in the pool.
  [[nodiscard]] Status FormatEmpty(PageId page);

  /// Checks the header of the catalog page `p` into `info`, then yields
  /// each entry to `on_entry(info, name, id, offset)` after checking that
  /// it lies inside `used` (`name` points into `p`; `offset` is the
  /// entry's byte offset). Corruption for a bad magic, a `used` past the
  /// page, a truncated entry, or entries that do not end exactly at
  /// `used`; entries before the fault have been yielded.
  template <typename OnEntry>
  [[nodiscard]]
  Status ScanPage(const char* p, PageInfo* info, OnEntry&& on_entry) const;

  /// Follows the chain from `first`, pinning one page at a time with
  /// FixPage(kRead). `visit(&info, data, &stop)` reads the pinned page
  /// into `info` and returns a Status; setting `stop` ends the walk there.
  /// Otherwise `on_page(info)` runs after the page is unpinned and returns
  /// a Status. A chain longer than the meta area's page count is
  /// Corruption.
  template <typename Visit, typename OnPage>
  [[nodiscard]]
  Status Chain(PageId first, Visit&& visit, OnPage&& on_page);

  /// Follows the chain from `first`, scanning each page with ScanPage;
  /// `on_entry` sees each entry while its page is pinned.
  template <typename OnEntry, typename OnPage>
  [[nodiscard]]
  Status Walk(PageId first, OnEntry&& on_entry, OnPage&& on_page);

  /// Looks `name` up along the chain from `first`: fixes the same pages in
  /// the same order, and returns the same status and first matching entry,
  /// as a walk that stops at the first entry named `name`. `on_page(info)`
  /// runs for each page passed without a match. A page whose memo matches
  /// the frame costs one `memcmp` and one probe. Any other page is
  /// scanned; the first match stands even if a later entry on the page is
  /// damaged, and a page the scan accepts to its end gets a fresh memo.
  template <typename OnPage>
  [[nodiscard]]
  Status Find(PageId first, std::string_view name, Hit* hit,
              OnPage&& on_page);

  /// Bytes an entry occupies on the page.
  static size_t EntryBytes(std::string_view name) { return 1 + name.size() + 4; }

  StorageSystem* sys_;
  PageId head_ = kInvalidPage;
  std::unordered_map<PageId, PageMemo> memos_;
};

}  // namespace lob

#endif  // LOB_CORE_OBJECT_CATALOG_H_
