// Tests for the catalog, disk image persistence, and the Database shell.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "check/fsck.h"
#include "common/rng.h"
#include "core/database.h"
#include "core/factory.h"
#include "iomodel/disk_image.h"

namespace lob {
namespace {

// Fails every foreground I/O call after `k` successes, until ClearFaults().
FaultSpec StickyAfter(uint64_t k) {
  FaultSpec spec;
  spec.kind = FaultKind::kSticky;
  spec.after_calls = k;
  return spec;
}

std::string TempPath(const char* tag) {
  return std::string(::testing::TempDir()) + "/lobstore_" + tag + ".img";
}

std::string Pattern(uint64_t seed, size_t n) {
  std::string out(n, '\0');
  Rng rng(seed);
  for (auto& c : out) c = static_cast<char>('a' + rng.Uniform(0, 25));
  return out;
}

// ----------------------------------------------------------- ObjectCatalog

TEST(ObjectCatalogTest, PutGetRemove) {
  StorageSystem sys;
  ObjectCatalog cat(&sys);
  ASSERT_TRUE(cat.Create().ok());
  ASSERT_TRUE(cat.Put("alpha", 101).ok());
  ASSERT_TRUE(cat.Put("beta", 202).ok());
  auto id = cat.Get("alpha");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 101u);
  auto has = cat.Contains("beta");
  ASSERT_TRUE(has.ok());
  EXPECT_TRUE(*has);
  ASSERT_TRUE(cat.Remove("alpha").ok());
  EXPECT_EQ(cat.Get("alpha").status().code(), StatusCode::kNotFound);
  auto size = cat.Size();
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 1u);
}

TEST(ObjectCatalogTest, RejectsDuplicatesAndBadNames) {
  StorageSystem sys;
  ObjectCatalog cat(&sys);
  ASSERT_TRUE(cat.Create().ok());
  ASSERT_TRUE(cat.Put("x", 1).ok());
  EXPECT_EQ(cat.Put("x", 2).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(cat.Put("", 3).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(cat.Put(std::string(300, 'n'), 4).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(cat.Remove("missing").code(), StatusCode::kNotFound);
}

TEST(ObjectCatalogTest, GrowsAcrossPages) {
  StorageSystem sys;
  ObjectCatalog cat(&sys);
  ASSERT_TRUE(cat.Create().ok());
  // Enough long-named entries to overflow several 4K pages.
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    std::string name = "object_with_a_rather_long_name_" + std::to_string(i);
    ASSERT_TRUE(cat.Put(name, static_cast<ObjectId>(1000 + i)).ok()) << i;
  }
  auto size = cat.Size();
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, static_cast<uint64_t>(n));
  for (int i = 0; i < n; i += 37) {
    std::string name = "object_with_a_rather_long_name_" + std::to_string(i);
    auto id = cat.Get(name);
    ASSERT_TRUE(id.ok()) << name;
    EXPECT_EQ(*id, static_cast<ObjectId>(1000 + i));
  }
  // Duplicate detection works across chained pages too.
  EXPECT_EQ(cat.Put("object_with_a_rather_long_name_499", 1).code(),
            StatusCode::kInvalidArgument);
  auto list = cat.List();
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), static_cast<size_t>(n));
}

TEST(ObjectCatalogTest, DropFreesPages) {
  StorageSystem sys;
  ObjectCatalog cat(&sys);
  ASSERT_TRUE(cat.Create().ok());
  const uint64_t before = sys.meta_area()->allocated_pages();
  for (int i = 0; i < 300; ++i) {
    // Long names force the catalog to chain additional pages.
    ASSERT_TRUE(
        cat.Put("a_long_enough_object_name_to_fill_pages_quickly_" +
                    std::to_string(i),
                1)
            .ok());
  }
  ASSERT_GT(sys.meta_area()->allocated_pages(), before);
  ASSERT_TRUE(cat.Drop().ok());
  EXPECT_EQ(sys.meta_area()->allocated_pages(), before - 1)
      << "all catalog pages including the head must be freed";
}

// ---- Catalog I/O and page bytes, pinned per call ----

// FNV-1a over 64-bit words: folds a long per-call record into one value.
struct Fnv {
  uint64_t h = 0xcbf29ce484222325ULL;
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

// Per-kind totals of catalog calls: calls, read calls, write calls, pages
// read, pages written, pool hits, pool misses, pool evictions.
using CatalogPin = std::array<uint64_t, 8>;

// A seeded Put/Get/Contains/Remove/Size script over a chain of several
// pages, with object I/O interleaved so catalog pages are evicted from the
// 12-page pool, then Drop. Every call's IoStats delta, pool
// hit/miss/eviction delta, status and result, and the final catalog page
// images, must equal figures recorded from the catalog that parsed each
// page into an entry vector and rewrote whole pages: scanning and editing
// pages in place changes host work only, never an I/O, a pool effect or
// a byte.
TEST(ObjectCatalogTest, IoAndPageBytesArePinned) {
  StorageSystem sys;
  ASSERT_EQ(sys.config().buffer_pool_pages, 12u);
  ObjectCatalog cat(&sys);
  ASSERT_TRUE(cat.Create().ok());
  auto mgr = CreateEsmManager(&sys, 2);
  auto obj = mgr->Create();
  ASSERT_TRUE(obj.ok());
  ASSERT_TRUE(mgr->Append(*obj, Pattern(70, 96 * 1024)).ok());

  enum Kind { kPut, kGet, kContains, kRemove, kSize, kDrop, kKinds };
  CatalogPin got[kKinds] = {};
  Fnv trace;
  BufferPool* pool = sys.pool();
  auto call = [&](Kind kind, const std::function<Status()>& fn) {
    const IoStats before = sys.stats();
    const uint64_t hits = pool->hits();
    const uint64_t misses = pool->misses();
    const uint64_t evictions = pool->evictions();
    const Status st = fn();
    const IoStats d = IoStats::Delta(before, sys.stats());
    const CatalogPin row = {1,
                            d.read_calls,
                            d.write_calls,
                            d.pages_read,
                            d.pages_written,
                            pool->hits() - hits,
                            pool->misses() - misses,
                            pool->evictions() - evictions};
    trace.Add(static_cast<uint64_t>(kind));
    trace.Add(static_cast<uint64_t>(st.code()));
    for (size_t i = 0; i < row.size(); ++i) {
      trace.Add(row[i]);
      got[kind][i] += row[i];
    }
  };

  Rng rng(1414);
  std::vector<std::string> bound;
  uint64_t next_name = 0;
  std::string buf;
  for (int step = 0; step < 1200; ++step) {
    const uint64_t dice = rng.Uniform(0, 99);
    if (dice < 40) {
      // Mostly fresh names of 10-70 bytes; every tenth Put repeats one.
      std::string name;
      if (!bound.empty() && rng.Uniform(0, 9) == 0) {
        name = bound[rng.Uniform(0, bound.size() - 1)];
      } else {
        name = std::to_string(next_name++) + "_" +
               Pattern(rng.Next(), rng.Uniform(8, 66));
      }
      const ObjectId id = static_cast<ObjectId>(rng.Uniform(1, 1u << 30));
      call(kPut, [&] {
        Status st = cat.Put(name, id);
        if (st.ok()) bound.push_back(name);
        trace.Add(id);
        return st;
      });
    } else if (dice < 55 || (dice < 70 && bound.empty())) {
      const bool hit = !bound.empty() && rng.Uniform(0, 3) != 0;
      const std::string name =
          hit ? bound[rng.Uniform(0, bound.size() - 1)] : "missing";
      call(kGet, [&] {
        auto id = cat.Get(name);
        trace.Add(id.ok() ? *id : 0);
        return id.status();
      });
    } else if (dice < 65) {
      std::string name;
      if (bound.empty() || rng.Uniform(0, 1) == 0) {
        name = Pattern(rng.Next(), 12);
      } else {
        name = bound[rng.Uniform(0, bound.size() - 1)];
      }
      call(kContains, [&] {
        auto has = cat.Contains(name);
        trace.Add(has.ok() && *has);
        return has.status();
      });
    } else if (dice < 80) {
      std::string name = "never bound";
      size_t at = 0;
      if (!bound.empty() && rng.Uniform(0, 7) != 0) {
        at = rng.Uniform(0, bound.size() - 1);
        name = bound[at];
      }
      call(kRemove, [&] {
        Status st = cat.Remove(name);
        if (st.ok()) bound.erase(bound.begin() + static_cast<long>(at));
        return st;
      });
    } else if (dice < 84) {
      call(kSize, [&] {
        auto n = cat.Size();
        trace.Add(n.ok() ? *n : 0);
        return n.status();
      });
    } else {
      // Object I/O between catalog calls: a small replace of a 2-page
      // leaf, then page fixes of other leaf pages fill the pool so that
      // catalog pages are evicted, both here and inside catalog calls.
      const uint64_t off = rng.Uniform(0, 96 * 1024 - 100);
      ASSERT_TRUE(mgr->Replace(*obj, off, Pattern(off, 100)).ok());
      for (uint64_t r = rng.Uniform(3, 10); r > 0; --r) {
        const auto leaf = static_cast<PageId>(rng.Uniform(0, 40));
        auto g = pool->FixPage(sys.leaf_area()->id(), leaf, FixMode::kRead);
        ASSERT_TRUE(g.ok());
      }
    }
  }
  auto n = cat.Size();
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, bound.size());
  for (const std::string& name : bound) {
    auto has = cat.Contains(name);
    ASSERT_TRUE(has.ok() && *has) << name;
  }

  // Final page images, stale bytes past `used` included.
  auto pages = cat.Pages();
  ASSERT_TRUE(pages.ok());
  ASSERT_GE(pages->size(), 3u);
  ASSERT_TRUE(sys.FlushAll().ok());
  Fnv images;
  for (PageId p : *pages) {
    const char* img = sys.disk()->PeekPage(sys.meta_area()->id(), p);
    ASSERT_NE(img, nullptr);
    images.Add(p);
    for (uint32_t i = 0; i < sys.config().page_size; ++i) {
      images.Add(static_cast<uint8_t>(img[i]));
    }
  }

  const uint64_t meta_before = sys.meta_area()->allocated_pages();
  call(kDrop, [&] { return cat.Drop(); });
  EXPECT_EQ(sys.meta_area()->allocated_pages(), meta_before - pages->size());

  const CatalogPin want[kKinds] = {
      {468, 66, 422, 66, 422, 1241, 66, 68},  // Put
      {188, 23, 0, 23, 0, 271, 23, 23},       // Get
      {117, 13, 0, 13, 0, 174, 13, 13},       // Contains
      {188, 19, 163, 19, 163, 405, 19, 18},   // Remove
      {50, 6, 0, 6, 0, 94, 6, 6},             // Size
      {1, 0, 0, 0, 0, 6, 0, 0},               // Drop
  };
  const char* names[kKinds] = {"Put", "Get", "Contains", "Remove", "Size",
                               "Drop"};
  for (int k = 0; k < kKinds; ++k) EXPECT_EQ(got[k], want[k]) << names[k];
  EXPECT_EQ(pages->size(), 3u);
  EXPECT_EQ(trace.h, 13764008914893068700ULL);
  EXPECT_EQ(images.h, 7584144409729676062ULL);
}

// ---- Corrupt catalog chains: Corruption from every entry point ----

// One way to damage a two-page catalog chain: `poke` rewrites the bytes of
// chain page `page` (0 = head, 1 = its successor) given the chain.
struct CatalogDamage {
  const char* what;
  int page;
  std::function<void(char* p, const std::vector<PageId>& chain)> poke;
};

std::vector<CatalogDamage> CatalogDamages() {
  auto store16 = [](char* p, uint16_t v) { std::memcpy(p, &v, 2); };
  auto load16 = [](const char* p) {
    uint16_t v;
    std::memcpy(&v, p, 2);
    return v;
  };
  return {
      {"self loop", 1,
       [](char* p, const std::vector<PageId>& c) {
         std::memcpy(p + 4, &c[1], 4);
       }},
      {"two-page cycle", 1,
       [](char* p, const std::vector<PageId>& c) {
         std::memcpy(p + 4, &c[0], 4);
       }},
      {"bad magic on a chained page", 1,
       [](char* p, const std::vector<PageId>&) { std::memset(p, 0, 4); }},
      // The header claims entries up to byte 4102; a phantom entry that
      // starts where the real ones end reaches exactly there.
      {"used past the page end", 0,
       [=](char* p, const std::vector<PageId>&) {
         const uint16_t used = load16(p + 10);
         ASSERT_LT(12u + used, 4096u);
         p[12 + used] = static_cast<char>(4102 - (12 + used) - 5);
         store16(p + 8, static_cast<uint16_t>(load16(p + 8) + 1));
         store16(p + 10, 4102 - 12);
       }},
      // A phantom "zz" entry at the end of the entries, with `used` and
      // `count` covering only its length byte.
      {"entry overruns used", 1,
       [=](char* p, const std::vector<PageId>&) {
         const uint16_t used = load16(p + 10);
         std::memcpy(p + 12 + used, "\x02zz\x01\0\0\0", 7);
         store16(p + 8, static_cast<uint16_t>(load16(p + 8) + 1));
         store16(p + 10, static_cast<uint16_t>(used + 1));
       }},
      {"entries do not sum to used", 1,
       [=](char* p, const std::vector<PageId>&) {
         store16(p + 10, static_cast<uint16_t>(load16(p + 10) + 5));
       }},
      {"entry count short of used", 0,
       [=](char* p, const std::vector<PageId>&) {
         store16(p + 8, static_cast<uint16_t>(load16(p + 8) - 1));
       }},
  };
}

// Binds numbered names through `put` until the chain has two pages;
// returns the chain. The names fill the head page to byte 4052 of 4096.
std::vector<PageId> FillTwoPages(
    ObjectCatalog* cat, const std::function<Status(std::string)>& put) {
  const std::string prefix = "a_name_long_enough_to_fill_pages_soon_";
  for (int i = 0;; ++i) {
    auto pages = cat->Pages();
    EXPECT_TRUE(pages.ok());
    if (!pages.ok()) return {};
    if (pages->size() >= 2) return *pages;
    EXPECT_TRUE(put(prefix + std::to_string(i)).ok());
  }
}

// Rewrites a meta-area page through the pool and flushes it.
void PokeMetaPage(StorageSystem* sys, PageId page,
                  const std::function<void(char*)>& poke) {
  auto g = sys->pool()->FixPage(sys->meta_area()->id(), page, FixMode::kRead);
  ASSERT_TRUE(g.ok());
  poke(g->mutable_data());
  g->MarkDirty();
  g->Release();
  ASSERT_TRUE(sys->pool()->FlushRun(sys->meta_area()->id(), page, 1).ok());
}

// Looks up every bound name through `lookup`, so that each chain page has
// been scanned whole and memoized before a damage is applied.
void LookUpEveryName(ObjectCatalog* cat,
                     const std::function<StatusOr<ObjectId>(std::string)>&
                         lookup) {
  auto list = cat->List();
  ASSERT_TRUE(list.ok());
  for (const auto& [name, id] : *list) {
    auto got = lookup(name);
    ASSERT_TRUE(got.ok()) << name;
    EXPECT_EQ(*got, id) << name;
  }
}

// With `warm`, every name is looked up before the damage.
void ExpectCorruptionFromEveryCall(bool warm) {
  for (const CatalogDamage& d : CatalogDamages()) {
    SCOPED_TRACE(d.what);
    StorageSystem sys;
    ObjectCatalog cat(&sys);
    ASSERT_TRUE(cat.Create().ok());
    const std::vector<PageId> chain =
        FillTwoPages(&cat, [&](std::string n) { return cat.Put(n, 7); });
    ASSERT_EQ(chain.size(), 2u);
    if (warm) {
      LookUpEveryName(&cat, [&](std::string n) { return cat.Get(n); });
    }
    PokeMetaPage(&sys, chain[static_cast<size_t>(d.page)],
                 [&](char* p) { d.poke(p, chain); });
    const StatusCode kCorrupt = StatusCode::kCorruption;
    EXPECT_EQ(cat.Get("zz").status().code(), kCorrupt);
    EXPECT_EQ(cat.Contains("zz").status().code(), kCorrupt);
    EXPECT_EQ(cat.Put("zz", 9).code(), kCorrupt);
    EXPECT_EQ(cat.Remove("zz").code(), kCorrupt);
    EXPECT_EQ(cat.List().status().code(), kCorrupt);
    EXPECT_EQ(cat.Size().status().code(), kCorrupt);
    EXPECT_EQ(cat.Pages().status().code(), kCorrupt);
    EXPECT_EQ(cat.Drop().code(), kCorrupt);
  }
}

TEST(ObjectCatalogTest, CorruptChainIsCorruptionFromEveryCall) {
  ExpectCorruptionFromEveryCall(/*warm=*/false);
}

// The page memos built by the lookups must not hide any damage.
TEST(ObjectCatalogTest, CorruptChainIsCorruptionFromEveryCallWhenWarm) {
  ExpectCorruptionFromEveryCall(/*warm=*/true);
}

// With `warm`, every name is looked up before the damage, and the damaged
// catalog must fail the live database's calls before it is saved.
void ExpectCorruptCatalogImageReopensAsCorruption(bool warm) {
  const std::string path = TempPath("corrupt_catalog");
  for (const CatalogDamage& d : CatalogDamages()) {
    SCOPED_TRACE(d.what);
    {
      auto db = Database::Create();
      ASSERT_TRUE(db.ok());
      const std::vector<PageId> chain =
          FillTwoPages((*db)->catalog(), [&](std::string n) {
            return (*db)->CreateObject(n, Engine::kEsm, 4).status();
          });
      ASSERT_EQ(chain.size(), 2u);
      auto clean = FsckDatabase(db->get());
      ASSERT_TRUE(clean.ok() && clean->clean());
      if (warm) {
        LookUpEveryName((*db)->catalog(),
                        [&](std::string n) { return (*db)->Lookup(n); });
      }
      PokeMetaPage((*db)->sys(), chain[static_cast<size_t>(d.page)],
                   [&](char* p) { d.poke(p, chain); });
      if (warm) {
        const StatusCode kCorrupt = StatusCode::kCorruption;
        EXPECT_EQ((*db)->Lookup("zz").status().code(), kCorrupt);
        EXPECT_EQ((*db)->CreateObject("zz", Engine::kEsm, 4).status().code(),
                  kCorrupt);
        EXPECT_EQ((*db)->DropObject("zz").code(), kCorrupt);
      }
      ASSERT_TRUE((*db)->Save(path).ok());
    }
    // Open validates only the head's magic; the walk finds the rest.
    auto db = Database::Open(path);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ(FsckDatabase(db->get()).status().code(),
              StatusCode::kCorruption);
    EXPECT_EQ((*db)->Lookup("zz").status().code(), StatusCode::kCorruption);
    EXPECT_EQ((*db)->CreateObject("zz", Engine::kEsm, 4).status().code(),
              StatusCode::kCorruption);
    EXPECT_EQ((*db)->DropObject("zz").code(), StatusCode::kCorruption);
  }
  std::remove(path.c_str());
}

TEST(DatabaseTest, CorruptCatalogImageReopensAsCorruption) {
  ExpectCorruptCatalogImageReopensAsCorruption(/*warm=*/false);
}

TEST(DatabaseTest, CorruptCatalogImageReopensAsCorruptionWhenWarm) {
  ExpectCorruptCatalogImageReopensAsCorruption(/*warm=*/true);
}

// ---- Memoized lookups against cold scans ----

// Entry offsets of a catalog page whose entries end exactly at `used`;
// empty for a damaged page.
std::vector<size_t> EntryOffsets(const char* p) {
  uint16_t count, used;
  std::memcpy(&count, p + 8, 2);
  std::memcpy(&used, p + 10, 2);
  std::vector<size_t> out;
  size_t at = 12;
  for (uint16_t i = 0; i < count && at < 12u + used; ++i) {
    out.push_back(at);
    at += 1 + static_cast<uint8_t>(p[at]) + 4;
  }
  if (at != 12u + used) out.clear();
  return out;
}

// A seeded Put/Get/Contains/Remove/Size/List script runs on two identical
// systems. A keeps one catalog, so its page memos stay warm; B opens a
// fresh catalog for every call, so every call scans. Between calls the
// same byte pokes land on both: a name or id byte of an entry (the page
// stays valid), one entry's name copied over a later entry of its page
// (the first must still win), and a random header or entry byte that is
// restored a few calls later. Pool-filling fixes evict the catalog pages
// now and then. Every call's status and result must be equal on A and B,
// and so must the final page bytes.
TEST(ObjectCatalogTest, MemoAnswersEqualColdScans) {
  StorageSystem a, b;
  const uint32_t page_size = a.config().page_size;
  ObjectCatalog warm(&a);
  auto head = warm.Create();
  ASSERT_TRUE(head.ok());
  {
    ObjectCatalog cold(&b);
    auto head_b = cold.Create();
    ASSERT_TRUE(head_b.ok());
    ASSERT_EQ(*head_b, *head);
  }
  // Runs `call` on A's catalog and on a fresh catalog of B.
  auto both = [&](const std::function<std::string(ObjectCatalog*)>& call) {
    const std::string on_a = call(&warm);
    ObjectCatalog cold(&b);
    ASSERT_TRUE(cold.Open(*head).ok());
    EXPECT_EQ(on_a, call(&cold));
  };
  // Applies `edit` to page `page` of A, then the same bytes to B's page.
  auto poke = [&](PageId page, const std::function<void(char*)>& edit) {
    std::string before, after;
    PokeMetaPage(&a, page, [&](char* p) {
      before.assign(p, page_size);
      edit(p);
      after.assign(p, page_size);
    });
    PokeMetaPage(&b, page, [&](char* p) {
      EXPECT_EQ(std::string(p, page_size), before);
      std::memcpy(p, after.data(), page_size);
    });
  };
  auto shown = [](const auto& result, const std::string& value) {
    return result.ok() ? value : result.status().ToString();
  };

  // 300 names of 28 bytes: up to 123 entries per page, three pages.
  std::vector<std::string> names;
  for (int i = 0; i < 300; ++i) {
    char num[8];
    std::snprintf(num, sizeof num, "n%03d_", i);
    names.push_back(num + Pattern(static_cast<uint64_t>(i), 23));
  }
  Rng rng(1717);
  struct Damage {
    PageId page = kInvalidPage;
    std::string bytes;
    uint64_t calls_left = 0;
  } damage;
  uint64_t pokes = 0, duplicates = 0, damages = 0;
  std::string dup_name;
  ObjectId dup_id = 0;
  for (int step = 0; step < 4000; ++step) {
    if (damage.page != kInvalidPage && --damage.calls_left == 0) {
      poke(damage.page, [&](char* p) {
        std::memcpy(p, damage.bytes.data(), page_size);
      });
      damage.page = kInvalidPage;
    }
    const std::string& name = names[rng.Uniform(0, names.size() - 1)];
    const uint64_t dice = rng.Uniform(0, 99);
    if (dice < 30) {
      const auto id = static_cast<ObjectId>(rng.Uniform(1, 1u << 30));
      both([&](ObjectCatalog* c) { return c->Put(name, id).ToString(); });
    } else if (dice < 55) {
      both([&](ObjectCatalog* c) {
        auto id = c->Get(name);
        return shown(id, id.ok() ? std::to_string(*id) : "");
      });
    } else if (dice < 62) {
      both([&](ObjectCatalog* c) {
        auto has = c->Contains(name);
        return shown(has, has.ok() && *has ? "bound" : "unbound");
      });
    } else if (dice < 82) {
      both([&](ObjectCatalog* c) { return c->Remove(name).ToString(); });
    } else if (dice < 85) {
      both([&](ObjectCatalog* c) {
        auto n = c->Size();
        return shown(n, n.ok() ? std::to_string(*n) : "");
      });
    } else if (dice < 87) {
      both([&](ObjectCatalog* c) {
        auto list = c->List();
        std::string out;
        if (list.ok()) {
          for (const auto& [n, id] : *list) {
            out += n + "=" + std::to_string(id) + ";";
          }
        }
        return shown(list, out);
      });
    } else if (dice < 89) {
      for (PageId leaf = 0; leaf < a.config().buffer_pool_pages; ++leaf) {
        for (StorageSystem* sys : {&a, &b}) {
          auto g = sys->pool()->FixPage(sys->leaf_area()->id(), leaf,
                                        FixMode::kRead);
          ASSERT_TRUE(g.ok());
        }
      }
    } else if (damage.page == kInvalidPage) {
      auto pages = warm.Pages();
      ASSERT_TRUE(pages.ok()) << pages.status().ToString();
      const PageId page = (*pages)[rng.Uniform(0, pages->size() - 1)];
      const uint64_t kind = rng.Uniform(0, 3);
      ++pokes;
      poke(page, [&](char* p) {
        const std::vector<size_t> entries = EntryOffsets(p);
        if (entries.empty()) return;  // no entry to poke at
        const size_t at = entries[rng.Uniform(0, entries.size() - 1)];
        const size_t len = static_cast<uint8_t>(p[at]);
        if (kind == 0) {  // a name byte
          p[at + 1 + rng.Uniform(0, len - 1)] =
              static_cast<char>('a' + rng.Uniform(0, 25));
        } else if (kind == 1) {  // an id byte
          p[at + 1 + len + rng.Uniform(0, 3)] =
              static_cast<char>(rng.Uniform(0, 255));
        } else if (kind == 2) {  // a duplicate name on the page
          const size_t first = entries.front();
          const size_t last = entries.back();
          if (first != last && p[first] == p[last]) {
            std::memcpy(p + last + 1, p + first + 1, len);
            dup_name.assign(p + first + 1, len);
            std::memcpy(&dup_id, p + first + 1 + len, 4);
            ++duplicates;
          }
        } else {
          // A header byte (not the head's magic), a length byte or any
          // byte of the entries, restored a few calls later.
          damage.page = page;
          damage.bytes.assign(p, page_size);
          damage.calls_left = rng.Uniform(1, 8);
          uint16_t used;
          std::memcpy(&used, p + 10, 2);
          const uint64_t where = rng.Uniform(0, 2);
          const size_t byte =
              where == 0   ? rng.Uniform(page == *head ? 4 : 0, 11)
              : where == 1 ? at
                           : rng.Uniform(12, 12u + used - 1);
          p[byte] = static_cast<char>(static_cast<uint8_t>(p[byte]) ^
                                      rng.Uniform(1, 255));
          ++damages;
        }
      });
      if (!dup_name.empty()) {
        both([&](ObjectCatalog* c) {
          auto id = c->Get(dup_name);
          EXPECT_TRUE(id.ok() && *id == dup_id) << "the first entry wins";
          return shown(id, id.ok() ? std::to_string(*id) : "");
        });
        dup_name.clear();
      }
    }
  }
  EXPECT_GT(pokes, 100u);
  EXPECT_GT(duplicates, 10u);
  EXPECT_GT(damages, 20u);

  auto pages = warm.Pages();
  ASSERT_TRUE(pages.ok());
  ASSERT_TRUE(a.FlushAll().ok());
  ASSERT_TRUE(b.FlushAll().ok());
  for (PageId p : *pages) {
    const AreaId meta = a.meta_area()->id();
    EXPECT_EQ(0, std::memcmp(a.disk()->PeekPage(meta, p),
                             b.disk()->PeekPage(meta, p), page_size))
        << "page " << p;
  }
}

// --------------------------------------------------------------- DiskImage

TEST(DiskImageTest, RoundTripsPages) {
  const std::string path = TempPath("roundtrip");
  StorageConfig cfg;
  {
    SimDisk disk(cfg);
    AreaId a = disk.CreateArea();
    AreaId b = disk.CreateArea();
    std::string page(4096, 'A');
    ASSERT_TRUE(disk.Write(a, 3, 1, page.data()).ok());
    page.assign(4096, 'B');
    ASSERT_TRUE(disk.Write(b, 7, 1, page.data()).ok());
    ASSERT_TRUE(SaveDiskImage(disk, path).ok());
  }
  SimDisk loaded(cfg);
  ASSERT_TRUE(LoadDiskImage(&loaded, path).ok());
  EXPECT_EQ(loaded.num_areas(), 2u);
  ASSERT_NE(loaded.PeekPage(0, 3), nullptr);
  EXPECT_EQ(loaded.PeekPage(0, 3)[0], 'A');
  ASSERT_NE(loaded.PeekPage(1, 7), nullptr);
  EXPECT_EQ(loaded.PeekPage(1, 7)[0], 'B');
  EXPECT_EQ(loaded.PeekPage(0, 0), nullptr) << "sparse pages stay absent";
  EXPECT_EQ(loaded.stats().Seeks(), 0u) << "loading is not simulated I/O";
  std::remove(path.c_str());
}

TEST(DiskImageTest, RejectsGarbage) {
  const std::string path = TempPath("garbage");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not an image", f);
    std::fclose(f);
  }
  StorageConfig cfg;
  SimDisk disk(cfg);
  EXPECT_FALSE(LoadDiskImage(&disk, path).ok());
  std::remove(path.c_str());
  SimDisk disk2(cfg);
  EXPECT_EQ(LoadDiskImage(&disk2, "/nonexistent/lob.img").code(),
            StatusCode::kNotFound);
}

// Writes a hand-made image: area a stores the pages `areas[a]`, in the
// given order, each filled with the low byte of its id.
void WriteImage(const std::string& path,
                const std::vector<std::vector<uint32_t>>& areas) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  auto u32 = [f](uint32_t v) { ASSERT_EQ(std::fwrite(&v, 4, 1, f), 1u); };
  const uint32_t P = StorageConfig().page_size;
  u32(0x4C4F4246);  // "LOBF"
  u32(1);
  u32(P);
  u32(static_cast<uint32_t>(areas.size()));
  for (const std::vector<uint32_t>& ids : areas) {
    u32(static_cast<uint32_t>(ids.size()));
    for (uint32_t id : ids) {
      u32(id);
      const std::string page(P, static_cast<char>(id));
      ASSERT_EQ(std::fwrite(page.data(), P, 1, f), 1u);
    }
  }
  std::fclose(f);
}

TEST(DiskImageTest, RejectsPageIdsNotIncreasing) {
  const std::string path = TempPath("not_increasing");
  const std::vector<std::vector<uint32_t>> bad[] = {
      {{0, 5, 5}}, {{3, 1}}, {{0, 1}, {7, 2}}};
  for (const auto& areas : bad) {
    WriteImage(path, areas);
    SimDisk disk{StorageConfig()};
    EXPECT_EQ(LoadDiskImage(&disk, path).code(), StatusCode::kCorruption);
  }
  WriteImage(path, {{0, 2, 9}, {}});
  SimDisk disk{StorageConfig()};
  ASSERT_TRUE(LoadDiskImage(&disk, path).ok());
  ASSERT_NE(disk.PeekPage(0, 9), nullptr);
  EXPECT_EQ(disk.PeekPage(0, 9)[0], 9);
  EXPECT_EQ(disk.PeekPage(0, 1), nullptr);
  EXPECT_EQ(disk.AreaHighWater(0), 10u);
  EXPECT_EQ(disk.AreaHighWater(1), 0u);
  std::remove(path.c_str());
}

TEST(DiskImageTest, RejectsPageIdPastItsBuddySpaces) {
  const std::string path = TempPath("past_spaces");
  // Buddy spaces of 2^3 data pages plus a directory page repeat every 9
  // pages, so three pages can back at most three spaces: ids 0..26.
  StorageConfig cfg;
  cfg.buddy_space_order = 3;
  WriteImage(path, {{0, 1, 26}});
  {
    SimDisk disk(cfg);
    EXPECT_TRUE(LoadDiskImage(&disk, path).ok());
  }
  WriteImage(path, {{0, 1, 27}});
  {
    SimDisk disk(cfg);
    EXPECT_EQ(LoadDiskImage(&disk, path).code(), StatusCode::kCorruption);
  }
  // A wild id fails before it can size the area.
  WriteImage(path, {{0, 0xFFFFFFFEu}});
  {
    SimDisk disk(cfg);
    EXPECT_EQ(LoadDiskImage(&disk, path).code(), StatusCode::kCorruption);
    EXPECT_EQ(disk.AreaHighWater(0), 1u);
  }
  std::remove(path.c_str());
}

TEST(DatabaseTest, OpenRejectsWildImagePageIdsAsCorruption) {
  const std::string path = TempPath("wild_ids");
  const uint32_t stride = (1u << StorageConfig().buddy_space_order) + 1;
  const std::vector<std::vector<uint32_t>> bad[] = {
      {{0, 1, 0xFFFFFFFEu}, {}},  // would size the meta area to 2^32 pages
      {{0, 1}, {0, 0xFFFFFFFEu}},
      {{0, 1, 3 * stride}, {}},  // three pages back only three spaces
      {{0, 1, 1}, {}},
      {{1, 0}, {}},
  };
  for (const auto& areas : bad) {
    WriteImage(path, areas);
    auto db = Database::Open(path);
    EXPECT_EQ(db.status().code(), StatusCode::kCorruption);
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------- Database

TEST(DatabaseTest, CreateNamedObjectsAllEngines) {
  auto db = Database::Create();
  ASSERT_TRUE(db.ok());
  auto esm = (*db)->CreateObject("pic", Engine::kEsm, 4);
  auto sb = (*db)->CreateObject("song", Engine::kStarburst);
  auto eos = (*db)->CreateObject("doc", Engine::kEos, 16);
  ASSERT_TRUE(esm.ok());
  ASSERT_TRUE(sb.ok());
  ASSERT_TRUE(eos.ok());
  auto e1 = (*db)->ObjectEngine(*esm);
  auto e2 = (*db)->ObjectEngine(*sb);
  auto e3 = (*db)->ObjectEngine(*eos);
  ASSERT_TRUE(e1.ok());
  ASSERT_TRUE(e2.ok());
  ASSERT_TRUE(e3.ok());
  EXPECT_EQ(*e1, Engine::kEsm);
  EXPECT_EQ(*e2, Engine::kStarburst);
  EXPECT_EQ(*e3, Engine::kEos);
  auto found = (*db)->Lookup("song");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, *sb);
}

TEST(DatabaseTest, DuplicateNameRollsBackObject) {
  auto db = Database::Create();
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->CreateObject("x", Engine::kEos).ok());
  const uint64_t pages = (*db)->sys()->meta_area()->allocated_pages();
  EXPECT_FALSE((*db)->CreateObject("x", Engine::kEsm).ok());
  EXPECT_EQ((*db)->sys()->meta_area()->allocated_pages(), pages)
      << "failed create must not leak the object root";
}

TEST(DatabaseTest, DuplicateNameRollbackSurvivesInjectedFailure) {
  // The duplicate-name rollback destroys the freshly created object. If
  // that rollback itself hits an I/O failure, CreateObject must still
  // return the original bind error (never crash, never mask it with the
  // rollback error), and the database must keep working once the fault
  // clears. Sweep the fault depth so the failure lands at every point of
  // the create/bind/rollback sequence at least once.
  for (uint64_t depth = 0; depth < 12; ++depth) {
    auto db = Database::Create();
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateObject("x", Engine::kEos).ok());
    (*db)->sys()->disk()->ArmFault(StickyAfter(depth));
    auto dup = (*db)->CreateObject("x", Engine::kEsm);
    EXPECT_FALSE(dup.ok()) << "depth " << depth;
    (*db)->sys()->disk()->ClearFaults();
    // The database stays usable: the original binding is intact and new
    // names can still be created.
    auto found = (*db)->Lookup("x");
    ASSERT_TRUE(found.ok()) << "depth " << depth;
    auto fresh = (*db)->CreateObject("y", Engine::kEos);
    EXPECT_TRUE(fresh.ok()) << "depth " << depth;
  }
}

TEST(DatabaseTest, DropObjectFreesAndUnbinds) {
  auto db = Database::Create();
  ASSERT_TRUE(db.ok());
  auto id = (*db)->CreateObject("blob", Engine::kEos, 4);
  ASSERT_TRUE(id.ok());
  auto mgr = (*db)->ManagerForObject(*id);
  ASSERT_TRUE(mgr.ok());
  ASSERT_TRUE((*mgr)->Append(*id, Pattern(1, 100000)).ok());
  ASSERT_GT((*db)->sys()->leaf_area()->allocated_pages(), 0u);
  ASSERT_TRUE((*db)->DropObject("blob").ok());
  EXPECT_EQ((*db)->sys()->leaf_area()->allocated_pages(), 0u);
  EXPECT_EQ((*db)->Lookup("blob").status().code(), StatusCode::kNotFound);
}

TEST(DatabaseTest, SaveAndReopenPreservesEverything) {
  const std::string path = TempPath("reopen");
  const std::string song = Pattern(10, 300000);
  const std::string doc = Pattern(11, 120000);
  {
    auto db = Database::Create();
    ASSERT_TRUE(db.ok());
    auto sb = (*db)->CreateObject("song", Engine::kStarburst);
    auto eos = (*db)->CreateObject("doc", Engine::kEos, 4);
    ASSERT_TRUE(sb.ok());
    ASSERT_TRUE(eos.ok());
    auto m1 = (*db)->ManagerFor(Engine::kStarburst);
    auto m2 = (*db)->ManagerFor(Engine::kEos, 4);
    ASSERT_TRUE(m1.ok());
    ASSERT_TRUE(m2.ok());
    ASSERT_TRUE((*m1)->Append(*sb, song).ok());
    ASSERT_TRUE((*m2)->Append(*eos, doc).ok());
    ASSERT_TRUE((*m2)->Insert(*eos, 5000, "EDITED").ok());
    ASSERT_TRUE((*db)->Save(path).ok());
  }
  auto db = Database::Open(path);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto sb = (*db)->Lookup("song");
  auto eos = (*db)->Lookup("doc");
  ASSERT_TRUE(sb.ok());
  ASSERT_TRUE(eos.ok());
  auto m1 = (*db)->ManagerForObject(*sb);
  auto m2 = (*db)->ManagerForObject(*eos, 4);
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m2.ok());
  std::string got;
  ASSERT_TRUE((*m1)->Read(*sb, 0, song.size(), &got).ok());
  EXPECT_EQ(got, song);
  std::string expect_doc = doc;
  expect_doc.insert(5000, "EDITED");
  ASSERT_TRUE((*m2)->Read(*eos, 0, expect_doc.size(), &got).ok());
  EXPECT_EQ(got, expect_doc);
  // The reopened database can keep allocating without clobbering old data.
  auto fresh = (*db)->CreateObject("new", Engine::kEsm, 1);
  ASSERT_TRUE(fresh.ok());
  auto m3 = (*db)->ManagerForObject(*fresh, 1);
  ASSERT_TRUE(m3.ok());
  ASSERT_TRUE((*m3)->Append(*fresh, Pattern(12, 50000)).ok());
  ASSERT_TRUE((*m1)->Read(*sb, 0, song.size(), &got).ok());
  EXPECT_EQ(got, song) << "new allocations must not overwrite old objects";
  ASSERT_TRUE((*m2)->Validate(*eos).ok());
  std::remove(path.c_str());
}

TEST(DatabaseTest, ReopenedAllocatorStateMatches) {
  const std::string path = TempPath("alloc");
  uint64_t leaf_pages_before = 0, meta_pages_before = 0;
  {
    auto db = Database::Create();
    ASSERT_TRUE(db.ok());
    auto id = (*db)->CreateObject("o", Engine::kEsm, 4);
    ASSERT_TRUE(id.ok());
    auto mgr = (*db)->ManagerFor(Engine::kEsm, 4);
    ASSERT_TRUE(mgr.ok());
    ASSERT_TRUE((*mgr)->Append(*id, Pattern(13, 777777)).ok());
    leaf_pages_before = (*db)->sys()->leaf_area()->allocated_pages();
    meta_pages_before = (*db)->sys()->meta_area()->allocated_pages();
    ASSERT_TRUE((*db)->Save(path).ok());
  }
  auto db = Database::Open(path);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->sys()->leaf_area()->allocated_pages(), leaf_pages_before);
  EXPECT_EQ((*db)->sys()->meta_area()->allocated_pages(), meta_pages_before);
  EXPECT_TRUE((*db)->sys()->leaf_area()->CheckInvariants());
  EXPECT_TRUE((*db)->sys()->meta_area()->CheckInvariants());
  std::remove(path.c_str());
}

TEST(DatabaseTest, OpenMissingFileFails) {
  EXPECT_FALSE(Database::Open("/nonexistent/db.img").ok());
}

TEST(DatabaseTest, RejectsZeroParameter) {
  auto db = Database::Create();
  ASSERT_TRUE(db.ok());
  EXPECT_FALSE((*db)->ManagerFor(Engine::kEsm, 0).ok());
  EXPECT_TRUE((*db)->ManagerFor(Engine::kStarburst, 0).ok());
}

}  // namespace
}  // namespace lob
