// Layer probes: direct calls into the public functions of SimDisk,
// BufferPool, DatabaseArea and PositionalTree, each on a fresh instance
// sized like the workload that reports it. A probe isolates one layer's
// host cost from everything the managers do around it.

#include <algorithm>

#include "bench.h"
#include "buddy/database_area.h"
#include "buffer/buffer_pool.h"
#include "buffer/op_context.h"
#include "iomodel/sim_disk.h"
#include "lobtree/positional_tree.h"

namespace lobbench {
namespace {

/// Each probe repeats its loop this many times and keeps the median.
constexpr int kTrials = 5;
/// Pages one SimDisk probe trial transfers, and the size of the region it
/// cycles over (16 MB: larger than the host's caches).
constexpr uint32_t kTrialPages = 16384;
constexpr uint32_t kRegionPages = 4096;

/// Median ns per unit of `units` units of work done by `body`.
template <class F>
double NsPerUnit(uint64_t units, F&& body) {
  std::vector<double> t;
  for (int i = 0; i < kTrials; ++i) {
    const int64_t t0 = NowNs();
    body();
    t.push_back(static_cast<double>(NowNs() - t0) /
                static_cast<double>(units));
  }
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

void ProbeDisk(const ProbeShape& shape, ProbeResults* r) {
  const lob::StorageConfig config;
  const uint32_t ps = config.page_size;
  const uint32_t run = shape.run_pages;
  const uint32_t slots = kRegionPages / run;
  const uint32_t calls = kTrialPages / run;
  lob::SimDisk disk(config);
  const lob::AreaId area = disk.CreateArea();
  std::string buf(static_cast<size_t>(run) * ps, '\x5a');
  std::vector<const char*> srcs(run);
  for (uint32_t i = 0; i < run; ++i) srcs[i] = buf.data() + size_t{i} * ps;
  std::vector<lob::PageRef> refs(run);
  for (uint32_t s = 0; s < slots; ++s) {
    r->ok &= disk.Write(area, s * run, run, buf.data()).ok();
  }
  const uint64_t pages = uint64_t{calls} * run;
  r->read_ns_per_page = NsPerUnit(pages, [&] {
    for (uint32_t c = 0; c < calls; ++c) {
      r->ok &= disk.Read(area, (c % slots) * run, run, buf.data()).ok();
    }
  });
  r->read_run_ns_per_page = NsPerUnit(pages, [&] {
    for (uint32_t c = 0; c < calls; ++c) {
      r->ok &= disk.ReadRun(area, (c % slots) * run, run, refs.data()).ok();
    }
  });
  r->write_ns_per_page = NsPerUnit(pages, [&] {
    for (uint32_t c = 0; c < calls; ++c) {
      r->ok &= disk.Write(area, (c % slots) * run, run, buf.data()).ok();
    }
  });
  r->write_run_ns_per_page = NsPerUnit(pages, [&] {
    for (uint32_t c = 0; c < calls; ++c) {
      r->ok &= disk.WriteRun(area, (c % slots) * run, run, srcs.data()).ok();
    }
  });
}

void ProbePool(ProbeResults* r) {
  const lob::StorageConfig config;
  constexpr uint32_t kPages = 8;  // all resident in the 12-frame pool
  constexpr uint32_t kFixes = 200000;
  lob::SimDisk disk(config);
  const lob::AreaId area = disk.CreateArea();
  lob::BufferPool pool(&disk, config);
  const std::string page(config.page_size, '\x33');
  for (uint32_t p = 0; p < kPages; ++p) {
    r->ok &= disk.Write(area, p, 1, page.data()).ok();
    r->ok &= pool.FixPage(area, p, lob::FixMode::kRead).ok();
  }
  r->fix_hit_ns = NsPerUnit(kFixes, [&] {
    for (uint32_t i = 0; i < kFixes; ++i) {
      r->ok &= pool.FixPage(area, i % kPages, lob::FixMode::kRead).ok();
    }
  });
}

void ProbeBuddy(const ProbeShape& shape, ProbeResults* r) {
  const lob::StorageConfig config;
  constexpr uint32_t kResident = 256;  // segments kept allocated throughout
  constexpr uint32_t kPairs = 20000;
  lob::SimDisk disk(config);
  lob::BufferPool pool(&disk, config);
  lob::DatabaseArea area(&pool, disk.CreateArea(), config);
  for (uint32_t i = 0; i < kResident; ++i) {
    r->ok &= area.Allocate(shape.alloc_pages).ok();
  }
  r->alloc_free_ns = NsPerUnit(kPairs, [&] {
    for (uint32_t i = 0; i < kPairs; ++i) {
      auto seg = area.Allocate(shape.alloc_pages);
      r->ok &= seg.ok() && area.Free(*seg).ok();
    }
  });
}

void ProbeTree(const ProbeShape& shape, uint64_t seed, ProbeResults* r) {
  if (shape.tree_leaves == 0) return;
  constexpr uint32_t kFinds = 50000;
  lob::StorageSystem sys;
  lob::TreeConfig tc;
  tc.pool = sys.pool();
  tc.meta_area = sys.meta_area();
  lob::PositionalTree tree(tc);
  auto root = tree.CreateObject(static_cast<uint8_t>(lob::Engine::kEsm));
  if (!root.ok()) {
    r->ok = false;
    return;
  }
  // The tree indexes leaves without touching them, so the leaf pages can
  // be any ids.
  lob::OpContext ctx(sys.pool());
  for (uint32_t i = 0; i < shape.tree_leaves; ++i) {
    r->ok &= tree.InsertLeaf(*root, uint64_t{i} * shape.leaf_bytes,
                             lob::LeafEntry{shape.leaf_bytes, i}, &ctx)
                 .ok();
    r->ok &= ctx.Finish().ok();
  }
  const uint64_t bytes = uint64_t{shape.tree_leaves} * shape.leaf_bytes;
  Gen gen(seed);
  std::vector<uint64_t> offsets(kFinds);
  for (uint64_t& o : offsets) o = gen.Uniform(0, bytes - 1);
  r->find_leaf_ns = NsPerUnit(kFinds, [&] {
    for (uint64_t o : offsets) r->ok &= tree.FindLeaf(*root, o).ok();
  });
}

}  // namespace

ProbeResults RunProbes(const ProbeShape& shape, uint64_t seed) {
  ProbeResults r;
  ProbeDisk(shape, &r);
  ProbePool(&r);
  ProbeBuddy(shape, &r);
  ProbeTree(shape, seed, &r);
  return r;
}

}  // namespace lobbench
