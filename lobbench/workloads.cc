// The four lobbench workloads. Each is a closed loop with one client on
// one thread: the next op is issued only after the previous one returns.
// All inputs (op streams, sizes, positions, payload bytes, initial object
// contents) are generated from the seed in Create(), before any timing.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>

#include "bench.h"
#include "check/fsck.h"
#include "core/database.h"
#include "core/factory.h"

namespace lobbench {
namespace {

constexpr uint64_t kKiB = 1024;
constexpr uint64_t kMiB = 1024 * kKiB;
/// Append size used to build initial objects (the paper's mix benches
/// build their 10 MB object the same way).
constexpr uint64_t kBuildAppend = 100 * kKiB;

/// Fig 5 append sizes and Fig 6 scan chunk sizes, in KB.
constexpr uint32_t kPaperSizesKb[] = {3,  4,  5,  6,  7,  8,   10,
                                      12, 14, 16, 20, 24, 28,  32,
                                      50, 64, 100, 128, 200, 256, 512};
constexpr size_t kPaperSizes = std::size(kPaperSizesKb);

/// Engines in call-table order (see EngineIndex).
constexpr lob::Engine kEngineOf[kEngines] = {
    lob::Engine::kEsm, lob::Engine::kEos, lob::Engine::kStarburst};

enum class Kind : uint8_t { kRead, kInsert, kDelete, kReplace, kRecreate };

/// One generated op. `obj` indexes the workload's objects (or slots).
struct Op {
  Kind kind;
  uint32_t obj;
  uint64_t off;
  uint32_t len;
  uint32_t src;  ///< payload offset of the bytes written
};

/// One append of an object's initial build.
struct Slice {
  uint32_t src;
  uint32_t len;
};

std::vector<Slice> PlanBuild(const Payload& payload, Gen* gen, uint64_t bytes,
                             uint64_t append) {
  std::vector<Slice> plan;
  for (uint64_t done = 0; done < bytes; done += append) {
    const uint64_t n = std::min(append, bytes - done);
    plan.push_back({static_cast<uint32_t>(payload.Pick(gen, n)),
                    static_cast<uint32_t>(n)});
  }
  return plan;
}

RefBytes RefFromPlan(const Payload& payload, const std::vector<Slice>& plan) {
  RefBytes ref;
  for (const Slice& s : plan) ref.Append(payload.Slice(s.src, s.len));
  return ref;
}

std::unique_ptr<LargeObjectManager> MakeManager(StorageSystem* sys,
                                                lob::Engine engine,
                                                uint32_t param) {
  switch (engine) {
    case lob::Engine::kEsm:
      return lob::CreateEsmManager(sys, param);
    case lob::Engine::kEos:
      return lob::CreateEosManager(sys, param);
    case lob::Engine::kStarburst:
      return lob::CreateStarburstManager(sys);
  }
  return nullptr;
}

/// Compares a timed read's bytes with the reference, outside the timing.
void Check(Recorder* rec, uint32_t op, const RefBytes& ref, uint64_t off,
           std::string_view got) {
  const int64_t t0 = rec->record_spans() ? NowNs() : 0;
  if (!ref.Equals(off, got)) {
    rec->Fail("op " + std::to_string(op) + ": read of " +
              std::to_string(got.size()) + " bytes at " + std::to_string(off) +
              " differs from the reference");
  }
  if (rec->record_spans()) rec->CheckSpan(op, t0, NowNs());
}

void FailStatus(Recorder* rec, const char* what, const Status& s) {
  rec->Fail(std::string(what) + ": " + s.ToString());
}

/// Issue count of fsck over one system's objects, issues printed.
StatusOr<size_t> FsckIssues(
    StorageSystem* sys,
    const std::vector<std::pair<ObjectId, LargeObjectManager*>>& objs) {
  auto report = lob::FsckObjects(sys, objs);
  if (!report.ok()) return report.status();
  if (!report->clean()) {
    std::fprintf(stderr, "lobbench: fsck: %s\n", report->ToString().c_str());
  }
  return report->issues.size();
}

// ---------------------------------------------------------------------------
// starburst_mix and tree_mix: large objects under a random
// read/insert/delete(/replace) mix (paper 4.4).

struct MixSpec {
  double read, insert, del;  ///< fractions; the rest are replaces
  uint64_t min_len, max_len;
  uint32_t ops;
};

struct ObjSpec {
  uint32_t sys;
  lob::Engine engine;
  uint32_t param;
  uint64_t bytes;
};

class MixWorkload : public Workload {
 public:
  MixWorkload(uint64_t seed, uint32_t n_systems, std::vector<ObjSpec> specs,
              const MixSpec& mix, const ProbeShape& shape)
      : payload_(seed), n_systems_(n_systems), specs_(std::move(specs)),
        shape_(shape) {
    Gen gen(seed);
    for (const ObjSpec& s : specs_) {
      plans_.push_back(PlanBuild(payload_, &gen, s.bytes, kBuildAppend));
      initial_.push_back(RefFromPlan(payload_, plans_.back()));
    }
    Generate(&gen, mix);
  }

  Status Setup(std::vector<std::pair<std::string, double>>*) override {
    for (uint32_t i = 0; i < n_systems_; ++i) {
      systems_.push_back(std::make_unique<StorageSystem>());
    }
    for (size_t i = 0; i < specs_.size(); ++i) {
      const ObjSpec& s = specs_[i];
      LargeObjectManager* mgr = Manager(s);
      auto id = mgr->Create();
      if (!id.ok()) return id.status();
      for (const Slice& sl : plans_[i]) {
        LOB_RETURN_IF_ERROR(mgr->Append(*id, payload_.Slice(sl.src, sl.len)));
      }
      ids_.push_back(*id);
    }
    return Status::OK();
  }

  void Run(Recorder* rec) override {
    for (const Op& op : ops_) {
      const ObjSpec& s = specs_[op.obj];
      StorageSystem* sys = systems_[s.sys].get();
      LargeObjectManager* mgr = Manager(s);
      const ObjectId id = ids_[op.obj];
      RefBytes& ref = refs_[op.obj];
      const std::string_view data = payload_.Slice(op.src, op.len);
      switch (op.kind) {
        case Kind::kRead: {
          OpTimer t(rec, OpClass::kRead, sys);
          const Status st = t.Time(EngineCall(s.engine, kRead), [&] {
            return mgr->Read(id, op.off, op.len, &buf_);
          });
          const uint32_t n = t.Finish(op.len, 0);
          if (!st.ok()) {
            FailStatus(rec, "read", st);
          } else {
            Check(rec, n, ref, op.off, buf_);
          }
          break;
        }
        case Kind::kInsert: {
          OpTimer t(rec, OpClass::kWrite, sys);
          const Status st = t.Time(EngineCall(s.engine, kInsert), [&] {
            return mgr->Insert(id, op.off, data);
          });
          t.Finish(0, op.len);
          if (!st.ok()) FailStatus(rec, "insert", st);
          ref.Insert(op.off, data);
          break;
        }
        case Kind::kDelete: {
          OpTimer t(rec, OpClass::kWrite, sys);
          const Status st = t.Time(EngineCall(s.engine, kDelete), [&] {
            return mgr->Delete(id, op.off, op.len);
          });
          t.Finish(0, 0);
          if (!st.ok()) FailStatus(rec, "delete", st);
          ref.Erase(op.off, op.len);
          break;
        }
        case Kind::kReplace: {
          OpTimer t(rec, OpClass::kWrite, sys);
          const Status st = t.Time(EngineCall(s.engine, kReplace), [&] {
            return mgr->Replace(id, op.off, data);
          });
          t.Finish(0, op.len);
          if (!st.ok()) FailStatus(rec, "replace", st);
          ref.Replace(op.off, data);
          break;
        }
        case Kind::kRecreate:
          break;
      }
    }
  }

  std::vector<ObjRef> Objects() override {
    std::vector<ObjRef> out;
    for (size_t i = 0; i < specs_.size(); ++i) {
      out.push_back({systems_[specs_[i].sys].get(), Manager(specs_[i]),
                     ids_[i], &refs_[i]});
    }
    return out;
  }

  std::vector<StorageSystem*> Systems() override {
    std::vector<StorageSystem*> out;
    for (auto& s : systems_) out.push_back(s.get());
    return out;
  }

  StatusOr<size_t> Fsck() override {
    size_t issues = 0;
    for (uint32_t k = 0; k < n_systems_; ++k) {
      std::vector<std::pair<ObjectId, LargeObjectManager*>> objs;
      for (size_t i = 0; i < specs_.size(); ++i) {
        if (specs_[i].sys == k) objs.emplace_back(ids_[i], Manager(specs_[i]));
      }
      auto n = FsckIssues(systems_[k].get(), objs);
      if (!n.ok()) return n.status();
      issues += *n;
    }
    return issues;
  }

  void Prepare() override {
    Teardown();
    refs_ = initial_;
  }

  void Teardown() override {
    managers_.clear();
    ids_.clear();
    systems_.clear();
  }

  ProbeShape probe_shape() const override { return shape_; }

 private:
  void Generate(Gen* gen, const MixSpec& mix) {
    std::vector<uint64_t> sizes;
    for (const ObjSpec& s : specs_) sizes.push_back(s.bytes);
    std::vector<std::vector<uint32_t>> by_sys(n_systems_);
    for (uint32_t i = 0; i < specs_.size(); ++i) {
      by_sys[specs_[i].sys].push_back(i);
    }
    // Each delete is sized like the preceding insert on the same system,
    // so object sizes stay stable (paper 4.4).
    std::vector<uint64_t> last_insert(n_systems_, 0);
    for (uint32_t i = 0; i < mix.ops; ++i) {
      const uint32_t sys = i % n_systems_;
      const auto& objs = by_sys[sys];
      const uint32_t obj = objs[gen->Uniform(0, objs.size() - 1)];
      uint64_t& size = sizes[obj];
      uint64_t len = gen->Uniform(mix.min_len, mix.max_len);
      const double u = gen->Unit();
      Op op{};
      op.obj = obj;
      if (u < mix.read) {
        op.kind = Kind::kRead;
        op.off = gen->Uniform(0, size - len);
      } else if (u < mix.read + mix.insert) {
        op.kind = Kind::kInsert;
        op.off = gen->Uniform(0, size);
        last_insert[sys] = len;
        size += len;
      } else if (u < mix.read + mix.insert + mix.del) {
        op.kind = Kind::kDelete;
        if (last_insert[sys] != 0) len = last_insert[sys];
        op.off = gen->Uniform(0, size - len);
        size -= len;
      } else {
        op.kind = Kind::kReplace;
        op.off = gen->Uniform(0, size - len);
      }
      op.len = static_cast<uint32_t>(len);
      op.src = static_cast<uint32_t>(payload_.Pick(gen, len));
      ops_.push_back(op);
    }
  }

  LargeObjectManager* Manager(const ObjSpec& s) {
    auto& slot = managers_[{s.sys, static_cast<uint8_t>(s.engine)}];
    if (slot == nullptr) {
      slot = MakeManager(systems_[s.sys].get(), s.engine, s.param);
    }
    return slot.get();
  }

  Payload payload_;
  uint32_t n_systems_;
  std::vector<ObjSpec> specs_;
  ProbeShape shape_;
  std::vector<std::vector<Slice>> plans_;
  std::vector<RefBytes> initial_;
  std::vector<Op> ops_;

  std::vector<std::unique_ptr<StorageSystem>> systems_;
  std::map<std::pair<uint32_t, uint8_t>, std::unique_ptr<LargeObjectManager>>
      managers_;
  std::vector<ObjectId> ids_;
  std::vector<RefBytes> refs_;
  std::string buf_;
};

// ---------------------------------------------------------------------------
// scan_append: the read and append side of the data path.

class ScanAppend : public Workload {
 public:
  static constexpr uint64_t kResidentBytes = 32 * kMiB;
  static constexpr uint64_t kFreshBytes = 16 * kMiB;

  explicit ScanAppend(uint64_t seed) : payload_(seed) {
    Gen gen(seed);
    for (int e = 0; e < kEngines; ++e) {
      plans_.push_back(
          PlanBuild(payload_, &gen, kResidentBytes, kBuildAppend));
      initial_.push_back(RefFromPlan(payload_, plans_.back()));
    }
    // Every (engine, size) pair once per repetition, in seeded order, for
    // both the resident scans and the fresh build-scan-destroy cycles.
    std::vector<uint32_t> scans, fresh;
    for (uint32_t k = 0; k < kEngines * kPaperSizes; ++k) {
      scans.push_back(k);
      fresh.push_back(k);
    }
    Shuffle(&gen, &scans);
    Shuffle(&gen, &fresh);
    for (size_t j = 0; j < scans.size(); ++j) {
      Cycle c{};
      c.scan_engine = static_cast<uint8_t>(scans[j] / kPaperSizes);
      c.chunk = kPaperSizesKb[scans[j] % kPaperSizes] * kKiB;
      // Resident scans start at a random byte, so both ends exercise the
      // partial-block boundary I/O.
      c.start = gen.Uniform(0, kResidentBytes - 1);
      c.fresh_engine = static_cast<uint8_t>(fresh[j] / kPaperSizes);
      c.append = kPaperSizesKb[fresh[j] % kPaperSizes] * kKiB;
      for (uint64_t done = 0; done < kFreshBytes; done += c.append) {
        const uint64_t n = std::min<uint64_t>(c.append, kFreshBytes - done);
        c.srcs.push_back(static_cast<uint32_t>(payload_.Pick(&gen, n)));
      }
      cycles_.push_back(std::move(c));
    }
  }

  Status Setup(std::vector<std::pair<std::string, double>>*) override {
    sys_ = std::make_unique<StorageSystem>();
    for (int e = 0; e < kEngines; ++e) {
      mgrs_[e] = MakeManager(sys_.get(), kEngineOf[e], 4);
      auto id = mgrs_[e]->Create();
      if (!id.ok()) return id.status();
      for (const Slice& sl : plans_[e]) {
        LOB_RETURN_IF_ERROR(
            mgrs_[e]->Append(*id, payload_.Slice(sl.src, sl.len)));
      }
      ids_[e] = *id;
    }
    return Status::OK();
  }

  void Run(Recorder* rec) override {
    for (const Cycle& c : cycles_) {
      ScanResident(rec, c);
      FreshCycle(rec, c);
    }
  }

  std::vector<ObjRef> Objects() override {
    std::vector<ObjRef> out;
    for (int e = 0; e < kEngines; ++e) {
      out.push_back({sys_.get(), mgrs_[e].get(), ids_[e], &refs_[e]});
    }
    return out;
  }

  std::vector<StorageSystem*> Systems() override { return {sys_.get()}; }

  StatusOr<size_t> Fsck() override {
    std::vector<std::pair<ObjectId, LargeObjectManager*>> objs;
    for (int e = 0; e < kEngines; ++e) objs.emplace_back(ids_[e], mgrs_[e].get());
    return FsckIssues(sys_.get(), objs);
  }

  void Prepare() override {
    Teardown();
    refs_ = initial_;
  }

  void Teardown() override {
    for (auto& m : mgrs_) m.reset();
    sys_.reset();
  }

  ProbeShape probe_shape() const override {
    return {64, 64, static_cast<uint32_t>(kResidentBytes / (16 * kKiB)),
            16 * kKiB};
  }

 private:
  struct Cycle {
    uint8_t scan_engine;
    uint8_t fresh_engine;
    uint32_t chunk;
    uint32_t append;
    uint64_t start;
    std::vector<uint32_t> srcs;  ///< payload offset of each fresh append
  };

  static void Shuffle(Gen* gen, std::vector<uint32_t>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[gen->Uniform(0, i - 1)]);
    }
  }

  /// One timed read, checked against `ref`.
  void TimedRead(Recorder* rec, int e, ObjectId id, uint64_t off, uint64_t n,
                 const RefBytes& ref) {
    LargeObjectManager* mgr = mgrs_[e].get();
    OpTimer t(rec, OpClass::kRead, sys_.get());
    const Status st = t.Time(EngineCall(kEngineOf[e], kRead),
                             [&] { return mgr->Read(id, off, n, &buf_); });
    const uint32_t op = t.Finish(n, 0);
    if (!st.ok()) {
      FailStatus(rec, "scan read", st);
    } else {
      Check(rec, op, ref, off, buf_);
    }
  }

  void ScanResident(Recorder* rec, const Cycle& c) {
    const int e = c.scan_engine;
    uint64_t pos = c.start;
    for (uint64_t left = kResidentBytes; left > 0;) {
      const uint64_t n =
          std::min<uint64_t>({c.chunk, left, kResidentBytes - pos});
      TimedRead(rec, e, ids_[e], pos, n, refs_[e]);
      pos = (pos + n) % kResidentBytes;
      left -= n;
    }
  }

  void FreshCycle(Recorder* rec, const Cycle& c) {
    const int e = c.fresh_engine;
    const lob::Engine engine = kEngineOf[e];
    LargeObjectManager* mgr = mgrs_[e].get();
    ObjectId id = lob::kInvalidPage;
    {
      OpTimer t(rec, OpClass::kWrite, sys_.get());
      auto created = t.Time(EngineCall(engine, kCreate),
                            [&] { return mgr->Create(); });
      t.Finish(0, 0);
      if (!created.ok()) {
        FailStatus(rec, "create", created.status());
        return;
      }
      id = *created;
    }
    RefBytes fresh;
    uint64_t done = 0;
    for (uint32_t src : c.srcs) {
      const uint64_t n = std::min<uint64_t>(c.append, kFreshBytes - done);
      const std::string_view data = payload_.Slice(src, n);
      OpTimer t(rec, OpClass::kWrite, sys_.get());
      const Status st = t.Time(EngineCall(engine, kAppend),
                               [&] { return mgr->Append(id, data); });
      t.Finish(0, n);
      if (!st.ok()) FailStatus(rec, "append", st);
      fresh.Append(data);
      done += n;
    }
    for (uint64_t off = 0; off < kFreshBytes; off += c.append) {
      TimedRead(rec, e, id, off,
                std::min<uint64_t>(c.append, kFreshBytes - off), fresh);
    }
    OpTimer t(rec, OpClass::kWrite, sys_.get());
    const Status st = t.Time(EngineCall(engine, kDestroy),
                             [&] { return mgr->Destroy(id); });
    t.Finish(0, 0);
    if (!st.ok()) FailStatus(rec, "destroy", st);
  }

  Payload payload_;
  std::vector<std::vector<Slice>> plans_;
  std::vector<RefBytes> initial_;
  std::vector<Cycle> cycles_;

  std::unique_ptr<StorageSystem> sys_;
  std::unique_ptr<LargeObjectManager> mgrs_[kEngines];
  ObjectId ids_[kEngines] = {};
  std::vector<RefBytes> refs_;
  std::string buf_;
};

// ---------------------------------------------------------------------------
// small_objects: many small named objects through the Database API, with a
// hot set that fits in the buffer pool.

class SmallObjects : public Workload {
 public:
  static constexpr uint32_t kSlots = 512;
  /// Hot slots: two objects of 1-16 KB (about 3 pages each with their
  /// root) plus the 2-3 catalog pages fit the 12-page pool.
  static constexpr uint32_t kHot = 2;
  static constexpr uint32_t kOps = 40000;
  static constexpr uint32_t kReplaceBytes = 512;

  SmallObjects(uint64_t seed, const std::string& workdir)
      : payload_(seed), image_(workdir + "/small_objects.img") {
    Gen gen(seed);
    for (uint32_t s = 0; s < kSlots; ++s) {
      Init o;
      o.name = NewName();
      o.engine = kEngineOf[s % kEngines];
      o.len = static_cast<uint32_t>(gen.Uniform(kKiB, 16 * kKiB));
      o.src = static_cast<uint32_t>(payload_.Pick(&gen, o.len));
      init_.push_back(std::move(o));
    }
    std::vector<uint32_t> sizes;
    for (const Init& o : init_) sizes.push_back(o.len);
    for (uint32_t i = 0; i < kOps; ++i) {
      SOp op{};
      op.slot = gen.Unit() < 0.9
                    ? static_cast<uint32_t>(gen.Uniform(0, kHot - 1))
                    : static_cast<uint32_t>(gen.Uniform(kHot, kSlots - 1));
      const double u = gen.Unit();
      if (u < 0.6) {
        op.kind = Kind::kRead;
      } else if (u < 0.9) {
        op.kind = Kind::kReplace;
        op.len = kReplaceBytes;
        op.off = static_cast<uint32_t>(
            gen.Uniform(0, sizes[op.slot] - kReplaceBytes));
        op.src = static_cast<uint32_t>(payload_.Pick(&gen, op.len));
      } else {
        op.kind = Kind::kRecreate;
        op.engine = kEngineOf[gen.Uniform(0, kEngines - 1)];
        op.len = static_cast<uint32_t>(gen.Uniform(kKiB, 16 * kKiB));
        op.src = static_cast<uint32_t>(payload_.Pick(&gen, op.len));
        op.name = static_cast<uint32_t>(names_.size());
        NewName();
        sizes[op.slot] = op.len;
      }
      ops_.push_back(op);
    }
  }

  Status Setup(std::vector<std::pair<std::string, double>>* core_ms) override {
    auto db = lob::Database::Create();
    if (!db.ok()) return db.status();
    db_ = std::move(*db);
    for (uint32_t s = 0; s < kSlots; ++s) {
      const Init& o = init_[s];
      auto id = db_->CreateObject(o.name, o.engine, 4);
      if (!id.ok()) return id.status();
      auto mgr = db_->ManagerFor(o.engine, 4);
      if (!mgr.ok()) return mgr.status();
      LOB_RETURN_IF_ERROR(
          (*mgr)->Append(*id, payload_.Slice(o.src, o.len)));
      slots_.push_back({o.name, o.engine, *id});
    }
    const int64_t t0 = NowNs();
    LOB_RETURN_IF_ERROR(db_->Save(image_));
    const int64_t t1 = NowNs();
    db_.reset();
    auto reopened = lob::Database::Open(image_);
    const int64_t t2 = NowNs();
    std::error_code ec;
    std::filesystem::remove(image_, ec);
    if (!reopened.ok()) return reopened.status();
    db_ = std::move(*reopened);
    core_ms->emplace_back("save", static_cast<double>(t1 - t0) / 1e6);
    core_ms->emplace_back("open", static_cast<double>(t2 - t1) / 1e6);
    return Status::OK();
  }

  void Run(Recorder* rec) override {
    StorageSystem* sys = db_->sys();
    for (const SOp& op : ops_) {
      Slot& slot = slots_[op.slot];
      RefBytes& ref = refs_[op.slot];
      switch (op.kind) {
        case Kind::kRead: {
          OpTimer t(rec, OpClass::kRead, sys);
          const Status st = [&]() -> Status {
            auto id = t.Time(kCoreLookup,
                             [&] { return db_->Lookup(slot.name); });
            if (!id.ok()) return id.status();
            auto mgr = t.Time(kCoreManager,
                              [&] { return db_->ManagerForObject(*id); });
            if (!mgr.ok()) return mgr.status();
            return t.Time(EngineCall(slot.engine, kRead), [&] {
              return (*mgr)->Read(*id, 0, ref.size(), &buf_);
            });
          }();
          const uint32_t n = t.Finish(ref.size(), 0);
          if (!st.ok()) {
            FailStatus(rec, "lookup+read", st);
          } else {
            Check(rec, n, ref, 0, buf_);
          }
          break;
        }
        case Kind::kReplace: {
          const std::string_view data = payload_.Slice(op.src, op.len);
          OpTimer t(rec, OpClass::kWrite, sys);
          const Status st = [&]() -> Status {
            auto id = t.Time(kCoreLookup,
                             [&] { return db_->Lookup(slot.name); });
            if (!id.ok()) return id.status();
            auto mgr = t.Time(kCoreManager,
                              [&] { return db_->ManagerForObject(*id); });
            if (!mgr.ok()) return mgr.status();
            return t.Time(EngineCall(slot.engine, kReplace), [&] {
              return (*mgr)->Replace(*id, op.off, data);
            });
          }();
          t.Finish(0, op.len);
          if (!st.ok()) FailStatus(rec, "lookup+replace", st);
          ref.Replace(op.off, data);
          break;
        }
        case Kind::kRecreate: {
          const std::string_view data = payload_.Slice(op.src, op.len);
          const std::string& name = names_[op.name];
          OpTimer t(rec, OpClass::kWrite, sys);
          ObjectId new_id = lob::kInvalidPage;
          const Status st = [&]() -> Status {
            LOB_RETURN_IF_ERROR(t.Time(
                kCoreDrop, [&] { return db_->DropObject(slot.name); }));
            auto id = t.Time(kCoreCreate, [&] {
              return db_->CreateObject(name, op.engine, 4);
            });
            if (!id.ok()) return id.status();
            new_id = *id;
            auto mgr = t.Time(kCoreManager,
                              [&] { return db_->ManagerFor(op.engine, 4); });
            if (!mgr.ok()) return mgr.status();
            return t.Time(EngineCall(op.engine, kAppend),
                          [&] { return (*mgr)->Append(*id, data); });
          }();
          t.Finish(0, op.len);
          if (!st.ok()) FailStatus(rec, "drop+create", st);
          slot = {name, op.engine, new_id};
          ref = RefBytes();
          ref.Append(data);
          break;
        }
        case Kind::kInsert:
        case Kind::kDelete:
          break;
      }
    }
  }

  std::vector<ObjRef> Objects() override {
    std::vector<ObjRef> out;
    for (uint32_t s = 0; s < kSlots; ++s) {
      auto mgr = db_->ManagerFor(slots_[s].engine, 4);
      if (!mgr.ok()) continue;
      out.push_back({db_->sys(), *mgr, slots_[s].id, &refs_[s]});
    }
    return out;
  }

  std::vector<StorageSystem*> Systems() override { return {db_->sys()}; }

  StatusOr<size_t> Fsck() override {
    auto report = lob::FsckDatabase(db_.get());
    if (!report.ok()) return report.status();
    size_t issues = report->issues.size();
    if (!report->clean()) {
      std::fprintf(stderr, "lobbench: fsck: %s\n", report->ToString().c_str());
    }
    // Every slot's name must resolve to the object the benchmark holds.
    for (const Slot& s : slots_) {
      auto id = db_->Lookup(s.name);
      if (!id.ok() || *id != s.id) {
        std::fprintf(stderr, "lobbench: catalog: %s does not resolve\n",
                     s.name.c_str());
        ++issues;
      }
    }
    auto count = db_->catalog()->Size();
    if (!count.ok() || *count != kSlots) ++issues;
    return issues;
  }

  void Prepare() override {
    Teardown();
    refs_.clear();
    for (const Init& o : init_) {
      refs_.emplace_back();
      refs_.back().Append(payload_.Slice(o.src, o.len));
    }
  }

  void Teardown() override {
    slots_.clear();
    db_.reset();
  }

  ProbeShape probe_shape() const override { return {1, 1, 1, 8 * kKiB}; }

 private:
  struct Init {
    std::string name;
    lob::Engine engine;
    uint32_t len;
    uint32_t src;
  };
  struct SOp {
    Kind kind;
    lob::Engine engine;
    uint32_t slot;
    uint32_t off;
    uint32_t len;
    uint32_t src;
    uint32_t name;  ///< index into names_ of a recreated object
  };
  struct Slot {
    std::string name;
    lob::Engine engine;
    ObjectId id;
  };

  std::string NewName() {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "obj%06zu", names_.size());
    names_.emplace_back(buf);
    return names_.back();
  }

  Payload payload_;
  std::string image_;
  std::vector<std::string> names_;
  std::vector<Init> init_;
  std::vector<SOp> ops_;

  std::unique_ptr<lob::Database> db_;
  std::vector<Slot> slots_;
  std::vector<RefBytes> refs_;
  std::string buf_;
};

}  // namespace

std::unique_ptr<Workload> Workload::Create(std::string_view name,
                                           uint64_t seed,
                                           const std::string& workdir) {
  if (name == "starburst_mix") {
    // One 10 MB Starburst object; paper 4.4 mix with 5-15 KB ops.
    return std::make_unique<MixWorkload>(
        seed, 1,
        std::vector<ObjSpec>{{0, lob::Engine::kStarburst, 0, 10 * kMiB}},
        MixSpec{0.4, 0.3, 0.3, 5 * kKiB, 15 * kKiB, 2000},
        ProbeShape{64, 64, 0, 16 * kKiB});
  }
  if (name == "tree_mix") {
    // Four 10 MB ESM (leaf = 4) objects in one system, four 10 MB EOS
    // (T = 4) objects in another; ops alternate between the systems.
    std::vector<ObjSpec> specs;
    for (int i = 0; i < 4; ++i) {
      specs.push_back({0, lob::Engine::kEsm, 4, 10 * kMiB});
    }
    for (int i = 0; i < 4; ++i) {
      specs.push_back({1, lob::Engine::kEos, 4, 10 * kMiB});
    }
    return std::make_unique<MixWorkload>(
        seed, 2, std::move(specs),
        MixSpec{0.4, 0.2, 0.2, 1 * kKiB, 3 * kKiB, 60000},
        ProbeShape{4, 4, static_cast<uint32_t>(10 * kMiB / (16 * kKiB)),
                   16 * kKiB});
  }
  if (name == "scan_append") return std::make_unique<ScanAppend>(seed);
  if (name == "small_objects") {
    return std::make_unique<SmallObjects>(seed, workdir);
  }
  return nullptr;
}

}  // namespace lobbench
