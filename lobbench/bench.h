// lobbench: shared pieces of the benchmark.
//
// Everything here belongs to the benchmark, not to the simulator: the seeded
// input generator, the reference byte model every timed result is checked
// against, per-op recording of host time and modeled cost, and the
// benchmark's own host-clock spans around each call into a layer.

#ifndef LOBBENCH_BENCH_H_
#define LOBBENCH_BENCH_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/large_object.h"
#include "core/storage_system.h"

namespace lobbench {

using lob::IoStats;
using lob::LargeObjectManager;
using lob::ObjectId;
using lob::Status;
using lob::StatusOr;
using lob::StorageSystem;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seeded input generator (splitmix64). The benchmark's own, so a seed
/// yields the same inputs whatever the simulator's code does.
class Gen {
 public:
  explicit Gen(uint64_t seed) : x_(seed) {}
  uint64_t Next() {
    uint64_t z = (x_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi], inclusive.
  uint64_t Uniform(uint64_t lo, uint64_t hi) {
    return lo + Next() % (hi - lo + 1);
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t x_;
};

/// Random payload bytes every write slices from. Generated once per run,
/// outside any timed region.
class Payload {
 public:
  static constexpr uint64_t kBytes = 3ull << 20;
  explicit Payload(uint64_t seed);
  std::string_view Slice(uint64_t off, uint64_t n) const {
    return std::string_view(bytes_).substr(off, n);
  }
  /// A valid slice start for an `n`-byte write.
  uint64_t Pick(Gen* gen, uint64_t n) const {
    return gen->Uniform(0, kBytes - n);
  }

 private:
  std::string bytes_;
};

/// Reference copy of one object's bytes. Kept in chunks so an insert or
/// delete inside a 32 MB object moves one chunk, not the whole object.
class RefBytes {
 public:
  uint64_t size() const { return size_; }
  void Append(std::string_view data) { Insert(size_, data); }
  void Insert(uint64_t off, std::string_view data);
  void Erase(uint64_t off, uint64_t n);
  void Replace(uint64_t off, std::string_view data);
  /// True iff bytes [off, off + data.size()) equal `data`.
  bool Equals(uint64_t off, std::string_view data) const;

 private:
  static constexpr size_t kChunk = 64 * 1024;
  /// Index of the chunk holding byte `off` (off < size_), or of the last
  /// chunk when off == size_.
  size_t Locate(uint64_t off) const;
  void Restart(size_t from);

  std::vector<std::string> chunks_;
  std::vector<uint64_t> starts_;  ///< object offset of each chunk
  uint64_t size_ = 0;
};

/// Which class an op's latency and modeled cost count toward.
enum class OpClass : uint8_t { kRead, kWrite };

/// The layer calls the benchmark times. Engine calls are indexed
/// engine * kVerbs + verb; the Database (core/) calls follow.
enum Verb : uint8_t {
  kRead, kInsert, kDelete, kReplace, kAppend, kCreate, kDestroy, kVerbs
};
constexpr int kEngines = 3;  // esm, eos, starburst
enum CoreCall : uint8_t {
  kCoreLookup = kEngines * kVerbs, kCoreManager, kCoreCreate, kCoreDrop,
  kCallCount
};
using Call = uint8_t;

/// Engine index used by the call table: 0 esm, 1 eos, 2 starburst.
int EngineIndex(lob::Engine engine);
inline Call EngineCall(lob::Engine engine, Verb verb) {
  return static_cast<Call>(EngineIndex(engine) * kVerbs + verb);
}
const char* CallName(Call call);
extern const char* const kEngineNames[kEngines];
extern const char* const kVerbNames[kVerbs];

/// Layers the host spans attribute self time to.
enum Layer : uint8_t { kLayerBench, kLayerCore, kLayerEsm, kLayerEos,
                       kLayerStarburst, kLayerCount };
extern const char* const kLayerNames[kLayerCount];
Layer CallLayer(Call call);

/// One host-clock span recorded by the benchmark.
struct HostSpan {
  int32_t parent = -1;  ///< index of the enclosing span, -1 for roots
  uint32_t op = 0;      ///< op id shared by all spans of one op
  uint8_t name = 0;     ///< a Call, or one of the root names below
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};
enum RootSpan : uint8_t { kSpanOpRead = kCallCount, kSpanOpWrite, kSpanCheck };
const char* SpanName(uint8_t name);

/// Everything measured in one repetition's timed phase.
class Recorder {
 public:
  explicit Recorder(bool record_spans) : record_spans_(record_spans) {}

  struct ClassTotals {
    std::vector<int64_t> latency_ns;
    double modeled_ms = 0;
    uint64_t ops = 0;
  };

  bool record_spans() const { return record_spans_; }
  ClassTotals& cls(OpClass c) { return classes_[static_cast<int>(c)]; }
  const ClassTotals& cls(OpClass c) const {
    return classes_[static_cast<int>(c)];
  }
  std::vector<int64_t>& call_samples(Call c) { return calls_[c]; }
  const std::vector<int64_t>& call_samples(Call c) const { return calls_[c]; }

  /// Counts a failed op (non-OK status, wrong bytes, fsck issue).
  void Fail(const std::string& what);
  uint64_t failed() const { return failed_; }
  uint64_t attempted() const { return attempted_; }
  void CountAttempt() { ++attempted_; }

  IoStats io;                  ///< modeled I/O of all timed ops
  uint64_t user_read = 0;      ///< bytes the ops asked to read
  uint64_t user_written = 0;   ///< bytes the ops asked to write
  int64_t op_ns = 0;           ///< host time inside timed ops
  std::vector<HostSpan> spans;
  uint32_t next_op = 0;

  /// Records a compare against the reference as a root span of `op`.
  void CheckSpan(uint32_t op, int64_t start, int64_t end) {
    spans.push_back({-1, op, kSpanCheck, start, end});
  }

 private:
  bool record_spans_;
  std::array<ClassTotals, 2> classes_;
  std::array<std::vector<int64_t>, kCallCount> calls_;
  uint64_t failed_ = 0;
  uint64_t attempted_ = 0;
  int errors_shown_ = 0;
};

/// Times the calls of one logical op against one storage system. The op's
/// latency runs from its first call's start to its last call's end; its
/// modeled cost is the SimDisk stats delta across the op.
class OpTimer {
 public:
  OpTimer(Recorder* rec, OpClass cls, StorageSystem* sys)
      : rec_(rec), cls_(cls), sys_(sys), before_(sys->stats()) {
    rec_->CountAttempt();
  }
  OpTimer(const OpTimer&) = delete;
  OpTimer& operator=(const OpTimer&) = delete;

  template <class F>
  auto Time(Call call, F&& fn) {
    const int64_t t0 = NowNs();
    auto result = fn();
    const int64_t t1 = NowNs();
    if (n_ < calls_.size()) calls_[n_++] = {call, t0, t1};
    return result;
  }

  /// Closes the op; returns its id (for check spans).
  uint32_t Finish(uint64_t user_read, uint64_t user_written);

 private:
  struct Timed {
    Call call;
    int64_t start, end;
  };
  Recorder* rec_;
  OpClass cls_;
  StorageSystem* sys_;
  IoStats before_;
  std::array<Timed, 4> calls_{};
  size_t n_ = 0;
};

/// One live object, for verification and layer accounting.
struct ObjRef {
  StorageSystem* sys;
  LargeObjectManager* mgr;
  ObjectId id;
  const RefBytes* ref;
};

/// Sizes the layer probes use, matching what the workload itself does.
struct ProbeShape {
  uint32_t run_pages = 1;    ///< SimDisk run length
  uint32_t alloc_pages = 1;  ///< DatabaseArea request size
  uint32_t tree_leaves = 0;  ///< PositionalTree size (0: no tree probe)
  uint32_t leaf_bytes = 16384;
};

/// A benchmark workload. Create() generates every input from the seed;
/// each repetition then runs Setup, Run and teardown on fresh storage, so
/// every repetition replays the same op stream from the same state.
class Workload {
 public:
  virtual ~Workload() = default;

  static std::unique_ptr<Workload> Create(std::string_view name,
                                          uint64_t seed,
                                          const std::string& workdir);

  /// Frees any previous repetition's storage and resets the reference
  /// copies to the initial object contents. Untimed.
  virtual void Prepare() = 0;
  /// Builds storage and the initial objects. Its wall time is setup_s.
  /// Database save/open times go into `core_ms` ("save", "open").
  [[nodiscard]] virtual Status Setup(
      std::vector<std::pair<std::string, double>>* core_ms) = 0;
  /// Runs the op stream, timing every call and checking every read.
  virtual void Run(Recorder* rec) = 0;
  /// Live objects, each with its reference copy.
  virtual std::vector<ObjRef> Objects() = 0;
  virtual std::vector<StorageSystem*> Systems() = 0;
  /// Consistency check of the whole storage; returns the issue count.
  [[nodiscard]] virtual StatusOr<size_t> Fsck() = 0;
  /// Frees the repetition's storage.
  virtual void Teardown() = 0;
  virtual ProbeShape probe_shape() const = 0;
};

/// Layer probe results, in ns per unit.
struct ProbeResults {
  bool ok = true;  ///< every probed call returned OK
  double read_ns_per_page = 0;
  double read_run_ns_per_page = 0;
  double write_ns_per_page = 0;
  double write_run_ns_per_page = 0;
  double fix_hit_ns = 0;
  double alloc_free_ns = 0;
  double find_leaf_ns = 0;
};

/// Times direct calls into SimDisk, BufferPool, DatabaseArea and
/// PositionalTree on fresh instances.
ProbeResults RunProbes(const ProbeShape& shape, uint64_t seed);

}  // namespace lobbench

#endif  // LOBBENCH_BENCH_H_
