// SimDisk: an in-memory multi-area page store metered by the paper's cost
// model.
//
// The paper ran its leaf-data area without actually touching the disk,
// "simply keeping track of the number of disk I/O calls (to count disk
// seeks) and the number of pages involved in each access" (4.1). SimDisk is
// the same idea taken one step further: every area stores real bytes in
// memory so correctness is testable, and every Read/Write call is charged
// `seek_ms + n_pages * PageTransferMs()`.
//
// An I/O call always covers physically adjacent pages of one area; callers
// that need scattered pages issue multiple calls (and pay multiple seeks),
// exactly as the simulated systems would on a real device.
//
// Each area keeps its page images in an arena of fixed-size chunks of
// contiguous pages that never move (see Area), so a run of adjacent pages
// is mostly adjacent in host memory too and moves with a few memcpys.
//
// Threading: a SimDisk and the StorageSystem built on it are used by one
// thread; see CheckOwner.

#ifndef LOB_IOMODEL_SIM_DISK_H_
#define LOB_IOMODEL_SIM_DISK_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "common/config.h"
#include "common/status.h"
#include "common/thread_owner.h"
#include "iomodel/fault_model.h"
#include "iomodel/io_stats.h"
#include "trace/tracing.h"

namespace lob {

class ObsRegistry;
class TraceSession;

/// Identifies a database area (the paper uses two: one for leaf segments,
/// one for everything else).
using AreaId = uint32_t;

/// Page number within an area.
using PageId = uint32_t;

constexpr PageId kInvalidPage = UINT32_MAX;

/// Borrowed read-only view of one page image, returned by ReadRun.
///
/// Stability contract: page images never move or disappear for the life of
/// the disk, so the pointer stays valid indefinitely. The bytes are the
/// *live* image — a later Write to the page shows through the view. A null
/// `data` means the page was never written and reads as zeros. Images of
/// pages in the same arena chunk (see SimDisk) are adjacent in memory, so
/// views of consecutive pages often continue one another.
struct PageRef {
  const char* data = nullptr;
};

/// Borrowed mutable view of one page image, filled in by WriteRun so
/// callers (the buffer pool) can re-borrow freshly written pages without
/// copying them back out. Same stability contract as PageRef.
struct MutPageRef {
  char* data = nullptr;
};

/// One piece of a byte-gather write (WriteSpans): `size` bytes read from
/// `data`, or `size` zero bytes when `data` is null — the same convention
/// as a PageRef of a never-written page, so borrowed views pass straight
/// through.
struct ByteSpan {
  const char* data = nullptr;
  uint64_t size = 0;
};

/// In-memory simulated disk with per-call cost accounting.
class SimDisk {
 public:
  explicit SimDisk(const StorageConfig& config);
  ~SimDisk();

  SimDisk(const SimDisk&) = delete;
  SimDisk& operator=(const SimDisk&) = delete;

  /// Creates a new (empty, unbounded) database area and returns its id.
  AreaId CreateArea();

  /// Number of areas created so far.
  uint32_t num_areas() const { return static_cast<uint32_t>(areas_.size()); }

  /// Reads `n_pages` physically adjacent pages starting at `first` into
  /// `dst` (which must hold n_pages * page_size bytes). One I/O call:
  /// costs one seek plus n_pages transfers. Pages never written read as
  /// zeros.
  [[nodiscard]]
  Status Read(AreaId area, PageId first, uint32_t n_pages, void* dst);

  /// Writes `n_pages` physically adjacent pages from `src`. One I/O call.
  [[nodiscard]]
  Status Write(AreaId area, PageId first, uint32_t n_pages, const void* src);

  /// Zero-copy read of `n_pages` physically adjacent pages: fills `refs`
  /// with borrowed views of the page images instead of copying them out.
  /// Metered and fault-checked exactly like Read of the same range (one
  /// call: one seek + n_pages transfers).
  [[nodiscard]]
  Status ReadRun(AreaId area, PageId first, uint32_t n_pages, PageRef* refs);

  /// Gather-write of `n_pages` physically adjacent pages: page i is copied
  /// from `srcs[i]` (null = zero-fill; a pointer aliasing the page's own
  /// image is a no-op, letting coherence refreshes pass borrowed views
  /// back). When `imgs` is non-null it receives borrowed views of the
  /// written images. Metered and fault-checked exactly like Write of the
  /// same range.
  [[nodiscard]]
  Status WriteRun(AreaId area, PageId first, uint32_t n_pages,
                  const char* const* srcs, MutPageRef* imgs = nullptr);

  /// Byte-gather write: the concatenation of `spans` fills the
  /// ceil(total / page_size) physically adjacent pages starting at
  /// `first`, the last page zero-padded. Spans need not be page-aligned
  /// or page-sized, so a byte-shifted stream lands in fresh pages with no
  /// staging copy. When `imgs` is non-null it receives borrowed views of
  /// the written images (one per page). Metered and fault-checked exactly
  /// like Write of the same range; an empty stream is an InvalidArgument
  /// zero-page call.
  [[nodiscard]]
  Status WriteSpans(AreaId area, PageId first, const ByteSpan* spans,
                    size_t n_spans, MutPageRef* imgs = nullptr);

  /// Owner check for this database (common/thread_owner.h): binds the
  /// calling thread on first use and aborts naming `entry` if a later
  /// call comes from another thread. The metered calls run it; the
  /// BufferPool runs it at its fixing and I/O entry points.
  void CheckOwner(const char* entry) { owner_.Check(entry); }

  /// Accumulated I/O counters since construction or the last ResetStats().
  const IoStats& stats() const { return stats_; }

  /// Zeroes the global counters. The attached registry's attribution
  /// ledger (if any) is reset with them so the conservation invariant
  /// "sum of attributed stats == global stats" keeps holding.
  void ResetStats();

  /// Restores a previously captured snapshot. Lets experiment harnesses run
  /// bookkeeping I/O (validation walks, audits) without perturbing the
  /// metered cost of the workload under study.
  void SetStats(const IoStats& stats) { stats_ = stats; }

  const StorageConfig& config() const { return config_; }
  uint32_t page_size() const { return config_.page_size; }

  /// Highest page index ever written in `area` plus one (0 if none).
  PageId AreaHighWater(AreaId area) const;

  /// Unmetered direct access to a page image for persistence and tests;
  /// nullptr when the page was never written. Not part of the simulated
  /// I/O path.
  const char* PeekPage(AreaId area, PageId page) const;

  // ---- Modeled disk queue (multi-client concurrency) ----
  //
  // The paper's cost model charges each op in isolation. When many logical
  // clients share one database the single disk arm serializes their
  // requests, so requests also *wait*. The queue model is a discrete-event
  // simulation layered on the existing accounting: the scheduler brackets
  // each op with BeginQueuedOp(arrival)/EndQueuedOp(), and every metered
  // call issued inside the bracket is charged
  //
  //   queue_ms = max(0, arm_free_at - op_clock)
  //
  // separately from its seek+transfer service time (IoStats::ms is
  // untouched, so all single-client figures are unchanged). The op clock
  // then advances past the wait and the service, and the arm stays busy
  // until the call completes — later requests from any client queue
  // behind it. Everything is a pure function of the issue order, so output
  // stays byte-identical per seed at any --jobs. Disabled by default;
  // when disabled (or outside a bracket, or while attribution is
  // suspended) behaviour is bit-identical to the pre-queue disk.

  /// Aggregate queue-model counters (never reset; observability only).
  struct DiskQueueStats {
    uint64_t queued_calls = 0;   ///< metered calls issued inside queued ops
    uint64_t delayed_calls = 0;  ///< of those, calls that actually waited
    double queue_ms = 0.0;       ///< total modeled wait, milliseconds
    double max_wait_ms = 0.0;    ///< largest single-call wait
    uint32_t max_depth = 0;      ///< deepest arm backlog seen at issue time
  };

  /// Turns the queue model on for the life of the disk.
  void EnableQueue() { queue_enabled_ = true; }
  bool queue_enabled() const { return queue_enabled_; }

  /// Opens a queued op whose first request arrives at modeled time
  /// `arrival_ms` (the issuing client's logical clock). Brackets must not
  /// nest. No-op unless EnableQueue() was called.
  void BeginQueuedOp(double arrival_ms);

  /// Closes the current queued op and returns its completion time: the
  /// moment its last I/O call finished service (its arrival time if it
  /// issued none). The caller advances the client's logical clock to it.
  double EndQueuedOp();

  /// Modeled time at which the arm finishes its last accepted request.
  double arm_free_at_ms() const { return arm_free_at_ms_; }

  const DiskQueueStats& queue_stats() const { return queue_stats_; }

  // ---- Failure injection (see iomodel/fault_model.h) ----
  //
  // Countdown contract: a fault's `after_calls` counts *attributed
  // foreground* I/O calls only — calls made while attribution is
  // suspended (StorageSystem::UnmeteredSection: audit walks, fsck,
  // timeline sampling) neither fire faults nor advance any countdown,
  // and always succeed even while a sticky fault is live. BufferPool
  // flushes (FlushRun/FlushAll) issued on behalf of an operation are
  // ordinary foreground calls and do count. The countdown is
  // off-by-one-free: `after_calls == k` means exactly k matching calls
  // succeed and the (k+1)-th matching call fails. A fired fault does not
  // advance the match counters of other armed faults or the
  // foreground-call counter (the failed call "never happened" in the
  // cost model — CheckRange validation errors likewise do not count).

  /// Arms one fault in addition to any already armed. When several armed
  /// faults are due on the same call, the earliest-armed one fires.
  void ArmFault(const FaultSpec& spec);

  /// Arms every fault of `plan` (in order) in addition to any already
  /// armed.
  void ArmPlan(const FaultPlan& plan);

  /// Disarms all faults.
  void ClearFaults() { faults_.clear(); }

  /// Number of armed faults that have not yet exhausted (a sticky fault
  /// never exhausts; a one-shot fault exhausts after firing once).
  uint32_t armed_faults() const;

  /// Attributed foreground I/O calls that *succeeded* since construction
  /// (never reset; unaffected by ResetStats/SetStats). Campaign baselines
  /// read this to size their fault sweeps. Note that each fault's
  /// `after_calls` countdown is *relative to its arming* (it counts
  /// matching successful calls from ArmFault on), not against this
  /// absolute clock: arming a one-shot fault with `after_calls == k`
  /// fails the (k+1)-th subsequent matching call, wherever the global
  /// clock stands.
  uint64_t foreground_calls() const { return foreground_calls_; }

  /// Armed faults that have fired (failed a foreground call) since
  /// construction. Like foreground_calls() this is never reset; the
  /// metrics snapshot exports it so fault-campaign cells show their
  /// injected-failure count alongside the cost numbers.
  uint64_t faults_fired() const { return faults_fired_; }

  // ---- Per-operation attribution (see obs/obs_registry.h) ----

  /// Attaches a metrics registry; every subsequent metered call is charged
  /// to the current operation label (or ObsRegistry::kUnattributed).
  /// Pass nullptr to detach. The registry must outlive the disk.
  void set_obs(ObsRegistry* obs) {
    obs_ = obs;
    attr_rec_ = nullptr;
  }
  ObsRegistry* obs() const { return obs_; }

  /// Current logical-operation label; managed by OpScope (nullptr when no
  /// operation is active). Switching labels drops the cached attribution
  /// record so the ledger entry is resolved once per operation, not once
  /// per metered call.
  const char* current_op() const { return current_op_; }
  void set_current_op(const char* label) {
    current_op_ = label;
    attr_rec_ = nullptr;
  }

  /// Re-entrant attribution suspension. While suspended, calls are metered
  /// into the global stats but not charged to any label; used by
  /// StorageSystem::UnmeteredSection, which restores the global stats on
  /// exit — so conservation is preserved on both sides of the section.
  /// Span recording is suspended with attribution: a section's I/O (whose
  /// cost is about to be un-happened by SetStats) must not appear in the
  /// trace either.
  void SuspendAttribution() { ++attribution_suspended_; }
  void ResumeAttribution() { --attribution_suspended_; }

  // ---- Modeled-clock span tracing (see trace/trace_session.h) ----

  /// Attaches a trace session; every metered call is then recorded as a
  /// "disk.io" span timestamped with the modeled clock, and OpScope /
  /// LOB_TRACE_SPAN sites open op and phase spans around it. Pass nullptr
  /// to detach. The session must outlive the disk's use of it. In
  /// LOB_TRACING=0 builds the pointer is stored but never consulted: all
  /// recording hooks are compiled out.
  void set_trace(TraceSession* trace) { trace_ = trace; }
  TraceSession* trace() const { return trace_; }

  /// The session span sites should record into right now: the attached
  /// session, or nullptr while attribution (and hence tracing) is
  /// suspended by an UnmeteredSection.
  TraceSession* active_trace() const {
    return attribution_suspended_ == 0 ? trace_ : nullptr;
  }

 private:
  /// Pages per arena chunk. A 64 KB chunk already turns a 512 KB run into
  /// eight memcpys; 64- and 256-page chunks measured no faster on the
  /// Starburst tail move (CHANGES.md) and waste more on sparse areas.
  static constexpr uint32_t kChunkPages = 16;

  /// One area's page store: a page arena of fixed-size chunks, each
  /// holding kChunkPages contiguous page images, plus one bit per page
  /// that is set once the page is first written. Chunk c holds pages
  /// [c * kChunkPages, (c + 1) * kChunkPages); it is allocated when one of
  /// them is first written and never moves or shrinks until the disk is
  /// destroyed, which is what makes borrowed views stable. A page whose
  /// bit is clear reads as zeros whatever its chunk bytes hold: chunks
  /// are recycled from destroyed disks without being cleared.
  struct Area {
    std::vector<char*> chunks;     ///< null until a page in it is written
    std::vector<uint64_t> written; ///< bit p: page p has been written
    PageId high_water = 0;         ///< highest written page + 1
  };

  /// One armed fault: the spec plus its progress counters.
  struct ArmedFault {
    FaultSpec spec;
    uint64_t matched_calls = 0;  ///< matching calls that succeeded so far
    uint32_t fired = 0;          ///< matching calls this fault failed
    bool exhausted = false;
  };

  [[nodiscard]]
  Status CheckRange(AreaId area, PageId first, uint32_t n_pages) const;

  static bool IsWritten(const Area& area, PageId page) {
    return page < area.high_water &&
           (area.written[page / 64] >> (page % 64) & 1) != 0;
  }

  /// Image of `page` (its chunk must exist).
  char* PageImage(const Area& area, PageId page) const {
    return area.chunks[page / kChunkPages] +
           uint64_t{page % kChunkPages} * config_.page_size;
  }

  /// Calls fn(page, run) for the consecutive pieces of [first, first +
  /// n_pages) that each lie in one chunk, so each is contiguous memory.
  template <typename Fn>
  static void ForEachChunkRun(PageId first, uint32_t n_pages, const Fn& fn);

  /// Image of the first of `run` pages in one chunk, about to be written
  /// in full: allocates the chunk if needed and marks the pages written.
  char* WritableRun(Area& area, PageId page, uint32_t run);

  /// The one gather-copy loop behind Write, WriteRun and WriteSpans: fills
  /// pages [first, first + n_pages) of `area` with the byte stream
  /// span_at(0) .. span_at(n_spans - 1), zero-filling past its end, one
  /// chunk run at a time. A piece that already sits at its destination (a
  /// borrowed self-view) is not copied. Runs after the call passed its
  /// range and fault checks.
  template <typename SpanAt>
  void GatherCopy(AreaId area, PageId first, uint32_t n_pages,
                  size_t n_spans, const SpanAt& span_at, MutPageRef* imgs);

  /// Fault gate for one metered call. Returns a non-OK Status when an
  /// armed fault fires; otherwise advances the countdowns of all
  /// matching faults (and foreground_calls_) and returns OK. No-op while
  /// attribution is suspended.
  [[nodiscard]]
  Status CheckFaults(bool is_read, AreaId area, PageId first,
                     uint32_t n_pages);

  /// Meters one successful call: accumulates into the global stats and
  /// charges the current operation in the attached registry.
  void AccountCall(bool is_read, uint32_t n_pages);

  StorageConfig config_;
  ThreadOwner owner_;
  std::vector<Area> areas_;
  IoStats stats_;
  // Queue-model state (see the section comment above). The in-flight
  // deque holds completion times of accepted requests, monotone
  // increasing; entries at or before a new request's arrival are dropped
  // so its size is the arm backlog depth at issue.
  bool queue_enabled_ = false;
  bool queued_op_open_ = false;
  double op_clock_ms_ = 0.0;
  double arm_free_at_ms_ = 0.0;
  DiskQueueStats queue_stats_;
  std::deque<double> inflight_completions_;
  std::vector<ArmedFault> faults_;
  uint64_t foreground_calls_ = 0;
  uint64_t faults_fired_ = 0;
  ObsRegistry* obs_ = nullptr;
  TraceSession* trace_ = nullptr;
  const char* current_op_ = nullptr;
  uint32_t attribution_suspended_ = 0;
  // Attribution memo: ledger record of the current op, resolved on the
  // first metered call after a label change (see set_current_op) and
  // dropped when the registry resets its ledger (generation check).
  void* attr_rec_ = nullptr;
  uint64_t attr_gen_ = 0;
};

}  // namespace lob

#endif  // LOB_IOMODEL_SIM_DISK_H_
