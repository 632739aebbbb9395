#include "iomodel/sim_disk.h"

#include <algorithm>
#include <cstring>

#if __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

#include "common/logging.h"
#include "obs/obs_registry.h"
#include "trace/trace_session.h"

namespace lob {

std::string IoStats::ToString() const {
  char buf[200];
  int n = std::snprintf(
      buf, sizeof(buf),
      "reads=%llu writes=%llu pages_r=%llu pages_w=%llu ms=%.1f",
      static_cast<unsigned long long>(read_calls),
      static_cast<unsigned long long>(write_calls),
      static_cast<unsigned long long>(pages_read),
      static_cast<unsigned long long>(pages_written), ms);
  if (queue_ms > 0 && n > 0 && static_cast<size_t>(n) < sizeof(buf)) {
    // Only queue-model runs carry waits; everyone else keeps the old form.
    std::snprintf(buf + n, sizeof(buf) - static_cast<size_t>(n),
                  " queue_ms=%.1f", queue_ms);
  }
  return buf;
}

namespace {

/// Released arena chunks of one size, kept for reuse by the disks this
/// thread builds next. A benchmark repetition or bench cell destroys a
/// disk and builds a like-sized one; taking the chunks back from this
/// list keeps the new disk off the allocator, whose trimming would
/// otherwise return the memory and page-fault it in again. The list holds
/// no more than the disks destroyed on this thread used, and it is freed
/// when the thread exits.
class ChunkCache {
 public:
  ChunkCache() = default;
  ChunkCache(const ChunkCache&) = delete;
  ChunkCache& operator=(const ChunkCache&) = delete;
  ~ChunkCache() { Clear(); }

  /// A chunk of `bytes` uninitialized bytes.
  char* Acquire(size_t bytes) {
    if (bytes != bytes_ || free_.empty()) return new char[bytes];
    char* chunk = free_.back();
    free_.pop_back();
    ASAN_UNPOISON_MEMORY_REGION(chunk, bytes);
    return chunk;
  }

  /// Takes back a chunk of `bytes` (from Acquire). The list holds one
  /// size: chunks of another size held so far are freed.
  void Release(char* chunk, size_t bytes) {
    if (bytes != bytes_) {
      Clear();
      bytes_ = bytes;
    }
    // Poisoned while held, so AddressSanitizer still reports a page view
    // that outlives its disk.
    ASAN_POISON_MEMORY_REGION(chunk, bytes);
    free_.push_back(chunk);
  }

 private:
  void Clear() {
    for (char* chunk : free_) {
      ASAN_UNPOISON_MEMORY_REGION(chunk, bytes_);
      delete[] chunk;
    }
    free_.clear();
  }

  size_t bytes_ = 0;
  std::vector<char*> free_;
};

ChunkCache& LocalChunkCache() {
  thread_local ChunkCache cache;
  return cache;
}

}  // namespace

SimDisk::SimDisk(const StorageConfig& config) : config_(config) {
  LOB_CHECK_GT(config_.page_size, 0u);
}

SimDisk::~SimDisk() {
  const size_t chunk_bytes = size_t{kChunkPages} * config_.page_size;
  ChunkCache& cache = LocalChunkCache();
  for (Area& area : areas_) {
    for (char* chunk : area.chunks) {
      if (chunk != nullptr) cache.Release(chunk, chunk_bytes);
    }
  }
}

AreaId SimDisk::CreateArea() {
  areas_.emplace_back();
  return static_cast<AreaId>(areas_.size() - 1);
}

void SimDisk::ResetStats() {
  stats_ = IoStats();
  if (obs_ != nullptr) obs_->ResetAttribution();
}

void SimDisk::BeginQueuedOp(double arrival_ms) {
  if (!queue_enabled_) return;
  LOB_CHECK(!queued_op_open_);  // brackets must not nest
  queued_op_open_ = true;
  op_clock_ms_ = arrival_ms;
}

double SimDisk::EndQueuedOp() {
  if (!queue_enabled_) return 0.0;
  LOB_CHECK(queued_op_open_);
  queued_op_open_ = false;
  return op_clock_ms_;
}

void SimDisk::AccountCall(bool is_read, uint32_t n_pages) {
  IoStats call;
  if (is_read) {
    call.read_calls = 1;
    call.pages_read = n_pages;
  } else {
    call.write_calls = 1;
    call.pages_written = n_pages;
  }
  call.ms = config_.seek_ms + n_pages * config_.PageTransferMs();
#if LOB_TRACING
  const double start_ms = stats_.ms;  // modeled clock before this call
#endif
  if (queue_enabled_ && queued_op_open_ && attribution_suspended_ == 0) {
    // Discrete-event queue: the request arrives at the op's logical clock
    // and waits while the arm is still serving earlier requests. Waits are
    // charged to queue_ms only — call.ms stays pure seek+transfer, so the
    // paper's isolated-op figures are untouched.
    const double start = std::max(op_clock_ms_, arm_free_at_ms_);
    call.queue_ms = start - op_clock_ms_;
    // Backlog depth at issue: accepted requests still in service after
    // this request's arrival, plus this request.
    while (!inflight_completions_.empty() &&
           inflight_completions_.front() <= op_clock_ms_) {
      inflight_completions_.pop_front();
    }
    const double completion = start + call.ms;
    inflight_completions_.push_back(completion);
    const auto depth = static_cast<uint32_t>(inflight_completions_.size());
    op_clock_ms_ = completion;
    arm_free_at_ms_ = completion;
    ++queue_stats_.queued_calls;
    if (call.queue_ms > 0) ++queue_stats_.delayed_calls;
    queue_stats_.queue_ms += call.queue_ms;
    if (call.queue_ms > queue_stats_.max_wait_ms) {
      queue_stats_.max_wait_ms = call.queue_ms;
    }
    if (depth > queue_stats_.max_depth) queue_stats_.max_depth = depth;
  }
  stats_ += call;
  if (attribution_suspended_ == 0) {
    if (obs_ != nullptr) {
      if (attr_rec_ == nullptr || attr_gen_ != obs_->attribution_generation()) {
        attr_rec_ = obs_->AttributionRecord(
            current_op_ != nullptr ? current_op_ : ObsRegistry::kUnattributed);
        attr_gen_ = obs_->attribution_generation();
      }
      static_cast<ObsRegistry::OpRecord*>(attr_rec_)->io += call;
    }
#if LOB_TRACING
    if (trace_ != nullptr) {
      if (call.queue_ms > 0) {
        // Queue-wait annotation: a closed phase leaf spanning the wait,
        // recorded just before the io leaf it delayed. kIo-only rollups
        // (span<->ledger conservation) are unaffected.
        const size_t span =
            trace_->BeginSpan("disk.queue_wait", SpanKind::kPhase, start_ms);
        trace_->EndSpan(span, start_ms + call.queue_ms);
      }
      trace_->RecordIo(is_read, n_pages, start_ms, call.ms);
    }
#endif
  }
}

void SimDisk::ArmFault(const FaultSpec& spec) {
  ArmedFault armed;
  armed.spec = spec;
  faults_.push_back(std::move(armed));
}

void SimDisk::ArmPlan(const FaultPlan& plan) {
  for (const FaultSpec& spec : plan.faults) ArmFault(spec);
}

uint32_t SimDisk::armed_faults() const {
  uint32_t n = 0;
  for (const ArmedFault& f : faults_) {
    if (!f.exhausted) ++n;
  }
  return n;
}

Status SimDisk::CheckFaults(bool is_read, AreaId area, PageId first,
                            uint32_t n_pages) {
  // Unmetered sections (audit walks, fsck, timeline sampling) are outside
  // the fault model entirely: they neither fire faults nor advance any
  // countdown. See the contract in sim_disk.h.
  if (attribution_suspended_ != 0) return Status::OK();
  if (faults_.empty()) {
    ++foreground_calls_;
    return Status::OK();
  }
  const PageId last = first + n_pages - 1;
  const char* op = current_op_ != nullptr ? current_op_ : "";
  auto matches = [&](const FaultSpec& s) {
    if (is_read ? !s.match_reads : !s.match_writes) return false;
    if (!s.op_prefix.empty() &&
        std::strncmp(op, s.op_prefix.c_str(), s.op_prefix.size()) != 0) {
      return false;
    }
    if (s.match_range &&
        (s.area != area || last < s.first_page || first > s.last_page)) {
      return false;
    }
    return true;
  };
  // First pass: does an armed, due fault fire on this call? Earliest-armed
  // wins; a fired call advances no counters (it "never happened" in the
  // cost model).
  for (ArmedFault& f : faults_) {
    if (f.exhausted || !matches(f.spec)) continue;
    if (f.matched_calls < f.spec.after_calls) continue;
    ++f.fired;
    switch (f.spec.kind) {
      case FaultKind::kOneShot:
        f.exhausted = true;
        break;
      case FaultKind::kTransient:
        if (f.fired >= f.spec.fail_calls) f.exhausted = true;
        break;
      case FaultKind::kSticky:
        break;
    }
    ++faults_fired_;
    return Status::Internal(f.spec.message);
  }
  // Second pass: the call succeeds; advance every matching countdown.
  for (ArmedFault& f : faults_) {
    if (!f.exhausted && matches(f.spec)) ++f.matched_calls;
  }
  ++foreground_calls_;
  return Status::OK();
}

Status SimDisk::CheckRange(AreaId area, PageId first, uint32_t n_pages) const {
  if (area >= areas_.size()) {
    return Status::InvalidArgument("no such area");
  }
  if (n_pages == 0) {
    return Status::InvalidArgument("zero-page I/O call");
  }
  if (first == kInvalidPage || first > kInvalidPage - n_pages) {
    return Status::InvalidArgument("page range overflow");
  }
  return Status::OK();
}

template <typename Fn>
void SimDisk::ForEachChunkRun(PageId first, uint32_t n_pages, const Fn& fn) {
  uint32_t done = 0;
  while (done < n_pages) {
    const PageId page = first + done;
    const uint32_t run =
        std::min(n_pages - done, kChunkPages - page % kChunkPages);
    fn(page, run);
    done += run;
  }
}

char* SimDisk::WritableRun(Area& area, PageId page, uint32_t run) {
  const size_t chunk = page / kChunkPages;
  if (chunk >= area.chunks.size()) {
    area.chunks.resize(chunk + 1, nullptr);
    area.written.resize((area.chunks.size() * kChunkPages + 63) / 64, 0);
  }
  if (area.chunks[chunk] == nullptr) {
    area.chunks[chunk] = LocalChunkCache().Acquire(size_t{kChunkPages} *
                                                   config_.page_size);
  }
  for (PageId p = page; p < page + run; ++p) {
    area.written[p / 64] |= uint64_t{1} << (p % 64);
  }
  area.high_water = std::max(area.high_water, page + run);
  return PageImage(area, page);
}

template <typename SpanAt>
void SimDisk::GatherCopy(AreaId area, PageId first, uint32_t n_pages,
                         size_t n_spans, const SpanAt& span_at,
                         MutPageRef* imgs) {
  const uint64_t P = config_.page_size;
  Area& a = areas_[area];
  size_t s = 0;  // index of the current span
  ByteSpan span = n_spans > 0 ? span_at(0) : ByteSpan{};  // its unread rest
  ForEachChunkRun(first, n_pages, [&](PageId page, uint32_t run) {
    char* dst = WritableRun(a, page, run);
    const uint64_t len = uint64_t{run} * P;
    uint64_t filled = 0;
    while (filled < len && s < n_spans) {
      const uint64_t take = std::min(span.size, len - filled);
      if (span.data == nullptr) {
        std::memset(dst + filled, 0, take);
      } else {
        if (span.data != dst + filled) {
          std::memcpy(dst + filled, span.data, take);
        }
        span.data += take;
      }
      filled += take;
      span.size -= take;
      if (span.size == 0 && ++s < n_spans) span = span_at(s);
    }
    if (filled < len) std::memset(dst + filled, 0, len - filled);
    if (imgs != nullptr) {
      for (uint32_t i = 0; i < run; ++i) {
        imgs[page - first + i].data = dst + i * P;
      }
    }
  });
}

Status SimDisk::Read(AreaId area, PageId first, uint32_t n_pages, void* dst) {
  CheckOwner("SimDisk::Read");
  LOB_RETURN_IF_ERROR(CheckRange(area, first, n_pages));
  LOB_RETURN_IF_ERROR(CheckFaults(/*is_read=*/true, area, first, n_pages));
  const uint64_t P = config_.page_size;
  char* out = static_cast<char*>(dst);
  const Area& a = areas_[area];
  // Copies each maximal stretch of written pages of a chunk with one
  // memcpy and zero-fills each stretch of never-written pages.
  ForEachChunkRun(first, n_pages, [&](PageId page, uint32_t run) {
    uint32_t i = 0;
    while (i < run) {
      const bool written = IsWritten(a, page + i);
      uint32_t j = i + 1;
      while (j < run && IsWritten(a, page + j) == written) ++j;
      const uint64_t len = uint64_t{j - i} * P;
      if (written) {
        std::memcpy(out, PageImage(a, page + i), len);
      } else {
        std::memset(out, 0, len);
      }
      out += len;
      i = j;
    }
  });
  AccountCall(/*is_read=*/true, n_pages);
  return Status::OK();
}

Status SimDisk::Write(AreaId area, PageId first, uint32_t n_pages,
                      const void* src) {
  CheckOwner("SimDisk::Write");
  LOB_RETURN_IF_ERROR(CheckRange(area, first, n_pages));
  LOB_RETURN_IF_ERROR(CheckFaults(/*is_read=*/false, area, first, n_pages));
  const ByteSpan all{static_cast<const char*>(src),
                     uint64_t{n_pages} * config_.page_size};
  GatherCopy(area, first, n_pages, 1, [&](size_t) { return all; }, nullptr);
  AccountCall(/*is_read=*/false, n_pages);
  return Status::OK();
}

Status SimDisk::ReadRun(AreaId area, PageId first, uint32_t n_pages,
                        PageRef* refs) {
  CheckOwner("SimDisk::ReadRun");
  LOB_RETURN_IF_ERROR(CheckRange(area, first, n_pages));
  LOB_RETURN_IF_ERROR(CheckFaults(/*is_read=*/true, area, first, n_pages));
  const Area& a = areas_[area];
  for (uint32_t i = 0; i < n_pages; ++i) {
    refs[i].data = IsWritten(a, first + i) ? PageImage(a, first + i) : nullptr;
  }
  AccountCall(/*is_read=*/true, n_pages);
  return Status::OK();
}

Status SimDisk::WriteRun(AreaId area, PageId first, uint32_t n_pages,
                         const char* const* srcs, MutPageRef* imgs) {
  CheckOwner("SimDisk::WriteRun");
  LOB_RETURN_IF_ERROR(CheckRange(area, first, n_pages));
  LOB_RETURN_IF_ERROR(CheckFaults(/*is_read=*/false, area, first, n_pages));
  GatherCopy(
      area, first, n_pages, n_pages,
      [&](size_t i) { return ByteSpan{srcs[i], config_.page_size}; }, imgs);
  AccountCall(/*is_read=*/false, n_pages);
  return Status::OK();
}

Status SimDisk::WriteSpans(AreaId area, PageId first, const ByteSpan* spans,
                           size_t n_spans, MutPageRef* imgs) {
  CheckOwner("SimDisk::WriteSpans");
  uint64_t total = 0;
  for (size_t i = 0; i < n_spans; ++i) total += spans[i].size;
  const uint64_t pages = (total + config_.page_size - 1) / config_.page_size;
  if (pages > kInvalidPage) {
    return Status::InvalidArgument("page range overflow");
  }
  const auto n_pages = static_cast<uint32_t>(pages);
  LOB_RETURN_IF_ERROR(CheckRange(area, first, n_pages));
  LOB_RETURN_IF_ERROR(CheckFaults(/*is_read=*/false, area, first, n_pages));
  GatherCopy(
      area, first, n_pages, n_spans, [&](size_t i) { return spans[i]; },
      imgs);
  AccountCall(/*is_read=*/false, n_pages);
  return Status::OK();
}

const char* SimDisk::PeekPage(AreaId area, PageId page) const {
  if (area >= areas_.size()) return nullptr;
  const Area& a = areas_[area];
  return IsWritten(a, page) ? PageImage(a, page) : nullptr;
}

PageId SimDisk::AreaHighWater(AreaId area) const {
  if (area >= areas_.size()) return 0;
  return areas_[area].high_water;
}

}  // namespace lob
