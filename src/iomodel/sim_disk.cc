#include "iomodel/sim_disk.h"

#include <algorithm>
#include <cstring>

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

SimDisk::SimDisk(const StorageConfig& config) : config_(config) {
  LOB_CHECK_GT(config_.page_size, 0u);
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
      // Charge through the registry latch: AccountCall can run under the
      // BufferPool latch (rank 30 < kObsRegistry 40, so the order holds).
      obs_->AttributeTo(static_cast<ObsRegistry::OpRecord*>(attr_rec_), call);
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

char* SimDisk::PageData(Area& area, PageId page, bool create) {
  if (page >= area.pages.size()) {
    if (!create) return nullptr;
    if (page >= area.pages.capacity()) {
      // Geometric growth: append-heavy workloads extend the area one page
      // at a time, and per-element reallocation is quadratic on standard
      // libraries that only guarantee amortized growth for push_back.
      area.pages.reserve(
          std::max<size_t>(size_t{page} + 1, area.pages.capacity() * 2));
    }
    area.pages.resize(page + 1);
  }
  auto& slot = area.pages[page];
  if (slot == nullptr) {
    if (!create) return nullptr;
    slot = std::make_unique<char[]>(config_.page_size);
    std::memset(slot.get(), 0, config_.page_size);
  }
  return slot.get();
}

template <typename SpanAt>
void SimDisk::GatherCopy(AreaId area, PageId first, uint32_t n_pages,
                         size_t n_spans, const SpanAt& span_at,
                         MutPageRef* imgs) {
  const uint64_t P = config_.page_size;
  Area& a = areas_[area];
  size_t s = 0;  // index of the current span
  ByteSpan span = n_spans > 0 ? span_at(0) : ByteSpan{};  // its unread rest
  for (uint32_t i = 0; i < n_pages; ++i) {
    char* dst = PageData(a, first + i, /*create=*/true);
    uint64_t filled = 0;
    while (filled < P && s < n_spans) {
      const uint64_t take = std::min(span.size, P - filled);
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
    if (filled < P) std::memset(dst + filled, 0, P - filled);
    if (imgs != nullptr) imgs[i].data = dst;
  }
}

Status SimDisk::Read(AreaId area, PageId first, uint32_t n_pages, void* dst) {
  LOB_RETURN_IF_ERROR(CheckRange(area, first, n_pages));
  LOB_RETURN_IF_ERROR(CheckFaults(/*is_read=*/true, area, first, n_pages));
  char* out = static_cast<char*>(dst);
  Area& a = areas_[area];
  for (uint32_t i = 0; i < n_pages; ++i) {
    const char* src = PageData(a, first + i, /*create=*/false);
    if (src == nullptr) {
      std::memset(out, 0, config_.page_size);
    } else {
      std::memcpy(out, src, config_.page_size);
    }
    out += config_.page_size;
  }
  AccountCall(/*is_read=*/true, n_pages);
  return Status::OK();
}

Status SimDisk::Write(AreaId area, PageId first, uint32_t n_pages,
                      const void* src) {
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
  LOB_RETURN_IF_ERROR(CheckRange(area, first, n_pages));
  LOB_RETURN_IF_ERROR(CheckFaults(/*is_read=*/true, area, first, n_pages));
  Area& a = areas_[area];
  for (uint32_t i = 0; i < n_pages; ++i) {
    refs[i].data = PageData(a, first + i, /*create=*/false);
  }
  AccountCall(/*is_read=*/true, n_pages);
  return Status::OK();
}

Status SimDisk::WriteRun(AreaId area, PageId first, uint32_t n_pages,
                         const char* const* srcs, MutPageRef* imgs) {
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
  if (page >= a.pages.size() || a.pages[page] == nullptr) return nullptr;
  return a.pages[page].get();
}

PageId SimDisk::AreaHighWater(AreaId area) const {
  if (area >= areas_.size()) return 0;
  return static_cast<PageId>(areas_[area].pages.size());
}

}  // namespace lob
