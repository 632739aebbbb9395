#include "bench.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace lobbench {

const char* const kEngineNames[kEngines] = {"esm", "eos", "starburst"};
const char* const kVerbNames[kVerbs] = {"read",   "insert", "delete",
                                        "replace", "append", "create",
                                        "destroy"};
const char* const kLayerNames[kLayerCount] = {"bench", "core", "esm", "eos",
                                              "starburst"};

int EngineIndex(lob::Engine engine) {
  switch (engine) {
    case lob::Engine::kEsm:
      return 0;
    case lob::Engine::kEos:
      return 1;
    case lob::Engine::kStarburst:
      return 2;
  }
  return 0;
}

const char* CallName(Call call) {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const char* e : kEngineNames) {
      for (const char* v : kVerbNames) n.push_back(std::string(e) + "." + v);
    }
    for (const char* c : {"core.lookup", "core.manager_for", "core.create",
                          "core.drop"}) {
      n.emplace_back(c);
    }
    return n;
  }();
  return names[call].c_str();
}

Layer CallLayer(Call call) {
  if (call >= kCoreLookup) return kLayerCore;
  return static_cast<Layer>(kLayerEsm + call / kVerbs);
}

const char* SpanName(uint8_t name) {
  switch (name) {
    case kSpanOpRead:
      return "op.read";
    case kSpanOpWrite:
      return "op.write";
    case kSpanCheck:
      return "bench.check";
    default:
      return CallName(name);
  }
}

Payload::Payload(uint64_t seed) {
  Gen gen(seed ^ 0x5EEDBA5E5EEDBA5EULL);
  bytes_.resize(kBytes);
  for (uint64_t i = 0; i < kBytes; i += 8) {
    const uint64_t v = gen.Next();
    std::memcpy(&bytes_[i], &v, 8);
  }
}

size_t RefBytes::Locate(uint64_t off) const {
  const auto it = std::upper_bound(starts_.begin(), starts_.end(), off);
  return it == starts_.begin() ? 0
                               : static_cast<size_t>(it - starts_.begin()) - 1;
}

void RefBytes::Restart(size_t from) {
  starts_.resize(chunks_.size());
  for (size_t k = from; k < chunks_.size(); ++k) {
    starts_[k] = k == 0 ? 0 : starts_[k - 1] + chunks_[k - 1].size();
  }
}

void RefBytes::Insert(uint64_t off, std::string_view data) {
  if (data.empty()) return;
  if (chunks_.empty()) {
    chunks_.emplace_back();
    starts_.assign(1, 0);
  }
  const size_t i = Locate(off);
  chunks_[i].insert(off - starts_[i], data);
  size_ += data.size();
  if (chunks_[i].size() > 2 * kChunk) {
    std::string whole = std::move(chunks_[i]);
    std::vector<std::string> pieces;
    for (size_t p = 0; p < whole.size(); p += kChunk) {
      pieces.push_back(whole.substr(p, kChunk));
    }
    chunks_.erase(chunks_.begin() + static_cast<ptrdiff_t>(i));
    chunks_.insert(chunks_.begin() + static_cast<ptrdiff_t>(i),
                   std::make_move_iterator(pieces.begin()),
                   std::make_move_iterator(pieces.end()));
  }
  Restart(i);
}

void RefBytes::Erase(uint64_t off, uint64_t n) {
  while (n > 0) {
    const size_t i = Locate(off);
    std::string& c = chunks_[i];
    const uint64_t local = off - starts_[i];
    const uint64_t take = std::min<uint64_t>(n, c.size() - local);
    c.erase(local, take);
    n -= take;
    size_ -= take;
    if (c.empty()) chunks_.erase(chunks_.begin() + static_cast<ptrdiff_t>(i));
    Restart(i);
  }
}

void RefBytes::Replace(uint64_t off, std::string_view data) {
  while (!data.empty()) {
    const size_t i = Locate(off);
    std::string& c = chunks_[i];
    const uint64_t local = off - starts_[i];
    const size_t take = std::min<size_t>(data.size(), c.size() - local);
    c.replace(local, take, data.substr(0, take));
    data.remove_prefix(take);
    off += take;
  }
}

bool RefBytes::Equals(uint64_t off, std::string_view data) const {
  if (off + data.size() > size_) return false;
  while (!data.empty()) {
    const size_t i = Locate(off);
    const std::string& c = chunks_[i];
    const uint64_t local = off - starts_[i];
    const size_t take = std::min<size_t>(data.size(), c.size() - local);
    if (std::memcmp(c.data() + local, data.data(), take) != 0) return false;
    data.remove_prefix(take);
    off += take;
  }
  return true;
}

void Recorder::Fail(const std::string& what) {
  ++failed_;
  if (errors_shown_ < 10) {
    ++errors_shown_;
    std::fprintf(stderr, "lobbench: FAILED: %s\n", what.c_str());
  }
}

uint32_t OpTimer::Finish(uint64_t user_read, uint64_t user_written) {
  const IoStats delta = IoStats::Delta(before_, sys_->stats());
  const int64_t latency = n_ == 0 ? 0 : calls_[n_ - 1].end - calls_[0].start;
  Recorder::ClassTotals& c = rec_->cls(cls_);
  c.latency_ns.push_back(latency);
  c.modeled_ms += delta.ms;
  ++c.ops;
  rec_->io += delta;
  rec_->user_read += user_read;
  rec_->user_written += user_written;
  rec_->op_ns += latency;
  for (size_t k = 0; k < n_; ++k) {
    rec_->call_samples(calls_[k].call).push_back(calls_[k].end -
                                                 calls_[k].start);
  }
  const uint32_t id = rec_->next_op++;
  if (rec_->record_spans() && n_ > 0) {
    const auto root = static_cast<int32_t>(rec_->spans.size());
    rec_->spans.push_back({-1, id,
                           cls_ == OpClass::kRead ? uint8_t{kSpanOpRead}
                                                  : uint8_t{kSpanOpWrite},
                           calls_[0].start, calls_[n_ - 1].end});
    for (size_t k = 0; k < n_; ++k) {
      rec_->spans.push_back(
          {root, id, calls_[k].call, calls_[k].start, calls_[k].end});
    }
  }
  return id;
}

}  // namespace lobbench
