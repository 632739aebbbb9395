// lobbench: runs one workload for a given time and prints its metrics.
//
//   lobbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--workdir <dir>]
//
// A run is a sequence of repetitions. Each repetition builds fresh storage
// (timed as set-up), replays the workload's op stream, which is fixed by
// the seed, and then checks every object byte for byte plus fsck. Because
// every repetition replays the same stream from the same state, the
// modeled costs are identical across repetitions (checked) and exact for a
// seed. Host timings are summarised per repetition and reported as the
// median over repetitions: other tenants of a shared host slow it down in
// bursts of a few seconds, and a per-repetition median ignores a burst that
// a pooled sample would absorb.
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
// and traced repetitions and reports the per-layer metrics: counters each
// module exposes, layer probes, the program's modeled-clock spans and the
// benchmark's own host-clock spans (the first traced repetition's spans
// are written to <workdir>/spans-<name>.csv).
//
// The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// The exit code is 0 only when every op, compare and fsck succeeded.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"
#include "core/metrics_snapshot.h"
#include "trace/trace_session.h"

namespace lobbench {
namespace {

constexpr uint64_t kMiB = 1024 * 1024;
constexpr size_t kMaxReps = 200;

/// Modeled-clock spans reported by the traced run.
constexpr const char* kTraceSpans[] = {
    "tree.descend",     "buddy.alloc",      "buddy.free",
    "pool.miss",        "pool.evict",       "pool.flush",
    "pool.read_run",    "pool.write_run",   "pool.write_fresh",
    "seg.shuffle",      "seg.merge",        "sb.rebuild_tail",
    "sb.splice",        "esm.redistribute", "disk.io"};
constexpr size_t kNumTraceSpans = std::size(kTraceSpans);

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_build/lobbench-run";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "lobbench: %s\nusage: lobbench --workload <starburst_mix|"
               "tree_mix|scan_append|small_objects> --seed <n> --seconds <s> "
               "--trace <0|1> [--workdir <dir>]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') Usage("bad --seed");
    } else if (flag == "--seconds") {
      const long s = std::strtol(v, &end, 10);
      if (*v == '\0' || *end != '\0' || s < 1 || s > 600) {
        Usage("bad --seconds");
      }
      a.seconds = static_cast<int>(s);
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        Usage("bad --trace");
      }
      a.trace = v[0] == '1';
    } else if (flag == "--workdir") {
      a.workdir = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("missing --workload");
  return a;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Linearly interpolated percentile of `ns` samples, in microseconds.
double PercentileUs(std::vector<int64_t> ns, double p) {
  if (ns.empty()) return 0;
  std::sort(ns.begin(), ns.end());
  const double rank = p / 100.0 * static_cast<double>(ns.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, ns.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return (static_cast<double>(ns[lo]) * (1 - frac) +
          static_cast<double>(ns[hi]) * frac) /
         1e3;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double MsSince(int64_t t0) { return static_cast<double>(NowNs() - t0) / 1e6; }

/// What one repetition leaves behind. Raw samples and spans are reduced to
/// these figures as soon as the repetition ends, so a run's memory does not
/// grow with its length.
struct Rep {
  bool traced = false;
  double setup_s = 0;
  std::vector<std::pair<std::string, double>> core_ms;
  uint64_t ops = 0;
  uint64_t failed = 0;
  double op_s = 0;  ///< host seconds inside timed calls

  // Modeled cost and storage state: exact for the seed.
  uint64_t read_ops = 0, write_ops = 0;
  double modeled_read_ms = 0, modeled_write_ms = 0;  ///< per op
  double space_amp = 0;
  IoStats io;
  uint64_t user_read = 0, user_written = 0;

  // Host latency summaries, microseconds.
  double read_p50 = 0, read_p99 = 0, write_p50 = 0, write_p99 = 0;
  std::array<double, kCallCount> call_p50{};
  std::array<size_t, kCallCount> call_n{};

  // Per-layer state, read after an untraced repetition of a traced run.
  uint64_t fix_hits = 0, fix_misses = 0, evictions = 0;
  double fsck_ms = 0;
  size_t fsck_issues = 0;
  uint64_t allocated_pages = 0, largest_free_pages = 0;
  uint32_t tree_height = 0;
  uint64_t index_pages = 0;
  std::array<double, kEngines> segments{}, mb{};
  double flush_all_ms = 0, snapshot_ms = 0;

  // From a traced repetition.
  std::array<double, kNumTraceSpans> span_count{}, span_ms{};
  std::array<double, kLayerCount> self_ns{};

  double ops_per_s() const { return Ratio(static_cast<double>(ops), op_s); }
};

void PoolCounters(const std::vector<StorageSystem*>& systems, uint64_t* hits,
                  uint64_t* misses, uint64_t* evictions) {
  *hits = *misses = *evictions = 0;
  for (StorageSystem* s : systems) {
    *hits += s->pool()->hits();
    *misses += s->pool()->misses();
    *evictions += s->pool()->evictions();
  }
}

/// Storage state after the op stream: allocator, tree shape, segments,
/// FlushAll and metrics-snapshot cost.
void CollectLayers(const std::vector<StorageSystem*>& systems,
                   const std::vector<ObjRef>& objs, Recorder* rec, Rep* rep) {
  for (StorageSystem* s : systems) {
    for (lob::DatabaseArea* a : {s->leaf_area(), s->meta_area()}) {
      rep->allocated_pages += a->allocated_pages();
      rep->largest_free_pages = std::max<uint64_t>(rep->largest_free_pages,
                                                   a->LargestFreeExtent());
    }
  }
  for (const ObjRef& o : objs) {
    StorageSystem::UnmeteredSection unmetered(o.sys);
    const int e = EngineIndex(o.mgr->engine());
    auto st = o.mgr->GetStorageStats(o.id);
    if (!st.ok()) {
      rec->Fail("storage stats: " + st.status().ToString());
      continue;
    }
    if (o.mgr->engine() != lob::Engine::kStarburst) {
      rep->tree_height = std::max<uint32_t>(rep->tree_height, st->tree_height);
      rep->index_pages += st->index_pages;
    }
    uint64_t segs = 0;
    const Status vs = o.mgr->VisitSegments(o.id, [&](uint64_t, uint32_t) {
      ++segs;
      return Status::OK();
    });
    if (!vs.ok()) rec->Fail("visit segments: " + vs.ToString());
    rep->segments[e] += static_cast<double>(segs);
    rep->mb[e] += static_cast<double>(o.ref->size()) / kMiB;
  }
  int64_t t0 = NowNs();
  for (StorageSystem* s : systems) {
    const Status st = s->FlushAll();
    if (!st.ok()) rec->Fail("flush all: " + st.ToString());
  }
  rep->flush_all_ms = MsSince(t0);
  t0 = NowNs();
  size_t json_bytes = 0;
  for (StorageSystem* s : systems) {
    json_bytes +=
        lob::MetricsSnapshot::FromRegistry(*s->obs()).ToJson().size();
  }
  rep->snapshot_ms = MsSince(t0);
  if (json_bytes == 0) rec->Fail("empty metrics snapshot");
}

/// Full compare of every object against its reference.
void VerifyObjects(const std::vector<ObjRef>& objs, Recorder* rec) {
  constexpr uint64_t kPiece = 1 * kMiB;
  std::string buf;
  for (const ObjRef& o : objs) {
    auto size = o.mgr->Size(o.id);
    if (!size.ok() || *size != o.ref->size()) {
      rec->Fail("object " + std::to_string(o.id) + ": size differs");
      continue;
    }
    for (uint64_t off = 0; off < *size; off += kPiece) {
      const uint64_t n = std::min(kPiece, *size - off);
      const Status st = o.mgr->Read(o.id, off, n, &buf);
      if (!st.ok() || !o.ref->Equals(off, buf)) {
        rec->Fail("object " + std::to_string(o.id) + ": bytes at " +
                  std::to_string(off) + " differ from the reference");
        break;
      }
    }
  }
}

/// Counts and outermost modeled ms of the reported spans.
void TraceSpans(const lob::TraceSession& s, Rep* rep) {
  const auto& ev = s.events();
  std::vector<int> which;  // name id -> kTraceSpans index, -1 none
  for (const auto& e : ev) {
    while (which.size() <= e.name_id) {
      const std::string& name = s.Name(static_cast<uint32_t>(which.size()));
      int k = -1;
      for (size_t i = 0; i < kNumTraceSpans; ++i) {
        if (name == kTraceSpans[i]) k = static_cast<int>(i);
      }
      which.push_back(k);
    }
    const int k = which[e.name_id];
    if (k < 0) continue;
    rep->span_count[k] += 1;
    bool nested = false;
    for (int32_t p = e.parent; p >= 0 && !nested; p = ev[p].parent) {
      nested = ev[p].name_id == e.name_id;
    }
    if (!nested) rep->span_ms[k] += e.dur_ms;
  }
}

/// Self time per layer of the benchmark's host spans: a span's time minus
/// its children's. Roots (ops, compares) are the bench layer.
void SpanSelfTimes(const std::vector<HostSpan>& spans, Rep* rep) {
  std::vector<int64_t> child(spans.size(), 0);
  for (const HostSpan& s : spans) {
    if (s.parent < 0) continue;
    const int64_t dur = s.end_ns - s.start_ns;
    child[s.parent] += dur;
    rep->self_ns[CallLayer(s.name)] += static_cast<double>(dur);
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent < 0) {
      rep->self_ns[kLayerBench] += static_cast<double>(
          spans[i].end_ns - spans[i].start_ns - child[i]);
    }
  }
}

void WriteSpans(const std::vector<HostSpan>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "lobbench: cannot write %s\n", path.c_str());
    return;
  }
  const int64_t base = spans.empty() ? 0 : spans[0].start_ns;
  std::fprintf(f, "span,parent,op,name,start_ns,end_ns\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const HostSpan& s = spans[i];
    std::fprintf(f, "%zu,%d,%u,%s,%lld,%lld\n", i, s.parent, s.op,
                 SpanName(s.name), static_cast<long long>(s.start_ns - base),
                 static_cast<long long>(s.end_ns - base));
  }
  std::fclose(f);
}

/// Reduces a repetition's recorder to its summary figures.
void Summarize(const Recorder& rec, Rep* rep) {
  rep->ops = rec.attempted();
  rep->failed = rec.failed();
  rep->op_s = static_cast<double>(rec.op_ns) / 1e9;
  const auto& rd = rec.cls(OpClass::kRead);
  const auto& wr = rec.cls(OpClass::kWrite);
  rep->read_ops = rd.ops;
  rep->write_ops = wr.ops;
  rep->modeled_read_ms = Ratio(rd.modeled_ms, static_cast<double>(rd.ops));
  rep->modeled_write_ms = Ratio(wr.modeled_ms, static_cast<double>(wr.ops));
  rep->io = rec.io;
  rep->user_read = rec.user_read;
  rep->user_written = rec.user_written;
  rep->read_p50 = PercentileUs(rd.latency_ns, 50);
  rep->read_p99 = PercentileUs(rd.latency_ns, 99);
  rep->write_p50 = PercentileUs(wr.latency_ns, 50);
  rep->write_p99 = PercentileUs(wr.latency_ns, 99);
  for (Call c = 0; c < kCallCount; ++c) {
    rep->call_p50[c] = PercentileUs(rec.call_samples(c), 50);
    rep->call_n[c] = rec.call_samples(c).size();
  }
}

/// Runs one repetition. `spans_path`, when set, receives the host spans of
/// a traced repetition.
Rep RunRep(Workload* w, bool traced, bool collect_layers,
           const std::string& spans_path) {
  Rep rep;
  rep.traced = traced;
  Recorder rec(traced);
  w->Prepare();
  const int64_t t0 = NowNs();
  const Status setup = w->Setup(&rep.core_ms);
  rep.setup_s = MsSince(t0) / 1e3;
  if (!setup.ok()) {
    rec.Fail("setup: " + setup.ToString());
    w->Teardown();
    Summarize(rec, &rep);
    return rep;
  }
  const std::vector<StorageSystem*> systems = w->Systems();
  uint64_t h0, m0, e0;
  PoolCounters(systems, &h0, &m0, &e0);
  std::vector<std::unique_ptr<lob::TraceSession>> sessions;
  if (traced) {
    for (StorageSystem* s : systems) {
      sessions.push_back(std::make_unique<lob::TraceSession>());
      s->disk()->set_trace(sessions.back().get());
    }
  }
  w->Run(&rec);
  for (StorageSystem* s : systems) s->disk()->set_trace(nullptr);
  for (const auto& s : sessions) TraceSpans(*s, &rep);
  sessions.clear();
  SpanSelfTimes(rec.spans, &rep);
  if (!spans_path.empty()) WriteSpans(rec.spans, spans_path);
  uint64_t h1, m1, e1;
  PoolCounters(systems, &h1, &m1, &e1);
  rep.fix_hits = h1 - h0;
  rep.fix_misses = m1 - m0;
  rep.evictions = e1 - e0;

  const std::vector<ObjRef> objs = w->Objects();
  uint64_t allocated = 0, live = 0;
  for (StorageSystem* s : systems) allocated += s->AllocatedBytes();
  for (const ObjRef& o : objs) live += o.ref->size();
  rep.space_amp =
      Ratio(static_cast<double>(allocated), static_cast<double>(live));
  if (collect_layers) CollectLayers(systems, objs, &rec, &rep);

  VerifyObjects(objs, &rec);
  const int64_t f0 = NowNs();
  auto issues = w->Fsck();
  rep.fsck_ms = MsSince(f0);
  if (!issues.ok()) {
    rec.Fail("fsck: " + issues.status().ToString());
  } else if (*issues != 0) {
    rep.fsck_issues = *issues;
    rec.Fail("fsck: " + std::to_string(*issues) + " issues");
  }
  w->Teardown();
  Summarize(rec, &rep);
  return rep;
}

/// Ordered metric list of one run's result line.
class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit,
           const std::string& note = "") {
    if (!std::isfinite(value)) value = 0;
    items_.push_back({name, value, unit, note});
  }
  void Print(bool correct, uint64_t attempted, uint64_t failed) const {
    for (const Item& m : items_) {
      std::printf("  %-36s %16.6f %-8s %s\n", m.name.c_str(), m.value,
                  m.unit, m.note.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < items_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", items_[i].name.c_str(), items_[i].value,
                  items_[i].unit);
    }
    std::printf("}}\n");
  }

 private:
  struct Item {
    std::string name;
    double value;
    const char* unit;
    std::string note;
  };
  std::vector<Item> items_;
};

std::string Samples(size_t n) { return "n=" + std::to_string(n); }

/// Median over the given repetitions of one per-repetition figure.
template <class F>
double MedianOf(const std::vector<const Rep*>& reps, F&& figure) {
  std::vector<double> v;
  for (const Rep* r : reps) v.push_back(figure(*r));
  return Median(v);
}

void EndToEnd(const std::vector<const Rep*>& reps, Metrics* m) {
  const Rep& first = *reps[0];
  const std::string per_rep =
      " per repetition, " + Samples(reps.size()) + " repetitions";
  const std::string rd = Samples(first.read_ops) + per_rep;
  const std::string wr = Samples(first.write_ops) + per_rep;
  m->Add("setup_s", MedianOf(reps, [](const Rep& r) { return r.setup_s; }),
         "s", Samples(reps.size()) + " repetitions");
  m->Add("ops_per_s",
         MedianOf(reps, [](const Rep& r) { return r.ops_per_s(); }), "1/s",
         Samples(first.ops) + per_rep);
  m->Add("read_us_p50",
         MedianOf(reps, [](const Rep& r) { return r.read_p50; }), "us", rd);
  m->Add("read_us_p99",
         MedianOf(reps, [](const Rep& r) { return r.read_p99; }), "us", rd);
  m->Add("write_us_p50",
         MedianOf(reps, [](const Rep& r) { return r.write_p50; }), "us", wr);
  m->Add("write_us_p99",
         MedianOf(reps, [](const Rep& r) { return r.write_p99; }), "us", wr);
  m->Add("modeled_read_ms", first.modeled_read_ms, "ms",
         Samples(first.read_ops) + " ops, exact for the seed");
  m->Add("modeled_write_ms", first.modeled_write_ms, "ms",
         Samples(first.write_ops) + " ops, exact for the seed");
  m->Add("space_amp", first.space_amp, "ratio");
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  m->Add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
}

void PerLayer(const std::vector<const Rep*>& all, const ProbeResults& probe,
              uint32_t page_size, Metrics* m) {
  std::vector<const Rep*> plain, traced;
  for (const Rep* r : all) (r->traced ? traced : plain).push_back(r);
  const Rep& p = *plain[0];
  const Rep& t = *traced[0];
  const double ops = static_cast<double>(p.ops);
  const IoStats& io = p.io;
  m->Add("iomodel.seeks_per_op", Ratio(static_cast<double>(io.Seeks()), ops),
         "count");
  m->Add("iomodel.pages_per_op",
         Ratio(static_cast<double>(io.PagesTransferred()), ops), "count");
  m->Add("iomodel.write_amp",
         Ratio(static_cast<double>(io.pages_written) * page_size,
               static_cast<double>(p.user_written)),
         "ratio");
  m->Add("iomodel.read_amp",
         Ratio(static_cast<double>(io.pages_read) * page_size,
               static_cast<double>(p.user_read)),
         "ratio");
  m->Add("iomodel.ns_per_page", MedianOf(plain, [](const Rep& r) {
           return Ratio(r.op_s * 1e9,
                        static_cast<double>(r.io.PagesTransferred()));
         }),
         "ns");
  m->Add("iomodel.read_ns_per_page", probe.read_ns_per_page, "ns");
  m->Add("iomodel.read_run_ns_per_page", probe.read_run_ns_per_page, "ns");
  m->Add("iomodel.write_ns_per_page", probe.write_ns_per_page, "ns");
  m->Add("iomodel.write_run_ns_per_page", probe.write_run_ns_per_page, "ns");

  m->Add("buffer.hit_rate",
         Ratio(static_cast<double>(p.fix_hits),
               static_cast<double>(p.fix_hits + p.fix_misses)),
         "ratio");
  m->Add("buffer.evictions_per_op",
         Ratio(static_cast<double>(p.evictions), ops), "count");
  m->Add("buffer.fix_hit_ns", probe.fix_hit_ns, "ns");
  m->Add("buffer.flush_all_ms",
         MedianOf(plain, [](const Rep& r) { return r.flush_all_ms; }), "ms");

  m->Add("buddy.allocated_pages", static_cast<double>(p.allocated_pages),
         "count");
  m->Add("buddy.largest_free_pages",
         static_cast<double>(p.largest_free_pages), "count");
  m->Add("buddy.alloc_free_ns", probe.alloc_free_ns, "ns");

  m->Add("lobtree.height", p.tree_height, "count");
  m->Add("lobtree.index_pages", static_cast<double>(p.index_pages), "count");
  m->Add("lobtree.find_leaf_ns", probe.find_leaf_ns, "ns");

  const auto call_p50 = [&](Call c) {
    return MedianOf(plain, [c](const Rep& r) { return r.call_p50[c]; });
  };
  for (int e = 0; e < kEngines; ++e) {
    for (Verb v : {kRead, kInsert, kDelete, kReplace, kAppend}) {
      const Call c = static_cast<Call>(e * kVerbs + v);
      m->Add(std::string(kEngineNames[e]) + "." + kVerbNames[v] + "_us_p50",
             call_p50(c), "us", Samples(p.call_n[c]) + " per repetition");
    }
    m->Add(std::string(kEngineNames[e]) + ".segments_per_mb",
           Ratio(p.segments[e], p.mb[e]), "count/MB");
  }
  for (const auto& [c, name] : {std::pair{kCoreLookup, "core.lookup_us_p50"},
                                {kCoreCreate, "core.create_us_p50"},
                                {kCoreDrop, "core.drop_us_p50"}}) {
    m->Add(name, call_p50(c), "us", Samples(p.call_n[c]) + " per repetition");
  }
  for (const char* k : {"save", "open"}) {
    std::vector<double> v;
    for (const Rep* r : all) {
      for (const auto& [name, ms] : r->core_ms) {
        if (name == k) v.push_back(ms);
      }
    }
    m->Add(std::string("core.") + k + "_ms", Median(v), "ms");
  }

  m->Add("check.fsck_ms",
         MedianOf(all, [](const Rep& r) { return r.fsck_ms; }), "ms");
  size_t issues = 0;
  for (const Rep* r : all) issues = std::max(issues, r->fsck_issues);
  m->Add("check.issues", static_cast<double>(issues), "count");
  m->Add("obs.snapshot_ms",
         MedianOf(plain, [](const Rep& r) { return r.snapshot_ms; }), "ms");

  const double tops = static_cast<double>(t.ops);
  for (size_t k = 0; k < kNumTraceSpans; ++k) {
    m->Add(std::string("trace.") + kTraceSpans[k] + ".per_op",
           Ratio(t.span_count[k], tops), "count");
    m->Add(std::string("trace.") + kTraceSpans[k] + ".ms_per_op",
           Ratio(t.span_ms[k], tops), "ms");
  }
  const auto rate = [](const Rep& r) { return r.ops_per_s(); };
  m->Add("trace.overhead_pct",
         (Ratio(MedianOf(plain, rate), MedianOf(traced, rate)) - 1) * 100, "%",
         Samples(plain.size()) + " untraced, " + Samples(traced.size()) +
             " traced repetitions");
  for (int k = 0; k < kLayerCount; ++k) {
    m->Add(std::string("span.") + kLayerNames[k] + ".self_us_per_op",
           MedianOf(traced, [k](const Rep& r) {
             return Ratio(r.self_ns[k] / 1e3, static_cast<double>(r.ops));
           }),
           "us");
  }
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  std::unique_ptr<Workload> w =
      Workload::Create(args.workload, args.seed, args.workdir);
  if (w == nullptr) Usage(("unknown workload " + args.workload).c_str());

  std::printf("lobbench workload=%s seed=%llu seconds=%d trace=%d build=%s "
              "compiler=\"%s\"\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, LOBBENCH_BUILD_TYPE,
              __VERSION__);
  std::fflush(stdout);

  // Untraced runs repeat until the time is up, at least three repetitions
  // for the medians; traced runs alternate untraced and traced repetitions,
  // at least one of each. A repetition starts only if one like the last
  // still fits in the time.
  const size_t min_reps = args.trace ? 2 : 3;
  const int64_t deadline = NowNs() + int64_t{args.seconds} * 1000000000;
  const std::string spans_path =
      args.workdir + "/spans-" + args.workload + ".csv";
  std::vector<Rep> reps;
  int64_t last_ns = 0;
  while (reps.size() < min_reps ||
         (NowNs() + last_ns < deadline && reps.size() < kMaxReps)) {
    const bool traced = args.trace && reps.size() % 2 == 1;
    const int64_t t0 = NowNs();
    reps.push_back(RunRep(w.get(), traced, args.trace && !traced,
                          traced && reps.size() == 1 ? spans_path : ""));
    last_ns = NowNs() - t0;
    const Rep& r = reps.back();
    std::fprintf(stderr,
                 "lobbench: repetition %zu%s: setup %.3f ms, %llu ops in "
                 "%.3f s of op time, %.1f ops/s, read p50 %.3f us, write "
                 "p50 %.3f us\n",
                 reps.size(), r.traced ? " (traced)" : "", r.setup_s * 1e3,
                 static_cast<unsigned long long>(r.ops), r.op_s,
                 r.ops_per_s(), r.read_p50, r.write_p50);
  }

  uint64_t attempted = 0, failed = 0;
  const Rep& first = reps[0];
  std::vector<const Rep*> all;
  for (const Rep& r : reps) {
    // Every repetition replays the same stream from the same state, traced
    // or not, so the modeled results must match exactly.
    if (r.modeled_read_ms != first.modeled_read_ms ||
        r.modeled_write_ms != first.modeled_write_ms ||
        r.space_amp != first.space_amp) {
      std::fprintf(stderr,
                   "lobbench: FAILED: modeled costs differ between "
                   "repetitions\n");
      ++failed;
    }
    attempted += r.ops;
    failed += r.failed;
    all.push_back(&r);
  }

  Metrics m;
  if (args.trace) {
    const ProbeResults probe = RunProbes(w->probe_shape(), args.seed);
    if (!probe.ok) {
      std::fprintf(stderr, "lobbench: FAILED: a layer probe call failed\n");
      ++failed;
    }
    PerLayer(all, probe, lob::StorageConfig().page_size, &m);
  } else {
    EndToEnd(all, &m);
  }
  std::printf("modeled: read_ms=%.17g write_ms=%.17g space_amp=%.17g\n",
              first.modeled_read_ms, first.modeled_write_ms, first.space_amp);
  std::printf("  %-36s %16.6f %-8s %s\n", "error_rate",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              "ratio", (Samples(attempted) + " ops").c_str());
  const bool correct = failed == 0;
  m.Print(correct, std::max<uint64_t>(attempted, 1), failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace lobbench

int main(int argc, char** argv) { return lobbench::Main(argc, argv); }
