#include "exec/campaign.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>

#include "check/fsck.h"
#include "common/lock_order.h"
#include "common/logging.h"
#include "common/thread_annotations.h"
#include "common/rng.h"
#include "core/factory.h"
#include "exec/parallel_runner.h"
#include "exec/thread_pool.h"
#include "iomodel/fault_model.h"
#include "workload/workload.h"

namespace lob {

namespace {

std::unique_ptr<LargeObjectManager> MakeManager(
    StorageSystem* sys, Engine engine, const CampaignOptions& options) {
  switch (engine) {
    case Engine::kEsm:
      return CreateEsmManager(sys, options.esm_leaf_pages);
    case Engine::kStarburst:
      return CreateStarburstManager(sys);
    case Engine::kEos:
      return CreateEosManager(sys, options.eos_threshold_pages);
  }
  return nullptr;
}

/// What happened when the trace was replayed against one system.
struct ReplayOutcome {
  bool failed = false;
  std::string failed_op = "-";  ///< "create" or "op<i>"
  std::string op_kind = "-";
  std::string error;
  bool created = false;
  ObjectId id = kInvalidPage;
};

/// Mirrors ApplyTrace (workload/trace.cc) exactly — same per-op content
/// RNG — but stops at the first error instead of wrapping it, so the
/// campaign can attribute the failure to one op.
ReplayOutcome Replay(LargeObjectManager* mgr, const Trace& trace) {
  ReplayOutcome out;
  auto id = mgr->Create();
  if (!id.ok()) {
    out.failed = true;
    out.failed_op = "create";
    out.error = id.status().ToString();
    return out;
  }
  out.created = true;
  out.id = *id;
  std::string buf;
  for (size_t i = 0; i < trace.ops.size(); ++i) {
    const TraceOp& op = trace.ops[i];
    const bool writes = op.kind == TraceOp::Kind::kAppend ||
                        op.kind == TraceOp::Kind::kInsert ||
                        op.kind == TraceOp::Kind::kReplace;
    if (writes) {
      Rng content(op.seed);
      FillBytes(&content, op.size, &buf);
    }
    Status s;
    switch (op.kind) {
      case TraceOp::Kind::kAppend:
        s = mgr->Append(*id, buf);
        break;
      case TraceOp::Kind::kInsert:
        s = mgr->Insert(*id, op.offset, buf);
        break;
      case TraceOp::Kind::kReplace:
        s = mgr->Replace(*id, op.offset, buf);
        break;
      case TraceOp::Kind::kDelete:
        s = mgr->Delete(*id, op.offset, op.size);
        break;
      case TraceOp::Kind::kRead:
        s = mgr->Read(*id, op.offset, op.size, &buf);
        break;
    }
    if (!s.ok()) {
      out.failed = true;
      out.failed_op = "op" + std::to_string(i);
      out.op_kind = TraceOpKindName(op.kind);
      out.error = s.ToString();
      return out;
    }
  }
  return out;
}

std::string Sanitize(std::string s) {
  std::replace(s.begin(), s.end(), ',', ';');
  std::replace(s.begin(), s.end(), '\n', ' ');
  std::replace(s.begin(), s.end(), '"', '\'');
  return s;
}

CampaignCell RunCell(Engine engine, uint64_t k, const Trace& trace,
                     const CampaignOptions& options) {
  StorageSystem sys(options.config);
  auto mgr = MakeManager(&sys, engine, options);
  FaultSpec fault;
  fault.kind = FaultKind::kOneShot;
  fault.after_calls = k;
  fault.message = "campaign fault k=" + std::to_string(k);
  sys.disk()->ArmFault(fault);

  ReplayOutcome replay = Replay(mgr.get(), trace);
  sys.disk()->ClearFaults();

  CampaignCell cell;
  cell.engine = engine;
  cell.fail_after = k;
  cell.failed_op = replay.failed_op;
  cell.op_kind = replay.op_kind;

  std::vector<std::pair<ObjectId, LargeObjectManager*>> objects;
  if (replay.created) objects.emplace_back(replay.id, mgr.get());
  auto fsck = FsckObjects(&sys, objects);
  if (!fsck.ok()) {
    // The checker itself could not complete: treat as corruption.
    cell.outcome = CellOutcome::kCorrupt;
    cell.detail = Sanitize("fsck aborted: " + fsck.status().ToString());
    return cell;
  }
  if (fsck->HasCorruption()) {
    cell.outcome = CellOutcome::kCorrupt;
    cell.detail = Sanitize(fsck->issues.front().ToString());
  } else if (fsck->HasLeaks()) {
    cell.outcome = CellOutcome::kLeak;
    cell.detail = Sanitize(fsck->issues.front().ToString());
  } else if (replay.failed) {
    cell.outcome = CellOutcome::kCleanFail;
    cell.detail = Sanitize(replay.error);
  } else {
    cell.outcome = CellOutcome::kCleanPass;
    // Move-assigned: GCC 12 at -O3 reports a false -Wrestrict overlap on
    // the inlined operator=(const char*) here.
    cell.detail = std::string("-");
  }
  return cell;
}

}  // namespace

const char* CellOutcomeName(CellOutcome outcome) {
  switch (outcome) {
    case CellOutcome::kCleanPass:
      return "clean-pass";
    case CellOutcome::kCleanFail:
      return "clean-fail";
    case CellOutcome::kLeak:
      return "leak";
    case CellOutcome::kCorrupt:
      return "corrupt";
  }
  return "unknown";
}

uint64_t CampaignResult::CountOutcome(CellOutcome outcome) const {
  return static_cast<uint64_t>(
      std::count_if(cells.begin(), cells.end(), [&](const CampaignCell& c) {
        return c.outcome == outcome;
      }));
}

std::string CampaignResult::ToCsv() const {
  std::string out = "engine,fail_after,failed_op,op_kind,outcome,detail\n";
  char row[512];
  for (const CampaignCell& c : cells) {
    std::snprintf(row, sizeof(row), "%s,%" PRIu64 ",%s,%s,%s,%s\n",
                  EngineName(c.engine), c.fail_after, c.failed_op.c_str(),
                  c.op_kind.c_str(), CellOutcomeName(c.outcome),
                  c.detail.c_str());
    out += row;
  }
  return out;
}

std::string CampaignResult::ToJson() const {
  std::string out = "{\n  \"baselines\": {";
  for (size_t i = 0; i < baselines.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %" PRIu64,
                  i == 0 ? "" : ", ", EngineName(baselines[i].first),
                  baselines[i].second);
    out += buf;
  }
  out += "},\n  \"totals\": {";
  const CellOutcome kinds[] = {CellOutcome::kCleanPass,
                               CellOutcome::kCleanFail, CellOutcome::kLeak,
                               CellOutcome::kCorrupt};
  for (size_t i = 0; i < 4; ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %" PRIu64,
                  i == 0 ? "" : ", ", CellOutcomeName(kinds[i]),
                  CountOutcome(kinds[i]));
    out += buf;
  }
  out += "},\n  \"cells\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const CampaignCell& c = cells[i];
    char buf[640];
    std::snprintf(buf, sizeof(buf),
                  "    {\"engine\": \"%s\", \"fail_after\": %" PRIu64
                  ", \"failed_op\": \"%s\", \"op_kind\": \"%s\", "
                  "\"outcome\": \"%s\", \"detail\": \"%s\"}%s\n",
                  EngineName(c.engine), c.fail_after, c.failed_op.c_str(),
                  c.op_kind.c_str(), CellOutcomeName(c.outcome),
                  c.detail.c_str(), i + 1 < cells.size() ? "," : "");
    out += buf;
  }
  out += "  ]\n}\n";
  return out;
}

StatusOr<CampaignResult> RunCampaign(const Trace& trace,
                                     const CampaignOptions& options) {
  if (options.stride == 0) {
    return Status::InvalidArgument("stride must be >= 1");
  }
  const Engine engines[] = {Engine::kEsm, Engine::kStarburst, Engine::kEos};
  CampaignResult result;

  // Fault-free baselines: N attributed foreground calls per engine.
  std::vector<std::pair<Engine, uint64_t>> points;
  for (Engine engine : engines) {
    StorageSystem sys(options.config);
    auto mgr = MakeManager(&sys, engine, options);
    // Count calls from the point RunCell arms its fault (right after
    // construction), so every k in [0, n) is a reachable fault position.
    const uint64_t start = sys.disk()->foreground_calls();
    ReplayOutcome base = Replay(mgr.get(), trace);
    if (base.failed) {
      return Status::Internal("fault-free baseline failed (" +
                              std::string(EngineName(engine)) +
                              "): " + base.error);
    }
    const uint64_t n = sys.disk()->foreground_calls() - start;
    result.baselines.emplace_back(engine, n);
    for (uint64_t k = 0; k < n; k += options.stride) {
      points.emplace_back(engine, k);
    }
  }

  // Fan the cells out; Map returns values in submission order, which is
  // already (engine, fail_after)-sorted, so output is deterministic for
  // any worker count.
  ThreadPool pool(options.jobs == 0 ? 1 : options.jobs);
  ParallelRunner runner(&pool);
  // Opt-in progress meter: the one piece of state the cell workers share.
  // Guarded by an annotated Mutex at LockRank::kCampaign; cells hold no
  // other lock when they finish, so the rank never composes with the
  // storage-layer ranks inside RunCell (each cell owns a private system).
  struct Progress {
    Mutex mu{LockRank::kCampaign};
    size_t done LOB_GUARDED_BY(mu) = 0;
  } progress;
  const size_t total = points.size();
  auto mapped = runner.Map<CampaignCell>(
      points.size(), [&](size_t i, JobOutput* /*out*/) {
        CampaignCell cell =
            RunCell(points[i].first, points[i].second, trace, options);
        if (options.progress) {
          MutexLock lock(&progress.mu);
          ++progress.done;
          std::fprintf(stderr, "campaign: %zu/%zu cells\n", progress.done,
                       total);
        }
        return cell;
      });
  result.cells = std::move(mapped.values);
  return result;
}

Trace DemoCampaignTrace() {
  // Build ~56K in doubling-friendly appends, then exercise every
  // structural path: interior insert (splits), delete (merges/shuffles),
  // replace (shadowing) and a read.
  Trace t;
  auto add = [&](TraceOp::Kind kind, uint64_t offset, uint64_t size,
                 uint64_t seed) {
    t.ops.push_back({kind, offset, size, seed});
  };
  add(TraceOp::Kind::kAppend, 0, 12000, 101);
  add(TraceOp::Kind::kAppend, 0, 20000, 102);
  add(TraceOp::Kind::kAppend, 0, 24000, 103);
  add(TraceOp::Kind::kInsert, 7000, 9000, 104);
  add(TraceOp::Kind::kRead, 2000, 30000, 0);
  add(TraceOp::Kind::kDelete, 21000, 11000, 0);
  add(TraceOp::Kind::kReplace, 15000, 6000, 105);
  add(TraceOp::Kind::kInsert, 30001, 500, 106);
  add(TraceOp::Kind::kDelete, 100, 3000, 0);
  add(TraceOp::Kind::kAppend, 0, 8000, 107);
  return t;
}

}  // namespace lob
