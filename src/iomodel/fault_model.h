// Fault model for SimDisk: declarative descriptions of injected I/O
// failures.
//
// The simplest fault is a single global countdown — fail every call after
// k successes, a kSticky spec with `after_calls = k`. That is enough to
// prove "errors propagate as Status", but not to *search* the
// failure space: a campaign needs one-shot faults (fail exactly the k-th
// call, then heal), transient faults (fail a few calls, then heal),
// faults scoped to one logical operation (reusing the per-op attribution
// labels of OpScope) or to one page range, and a seedable plan so a whole
// schedule of faults replays deterministically.
//
// A FaultSpec matches *attributed foreground* I/O calls only: calls made
// while attribution is suspended (StorageSystem::UnmeteredSection — audit
// walks, fsck, timeline sampling) neither fire faults nor advance any
// fault countdown. See sim_disk.h for the full countdown contract.

#ifndef LOB_IOMODEL_FAULT_MODEL_H_
#define LOB_IOMODEL_FAULT_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace lob {

/// How long an armed fault keeps firing once its countdown expires.
enum class FaultKind : uint8_t {
  kOneShot,    ///< fails exactly one matching call, then is exhausted
  kSticky,     ///< fails every matching call until ClearFaults()
  kTransient,  ///< fails `fail_calls` matching calls, then auto-clears
};

/// One injected fault. Default-constructed, a spec matches every metered
/// foreground call and fails the very first one (after_calls == 0).
struct FaultSpec {
  FaultKind kind = FaultKind::kOneShot;

  /// Number of *matching* foreground calls that must succeed before the
  /// fault arms. 0 means the first matching call fails.
  uint64_t after_calls = 0;

  /// For kTransient: how many matching calls fail before the fault
  /// auto-clears. Ignored for kOneShot (always 1) and kSticky.
  uint32_t fail_calls = 1;

  /// Which directions the fault applies to.
  bool match_reads = true;
  bool match_writes = true;

  /// Operation-label filter: the fault only considers calls whose current
  /// OpScope label starts with this prefix. Empty matches everything,
  /// including unlabeled calls (a null current_op is treated as "").
  std::string op_prefix;

  /// Optional page-range filter: when true, the fault only considers
  /// calls that touch [first_page, last_page] of `area` (inclusive; a
  /// call matches if its page run intersects the range).
  bool match_range = false;
  uint32_t area = 0;
  uint32_t first_page = 0;
  uint32_t last_page = 0;

  /// Message carried by the injected Status::Internal.
  std::string message = "injected I/O failure";

  /// Human-readable one-line description (for logs and campaign output).
  std::string ToString() const;
};

/// A deterministic, seedable schedule of faults. Arm with
/// SimDisk::ArmPlan; the same plan always produces the same failures for
/// the same workload.
struct FaultPlan {
  uint64_t seed = 0;
  std::vector<FaultSpec> faults;

  /// Builds a plan of `count` one-shot global faults whose countdowns are
  /// drawn uniformly from [0, max_after_calls] using a SplitMix64 stream
  /// seeded with `seed`. Identical (seed, count, max_after_calls) always
  /// yields an identical plan.
  static FaultPlan RandomOneShots(uint64_t seed, uint32_t count,
                                  uint64_t max_after_calls);
};

}  // namespace lob

#endif  // LOB_IOMODEL_FAULT_MODEL_H_
