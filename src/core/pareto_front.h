// Pareto-front strategy precomputation (planning fast path, DESIGN.md §5.15).
//
// Following the Pareto-front analysis of DNN partitioning (PAPERS.md) and
// Neurosurgeon's offline-profile/online-lookup split, the strategy space is
// precomputed per *network-condition bucket* into a front of non-dominated
// (latency, accuracy) points: online strategy selection then reduces to a
// binary search on the front instead of an RL rollout + store sweep.
//
//   * A bucket key is the grid quantization of the constraint's task
//     dimensions only (bandwidth/delay per remote device) — the SLO axis is
//     answered by the front query itself, so one front serves every SLO
//     value under those conditions.
//   * Each front is evaluated at its bucket's TIGHT corner conditions
//     (coordinate = b/grid, 0 = tightest). Latency is monotone under
//     condition relaxation (the pinned `LatencyMonotoneUnderCondition-
//     Relaxation` property), so any query landing in the bucket observes
//     latency <= the stored value: a front answer that satisfies the SLO at
//     the corner satisfies it everywhere in the bucket.
//   * Uncovered buckets fall back to the nearest strictly *dominating*
//     (elementwise tighter) bucket — the replay tree's Fig 7 sharing
//     relation, reused here via `rl::coords_dominate` — which is
//     conservative by the same monotonicity.
//
// The index is immutable once built: readers share it by `shared_ptr` and
// the background refiner publishes whole replacements through the same
// checked-frame guard as policy snapshots (StrategyCache::offer_front_frame).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/decision.h"
#include "core/murmuration_env.h"
#include "rl/replay_tree.h"

namespace murmur::core {

/// One non-dominated strategy on a bucket's front.
struct ParetoPoint {
  /// Canonical (schema-valid) action sequence — the serialized identity.
  std::vector<int> actions;
  /// Decoded once at build time so query hits pay zero decode cost.
  MurmurationEnv::Strategy strategy;
  /// Evaluated at the owning bucket's tight-corner conditions.
  rl::Outcome outcome;
  /// Participant devices as a bitmask (bit d = device d) for
  /// LatencyCalibration::factor_mask at query time and drift invalidation.
  std::uint64_t device_mask = 0;
};

/// A latency-ascending (equivalently accuracy-ascending) set of mutually
/// non-dominated points. `p` dominates `q` iff p.latency <= q.latency and
/// p.accuracy >= q.accuracy with strict inequality somewhere; exact
/// (latency, accuracy) ties are canonicalized to the lexicographically
/// smallest action sequence so construction is insertion-order independent.
class ParetoFront {
 public:
  /// Insert maintaining the invariants: rejected if dominated by (or an
  /// action-wise worse tie of) a member; evicts members it dominates.
  /// Returns true if the point is on the front afterwards.
  bool insert(ParetoPoint p);

  /// Max-accuracy point with latency <= `budget_ms` (the latency-SLO query:
  /// reward Eq. 2 is alpha*acc/100 - beta once satisfied, so max accuracy
  /// maximizes reward). Binary search; with an *active* calibration the
  /// per-point device-mask factor breaks latency monotonicity across the
  /// front, so the calibrated variant scans. Null if nothing qualifies.
  const ParetoPoint* best_within_latency(
      double budget_ms, const LatencyCalibration* calib = nullptr) const;

  /// Min-latency point with accuracy >= `floor` (the accuracy-SLO query).
  const ParetoPoint* cheapest_with_accuracy(
      double floor, const LatencyCalibration* calib = nullptr) const;

  /// True iff strictly ascending in both latency and accuracy — which is
  /// exactly "no member dominates another".
  bool invariants_ok() const noexcept;

  const std::vector<ParetoPoint>& points() const noexcept { return points_; }
  std::size_t size() const noexcept { return points_.size(); }
  bool empty() const noexcept { return points_.empty(); }

 private:
  std::vector<ParetoPoint> points_;  // ascending latency AND accuracy
};

/// Bucket key: grid quantization of the constraint's task dims (coords 1..).
/// Reuses the replay tree's key type so the dominance relation and hash are
/// shared with the SUPREME bucket tree.
using FrontKey = rl::BucketKey;
using FrontKeyHash = rl::BucketKeyHash;

/// Immutable per-bucket front store. Built offline (FrontBuilder), replaced
/// wholesale by the refiner; never mutated while shared.
class ParetoFrontIndex {
 public:
  /// Checked-frame format version for serialize()/deserialize() payloads
  /// (wrapped in the MCKF container by StrategyCache::offer_front_frame).
  static constexpr std::uint32_t kFrameVersion = 1;

  ParetoFrontIndex(int task_dims, int grid_points)
      : task_dims_(task_dims), grid_(grid_points) {}

  /// Bucket key of a constraint point: floor quantization of coords[1..],
  /// same semantics as the replay tree's task dimensions.
  FrontKey key_for(const rl::ConstraintPoint& c) const;

  /// Exact bucket lookup; null if unbuilt.
  const ParetoFront* find(const FrontKey& k) const;

  /// Bucket lookup with dominating-bucket fallback: if `k` is unbuilt (or
  /// refused by `admit`, e.g. drift-tombstoned), return the nearest (L1)
  /// strictly dominating bucket's front — conservative, since a dominating
  /// bucket's conditions are tighter-or-equal in every dimension. `admit`
  /// null means admit everything. Null if nothing usable.
  const ParetoFront* resolve(
      const FrontKey& k,
      const std::function<bool(const FrontKey&)>& admit = nullptr) const;

  /// Builder-side access: the (possibly empty) front owned for `k`.
  ParetoFront& front_for(const FrontKey& k) { return fronts_[k]; }

  /// Deterministic payload bytes (buckets sorted lexicographically) — same
  /// builder inputs yield identical frames, the seeded-determinism test.
  std::vector<std::uint8_t> serialize() const;

  /// Validating deserializer: schema-walks every action sequence against
  /// `env` (head option bounds, completeness), re-decodes strategies and
  /// participant masks, checks outcome sanity and per-front invariants.
  /// Null on ANY structural violation — a corrupt frame never loads.
  static std::unique_ptr<ParetoFrontIndex> deserialize(
      std::span<const std::uint8_t> payload, const MurmurationEnv& env);

  int task_dims() const noexcept { return task_dims_; }
  int grid_points() const noexcept { return grid_; }
  std::size_t num_buckets() const noexcept { return fronts_.size(); }
  std::size_t num_points() const noexcept;
  const std::unordered_map<FrontKey, ParetoFront, FrontKeyHash>& fronts()
      const noexcept {
    return fronts_;
  }

 private:
  int task_dims_;
  int grid_;
  std::unordered_map<FrontKey, ParetoFront, FrontKeyHash> fronts_;
};

struct FrontBuilderOptions {
  /// Random schema-valid completions enumerated per bucket.
  int random_candidates = 64;
  /// Rounds of heuristic mutation applied to the current front members.
  int mutation_rounds = 2;
  /// Greedy policy rollouts per bucket (across a spread of SLO coords), 0
  /// to build without a policy.
  int policy_rollouts = 8;
  std::uint64_t seed = 1234;
};

/// Offline front enumeration. Holds the env by reference (it must outlive
/// the builder); evaluation is pure, so building shares the serving env.
/// Per-bucket candidate streams are seeded as seed ^ hash(key): building a
/// bucket is deterministic regardless of build order or bucket set.
class FrontBuilder {
 public:
  FrontBuilder(const MurmurationEnv& env, FrontBuilderOptions opts = {});

  /// Enumerate candidates for one bucket into `idx`: replay-store sweep,
  /// greedy policy rollouts, random completions, then mutation rounds on
  /// the surviving front. `replay` / `policy` may be null.
  void build_bucket(ParetoFrontIndex& idx, const FrontKey& key,
                    const rl::BucketedReplayTree* replay,
                    const rl::PolicyNetwork* policy) const;

  /// Build fronts for every bucket observed in the replay tree (the
  /// conditions training actually visited), plus the fully-relaxed bucket
  /// as a universal fallback.
  std::shared_ptr<ParetoFrontIndex> build_all(
      const rl::BucketedReplayTree* replay,
      const rl::PolicyNetwork* policy) const;

  /// The tight-corner constraint the bucket's outcomes are evaluated at:
  /// task coords = b/grid (bucket lower edge), SLO coord = `slo_coord`.
  rl::ConstraintPoint corner_constraint(const FrontKey& key,
                                        double slo_coord) const;

 private:
  void offer(ParetoFrontIndex& idx, const FrontKey& key,
             const rl::ConstraintPoint& corner,
             std::span<const int> actions) const;

  const MurmurationEnv& env_;
  FrontBuilderOptions opts_;
};

}  // namespace murmur::core
