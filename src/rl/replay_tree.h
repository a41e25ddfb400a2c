// Reward-filtered bucketed replay buffer with tree-structured sharing
// (paper §4.4, Figures 8-9).
//
// The constraint space (SLO x per-device bandwidth x per-device delay) is
// discretized into a grid of buckets; each bucket keeps only its top-n
// reward trajectories. Coordinates are tightness-oriented (0 = tightest),
// so the paper's key observation — a strategy found under constraints X is
// a valid lower bound for any elementwise-more-relaxed constraints Y — is
// the dominance test X <= Y.
//
//   * Data sharing (Fig 9a): a lookup for bucket Y falls back to the best
//     entry among buckets that dominate Y (are tighter in every dim).
//   * Data pruning (Fig 9b): an entry is dominated (and removed) when a
//     tighter-or-equal bucket holds a strictly better reward.
//
// The bucket "tree" of the paper is the ancestry induced by relaxing one
// dimension at a time; we store buckets sparsely (the full grid is 10^9 in
// the swarm scenario) and resolve ancestry with dominance scans memoized
// per query coordinate.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "rl/env.h"
#include "rl/trajectory.h"

namespace murmur::rl {

/// Elementwise tightness dominance over grid-quantized constraint
/// coordinates (0 = tightest): `a` dominates `b` when `a` is
/// tighter-or-equal in EVERY dimension — the Fig 7 relation shared by the
/// replay tree's bucket ancestry and the Pareto-front store's
/// condition-bucket sharing (core/pareto_front.h). Spans must be the same
/// length; a point trivially dominates itself.
bool coords_dominate(std::span<const std::int8_t> a,
                     std::span<const std::int8_t> b) noexcept;

struct BucketKey {
  std::vector<std::int8_t> coords;
  bool operator==(const BucketKey&) const = default;
};

struct BucketKeyHash {
  std::size_t operator()(const BucketKey& k) const noexcept {
    std::size_t h = 0x9E3779B97f4A7C15ULL;
    for (auto c : k.coords)
      h ^= static_cast<std::size_t>(c + 1) + 0x9E3779B9u + (h << 6) + (h >> 2);
    return h;
  }
};

struct ReplayEntry {
  std::vector<int> actions;
  Outcome outcome;
  double reward = 0.0;
  /// Tightest constraint this trajectory satisfies (its home bucket).
  ConstraintPoint tight;
};

class BucketedReplayTree {
 public:
  BucketedReplayTree(int dims, int grid_points, std::size_t queue_size = 4);

  /// Bucket coordinates of a constraint point (floor onto the grid) —
  /// used for lookups.
  BucketKey key_of(const ConstraintPoint& c) const;

  /// Filing key for an entry's tight point: dimension 0 (the goal) holds a
  /// continuous relabelled value, so it is rounded *up* — an entry must
  /// never claim a goal bucket tighter than what it actually achieved.
  /// Task dimensions are grid-valued and keep floor semantics.
  BucketKey filing_key_of(const ConstraintPoint& c) const;

  /// Insert a relabelled trajectory into its home bucket; kept only if it
  /// makes the bucket's top-n by reward. Returns true if retained.
  bool insert(ReplayEntry entry);

  /// Best usable entry for constraint `c`: the home bucket's best if
  /// non-empty, else (sharing) the best entry among dominating buckets.
  /// Null if nothing usable exists yet.
  const ReplayEntry* best_for(const ConstraintPoint& c) const;

  /// Random usable entry for `c` (uniform over the resolved bucket's
  /// queue). Null if nothing usable.
  const ReplayEntry* sample_for(const ConstraintPoint& c, Rng& rng) const;

  /// Uniform random entry over the whole buffer (mutation source).
  const ReplayEntry* random_entry(Rng& rng) const;

  /// Dominance sweep (Fig 9b): drop every entry whose reward is <= the
  /// best reward available from a strictly dominating bucket. Returns the
  /// number of entries removed.
  std::size_t prune();

  std::size_t num_buckets() const noexcept { return buckets_.size(); }
  std::size_t num_entries() const noexcept { return entries_; }
  int dims() const noexcept { return dims_; }

  /// All stored entries (checkpointing / inspection).
  std::vector<const ReplayEntry*> all_entries() const;

  /// Deep copy rebuilt entry by entry (the sharing memo holds raw bucket
  /// pointers and a lock, so there is no copy constructor). `queue_size`
  /// overrides the clone's per-bucket depth; 0 keeps this tree's. Used by
  /// the online adapter's trainer-private stores.
  std::unique_ptr<BucketedReplayTree> clone(std::size_t queue_size = 0) const;

 private:
  struct Bucket {
    std::vector<ReplayEntry> queue;  // sorted by reward, best first
  };
  /// True if a dominates b (a tighter-or-equal in every dim).
  static bool dominates(const BucketKey& a, const BucketKey& b) noexcept;
  const Bucket* resolve(const BucketKey& k) const;

  int dims_;
  int grid_;
  std::size_t queue_size_;
  std::unordered_map<BucketKey, Bucket, BucketKeyHash> buckets_;
  std::size_t entries_ = 0;
  std::uint64_t version_ = 0;  // bumped by every mutation
  // Sharing-lookup memo, invalidated by any mutation. Const readers fill
  // it, and serving threads share one tree, so it has its own lock.
  mutable std::mutex memo_mutex_;
  mutable std::unordered_map<BucketKey, const Bucket*, BucketKeyHash> memo_;
  mutable std::uint64_t memo_version_ = ~0ull;
};

}  // namespace murmur::rl
