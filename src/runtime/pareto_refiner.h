// Background Pareto-front refiner (DESIGN.md §5.15): the RL policy demoted
// to an offline worker that keeps the StrategyCache's front tier covering
// the buckets serving actually queries.
//
//   * The serving path never blocks on it: front-tier misses enqueue their
//     bucket key (bounded, deduplicated) via request(); decisions fall
//     through to the policy path meanwhile.
//   * Each cycle drains the pending buckets, rebuilds them with the
//     FrontBuilder over the serving env, policy and replay store (all
//     read-only: evaluation is pure and the replay tree's sharing memo
//     guards itself), copies the incumbent index's untouched buckets, and
//     publishes the result as an MCKF checked frame through
//     StrategyCache::offer_front_frame — the identical guarded-snapshot
//     path policy snapshots take, so a corrupt frame can never install.
//   * The first cycle with an empty cache seed-builds the full index from
//     the replay tree (FrontBuilder::build_all).
//
// Threading: request() is safe from any serving worker; run_cycle() runs on
// the background thread (or synchronously in tests) and touches only
// refiner-private state, the read-only inputs and the cache's thread-safe
// front API.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/pareto_front.h"
#include "core/strategy_cache.h"
#include "rl/policy.h"
#include "rl/replay_tree.h"

namespace murmur::runtime {

struct FrontRefinerOptions {
  core::FrontBuilderOptions builder{};
  /// Background-thread sleep between cycle attempts.
  double cycle_interval_ms = 25.0;
  /// Bounded pending-bucket queue; further requests drop (the miss keeps
  /// re-requesting, so a dropped bucket is only deferred, never lost).
  std::size_t max_pending = 64;
};

class FrontRefiner {
 public:
  struct Stats {
    std::uint64_t cycles = 0;
    std::uint64_t buckets_built = 0;
    std::uint64_t published = 0;
    std::uint64_t rejected = 0;
    std::uint64_t requests = 0;
    std::uint64_t requests_dropped = 0;
  };

  /// `env`, `policy`, `replay` (may be null) and `cache`, the publication
  /// target, are held by reference and must outlive the refiner.
  FrontRefiner(const core::MurmurationEnv& env,
               const rl::PolicyNetwork& policy,
               const rl::BucketedReplayTree* replay,
               core::StrategyCache& cache, FrontRefinerOptions opts = {});
  ~FrontRefiner();

  FrontRefiner(const FrontRefiner&) = delete;
  FrontRefiner& operator=(const FrontRefiner&) = delete;

  /// Serving-path miss feed: enqueue the constraint's bucket for the next
  /// cycle. Thread-safe; O(pending) dedup scan, bounded by max_pending.
  void request(const rl::ConstraintPoint& c);

  /// One refinement cycle. Seed-builds the whole index when the cache has
  /// none; otherwise rebuilds the pending buckets on a copy of the
  /// incumbent. Returns true if anything was built and offered. Tests
  /// drive this synchronously instead of start().
  bool run_cycle();

  void start();  // spawn the background thread (idempotent)
  void stop();   // join it (idempotent; also called by the destructor)

  Stats stats() const noexcept;
  const core::FrontBuilder& builder() const noexcept { return builder_; }

 private:
  void refiner_main();

  core::FrontBuilder builder_;
  core::StrategyCache& cache_;
  FrontRefinerOptions opts_;
  const rl::PolicyNetwork& policy_;
  const rl::BucketedReplayTree* replay_;
  /// Keyer for request(): quantizes constraints without touching any index.
  core::ParetoFrontIndex keyer_;

  mutable std::mutex pending_mutex_;
  std::vector<core::FrontKey> pending_;

  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> cycles_{0}, buckets_built_{0}, published_{0},
      rejected_{0}, requests_{0}, requests_dropped_{0};
};

}  // namespace murmur::runtime
