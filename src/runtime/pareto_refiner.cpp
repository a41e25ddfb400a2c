#include "runtime/pareto_refiner.h"

#include <algorithm>
#include <chrono>

#include "common/serialize.h"
#include "obs/metrics.h"

namespace murmur::runtime {

FrontRefiner::FrontRefiner(const core::MurmurationEnv& env,
                           const rl::PolicyNetwork& policy,
                           const rl::BucketedReplayTree* replay,
                           core::StrategyCache& cache,
                           FrontRefinerOptions opts)
    : builder_(env, opts.builder),
      cache_(cache),
      opts_(opts),
      policy_(policy),
      replay_(replay),
      keyer_(env.constraint_dims() - 1, env.grid_points()) {}

FrontRefiner::~FrontRefiner() { stop(); }

void FrontRefiner::request(const rl::ConstraintPoint& c) {
  const core::FrontKey key = keyer_.key_for(c);
  std::lock_guard lock(pending_mutex_);
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (std::find(pending_.begin(), pending_.end(), key) != pending_.end())
    return;
  if (pending_.size() >= opts_.max_pending) {
    requests_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  pending_.push_back(key);
}

bool FrontRefiner::run_cycle() {
  cycles_.fetch_add(1, std::memory_order_relaxed);
  std::vector<core::FrontKey> todo;
  {
    std::lock_guard lock(pending_mutex_);
    todo.swap(pending_);
  }

  const std::shared_ptr<const core::ParetoFrontIndex> incumbent =
      cache_.front_index();
  std::shared_ptr<core::ParetoFrontIndex> next;
  if (!incumbent) {
    // Seed build: the full replay-derived index, plus whatever buckets
    // serving already asked for.
    next = builder_.build_all(replay_, &policy_);
    for (const core::FrontKey& k : todo)
      builder_.build_bucket(*next, k, replay_, &policy_);
    buckets_built_.fetch_add(next->num_buckets(), std::memory_order_relaxed);
  } else {
    if (todo.empty()) return false;
    // Copy-on-write: untouched buckets carry over from the incumbent (the
    // incumbent itself is immutable — readers keep using it until the
    // guarded install swaps the pointer).
    next = std::make_shared<core::ParetoFrontIndex>(incumbent->task_dims(),
                                                    incumbent->grid_points());
    for (const auto& [key, front] : incumbent->fronts())
      next->front_for(key) = front;
    for (const core::FrontKey& k : todo)
      builder_.build_bucket(*next, k, replay_, &policy_);
    buckets_built_.fetch_add(todo.size(), std::memory_order_relaxed);
  }

  // Publish through the same checked-frame guard policy snapshots use:
  // serialize, frame, and let the cache re-validate everything before the
  // swap. A refiner bug that emits a malformed index rejects here instead
  // of poisoning the serving path.
  const std::vector<std::uint8_t> payload = next->serialize();
  const std::vector<std::uint8_t> frame =
      encode_checked(payload, core::ParetoFrontIndex::kFrameVersion);
  const core::FrontVerdict verdict = cache_.offer_front_frame(frame);
  if (verdict == core::FrontVerdict::kInstalled) {
    published_.fetch_add(1, std::memory_order_relaxed);
    obs::add("front.refiner.published");
    return true;
  }
  rejected_.fetch_add(1, std::memory_order_relaxed);
  obs::add("front.refiner.rejected");
  return false;
}

void FrontRefiner::start() {
  if (running_.exchange(true)) return;
  thread_ = std::thread([this] { refiner_main(); });
}

void FrontRefiner::stop() {
  if (!running_.exchange(false)) return;
  if (thread_.joinable()) thread_.join();
}

void FrontRefiner::refiner_main() {
  while (running_.load(std::memory_order_relaxed)) {
    run_cycle();
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(opts_.cycle_interval_ms));
  }
}

FrontRefiner::Stats FrontRefiner::stats() const noexcept {
  Stats s;
  s.cycles = cycles_.load(std::memory_order_relaxed);
  s.buckets_built = buckets_built_.load(std::memory_order_relaxed);
  s.published = published_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.requests_dropped = requests_dropped_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace murmur::runtime
