#include "rl/replay_tree.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace murmur::rl {

bool coords_dominate(std::span<const std::int8_t> a,
                     std::span<const std::int8_t> b) noexcept {
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] > b[i]) return false;
  return true;
}

BucketedReplayTree::BucketedReplayTree(int dims, int grid_points,
                                       std::size_t queue_size)
    : dims_(dims), grid_(grid_points), queue_size_(queue_size) {
  assert(dims >= 1 && grid_points >= 2);
}

BucketKey BucketedReplayTree::key_of(const ConstraintPoint& c) const {
  BucketKey k;
  k.coords.resize(static_cast<std::size_t>(dims_));
  for (int d = 0; d < dims_; ++d) {
    const double v = std::clamp(c.coords[static_cast<std::size_t>(d)], 0.0, 1.0);
    k.coords[static_cast<std::size_t>(d)] = static_cast<std::int8_t>(
        std::min<int>(grid_ - 1, static_cast<int>(v * grid_)));
  }
  return k;
}

BucketKey BucketedReplayTree::filing_key_of(const ConstraintPoint& c) const {
  BucketKey k = key_of(c);
  const double v = std::clamp(c.coords[0], 0.0, 1.0);
  k.coords[0] = static_cast<std::int8_t>(
      std::min<int>(grid_ - 1, static_cast<int>(std::ceil(v * grid_ - 1e-9))));
  return k;
}

bool BucketedReplayTree::dominates(const BucketKey& a,
                                   const BucketKey& b) noexcept {
  return coords_dominate(a.coords, b.coords);
}

bool BucketedReplayTree::insert(ReplayEntry entry) {
  Bucket& bucket = buckets_[filing_key_of(entry.tight)];
  auto& q = bucket.queue;
  // Reward-filtered top-n insertion (Fig 8).
  const auto pos = std::find_if(q.begin(), q.end(), [&](const ReplayEntry& e) {
    return entry.reward > e.reward;
  });
  if (pos == q.end() && q.size() >= queue_size_) return false;
  q.insert(pos, std::move(entry));
  ++entries_;
  if (q.size() > queue_size_) {
    q.pop_back();
    --entries_;
  }
  ++version_;
  return true;
}

const BucketedReplayTree::Bucket* BucketedReplayTree::resolve(
    const BucketKey& k) const {
  {
    std::lock_guard lock(memo_mutex_);
    if (memo_version_ != version_) {
      memo_.clear();
      memo_version_ = version_;
    }
    if (const auto it = memo_.find(k); it != memo_.end()) return it->second;
  }

  // Buckets are immutable while readers share the tree, so the sharing
  // scan runs outside the lock; a racing reader computes the same answer.
  const Bucket* result = nullptr;
  if (const auto it = buckets_.find(k); it != buckets_.end() &&
                                        !it->second.queue.empty()) {
    result = &it->second;
  } else {
    // Sharing: best-reward entry among dominating (tighter) buckets,
    // breaking ties toward the nearest ancestor (smallest L1 distance).
    double best_reward = -1.0;
    int best_dist = 0;
    for (const auto& [key, bucket] : buckets_) {
      if (bucket.queue.empty() || !dominates(key, k)) continue;
      int dist = 0;
      for (std::size_t i = 0; i < key.coords.size(); ++i)
        dist += static_cast<int>(k.coords[i]) - key.coords[i];
      const double r = bucket.queue.front().reward;
      if (result == nullptr || r > best_reward ||
          (r == best_reward && dist < best_dist)) {
        result = &bucket;
        best_reward = r;
        best_dist = dist;
      }
    }
  }
  std::lock_guard lock(memo_mutex_);
  memo_.emplace(k, result);
  return result;
}

const ReplayEntry* BucketedReplayTree::best_for(const ConstraintPoint& c) const {
  const Bucket* b = resolve(key_of(c));
  return b && !b->queue.empty() ? &b->queue.front() : nullptr;
}

const ReplayEntry* BucketedReplayTree::sample_for(const ConstraintPoint& c,
                                                  Rng& rng) const {
  const Bucket* b = resolve(key_of(c));
  if (!b || b->queue.empty()) return nullptr;
  return &b->queue[rng.uniform_index(b->queue.size())];
}

const ReplayEntry* BucketedReplayTree::random_entry(Rng& rng) const {
  if (entries_ == 0) return nullptr;
  std::uint64_t idx = rng.uniform_index(entries_);
  for (const auto& [key, bucket] : buckets_) {
    if (idx < bucket.queue.size())
      return &bucket.queue[static_cast<std::size_t>(idx)];
    idx -= bucket.queue.size();
  }
  return nullptr;
}

std::unique_ptr<BucketedReplayTree> BucketedReplayTree::clone(
    std::size_t queue_size) const {
  auto out = std::make_unique<BucketedReplayTree>(
      dims_, grid_, queue_size ? queue_size : queue_size_);
  for (const ReplayEntry* e : all_entries()) out->insert(*e);
  return out;
}

std::vector<const ReplayEntry*> BucketedReplayTree::all_entries() const {
  std::vector<const ReplayEntry*> out;
  out.reserve(entries_);
  for (const auto& [key, bucket] : buckets_)
    for (const auto& e : bucket.queue) out.push_back(&e);
  return out;
}

std::size_t BucketedReplayTree::prune() {
  std::size_t removed = 0;
  for (auto& [key, bucket] : buckets_) {
    // Best reward reachable from a strictly dominating bucket.
    double ancestor_best = -1.0;
    for (const auto& [other_key, other] : buckets_) {
      if (other.queue.empty() || other_key == key) continue;
      if (!dominates(other_key, key)) continue;
      ancestor_best = std::max(ancestor_best, other.queue.front().reward);
    }
    if (ancestor_best < 0.0) continue;
    auto& q = bucket.queue;
    const auto old = q.size();
    q.erase(std::remove_if(q.begin(), q.end(),
                           [&](const ReplayEntry& e) {
                             return e.reward <= ancestor_best;
                           }),
            q.end());
    removed += old - q.size();
    entries_ -= old - q.size();
  }
  // Drop empty buckets so sharing scans stay fast.
  for (auto it = buckets_.begin(); it != buckets_.end();) {
    it = it->second.queue.empty() ? buckets_.erase(it) : std::next(it);
  }
  if (removed) ++version_;
  return removed;
}

}  // namespace murmur::rl
