#include "core/pareto_front.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/serialize.h"
#include "partition/plan.h"
#include "rl/rollout.h"

namespace murmur::core {

namespace {

double calibrated_latency(const ParetoPoint& p,
                          const LatencyCalibration* calib) noexcept {
  return calib ? p.outcome.latency_ms * calib->factor_mask(p.device_mask)
               : p.outcome.latency_ms;
}

std::uint64_t mask_of(const MurmurationEnv& env,
                      const MurmurationEnv::Strategy& s) {
  const std::vector<bool> used =
      partition::plan_participants(s.plan, s.config, env.num_devices());
  std::uint64_t mask = 0;
  for (std::size_t d = 0; d < used.size() && d < 64; ++d)
    if (used[d]) mask |= 1ull << d;
  return mask;
}

}  // namespace

// ---- ParetoFront -----------------------------------------------------------

bool ParetoFront::insert(ParetoPoint p) {
  for (auto& e : points_) {
    if (e.outcome.latency_ms == p.outcome.latency_ms &&
        e.outcome.accuracy == p.outcome.accuracy) {
      // Exact tie: canonicalize to the lexicographically smallest action
      // sequence so shuffled insertion orders converge on identical fronts.
      if (p.actions < e.actions) {
        e = std::move(p);
        return true;
      }
      return false;
    }
    if (e.outcome.latency_ms <= p.outcome.latency_ms &&
        e.outcome.accuracy >= p.outcome.accuracy)
      return false;  // dominated by a member
  }
  // Evict members the newcomer dominates.
  points_.erase(std::remove_if(points_.begin(), points_.end(),
                               [&](const ParetoPoint& e) {
                                 return p.outcome.latency_ms <=
                                            e.outcome.latency_ms &&
                                        p.outcome.accuracy >=
                                            e.outcome.accuracy;
                               }),
                points_.end());
  const auto pos = std::lower_bound(
      points_.begin(), points_.end(), p,
      [](const ParetoPoint& a, const ParetoPoint& b) {
        return a.outcome.latency_ms < b.outcome.latency_ms;
      });
  points_.insert(pos, std::move(p));
  return true;
}

const ParetoPoint* ParetoFront::best_within_latency(
    double budget_ms, const LatencyCalibration* calib) const {
  if (points_.empty()) return nullptr;
  if (calib != nullptr && calib->active()) {
    // Per-point device-mask factors (which may be < 1) break the front's
    // latency ordering, so the calibrated query is a bounded scan.
    const ParetoPoint* best = nullptr;
    double best_lat = 0.0;
    for (const auto& p : points_) {
      const double lat = calibrated_latency(p, calib);
      if (lat > budget_ms) continue;
      if (best == nullptr || p.outcome.accuracy > best->outcome.accuracy ||
          (p.outcome.accuracy == best->outcome.accuracy && lat < best_lat)) {
        best = &p;
        best_lat = lat;
      }
    }
    return best;
  }
  // Ascending latency: the last member within budget has max accuracy.
  const auto it = std::upper_bound(
      points_.begin(), points_.end(), budget_ms,
      [](double b, const ParetoPoint& p) { return b < p.outcome.latency_ms; });
  return it == points_.begin() ? nullptr : &*std::prev(it);
}

const ParetoPoint* ParetoFront::cheapest_with_accuracy(
    double floor, const LatencyCalibration* calib) const {
  if (points_.empty()) return nullptr;
  if (calib != nullptr && calib->active()) {
    const ParetoPoint* best = nullptr;
    double best_lat = std::numeric_limits<double>::infinity();
    for (const auto& p : points_) {
      if (p.outcome.accuracy < floor) continue;
      const double lat = calibrated_latency(p, calib);
      if (best == nullptr || lat < best_lat ||
          (lat == best_lat && p.outcome.accuracy > best->outcome.accuracy)) {
        best = &p;
        best_lat = lat;
      }
    }
    return best;
  }
  // Ascending accuracy tracks ascending latency: the first member at or
  // above the floor is the cheapest.
  const auto it = std::lower_bound(
      points_.begin(), points_.end(), floor,
      [](const ParetoPoint& p, double f) { return p.outcome.accuracy < f; });
  return it == points_.end() ? nullptr : &*it;
}

bool ParetoFront::invariants_ok() const noexcept {
  for (std::size_t i = 1; i < points_.size(); ++i) {
    if (points_[i - 1].outcome.latency_ms >= points_[i].outcome.latency_ms)
      return false;
    if (points_[i - 1].outcome.accuracy >= points_[i].outcome.accuracy)
      return false;
  }
  return true;
}

// ---- ParetoFrontIndex ------------------------------------------------------

FrontKey ParetoFrontIndex::key_for(const rl::ConstraintPoint& c) const {
  FrontKey k;
  k.coords.resize(static_cast<std::size_t>(task_dims_));
  for (int d = 0; d < task_dims_; ++d) {
    const double v =
        std::clamp(c.coords[static_cast<std::size_t>(d) + 1], 0.0, 1.0);
    k.coords[static_cast<std::size_t>(d)] = static_cast<std::int8_t>(
        std::min<int>(grid_ - 1, static_cast<int>(v * grid_)));
  }
  return k;
}

const ParetoFront* ParetoFrontIndex::find(const FrontKey& k) const {
  const auto it = fronts_.find(k);
  return it != fronts_.end() && !it->second.empty() ? &it->second : nullptr;
}

const ParetoFront* ParetoFrontIndex::resolve(
    const FrontKey& k,
    const std::function<bool(const FrontKey&)>& admit) const {
  if (!admit || admit(k))
    if (const ParetoFront* exact = find(k)) return exact;
  // Sharing fallback (Fig 7 / replay-tree ancestry): nearest strictly
  // dominating (tighter-everywhere) bucket — its corner conditions are
  // harsher, so its latencies upper-bound ours.
  const ParetoFront* best = nullptr;
  int best_dist = std::numeric_limits<int>::max();
  for (const auto& [key, front] : fronts_) {
    if (front.empty() || key == k) continue;
    if (!rl::coords_dominate(key.coords, k.coords)) continue;
    if (admit && !admit(key)) continue;
    int dist = 0;
    for (std::size_t i = 0; i < key.coords.size(); ++i)
      dist += static_cast<int>(k.coords[i]) - key.coords[i];
    if (dist < best_dist) {
      best = &front;
      best_dist = dist;
    }
  }
  return best;
}

std::size_t ParetoFrontIndex::num_points() const noexcept {
  std::size_t n = 0;
  for (const auto& [key, front] : fronts_) n += front.size();
  return n;
}

std::vector<std::uint8_t> ParetoFrontIndex::serialize() const {
  // Buckets in lexicographic coord order: identical content always yields
  // identical bytes (the seeded-determinism contract).
  std::vector<const FrontKey*> keys;
  keys.reserve(fronts_.size());
  for (const auto& [key, front] : fronts_) keys.push_back(&key);
  std::sort(keys.begin(), keys.end(),
            [](const FrontKey* a, const FrontKey* b) {
              return a->coords < b->coords;
            });

  ByteWriter w;
  w.write_u32(static_cast<std::uint32_t>(task_dims_));
  w.write_u32(static_cast<std::uint32_t>(grid_));
  w.write_u64(keys.size());
  for (const FrontKey* key : keys) {
    for (const std::int8_t c : key->coords) w.write_i32(c);
    const ParetoFront& front = fronts_.at(*key);
    w.write_u64(front.size());
    for (const ParetoPoint& p : front.points()) {
      w.write_u32(static_cast<std::uint32_t>(p.actions.size()));
      for (const int a : p.actions) w.write_i32(a);
      w.write_f64(p.outcome.latency_ms);
      w.write_f64(p.outcome.accuracy);
      w.write_u64(p.device_mask);
    }
  }
  return w.take();
}

std::unique_ptr<ParetoFrontIndex> ParetoFrontIndex::deserialize(
    std::span<const std::uint8_t> payload, const MurmurationEnv& env) {
  ByteReader r(payload);
  std::uint32_t task_dims = 0, grid = 0;
  std::uint64_t num_buckets = 0;
  if (!r.read_u32(task_dims) || !r.read_u32(grid) || !r.read_u64(num_buckets))
    return nullptr;
  if (static_cast<int>(task_dims) != env.constraint_dims() - 1) return nullptr;
  if (static_cast<int>(grid) != env.grid_points()) return nullptr;
  if (num_buckets > (1u << 20)) return nullptr;

  const int max_len = env.max_episode_len();
  auto idx = std::make_unique<ParetoFrontIndex>(static_cast<int>(task_dims),
                                                static_cast<int>(grid));
  for (std::uint64_t b = 0; b < num_buckets; ++b) {
    FrontKey key;
    key.coords.resize(task_dims);
    for (std::uint32_t d = 0; d < task_dims; ++d) {
      std::int32_t c = 0;
      if (!r.read_i32(c)) return nullptr;
      if (c < 0 || c >= static_cast<std::int32_t>(grid)) return nullptr;
      key.coords[d] = static_cast<std::int8_t>(c);
    }
    if (idx->fronts_.count(key)) return nullptr;  // duplicate bucket
    std::uint64_t num_points = 0;
    if (!r.read_u64(num_points)) return nullptr;
    if (num_points > (1u << 16)) return nullptr;
    ParetoFront& front = idx->front_for(key);
    for (std::uint64_t i = 0; i < num_points; ++i) {
      std::uint32_t n_actions = 0;
      if (!r.read_u32(n_actions)) return nullptr;
      if (n_actions == 0 || static_cast<int>(n_actions) > max_len)
        return nullptr;
      ParetoPoint p;
      p.actions.resize(n_actions);
      // Schema walk: every action must fit the env's episode grammar — a
      // corrupted sequence is rejected here, never fed to decode().
      for (std::uint32_t a = 0; a < n_actions; ++a) {
        std::int32_t v = 0;
        if (!r.read_i32(v)) return nullptr;
        const std::span<const int> prefix(p.actions.data(), a);
        if (env.done(prefix)) return nullptr;
        const rl::StepSpec spec = env.next_step(prefix);
        if (v < 0 || v >= spec.num_options) return nullptr;
        p.actions[a] = v;
      }
      if (!env.done(p.actions)) return nullptr;
      double latency = 0.0, accuracy = 0.0;
      std::uint64_t mask = 0;
      if (!r.read_f64(latency) || !r.read_f64(accuracy) || !r.read_u64(mask))
        return nullptr;
      if (!std::isfinite(latency) || latency <= 0.0) return nullptr;
      if (!std::isfinite(accuracy) || accuracy < 0.0 || accuracy > 100.0)
        return nullptr;
      p.outcome = rl::Outcome{accuracy, latency};
      p.strategy = env.decode(p.actions);
      p.device_mask = mask_of(env, p.strategy);
      if (p.device_mask != mask) return nullptr;  // mask must match the plan
      // A stored front must already be a front: every point retained, none
      // pruned or reordered by re-insertion.
      if (!front.insert(std::move(p))) return nullptr;
      if (front.size() != i + 1) return nullptr;
    }
  }
  if (r.remaining() != 0) return nullptr;  // trailing junk
  return idx;
}

// ---- FrontBuilder ----------------------------------------------------------

FrontBuilder::FrontBuilder(const MurmurationEnv& env, FrontBuilderOptions opts)
    : env_(env), opts_(opts) {}

rl::ConstraintPoint FrontBuilder::corner_constraint(const FrontKey& key,
                                                    double slo_coord) const {
  rl::ConstraintPoint c;
  c.coords.resize(static_cast<std::size_t>(env_.constraint_dims()));
  c.coords[0] = std::clamp(slo_coord, 0.0, 1.0);
  const double grid = static_cast<double>(env_.grid_points());
  for (std::size_t d = 0; d < key.coords.size(); ++d)
    c.coords[d + 1] = static_cast<double>(key.coords[d]) / grid;
  return c;
}

void FrontBuilder::offer(ParetoFrontIndex& idx, const FrontKey& key,
                         const rl::ConstraintPoint& corner,
                         std::span<const int> actions) const {
  ParetoPoint p;
  p.actions.assign(actions.begin(), actions.end());
  p.outcome = env_.evaluate(corner, p.actions);
  if (!std::isfinite(p.outcome.latency_ms) || p.outcome.latency_ms <= 0.0)
    return;
  p.strategy = env_.decode(p.actions);
  p.device_mask = mask_of(env_, p.strategy);
  idx.front_for(key).insert(std::move(p));
}

void FrontBuilder::build_bucket(ParetoFrontIndex& idx, const FrontKey& key,
                                const rl::BucketedReplayTree* replay,
                                const rl::PolicyNetwork* policy) const {
  // Per-bucket stream: deterministic for (seed, key) no matter how many
  // buckets are built or in what order.
  Rng rng(opts_.seed ^ FrontKeyHash{}(key) ^ 0x9E3779B97f4A7C15ULL);
  const rl::ConstraintPoint corner = corner_constraint(key, 1.0);

  // 1. SUPREME store sweep: every stored trajectory re-evaluated at this
  //    bucket's corner (same pattern as the decision engine's sweep).
  if (replay)
    for (const rl::ReplayEntry* e : replay->all_entries())
      offer(idx, key, corner, e->actions);

  // 2. Greedy policy rollouts across an SLO spread — the policy proposes
  //    different operating points as the budget tightens.
  if (policy && opts_.policy_rollouts > 0) {
    for (int i = 0; i < opts_.policy_rollouts; ++i) {
      const double slo =
          opts_.policy_rollouts == 1
              ? 0.5
              : static_cast<double>(i) /
                    static_cast<double>(opts_.policy_rollouts - 1);
      const rl::Episode ep = rl::rollout(env_, *policy,
                                         corner_constraint(key, slo), rng,
                                         {.greedy = true});
      offer(idx, key, corner, ep.actions);
    }
  }

  // 3. Random schema-valid completions (coverage beyond what training saw).
  for (int i = 0; i < opts_.random_candidates; ++i)
    offer(idx, key, corner, env_.complete_randomly({}, rng));

  // 4. Mutation rounds: structural mutations of the current survivors
  //    (locality consolidation / FDSP spread) sharpen the front.
  for (int round = 0; round < opts_.mutation_rounds; ++round) {
    std::vector<std::vector<int>> members;
    for (const ParetoPoint& p : idx.front_for(key).points())
      members.push_back(p.actions);
    for (const auto& m : members)
      offer(idx, key, corner, env_.heuristic_mutation(m, rng));
  }
}

std::shared_ptr<ParetoFrontIndex> FrontBuilder::build_all(
    const rl::BucketedReplayTree* replay,
    const rl::PolicyNetwork* policy) const {
  auto idx = std::make_shared<ParetoFrontIndex>(env_.constraint_dims() - 1,
                                                env_.grid_points());
  std::vector<FrontKey> keys;
  {
    // Universal fallback: the fully-relaxed bucket dominates nothing, but
    // every bucket key resolves at least to itself or a tighter one; the
    // all-tightest bucket dominates everything, so build that one too.
    FrontKey tightest;
    tightest.coords.assign(static_cast<std::size_t>(idx->task_dims()), 0);
    keys.push_back(tightest);
    FrontKey relaxed;
    relaxed.coords.assign(static_cast<std::size_t>(idx->task_dims()),
                          static_cast<std::int8_t>(env_.grid_points() - 1));
    keys.push_back(relaxed);
  }
  if (replay)
    for (const rl::ReplayEntry* e : replay->all_entries())
      keys.push_back(idx->key_for(e->tight));
  std::sort(keys.begin(), keys.end(),
            [](const FrontKey& a, const FrontKey& b) {
              return a.coords < b.coords;
            });
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  for (const FrontKey& k : keys) build_bucket(*idx, k, replay, policy);
  return idx;
}

}  // namespace murmur::core
