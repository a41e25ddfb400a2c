#include "runtime/adapt.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/serialize.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "rl/gcsl.h"

namespace murmur::runtime {

const char* to_string(SnapshotVerdict v) noexcept {
  switch (v) {
    case SnapshotVerdict::kPublished: return "published";
    case SnapshotVerdict::kPublishedUnguarded: return "published_unguarded";
    case SnapshotVerdict::kRejectedChecksum: return "rejected_checksum";
    case SnapshotVerdict::kRejectedGuardrail: return "rejected_guardrail";
  }
  return "unknown";
}

OnlineAdapter::OnlineAdapter(const core::MurmurationEnv& env,
                             const rl::PolicyNetwork& frozen_policy,
                             const rl::BucketedReplayTree* frozen_replay,
                             AdaptOptions opts)
    : env_(env),
      opts_(opts),
      calib_(env.num_devices(), opts.calib_alpha),
      trainer_rng_(opts.seed),
      drift_(env.num_devices(), opts.drift) {
  working_policy_ = clone_policy(frozen_policy);
  working_replay_ = clone_replay(frozen_replay);
  incumbent_bytes_ = frozen_policy.serialize();

  // Snapshot 0: the frozen policy itself, so current() is never null and
  // an un-adapted deployment behaves exactly like the frozen pipeline.
  auto snap = std::make_unique<PolicySnapshot>();
  snap->id_ = next_snapshot_id_.fetch_add(1, std::memory_order_relaxed);
  snap->policy_ = clone_policy(frozen_policy);
  snap->replay_ = clone_replay(frozen_replay);
  publish(std::move(snap));
}

OnlineAdapter::~OnlineAdapter() { stop(); }

std::unique_ptr<rl::PolicyNetwork> OnlineAdapter::clone_policy(
    const rl::PolicyNetwork& src) const {
  std::array<int, rl::kNumHeads> heads{};
  for (int h = 0; h < rl::kNumHeads; ++h)
    heads[static_cast<std::size_t>(h)] =
        env_.head_options(static_cast<rl::Head>(h));
  rl::PolicyOptions po;
  po.hidden = src.hidden_dim();
  po.seed = opts_.seed;
  auto clone =
      std::make_unique<rl::PolicyNetwork>(env_.feature_dim(), heads, po);
  const bool ok = clone->deserialize(src.serialize());
  (void)ok;  // same architecture by construction
  return clone;
}

std::unique_ptr<rl::BucketedReplayTree> OnlineAdapter::clone_replay(
    const rl::BucketedReplayTree* src) const {
  if (src) return src->clone(opts_.bucket_queue);
  return std::make_unique<rl::BucketedReplayTree>(
      env_.constraint_dims(), env_.grid_points(), opts_.bucket_queue);
}

void OnlineAdapter::observe_outcome(const ServingSample& sample) {
  calib_.update(sample.participants, sample.model_latency_ms,
                sample.observed_latency_ms);
  samples_.fetch_add(1, std::memory_order_relaxed);
  obs::add("adapt.samples");
  std::lock_guard lock(sample_mutex_);
  pending_.push_back(sample);
  window_.push_back(sample);
  while (window_.size() > opts_.sample_window) window_.pop_front();
}

bool OnlineAdapter::observe_network(std::size_t device, double forecast_bw_mbps,
                                    double sampled_bw_mbps,
                                    double forecast_delay_ms,
                                    double sampled_delay_ms) {
  const bool fired =
      drift_.observe(device, forecast_bw_mbps, sampled_bw_mbps,
                     forecast_delay_ms, sampled_delay_ms);
  if (fired) {
    drift_events_.fetch_add(1, std::memory_order_relaxed);
    obs::add("adapt.drift.events");
    obs::gauge_set("adapt.drift.last_device", static_cast<double>(device));
  }
  return fired;
}

std::vector<rl::ConstraintPoint> OnlineAdapter::guard_points() const {
  std::vector<rl::ConstraintPoint> points;
  const std::size_t dims = static_cast<std::size_t>(env_.constraint_dims());
  // Flight records carry the planning constraint of every recent request
  // (newest last in the snapshot); the adapter's own window covers
  // deployments running with telemetry off.
  const auto records = obs::FlightRecorder::instance().snapshot();
  for (auto it = records.rbegin();
       it != records.rend() && points.size() < opts_.guard_max_points; ++it) {
    if (it->constraint_dims != dims ||
        dims > obs::FlightRecord::kMaxConstraintDims)
      continue;
    rl::ConstraintPoint c;
    c.coords.reserve(dims);
    for (std::size_t i = 0; i < dims; ++i)
      c.coords.push_back(static_cast<double>(it->constraint[i]));
    points.push_back(std::move(c));
  }
  {
    std::lock_guard lock(sample_mutex_);
    for (auto it = window_.rbegin();
         it != window_.rend() && points.size() < opts_.guard_max_points; ++it)
      if (it->constraint.coords.size() == dims)
        points.push_back(it->constraint);
  }
  return points;
}

double OnlineAdapter::shadow_compliance(
    const rl::PolicyNetwork& policy, const rl::BucketedReplayTree* replay,
    std::span<const rl::ConstraintPoint> points) {
  if (points.empty()) return 0.0;
  // Both sides of a guardrail comparison run through here with the same
  // points, the same seed and the same calibration, so the comparison is
  // apples-to-apples even while the model itself is biased.
  core::DecisionEngine engine(env_, policy, replay, &calib_);
  Rng rng(opts_.seed);
  std::size_t met = 0;
  for (const rl::ConstraintPoint& c : points)
    if (engine.decide(c, rng).satisfied) ++met;
  return static_cast<double>(met) / static_cast<double>(points.size());
}

SnapshotVerdict OnlineAdapter::offer_candidate(
    std::span<const std::uint8_t> frame,
    std::unique_ptr<rl::BucketedReplayTree> replay) {
  const auto payload = decode_checked(frame, kFrameVersion);
  if (!payload) {
    rejected_checksum_.fetch_add(1, std::memory_order_relaxed);
    obs::add("adapt.snapshots.rejected_checksum");
    roll_back_working();
    return SnapshotVerdict::kRejectedChecksum;
  }
  // Only the trainer publishes, so current() is the incumbent here.
  const PolicySnapshot* incumbent = current();
  auto candidate = clone_policy(incumbent->policy());
  if (!candidate->deserialize(*payload)) {
    rejected_checksum_.fetch_add(1, std::memory_order_relaxed);
    obs::add("adapt.snapshots.rejected_checksum");
    roll_back_working();
    return SnapshotVerdict::kRejectedChecksum;
  }

  SnapshotVerdict verdict = SnapshotVerdict::kPublished;
  const std::vector<rl::ConstraintPoint> points = guard_points();
  if (points.size() < opts_.guard_min_points) {
    verdict = SnapshotVerdict::kPublishedUnguarded;
    unguarded_.fetch_add(1, std::memory_order_relaxed);
    obs::add("adapt.snapshots.unguarded");
  } else {
    const double cand = shadow_compliance(*candidate, replay.get(), points);
    const double inc =
        shadow_compliance(incumbent->policy(), incumbent->replay(), points);
    obs::gauge_set("adapt.guard.candidate_compliance", cand);
    obs::gauge_set("adapt.guard.incumbent_compliance", inc);
    if (cand + opts_.guard_epsilon < inc) {
      rejected_guardrail_.fetch_add(1, std::memory_order_relaxed);
      obs::add("adapt.snapshots.rejected_guardrail");
      roll_back_working();
      return SnapshotVerdict::kRejectedGuardrail;
    }
  }

  auto snap = std::make_unique<PolicySnapshot>();
  snap->id_ = next_snapshot_id_.fetch_add(1, std::memory_order_relaxed);
  snap->checksum_ = fnv1a64(frame);
  snap->policy_ = std::move(candidate);
  snap->replay_ = std::move(replay);

  incumbent_bytes_ = *payload;

  const std::uint64_t id = snap->id_;
  publish(std::move(snap));
  published_count_.fetch_add(1, std::memory_order_relaxed);
  obs::add("adapt.snapshots.published");
  obs::gauge_set("adapt.snapshot.id", static_cast<double>(id));
  publish_metrics();
  return verdict;
}

void OnlineAdapter::roll_back_working() {
  // A rejected candidate must not compound across cycles: the working
  // policy snaps back to the incumbent's exact weights.
  working_policy_->deserialize(incumbent_bytes_);
  rollbacks_.fetch_add(1, std::memory_order_relaxed);
  obs::add("adapt.rollbacks");
}

void OnlineAdapter::publish(std::unique_ptr<PolicySnapshot> snap) {
  std::lock_guard lock(publish_mutex_);
  retained_.push_back(std::move(snap));
  // Release pairs with the decision path's acquire in current(); retired
  // snapshots stay in retained_ until destruction, so a reader that loaded
  // the old pointer keeps dereferencing valid memory.
  published_.store(retained_.back().get(), std::memory_order_release);
}

void OnlineAdapter::publish_metrics() const {
  obs::gauge_set("adapt.calibration.max_ratio", calib_.max_ratio());
}

std::vector<std::uint8_t> OnlineAdapter::frame_working_policy() const {
  return encode_checked(working_policy_->serialize(), kFrameVersion);
}

bool OnlineAdapter::run_cycle() {
  std::vector<ServingSample> batch;
  {
    std::lock_guard lock(sample_mutex_);
    if (pending_.size() < opts_.min_cycle_samples) return false;
    batch.swap(pending_);
  }
  cycles_.fetch_add(1, std::memory_order_relaxed);
  obs::add("adapt.cycles");

  // 1. Live trajectories: relabel every served request with its OBSERVED
  //    outcome and file it into the working replay tree.
  std::size_t inserted = 0;
  for (const ServingSample& s : batch) {
    if (s.actions.empty()) continue;
    const rl::Outcome observed{s.accuracy, s.observed_latency_ms};
    rl::ReplayEntry e;
    e.actions = s.actions;
    e.outcome = observed;
    e.tight = env_.relabel(s.constraint, observed);
    e.reward = env_.reward(e.tight, observed);
    if (e.reward > 0.0 && working_replay_->insert(std::move(e))) ++inserted;
  }
  if (inserted > 0) obs::add("adapt.replay.inserted", inserted);

  // 2. Incremental GCSL: imitate the replay tree (which now contains the
  //    live, reality-labelled trajectories next to the offline ones).
  for (int u = 0; u < opts_.updates_per_cycle; ++u) {
    std::vector<std::pair<rl::ConstraintPoint, const std::vector<int>*>> b;
    b.reserve(opts_.imitation_batch);
    for (std::size_t i = 0; i < opts_.imitation_batch; ++i)
      if (const rl::ReplayEntry* e = working_replay_->random_entry(trainer_rng_))
        b.emplace_back(e->tight, &e->actions);
    if (b.empty()) break;
    rl::GcslTrainer::imitation_update(env_, *working_policy_, b);
  }

  // 3. Frame, guard, publish. offer_candidate rolls the working policy
  //    back to the incumbent itself on any rejection.
  const std::vector<std::uint8_t> frame = frame_working_policy();
  (void)offer_candidate(frame, clone_replay(working_replay_.get()));
  publish_metrics();
  return true;
}

void OnlineAdapter::trainer_main() {
  while (running_.load(std::memory_order_relaxed)) {
    run_cycle();
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        opts_.cycle_interval_ms));
  }
}

void OnlineAdapter::start() {
  if (running_.exchange(true)) return;
  trainer_ = std::thread([this] { trainer_main(); });
}

void OnlineAdapter::stop() {
  running_.store(false);
  if (trainer_.joinable()) trainer_.join();
}

OnlineAdapter::Stats OnlineAdapter::stats() const noexcept {
  Stats s;
  s.samples = samples_.load(std::memory_order_relaxed);
  s.cycles = cycles_.load(std::memory_order_relaxed);
  s.published = published_count_.load(std::memory_order_relaxed);
  s.unguarded = unguarded_.load(std::memory_order_relaxed);
  s.rejected_checksum = rejected_checksum_.load(std::memory_order_relaxed);
  s.rejected_guardrail = rejected_guardrail_.load(std::memory_order_relaxed);
  s.rollbacks = rollbacks_.load(std::memory_order_relaxed);
  s.drift_events = drift_events_.load(std::memory_order_relaxed);
  s.snapshot_id = current()->id();
  s.calibration_max_ratio = calib_.max_ratio();
  return s;
}

}  // namespace murmur::runtime
