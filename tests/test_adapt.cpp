// Online adaptation (DESIGN.md §5.14): drift detection, checksummed
// snapshot publication, the shadow-replay guardrail, latency calibration,
// the trainer/decide concurrency, and the lock-free decision path. The
// whole suite carries the `adapt` ctest label: tools/run_chaos_tests.sh
// runs it under ASan/UBSan and again under ThreadSanitizer (the hammer test
// races the background trainer's snapshot swaps against concurrent
// inference; the decision-path test runs four unlocked deciders).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/serialize.h"
#include "core/decision.h"
#include "core/training.h"
#include "netsim/drift.h"
#include "netsim/scenario.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "runtime/adapt.h"
#include "runtime/system.h"

namespace murmur {
namespace {

using netsim::DriftDetector;
using netsim::DriftOptions;
using runtime::AdaptOptions;
using runtime::OnlineAdapter;
using runtime::SnapshotVerdict;

core::TrainedArtifacts tiny_artifacts() {
  core::TrainSetup setup;
  setup.scenario = netsim::Scenario::kAugmentedComputing;
  setup.trainer.total_steps = 10;
  setup.trainer.eval_every = 10;
  setup.trainer.eval_points = 2;
  setup.policy.hidden = 16;
  return core::train(setup);
}

std::unique_ptr<core::MurmurationEnv> tiny_env() {
  return std::make_unique<core::MurmurationEnv>(
      netsim::make_scenario(netsim::Scenario::kAugmentedComputing),
      core::SloType::kLatency);
}

std::unique_ptr<rl::PolicyNetwork> fresh_policy(const core::MurmurationEnv& env,
                                                int hidden,
                                                std::uint64_t seed) {
  std::array<int, rl::kNumHeads> heads{};
  for (int h = 0; h < rl::kNumHeads; ++h)
    heads[static_cast<std::size_t>(h)] =
        env.head_options(static_cast<rl::Head>(h));
  rl::PolicyOptions po;
  po.hidden = hidden;
  po.seed = seed;
  return std::make_unique<rl::PolicyNetwork>(env.feature_dim(), heads, po);
}

/// A random complete episode (one action per schema step).
std::vector<int> random_rollout(const core::MurmurationEnv& env, Rng& rng) {
  std::vector<int> actions;
  while (!env.done(actions)) {
    const rl::StepSpec spec = env.next_step(actions);
    actions.push_back(static_cast<int>(
        rng.uniform_index(static_cast<std::uint64_t>(spec.num_options))));
  }
  return actions;
}

// ---------------------------------------------------------------------------
// Drift detector (netsim/drift.h)
// ---------------------------------------------------------------------------

/// A seeded residual stream fires at exactly the same sample indices on
/// every run — the detector owns no RNG, so serving-run drift events are
/// reproducible.
TEST(Drift, SeededDeterminism) {
  const auto run = [](std::uint64_t seed) {
    DriftDetector det(3, DriftOptions{});
    Rng rng(seed);
    std::vector<std::size_t> fire_at;
    for (std::size_t i = 0; i < 400; ++i) {
      const double shift = i >= 200 ? -40.0 : 0.0;
      if (det.observe(1, 100.0, 100.0 + shift + rng.normal(0.0, 2.0), 20.0,
                      20.0 + rng.normal(0.0, 0.5)))
        fire_at.push_back(i);
    }
    return fire_at;
  };
  const auto a = run(42), b = run(42), c = run(43);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
  // A different noise stream still detects, but on its own schedule.
  EXPECT_FALSE(c.empty());
}

/// Stationary noise (no regime shift) must never fire: drift events purge
/// cached strategies and drop monitor history, so false positives are
/// expensive.
TEST(Drift, NoFalsePositivesUnderStationaryNoise) {
  DriftDetector det(5, DriftOptions{});
  Rng rng(7);
  for (std::size_t i = 0; i < 5000; ++i)
    for (std::size_t d = 1; d < 5; ++d)
      EXPECT_FALSE(det.observe(d, 150.0, 150.0 + rng.normal(0.0, 8.0), 25.0,
                               25.0 + rng.normal(0.0, 1.5)))
          << "false positive at sample " << i << " device " << d;
  EXPECT_EQ(det.events(), 0u);
}

/// A clear step change (bandwidth halves) must be caught quickly once the
/// CUSUM is armed, and not at all before the step.
TEST(Drift, DetectsStepChangeWithBoundedLatency) {
  const DriftOptions opts;
  DriftDetector det(2, opts);
  Rng rng(11);
  const std::size_t step_at = 100;
  std::size_t fired_at = 0;
  for (std::size_t i = 0; i < step_at + 60; ++i) {
    const double bw = i < step_at ? 200.0 : 100.0;
    const bool fired =
        det.observe(1, 200.0, bw + rng.normal(0.0, 4.0), 30.0,
                    30.0 + rng.normal(0.0, 1.0));
    if (i < step_at) {
      ASSERT_FALSE(fired) << "fired before the step at sample " << i;
    } else if (fired) {
      fired_at = i;
      break;
    }
  }
  ASSERT_GT(fired_at, 0u) << "step change never detected";
  // A 25-sigma step through a k=0.5/h=16 CUSUM needs only a handful of
  // samples; 20 is a generous bound.
  EXPECT_LE(fired_at - step_at, 20u);
  EXPECT_EQ(det.events(1), 1u);
  EXPECT_EQ(det.events(0), 0u);
}

/// Firing resets both of the device's streams: the caller re-fits the
/// predictor, so the pre-shift statistics must not double-count.
TEST(Drift, RearmsAfterFiring) {
  DriftDetector det(2, DriftOptions{});
  Rng rng(13);
  auto feed = [&](double bw, std::size_t n) {
    std::size_t fires = 0;
    for (std::size_t i = 0; i < n; ++i)
      if (det.observe(1, 200.0, bw + rng.normal(0.0, 4.0), 30.0,
                      30.0 + rng.normal(0.0, 1.0)))
        ++fires;
    return fires;
  };
  feed(200.0, 100);                    // baseline
  EXPECT_EQ(feed(100.0, 60), 1u);      // first shift fires exactly once
  feed(100.0, 100);                    // new regime becomes the baseline
  EXPECT_EQ(feed(180.0, 60), 1u);      // second shift fires again
  EXPECT_EQ(det.events(), 2u);
}

// ---------------------------------------------------------------------------
// Latency calibration (core/decision.h)
// ---------------------------------------------------------------------------

TEST(Calibration, TracksObservedBiasPerParticipant) {
  core::LatencyCalibration calib(3, 0.5);
  EXPECT_FALSE(calib.active());
  const std::vector<bool> remote1 = {false, true, false};
  for (int i = 0; i < 32; ++i) calib.update(remote1, 100.0, 200.0);
  EXPECT_TRUE(calib.active());
  EXPECT_NEAR(calib.ratio(1), 2.0, 0.05);
  EXPECT_NEAR(calib.ratio(0), 1.0, 1e-12);  // non-participant untouched
  EXPECT_NEAR(calib.ratio(2), 1.0, 1e-12);
  // factor() is the max over the plan's participants.
  EXPECT_NEAR(calib.factor(remote1), calib.ratio(1), 1e-12);
  EXPECT_NEAR(calib.factor({true, false, false}), 1.0, 1e-12);
  EXPECT_NEAR(calib.max_ratio(), calib.ratio(1), 1e-12);
  calib.reset();
  EXPECT_FALSE(calib.active());
  EXPECT_NEAR(calib.ratio(1), 1.0, 1e-12);
}

TEST(Calibration, ClampsPathologicalRatios) {
  core::LatencyCalibration calib(2, 1.0);
  const std::vector<bool> p = {false, true};
  for (int i = 0; i < 8; ++i) calib.update(p, 1.0, 1e6);
  EXPECT_LE(calib.ratio(1), core::LatencyCalibration::kMaxRatio);
  for (int i = 0; i < 64; ++i) calib.update(p, 1e6, 1.0);
  EXPECT_GE(calib.ratio(1), core::LatencyCalibration::kMinRatio);
  // Degenerate inputs are no-ops.
  calib.reset();
  calib.update(p, 0.0, 100.0);
  calib.update(p, 100.0, 0.0);
  EXPECT_NEAR(calib.ratio(1), 1.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Lock-free decision path
// ---------------------------------------------------------------------------

/// Strategy evaluation is a pure function of (strategy, constraint), so the
/// decision engine needs no lock: four threads deciding interleaved slices
/// of 96 constraints, one seed per constraint, reproduce a serialized run
/// bit for bit. Most constraints land in buckets training never filed, so
/// lookups take the replay tree's sharing path and fill its memo from
/// several threads; an active calibration rescales every candidate. Swept
/// under TSan with the rest of `ctest -L adapt`.
TEST(DecisionPath, ConcurrentDecideMatchesSerializedBitwise) {
  // Two identically trained artifact sets, so each run starts on a cold
  // sharing memo.
  const auto serial_art = tiny_artifacts();
  const auto concurrent_art = tiny_artifacts();
  core::LatencyCalibration calib(serial_art.env->num_devices(), 0.5);
  for (int i = 0; i < 16; ++i) calib.update({false, true}, 100.0, 170.0);
  ASSERT_TRUE(calib.active());

  constexpr std::size_t kConstraints = 96;
  Rng rng(0xdec1de);
  std::vector<rl::ConstraintPoint> points(kConstraints);
  for (auto& c : points) {
    c.coords.resize(
        static_cast<std::size_t>(serial_art.env->constraint_dims()));
    for (auto& v : c.coords) v = rng.uniform();
  }
  const rl::BucketedReplayTree& tree = *serial_art.replay;
  std::size_t shared = 0;
  for (const auto& c : points)
    if (const rl::ReplayEntry* e = tree.best_for(c);
        e != nullptr && !(tree.filing_key_of(e->tight) == tree.key_of(c)))
      ++shared;
  EXPECT_GT(shared, 0u);

  const auto decide_all = [&](const core::TrainedArtifacts& art,
                              std::size_t threads) {
    const core::DecisionEngine engine(*art.env, *art.policy, art.replay.get(),
                                      &calib);
    std::vector<core::Decision> out(kConstraints);
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < threads; ++t)
      workers.emplace_back([&, t] {
        for (std::size_t i = t; i < kConstraints; i += threads) {
          Rng seed_rng(0x5eed + i);
          out[i] = engine.decide(points[i], seed_rng);
        }
      });
    for (auto& w : workers) w.join();
    return out;
  };
  const auto serial = decide_all(serial_art, 1);
  const auto concurrent = decide_all(concurrent_art, 4);
  for (std::size_t i = 0; i < kConstraints; ++i) {
    const core::Decision& a = serial[i];
    const core::Decision& b = concurrent[i];
    EXPECT_TRUE(a.strategy.config == b.strategy.config) << "constraint " << i;
    EXPECT_TRUE(a.strategy.plan == b.strategy.plan) << "constraint " << i;
    EXPECT_EQ(a.predicted.latency_ms, b.predicted.latency_ms) << i;
    EXPECT_EQ(a.predicted.accuracy, b.predicted.accuracy) << i;
    EXPECT_EQ(a.model.latency_ms, b.model.latency_ms) << i;
    EXPECT_EQ(a.reward, b.reward) << i;
    EXPECT_EQ(a.satisfied, b.satisfied) << i;
  }
}

// ---------------------------------------------------------------------------
// Checked snapshot frames (common/serialize.h + offer_candidate)
// ---------------------------------------------------------------------------

/// Every single-bit corruption of a snapshot frame must fail validation —
/// the FNV-1a trailer plus header framing guarantees 1-bit detection.
TEST(SnapshotFrame, EveryBitFlipRejected) {
  const auto env = tiny_env();
  // hidden=2 keeps the frame small enough to sweep every bit.
  const auto policy = fresh_policy(*env, 2, 99);
  const std::vector<std::uint8_t> frame =
      encode_checked(policy->serialize(), OnlineAdapter::kFrameVersion);
  ASSERT_TRUE(decode_checked(frame, OnlineAdapter::kFrameVersion).has_value());
  ASSERT_LE(frame.size(), 64u * 1024u)
      << "frame grew too large for an exhaustive bit sweep";
  std::vector<std::uint8_t> corrupt = frame;
  for (std::size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      corrupt[byte] = frame[byte] ^ static_cast<std::uint8_t>(1u << bit);
      ASSERT_FALSE(
          decode_checked(corrupt, OnlineAdapter::kFrameVersion).has_value())
          << "flip of byte " << byte << " bit " << bit << " went undetected";
    }
    corrupt[byte] = frame[byte];
  }
  // Truncations and version mismatches reject too.
  ASSERT_FALSE(decode_checked(std::span(frame.data(), frame.size() - 1),
                              OnlineAdapter::kFrameVersion)
                   .has_value());
  ASSERT_FALSE(
      decode_checked(frame, OnlineAdapter::kFrameVersion + 1).has_value());
}

TEST(Adapter, RejectsCorruptCandidateAndRollsBack) {
  obs::FlightRecorder::instance().reset();
  auto art = tiny_artifacts();
  OnlineAdapter adapter(*art.env, *art.policy, art.replay.get());
  const std::uint64_t id0 = adapter.current()->id();

  std::vector<std::uint8_t> frame = adapter.frame_working_policy();
  frame[frame.size() / 2] ^= 0x40;
  EXPECT_EQ(adapter.offer_candidate(frame, nullptr),
            SnapshotVerdict::kRejectedChecksum);

  const auto s = adapter.stats();
  EXPECT_EQ(s.rejected_checksum, 1u);
  EXPECT_EQ(s.rollbacks, 1u);
  EXPECT_EQ(s.published, 0u);
  // Serving keeps the prior policy: the published snapshot never moved.
  EXPECT_EQ(adapter.current()->id(), id0);
  // The rolled-back working policy is bit-identical to the incumbent.
  const auto payload = decode_checked(adapter.frame_working_policy(),
                                      OnlineAdapter::kFrameVersion);
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, art.policy->serialize());
}

/// With too few recent constraints for a guarded comparison the candidate
/// publishes unguarded (and is counted as such).
TEST(Adapter, PublishesUnguardedWithoutHistory) {
  obs::FlightRecorder::instance().reset();
  auto art = tiny_artifacts();
  OnlineAdapter adapter(*art.env, *art.policy, art.replay.get());
  EXPECT_EQ(adapter.current()->id(), 0u);
  EXPECT_EQ(adapter.current()->checksum(), 0u);  // bootstrap snapshot

  const std::vector<std::uint8_t> frame = adapter.frame_working_policy();
  EXPECT_EQ(adapter.offer_candidate(frame, nullptr),
            SnapshotVerdict::kPublishedUnguarded);
  const auto s = adapter.stats();
  EXPECT_EQ(s.published, 1u);
  EXPECT_EQ(s.unguarded, 1u);
  EXPECT_EQ(s.rollbacks, 0u);
  EXPECT_EQ(adapter.current()->id(), 1u);
  EXPECT_EQ(adapter.current()->checksum(), fnv1a64(frame));
}

/// The guardrail: an adversarially bad candidate (random weights, no
/// strategy store) must lose the shadow replay against an incumbent whose
/// store holds a known-good strategy for a tight constraint — rejected,
/// prior policy kept, rollback visible in the stats.
TEST(Adapter, GuardrailRejectsAdversarialCandidate) {
  obs::FlightRecorder::instance().reset();
  auto env = tiny_env();
  Rng rng(21);

  // Find a fast strategy by random search, then set the SLO just above its
  // latency: only near-optimal strategies satisfy the resulting constraint.
  const auto cond = env->network().conditions();
  rl::ConstraintPoint probe = env->make_constraint(400.0, cond);
  std::vector<int> best_actions;
  double best_lat = 1e12;
  for (int i = 0; i < 200; ++i) {
    const auto actions = random_rollout(*env, rng);
    const double lat = env->evaluate(probe, actions).latency_ms;
    if (lat < best_lat) {
      best_lat = lat;
      best_actions = actions;
    }
  }
  const rl::ConstraintPoint c = env->make_constraint(best_lat * 1.05, cond);
  const rl::Outcome o = env->evaluate(c, best_actions);
  ASSERT_TRUE(env->satisfies(c, o));

  // Incumbent strategy store: exactly that strategy, filed under c.
  rl::BucketedReplayTree store(env->constraint_dims(), env->grid_points(), 4);
  rl::ReplayEntry e;
  e.actions = best_actions;
  e.outcome = o;
  e.tight = c;
  e.reward = env->reward(c, o);
  ASSERT_GT(e.reward, 0.0);
  ASSERT_TRUE(store.insert(std::move(e)));

  AdaptOptions opts;
  opts.guard_min_points = 12;
  OnlineAdapter adapter(*env, *fresh_policy(*env, 16, 5), &store, opts);

  // Guardrail history: 12 recent requests planned against c.
  for (int i = 0; i < 12; ++i) {
    OnlineAdapter::ServingSample s;
    s.constraint = c;
    s.model_latency_ms = best_lat;
    s.observed_latency_ms = best_lat;
    s.participants.assign(env->num_devices(), false);
    adapter.observe_outcome(s);
  }

  // Adversarial candidate: a differently seeded random policy, no store.
  const std::vector<std::uint8_t> frame = encode_checked(
      fresh_policy(*env, 16, 0xBAD)->serialize(), OnlineAdapter::kFrameVersion);
  EXPECT_EQ(adapter.offer_candidate(frame, nullptr),
            SnapshotVerdict::kRejectedGuardrail);

  const auto s = adapter.stats();
  EXPECT_EQ(s.rejected_guardrail, 1u);
  EXPECT_EQ(s.rollbacks, 1u);
  EXPECT_EQ(s.published, 0u);
  EXPECT_EQ(adapter.current()->id(), 0u);  // serving kept the prior policy
}

// ---------------------------------------------------------------------------
// Trainer cycles + live trajectories
// ---------------------------------------------------------------------------

TEST(Adapter, RunCycleInsertsLiveTrajectoriesAndPublishes) {
  obs::FlightRecorder::instance().reset();
  auto art = tiny_artifacts();
  AdaptOptions opts;
  opts.min_cycle_samples = 4;
  OnlineAdapter adapter(*art.env, *art.policy, art.replay.get(), opts);

  EXPECT_FALSE(adapter.run_cycle());  // no samples yet

  // Serve outcomes: real strategies, labelled with achievable latencies so
  // the hindsight relabel yields positive-reward entries.
  Rng rng(3);
  const auto cond = art.env->network().conditions();
  for (int i = 0; i < 6; ++i) {
    const auto actions = random_rollout(*art.env, rng);
    const rl::ConstraintPoint c = art.env->make_constraint(400.0, cond);
    const rl::Outcome o = art.env->evaluate(c, actions);
    OnlineAdapter::ServingSample s;
    s.constraint = c;
    s.actions = actions;
    s.model_latency_ms = o.latency_ms;
    s.observed_latency_ms = o.latency_ms;
    s.accuracy = o.accuracy;
    s.slo_met = true;
    s.participants.assign(art.env->num_devices(), false);
    adapter.observe_outcome(s);
  }

  EXPECT_TRUE(adapter.run_cycle());
  const auto s = adapter.stats();
  EXPECT_EQ(s.cycles, 1u);
  EXPECT_EQ(s.samples, 6u);
  // 6 samples < guard_min_points=12 constraints in the window, so the
  // trained candidate published unguarded.
  EXPECT_EQ(s.published + s.rejected_guardrail + s.rejected_checksum, 1u);
  EXPECT_FALSE(adapter.run_cycle());  // queue drained
}

// ---------------------------------------------------------------------------
// Concurrency: background trainer swaps against live inference (TSan)
// ---------------------------------------------------------------------------

TEST(Adapter, SnapshotSwapRacesCleanAgainstInference) {
  obs::FlightRecorder::instance().reset();
  runtime::SystemOptions sys_opts;
  sys_opts.slo = core::Slo::latency_ms(400.0);
  sys_opts.exec_width_mult = 0.1;
  sys_opts.classes = 10;
  sys_opts.use_predictor = false;
  runtime::MurmurationSystem system(tiny_artifacts(), sys_opts);

  AdaptOptions opts;
  opts.min_cycle_samples = 2;
  opts.cycle_interval_ms = 1.0;
  OnlineAdapter adapter(system.env(), system.policy(), system.replay(), opts);
  system.attach_adapter(&adapter);
  adapter.start();

  Rng img_rng(17);
  const Tensor image = Tensor::randn({1, 3, 224, 224}, img_rng, 0.0f, 0.5f);
  constexpr int kThreads = 4, kPerThread = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        runtime::RequestContext ctx;
        ctx.slo = core::Slo::latency_ms(400.0);
        ctx.plan_slo = ctx.slo;
        ctx.sim_now_ms = (t * kPerThread + i) * 5.0;
        ctx.seed = static_cast<std::uint64_t>(t * 1000 + i);
        (void)system.infer(image, ctx);
      }
    });
  for (auto& th : threads) th.join();
  adapter.stop();
  system.attach_adapter(nullptr);

  const auto s = adapter.stats();
  EXPECT_EQ(s.samples, static_cast<std::uint64_t>(kThreads * kPerThread));
  // The published snapshot is always valid, whatever the trainer did.
  EXPECT_NE(adapter.current(), nullptr);
}

}  // namespace
}  // namespace murmur
