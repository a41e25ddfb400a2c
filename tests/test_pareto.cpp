// Pareto-front planning fast path (DESIGN.md §5.15): front invariants under
// random strategy sets, differential queries against brute force (with and
// without latency calibration), checked-frame hardening of the serialized
// index, drift tombstoning, the background refiner, and a reader/refiner/
// drift concurrency hammer. The whole suite carries the `pareto` ctest
// label: tools/run_chaos_tests.sh runs it under ASan/UBSan and again under
// ThreadSanitizer (the hammer races front queries against guarded index
// replacements and bucket purges).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/serialize.h"
#include "core/pareto_front.h"
#include "core/strategy_cache.h"
#include "core/training.h"
#include "fuzz_util.h"
#include "netsim/scenario.h"
#include "partition/plan.h"
#include "runtime/pareto_refiner.h"
#include "runtime/system.h"

namespace murmur {
namespace {

using core::FrontBuilder;
using core::FrontBuilderOptions;
using core::FrontKey;
using core::FrontVerdict;
using core::LatencyCalibration;
using core::ParetoFront;
using core::ParetoFrontIndex;
using core::ParetoPoint;
using runtime::FrontRefiner;
using runtime::FrontRefinerOptions;

std::unique_ptr<core::MurmurationEnv> tiny_env() {
  return std::make_unique<core::MurmurationEnv>(
      netsim::make_scenario(netsim::Scenario::kAugmentedComputing),
      core::SloType::kLatency);
}

core::TrainedArtifacts tiny_artifacts() {
  core::TrainSetup setup;
  setup.scenario = netsim::Scenario::kAugmentedComputing;
  setup.trainer.total_steps = 10;
  setup.trainer.eval_every = 10;
  setup.trainer.eval_points = 2;
  setup.policy.hidden = 16;
  return core::train(setup);
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

/// Synthetic point: outcome only, identity carried by `actions`.
ParetoPoint pt(double latency, double accuracy, std::vector<int> actions,
               std::uint64_t mask = 1) {
  ParetoPoint p;
  p.actions = std::move(actions);
  p.outcome = rl::Outcome{accuracy, latency};
  p.device_mask = mask;
  return p;
}

std::vector<ParetoPoint> random_points(Rng& rng, int n) {
  std::vector<ParetoPoint> all;
  for (int i = 0; i < n; ++i)
    all.push_back(pt(rng.uniform(1.0, 100.0), rng.uniform(1.0, 99.0), {i},
                     1ull + rng.uniform_index(3)));
  return all;
}

// ---------------------------------------------------------------------------
// ParetoFront properties (random strategy sets)
// ---------------------------------------------------------------------------

/// Front invariants under random insertion: no member dominates another,
/// and every point NOT on the front is dominated by some member.
TEST(Front, NoMemberDominatesAnotherAndPrunedAreDominated) {
  Rng rng(101);
  for (int round = 0; round < 20; ++round) {
    const std::vector<ParetoPoint> all = random_points(rng, 200);
    ParetoFront front;
    for (const auto& p : all) front.insert(p);
    ASSERT_TRUE(front.invariants_ok());
    const auto& members = front.points();
    for (std::size_t i = 0; i < members.size(); ++i)
      for (std::size_t j = 0; j < members.size(); ++j)
        if (i != j) {
          EXPECT_FALSE(members[i].outcome.latency_ms <=
                           members[j].outcome.latency_ms &&
                       members[i].outcome.accuracy >=
                           members[j].outcome.accuracy)
              << "member " << i << " dominates member " << j;
        }
    for (const auto& p : all) {
      const bool covered = std::any_of(
          members.begin(), members.end(), [&](const ParetoPoint& m) {
            return m.outcome.latency_ms <= p.outcome.latency_ms &&
                   m.outcome.accuracy >= p.outcome.accuracy;
          });
      EXPECT_TRUE(covered) << "point (" << p.outcome.latency_ms << ", "
                           << p.outcome.accuracy
                           << ") neither on the front nor dominated";
    }
  }
}

/// Query differential on synthetic sets: best_within_latency is the
/// max-accuracy point within budget; cheapest_with_accuracy is the
/// min-latency point at or above the floor — both vs brute force over the
/// FULL inserted set (pruning never discards an argmax/argmin winner).
TEST(Front, QueriesMatchBruteForceOverInsertedSet) {
  Rng rng(202);
  const std::vector<ParetoPoint> all = random_points(rng, 300);
  ParetoFront front;
  for (const auto& p : all) front.insert(p);
  for (int q = 0; q < 500; ++q) {
    const double budget = rng.uniform(0.0, 110.0);
    const ParetoPoint* got = front.best_within_latency(budget);
    const ParetoPoint* want = nullptr;
    for (const auto& p : all)
      if (p.outcome.latency_ms <= budget &&
          (want == nullptr || p.outcome.accuracy > want->outcome.accuracy ||
           (p.outcome.accuracy == want->outcome.accuracy &&
            p.outcome.latency_ms < want->outcome.latency_ms)))
        want = &p;
    ASSERT_EQ(got == nullptr, want == nullptr) << "budget " << budget;
    if (got) {
      EXPECT_DOUBLE_EQ(got->outcome.accuracy, want->outcome.accuracy);
      EXPECT_LE(got->outcome.latency_ms, budget);
    }

    const double floor = rng.uniform(0.0, 100.0);
    const ParetoPoint* got_a = front.cheapest_with_accuracy(floor);
    const ParetoPoint* want_a = nullptr;
    for (const auto& p : all)
      if (p.outcome.accuracy >= floor &&
          (want_a == nullptr ||
           p.outcome.latency_ms < want_a->outcome.latency_ms))
        want_a = &p;
    ASSERT_EQ(got_a == nullptr, want_a == nullptr) << "floor " << floor;
    if (got_a) {
      EXPECT_DOUBLE_EQ(got_a->outcome.latency_ms, want_a->outcome.latency_ms);
      EXPECT_GE(got_a->outcome.accuracy, floor);
    }
  }
}

/// Same set in shuffled insertion orders yields identical fronts —
/// including exact-outcome ties, which canonicalize to the
/// lexicographically smallest action sequence.
TEST(Front, OrderIndependentConstruction) {
  Rng rng(303);
  std::vector<ParetoPoint> all = random_points(rng, 120);
  // Inject exact-tie pairs so canonicalization is actually exercised.
  all.push_back(pt(50.0, 70.0, {900, 2}));
  all.push_back(pt(50.0, 70.0, {900, 1}));
  all.push_back(pt(5.0, 10.0, {901, 7, 7}));
  all.push_back(pt(5.0, 10.0, {901, 7, 3}));

  ParetoFront reference;
  for (const auto& p : all) reference.insert(p);
  for (int round = 0; round < 10; ++round) {
    rng.shuffle(all);
    ParetoFront shuffled;
    for (const auto& p : all) shuffled.insert(p);
    ASSERT_EQ(shuffled.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(shuffled.points()[i].actions, reference.points()[i].actions);
      EXPECT_DOUBLE_EQ(shuffled.points()[i].outcome.latency_ms,
                       reference.points()[i].outcome.latency_ms);
      EXPECT_DOUBLE_EQ(shuffled.points()[i].outcome.accuracy,
                       reference.points()[i].outcome.accuracy);
    }
  }
}

/// With an active calibration the per-point device-mask factor breaks the
/// front's latency ordering; the calibrated queries must still return the
/// optimum over the front's members (the scan path).
TEST(Front, CalibratedQueriesMatchBruteForceOverMembers) {
  Rng rng(404);
  const std::vector<ParetoPoint> all = random_points(rng, 300);
  ParetoFront front;
  for (const auto& p : all) front.insert(p);

  LatencyCalibration calib(3, 0.5);
  const std::vector<bool> remote1 = {false, true, false};
  const std::vector<bool> remote2 = {false, false, true};
  for (int i = 0; i < 32; ++i) calib.update(remote1, 100.0, 300.0);
  for (int i = 0; i < 32; ++i) calib.update(remote2, 100.0, 50.0);
  ASSERT_TRUE(calib.active());

  const auto cal_lat = [&](const ParetoPoint& p) {
    return p.outcome.latency_ms * calib.factor_mask(p.device_mask);
  };
  for (int q = 0; q < 500; ++q) {
    const double budget = rng.uniform(0.0, 200.0);
    const ParetoPoint* got = front.best_within_latency(budget, &calib);
    const ParetoPoint* want = nullptr;
    for (const auto& m : front.points())
      if (cal_lat(m) <= budget &&
          (want == nullptr || m.outcome.accuracy > want->outcome.accuracy ||
           (m.outcome.accuracy == want->outcome.accuracy &&
            cal_lat(m) < cal_lat(*want))))
        want = &m;
    ASSERT_EQ(got == nullptr, want == nullptr) << "budget " << budget;
    if (got) {
      EXPECT_DOUBLE_EQ(got->outcome.accuracy, want->outcome.accuracy);
    }

    const double floor = rng.uniform(0.0, 100.0);
    const ParetoPoint* got_a = front.cheapest_with_accuracy(floor, &calib);
    const ParetoPoint* want_a = nullptr;
    for (const auto& m : front.points())
      if (m.outcome.accuracy >= floor &&
          (want_a == nullptr || cal_lat(m) < cal_lat(*want_a)))
        want_a = &m;
    ASSERT_EQ(got_a == nullptr, want_a == nullptr) << "floor " << floor;
    if (got_a) {
      EXPECT_DOUBLE_EQ(cal_lat(*got_a), cal_lat(*want_a));
    }
  }
}

// ---------------------------------------------------------------------------
// Differential: index queries vs brute force over enumerated strategies
// ---------------------------------------------------------------------------

/// 1k randomized (SLO, network-bucket) queries through the real env: the
/// front answer must equal the brute-force argmax over the enumerated
/// strategy set evaluated at the bucket corner, and — by latency
/// monotonicity — must satisfy the SLO at the query's own (more relaxed)
/// conditions too.
TEST(FrontIndex, DifferentialAgainstBruteForce) {
  const auto env = tiny_env();
  Rng rng(505);

  // Enumerated strategy set: 48 random schema-valid strategies.
  std::vector<std::vector<int>> candidates;
  for (int i = 0; i < 48; ++i) candidates.push_back(random_rollout(*env, rng));

  FrontBuilder builder(*env, FrontBuilderOptions{.seed = 42});
  auto idx = std::make_shared<ParetoFrontIndex>(env->constraint_dims() - 1,
                                                env->grid_points());
  // A handful of buckets across the condition grid.
  std::vector<FrontKey> keys;
  for (int b = 0; b < 6; ++b) {
    FrontKey k;
    for (int d = 0; d < idx->task_dims(); ++d)
      k.coords.push_back(static_cast<std::int8_t>(
          rng.uniform_index(static_cast<std::uint64_t>(env->grid_points()))));
    keys.push_back(k);
  }
  struct Evaluated {
    std::vector<int> actions;
    rl::Outcome outcome;
  };
  std::vector<std::vector<Evaluated>> per_bucket(keys.size());
  for (std::size_t b = 0; b < keys.size(); ++b) {
    const rl::ConstraintPoint corner = builder.corner_constraint(keys[b], 1.0);
    for (const auto& actions : candidates) {
      const rl::Outcome o = env->evaluate(corner, actions);
      per_bucket[b].push_back({actions, o});
      ParetoPoint p;
      p.actions = actions;
      p.outcome = o;
      p.strategy = env->decode(actions);
      idx->front_for(keys[b]).insert(std::move(p));
    }
    ASSERT_TRUE(idx->front_for(keys[b]).invariants_ok());
  }

  int answered = 0;
  for (int q = 0; q < 1000; ++q) {
    const std::size_t b = rng.uniform_index(keys.size());
    // Query anywhere inside the bucket (grid cell [c/g, (c+1)/g)).
    rl::ConstraintPoint c = builder.corner_constraint(keys[b], rng.uniform());
    const double g = static_cast<double>(env->grid_points());
    for (std::size_t d = 1; d < c.coords.size(); ++d)
      c.coords[d] += rng.uniform() * (1.0 / g - 1e-9);
    const double budget = env->slo_value(c);

    const ParetoPoint* got =
        idx->find(keys[b])->best_within_latency(budget, nullptr);
    const Evaluated* want = nullptr;
    for (const auto& e : per_bucket[b])
      if (e.outcome.latency_ms <= budget &&
          (want == nullptr || e.outcome.accuracy > want->outcome.accuracy ||
           (e.outcome.accuracy == want->outcome.accuracy &&
            e.outcome.latency_ms < want->outcome.latency_ms)))
        want = &e;
    ASSERT_EQ(got == nullptr, want == nullptr) << "query " << q;
    if (!got) continue;
    ++answered;
    EXPECT_DOUBLE_EQ(got->outcome.accuracy, want->outcome.accuracy);
    // Corner conservatism: re-evaluated at the query's own conditions the
    // chosen strategy can only get faster.
    const rl::Outcome actual = env->evaluate(c, got->actions);
    EXPECT_LE(actual.latency_ms, got->outcome.latency_ms + 1e-9);
    EXPECT_LE(actual.latency_ms, budget + 1e-9);
  }
  EXPECT_GT(answered, 0);
}

/// Builder determinism: same seed + same inputs => byte-identical frames;
/// and building buckets in any order yields the same serialized index.
TEST(FrontBuilder, SeededDeterminism) {
  auto art = tiny_artifacts();
  FrontBuilderOptions opts;
  opts.seed = 77;
  opts.random_candidates = 24;
  opts.policy_rollouts = 4;
  const FrontBuilder b1(*art.env, opts);
  const FrontBuilder b2(*art.env, opts);
  const auto i1 = b1.build_all(art.replay.get(), art.policy.get());
  const auto i2 = b2.build_all(art.replay.get(), art.policy.get());
  ASSERT_GT(i1->num_buckets(), 0u);
  EXPECT_EQ(i1->serialize(), i2->serialize());

  // Per-bucket candidate streams are keyed by (seed, bucket): building the
  // same buckets in reverse order changes nothing.
  std::vector<FrontKey> keys;
  for (const auto& [k, f] : i1->fronts()) keys.push_back(k);
  std::sort(keys.begin(), keys.end(),
            [](const FrontKey& a, const FrontKey& b) {
              return a.coords < b.coords;
            });
  ParetoFrontIndex fwd(i1->task_dims(), i1->grid_points());
  ParetoFrontIndex rev(i1->task_dims(), i1->grid_points());
  for (auto it = keys.begin(); it != keys.end(); ++it)
    b1.build_bucket(fwd, *it, art.replay.get(), art.policy.get());
  for (auto it = keys.rbegin(); it != keys.rend(); ++it)
    b1.build_bucket(rev, *it, art.replay.get(), art.policy.get());
  EXPECT_EQ(fwd.serialize(), rev.serialize());
  EXPECT_EQ(fwd.serialize(), i1->serialize());
}

// ---------------------------------------------------------------------------
// Serialized-front frames (encode_checked container hardening)
// ---------------------------------------------------------------------------

ParetoFrontIndex small_index(const core::MurmurationEnv& env) {
  Rng rng(606);
  ParetoFrontIndex idx(env.constraint_dims() - 1, env.grid_points());
  FrontKey k;
  k.coords.assign(static_cast<std::size_t>(idx.task_dims()),
                  static_cast<std::int8_t>(env.grid_points() - 1));
  const rl::ConstraintPoint corner{
      std::vector<double>(static_cast<std::size_t>(env.constraint_dims()),
                          1.0)};
  for (int i = 0; i < 8; ++i) {
    ParetoPoint p;
    p.actions = random_rollout(env, rng);
    p.outcome = env.evaluate(corner, p.actions);
    p.strategy = env.decode(p.actions);
    const auto used = partition::plan_participants(
        p.strategy.plan, p.strategy.config, env.num_devices());
    for (std::size_t d = 0; d < used.size(); ++d)
      if (used[d]) p.device_mask |= 1ull << d;
    idx.front_for(k).insert(std::move(p));
  }
  return idx;
}

/// Round trip, then the full checked-frame hardening sweep: every bit flip,
/// every truncation, and the seeded corruption corpus must ALL reject — a
/// corrupt persisted front can never load.
TEST(FrontFrame, EveryBitFlipAndTruncationRejected) {
  const auto env = tiny_env();
  const ParetoFrontIndex idx = small_index(*env);
  ASSERT_GT(idx.num_points(), 0u);
  const std::vector<std::uint8_t> payload = idx.serialize();
  const std::vector<std::uint8_t> frame =
      encode_checked(payload, ParetoFrontIndex::kFrameVersion);
  ASSERT_LT(frame.size(), 64u * 1024u) << "frame too large to sweep";

  const testfuzz::Accepts accepts = [&](std::span<const std::uint8_t> bytes) {
    const auto p = decode_checked(bytes, ParetoFrontIndex::kFrameVersion);
    if (!p) return false;
    return ParetoFrontIndex::deserialize(*p, *env) != nullptr;
  };
  ASSERT_TRUE(accepts(frame));

  // Round trip preserves content exactly.
  const auto p = decode_checked(frame, ParetoFrontIndex::kFrameVersion);
  ASSERT_TRUE(p.has_value());
  const auto loaded = ParetoFrontIndex::deserialize(*p, *env);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->serialize(), payload);

  const testfuzz::CheckedFrameStats stats =
      testfuzz::sweep_checked_frame(frame, accepts, 707);
  EXPECT_EQ(stats.bit_flip_survivors, 0u);
  EXPECT_EQ(stats.truncation_survivors, 0u);
  EXPECT_EQ(stats.corpus.accepted, 0u);
  EXPECT_GT(stats.corpus.mutants, 0u);

  // Wrong container version rejects.
  EXPECT_FALSE(
      decode_checked(frame, ParetoFrontIndex::kFrameVersion + 1).has_value());
}

/// A frame whose checksum is VALID but whose payload is structurally bad
/// must be caught by the deserializer's schema walk (the second gate).
TEST(FrontFrame, ValidChecksumBadPayloadRejected) {
  const auto env = tiny_env();
  core::StrategyCache cache(*env);
  std::vector<std::uint8_t> payload = small_index(*env).serialize();
  // Declare an absurd bucket count (bytes 8..15, little-endian u64).
  for (int i = 0; i < 8; ++i) payload[8 + i] = 0xFF;
  const std::vector<std::uint8_t> frame =
      encode_checked(payload, ParetoFrontIndex::kFrameVersion);
  EXPECT_EQ(cache.offer_front_frame(frame), FrontVerdict::kRejectedInvariant);
  EXPECT_EQ(cache.front_index(), nullptr);
  EXPECT_EQ(cache.front_rejects(), 1u);

  // And a checksum-corrupt frame is caught by the first gate.
  std::vector<std::uint8_t> bad = encode_checked(
      small_index(*env).serialize(), ParetoFrontIndex::kFrameVersion);
  bad.back() ^= 0x01;
  EXPECT_EQ(cache.offer_front_frame(bad), FrontVerdict::kRejectedChecksum);
  EXPECT_EQ(cache.front_index(), nullptr);
}

// ---------------------------------------------------------------------------
// StrategyCache front tier
// ---------------------------------------------------------------------------

/// Without an installed index the front tier is inert: no answers, no
/// counters — the exact-key memo behaves exactly as before this PR.
TEST(CacheFront, InertWithoutIndex) {
  const auto env = tiny_env();
  core::StrategyCache cache(*env);
  const rl::ConstraintPoint c{std::vector<double>(
      static_cast<std::size_t>(env->constraint_dims()), 1.0)};
  EXPECT_FALSE(cache.front_query(c).has_value());
  EXPECT_EQ(cache.front_hits(), 0u);
  EXPECT_EQ(cache.front_misses(), 0u);
}

/// An installed front answers SLO queries with satisfying decisions, and
/// uncovered buckets fall back to a strictly dominating (tighter) bucket.
TEST(CacheFront, ServesQueriesAndSharesDominatingBuckets) {
  const auto env = tiny_env();
  core::StrategyCache cache(*env);
  auto idx = std::make_shared<ParetoFrontIndex>(env->constraint_dims() - 1,
                                                env->grid_points());
  // Build only the all-tightest bucket: it dominates every other bucket.
  FrontKey tightest;
  tightest.coords.assign(static_cast<std::size_t>(idx->task_dims()), 0);
  const FrontBuilder builder(*env, FrontBuilderOptions{.seed = 11});
  builder.build_bucket(*idx, tightest, nullptr, nullptr);
  ASSERT_FALSE(idx->front_for(tightest).empty());
  cache.install_front_index(idx);
  EXPECT_EQ(cache.front_installs(), 1u);

  // Query in a different (relaxed) bucket: resolves through sharing.
  const rl::ConstraintPoint c{std::vector<double>(
      static_cast<std::size_t>(env->constraint_dims()), 0.95)};
  const auto d = cache.front_query(c);
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->satisfied);
  EXPECT_TRUE(env->satisfies(c, d->predicted));
  EXPECT_EQ(cache.front_hits(), 1u);

  // An impossible SLO misses (nothing on the front satisfies it).
  rl::ConstraintPoint hopeless = c;
  hopeless.coords[0] = 0.0;  // tightest representable latency budget
  const bool any_fast =
      idx->front_for(tightest).best_within_latency(
          env->slo_value(hopeless)) != nullptr;
  if (!any_fast) {
    EXPECT_FALSE(cache.front_query(hopeless).has_value());
    EXPECT_EQ(cache.front_misses(), 1u);
  }
}

/// Drift purges tombstone ONLY buckets whose strategies touch the drifted
/// device; untouched buckets keep serving, and queries on tombstoned
/// buckets fall back rather than use poisoned fronts.
TEST(CacheFront, DriftInvalidatesOnlyAffectedBuckets) {
  const auto env = tiny_env();
  core::StrategyCache cache(*env);
  const int td = env->constraint_dims() - 1;
  auto idx = std::make_shared<ParetoFrontIndex>(td, env->grid_points());

  // Bucket A (tightest): one all-local point (mask device 0 only).
  FrontKey a;
  a.coords.assign(static_cast<std::size_t>(td), 0);
  idx->front_for(a).insert(pt(10.0, 50.0, {1}, 0b01));
  // Bucket B (relaxed): points that place work on device 1.
  FrontKey b;
  b.coords.assign(static_cast<std::size_t>(td),
                  static_cast<std::int8_t>(env->grid_points() - 1));
  idx->front_for(b).insert(pt(5.0, 40.0, {2}, 0b11));
  idx->front_for(b).insert(pt(8.0, 60.0, {3}, 0b11));
  cache.install_front_index(idx);

  EXPECT_EQ(cache.invalidate_fronts_touching(1), 1u);  // only bucket B
  EXPECT_EQ(cache.front_invalidations(), 1u);
  // Repeat purge: already tombstoned, nothing new.
  EXPECT_EQ(cache.invalidate_fronts_touching(1), 0u);

  // A query keyed into bucket B now falls back to bucket A's (dominating,
  // all-local) front instead of the tombstoned one.
  rl::ConstraintPoint cb{std::vector<double>(
      static_cast<std::size_t>(env->constraint_dims()), 0.99)};
  const auto d = cache.front_query(cb);
  if (d.has_value()) {
    EXPECT_EQ(d->strategy.plan, core::MurmurationEnv::Strategy{}.plan);
    EXPECT_DOUBLE_EQ(d->model.latency_ms, 10.0);
  }
  // Reinstall clears tombstones: bucket B serves again.
  cache.install_front_index(idx);
  EXPECT_EQ(cache.invalidate_fronts_touching(1), 1u);
}

// ---------------------------------------------------------------------------
// Background refiner
// ---------------------------------------------------------------------------

/// First cycle on an empty cache seed-builds the replay-derived index and
/// publishes it through the checked-frame guard.
TEST(Refiner, SeedsAndPublishesIndex) {
  auto art = tiny_artifacts();
  core::StrategyCache cache(*art.env);
  FrontRefinerOptions opts;
  opts.builder.random_candidates = 16;
  opts.builder.policy_rollouts = 2;
  FrontRefiner refiner(*art.env, *art.policy, art.replay.get(), cache, opts);
  ASSERT_TRUE(refiner.run_cycle());
  const auto idx = cache.front_index();
  ASSERT_NE(idx, nullptr);
  EXPECT_GT(idx->num_buckets(), 0u);
  EXPECT_GT(idx->num_points(), 0u);
  EXPECT_EQ(refiner.stats().published, 1u);
  EXPECT_EQ(cache.front_installs(), 1u);
  for (const auto& [k, front] : idx->fronts())
    EXPECT_TRUE(front.invariants_ok());
}

/// A requested (uncovered) bucket is built next cycle, while untouched
/// buckets carry over from the incumbent index unchanged.
TEST(Refiner, BuildsRequestedBucketsCopyOnWrite) {
  auto art = tiny_artifacts();
  core::StrategyCache cache(*art.env);
  FrontRefinerOptions opts;
  opts.builder.random_candidates = 16;
  opts.builder.policy_rollouts = 2;
  FrontRefiner refiner(*art.env, *art.policy, art.replay.get(), cache, opts);
  ASSERT_TRUE(refiner.run_cycle());
  const auto seeded = cache.front_index();

  // No pending requests: the cycle is a no-op.
  EXPECT_FALSE(refiner.run_cycle());

  // Ask for a bucket the seed build did not cover.
  ParetoFrontIndex keyer(seeded->task_dims(), seeded->grid_points());
  rl::ConstraintPoint c{std::vector<double>(
      static_cast<std::size_t>(art.env->constraint_dims()), 0.0)};
  c.coords[1] = 0.55;  // mid-grid task coordinate
  const FrontKey wanted = keyer.key_for(c);
  if (seeded->find(wanted) == nullptr) {
    refiner.request(c);
    ASSERT_TRUE(refiner.run_cycle());
    const auto next = cache.front_index();
    ASSERT_NE(next, seeded);
    EXPECT_NE(next->find(wanted), nullptr);
    // Carried-over buckets are byte-identical.
    for (const auto& [k, front] : seeded->fronts())
      if (!(k == wanted)) {
        ASSERT_NE(next->find(k), nullptr);
      }
  }
  EXPECT_GE(refiner.stats().requests, 0u);
}

// ---------------------------------------------------------------------------
// Decision-path integration (MurmurationSystem)
// ---------------------------------------------------------------------------

/// With a refiner attached and an index published, decide() answers from
/// the front tier (cache_hit without a policy rollout) and memoizes into
/// the exact memo; the lookups == hits + misses invariant is untouched.
TEST(SystemFront, DecisionPathUsesFrontTier) {
  auto art = tiny_artifacts();
  runtime::SystemOptions sopts;
  sopts.slo = core::Slo::latency_ms(400.0);
  sopts.use_predictor = false;
  runtime::MurmurationSystem sys(std::move(art), sopts);

  FrontRefinerOptions ropts;
  ropts.builder.random_candidates = 16;
  ropts.builder.policy_rollouts = 2;
  FrontRefiner refiner(sys.env(), sys.policy(), sys.replay(), sys.cache(),
                       ropts);
  sys.attach_front_refiner(&refiner);
  ASSERT_TRUE(refiner.run_cycle());
  ASSERT_NE(sys.cache().front_index(), nullptr);

  Rng img_rng(99);
  const Tensor image = Tensor::randn({1, 3, 224, 224}, img_rng, 0.0f, 0.5f);
  for (int i = 0; i < 4; ++i) {
    const runtime::InferenceResult r = sys.infer(image);
    EXPECT_NE(r.outcome, runtime::RequestOutcome::kFailed);
  }
  const auto& cache = sys.cache();
  // Front tier answered at least the first miss (later requests can hit
  // the exact memo the front populated).
  EXPECT_GT(cache.front_hits() + cache.front_misses(), 0u);
  EXPECT_EQ(cache.lookups(), cache.hits() + cache.misses());
}

// ---------------------------------------------------------------------------
// Concurrency hammer (TSan target)
// ---------------------------------------------------------------------------

/// Readers query the front while the background refiner publishes whole
/// replacements and a drift thread tombstones buckets. Run under TSan via
/// `ctest -L pareto` in tools/run_chaos_tests.sh. Invariants: every answer
/// satisfies its constraint, and the cache never serves from a freed index
/// (shared_ptr pinning — TSan/ASan would flag a use-after-free).
TEST(ParetoHammer, ReadersVsRefinerPublishAndDriftPurges) {
  auto art = tiny_artifacts();
  core::StrategyCache cache(*art.env);
  const core::MurmurationEnv& env = *art.env;
  LatencyCalibration calib(env.num_devices(), 0.5);
  const std::vector<bool> remote = {false, true};
  for (int i = 0; i < 16; ++i) calib.update(remote, 100.0, 170.0);
  ASSERT_TRUE(calib.active());

  FrontRefinerOptions opts;
  opts.builder.random_candidates = 8;
  opts.builder.policy_rollouts = 1;
  opts.cycle_interval_ms = 1.0;
  FrontRefiner refiner(env, *art.policy, art.replay.get(), cache, opts);
  ASSERT_TRUE(refiner.run_cycle());  // deterministic seed index
  refiner.start();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(1000 + static_cast<std::uint64_t>(t));
      while (!stop.load(std::memory_order_relaxed)) {
        rl::ConstraintPoint c;
        c.coords.resize(static_cast<std::size_t>(env.constraint_dims()));
        for (auto& v : c.coords) v = rng.uniform();
        const auto d = cache.front_query(c, t % 2 ? &calib : nullptr);
        if (d.has_value()) {
          answered.fetch_add(1, std::memory_order_relaxed);
          if (!d->satisfied) failures.fetch_add(1, std::memory_order_relaxed);
        }
        // Keep the refiner fed with uncovered buckets.
        if (!d.has_value()) refiner.request(c);
      }
    });
  }
  std::thread drifter([&] {
    Rng rng(2000);
    while (!stop.load(std::memory_order_relaxed)) {
      (void)cache.invalidate_fronts_touching(1 + rng.uniform_index(
          std::max<std::uint64_t>(1, env.num_devices() - 1)));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  drifter.join();
  refiner.stop();

  EXPECT_EQ(failures.load(), 0) << "front served an unsatisfying decision";
  EXPECT_GT(answered.load() + cache.front_misses(), 0u);
  EXPECT_GT(refiner.stats().cycles, 0u);
}

}  // namespace
}  // namespace murmur
