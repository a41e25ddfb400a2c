// Replica-sharded serving tier (DESIGN.md §5.13). The whole suite carries
// the `replicas` ctest label: tools/run_chaos_tests.sh runs it under
// ASan/UBSan and again under ThreadSanitizer (the kill/drain chaos tests
// exercise the router, workers and membership machine concurrently).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <future>
#include <memory>
#include <utility>
#include <vector>

#include "core/decision.h"
#include "core/training.h"
#include "netsim/faults.h"
#include "netsim/scenario.h"
#include "runtime/breaker.h"
#include "runtime/replica_pool.h"
#include "runtime/serving.h"
#include "runtime/system.h"

namespace murmur {
namespace {

using netsim::FaultInjector;
using netsim::FaultPlan;
using runtime::BreakerBoard;
using runtime::BreakerOptions;
using runtime::ReplicaPool;
using runtime::ReplicaPoolOptions;
using runtime::ReplicaState;
using runtime::ServeOutcome;

core::TrainedArtifacts tiny_artifacts(netsim::Scenario scenario) {
  core::TrainSetup setup;
  setup.scenario = scenario;
  setup.trainer.total_steps = 10;
  setup.trainer.eval_every = 10;
  setup.trainer.eval_points = 2;
  setup.policy.hidden = 16;
  return core::train(setup);
}

runtime::SystemOptions tiny_system_opts() {
  runtime::SystemOptions opts;
  opts.slo = core::Slo::latency_ms(400.0);
  opts.exec_width_mult = 0.1;
  opts.classes = 10;
  opts.use_predictor = false;
  return opts;
}

Tensor test_image(std::uint64_t seed) {
  Rng rng(seed);
  return Tensor::randn({1, 3, 224, 224}, rng, 0.0f, 0.5f);
}

BreakerOptions fast_breaker() {
  BreakerOptions o;
  o.failure_threshold = 3;
  o.open_cooldown_ms = 500.0;
  return o;
}

std::unique_ptr<runtime::MurmurationSystem> make_system(
    netsim::Scenario scenario = netsim::Scenario::kAugmentedComputing) {
  return std::make_unique<runtime::MurmurationSystem>(tiny_artifacts(scenario),
                                                      tiny_system_opts());
}

std::vector<std::unique_ptr<runtime::MurmurationSystem>> make_replicas(
    int n, netsim::Scenario scenario = netsim::Scenario::kAugmentedComputing) {
  std::vector<std::unique_ptr<runtime::MurmurationSystem>> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(make_system(scenario));
  return out;
}

runtime::RequestContext make_ctx(double sim_now_ms, std::uint64_t seed) {
  runtime::RequestContext ctx;
  ctx.slo = core::Slo::latency_ms(400.0);
  ctx.plan_slo = ctx.slo;
  ctx.sim_now_ms = sim_now_ms;
  ctx.seed = seed;
  return ctx;
}

std::future<ReplicaPool::Completion> submit_async(ReplicaPool& pool,
                                                  const Tensor& img,
                                                  runtime::RequestContext ctx) {
  auto promise = std::make_shared<std::promise<ReplicaPool::Completion>>();
  auto fut = promise->get_future();
  pool.submit(img, std::move(ctx), [promise](ReplicaPool::Completion&& c) {
    promise->set_value(std::move(c));
  });
  return fut;
}

ReplicaPool::Completion submit_sync(ReplicaPool& pool, const Tensor& img,
                                    runtime::RequestContext ctx) {
  return submit_async(pool, img, std::move(ctx)).get();
}

constexpr double kAwaitMs = 30'000.0;  // generous: sanitizer builds are slow

// -------------------------------------------------------- membership -------

TEST(ReplicaMembership, SeedReplicasStartServing) {
  ReplicaPool pool(make_replicas(2), ReplicaPoolOptions{});
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.state(0), ReplicaState::kServing);
  EXPECT_EQ(pool.state(1), ReplicaState::kServing);
  EXPECT_EQ(pool.routable_count(), 2u);
  EXPECT_EQ(pool.state(99), ReplicaState::kDead);  // out of range reads dead

  const auto snap = pool.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].id, 0);
  EXPECT_EQ(snap[1].id, 1);
  EXPECT_EQ(snap[0].state, ReplicaState::kServing);
  EXPECT_EQ(snap[0].load, 0);
  EXPECT_EQ(snap[0].executed, 0u);
  EXPECT_EQ(snap[0].breaker, BreakerBoard::State::kClosed);

  const auto c = submit_sync(pool, test_image(60), make_ctx(10.0, 1));
  EXPECT_NE(c.result.outcome, runtime::RequestOutcome::kFailed);
  EXPECT_GE(c.replica, 0);
  EXPECT_EQ(c.redispatches, 0);
  // The executing replica stamped itself into the result.
  EXPECT_EQ(c.result.replica, c.replica);
}

TEST(ReplicaMembership, JoinWarmupProbeSeedsAffinityThenServes) {
  ReplicaPoolOptions po;
  po.warmup_image = test_image(77);
  ReplicaPool pool(make_replicas(1), po);
  EXPECT_EQ(pool.size(), 1u);

  const int id = pool.join(make_system(), 50.0);
  EXPECT_EQ(id, 1);
  ASSERT_TRUE(pool.await_state(id, ReplicaState::kServing, kAwaitMs));
  EXPECT_EQ(pool.joins(), 1u);
  EXPECT_EQ(pool.routable_count(), 2u);

  // The warm-up probe seeded the joiner's affinity target, so an identical
  // request is pulled to the fresh replica instead of the incumbent.
  const auto snap = pool.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_NE(snap[1].affinity_key, 0u);

  const auto c = submit_sync(pool, test_image(77),
                             make_ctx(50.0, 0x9E3779B9ULL + 1));
  EXPECT_NE(c.result.outcome, runtime::RequestOutcome::kFailed);
  EXPECT_EQ(c.replica, id);
  EXPECT_GE(pool.affinity_routed(), 1u);
}

TEST(ReplicaMembership, JoinWarmupProbeFailureLandsDead) {
  ReplicaPoolOptions po;
  po.warmup_image = test_image(78);
  ReplicaPool pool(make_replicas(1), po);

  // The joiner's local device is down from t=0: the warm-up probe must
  // fail, and the replica must die without ever taking traffic.
  FaultPlan plan;
  plan.crash(0, 0.0);
  FaultInjector inj(std::move(plan));
  auto broken = make_system();
  broken->set_failover({.injector = &inj});
  const int id = pool.join(std::move(broken), 10.0);
  ASSERT_TRUE(pool.await_state(id, ReplicaState::kDead, kAwaitMs));
  EXPECT_EQ(pool.routable_count(), 1u);
  const auto snap = pool.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[1].executed, 0u);

  // The pool still serves on the incumbent.
  const auto c = submit_sync(pool, test_image(78), make_ctx(20.0, 2));
  EXPECT_NE(c.result.outcome, runtime::RequestOutcome::kFailed);
  EXPECT_EQ(c.replica, 0);
}

TEST(ReplicaMembership, KillOrDrainDuringJoinStillEndsDead) {
  // Whichever side of the warm-up the condemnation lands on, the joiner
  // must converge to kDead — never wedge in kJoining/kDraining.
  ReplicaPool pool(make_replicas(1), ReplicaPoolOptions{});
  const int killed = pool.join(make_system(), 5.0);
  pool.kill(killed);
  EXPECT_TRUE(pool.await_state(killed, ReplicaState::kDead, kAwaitMs));

  const int drained = pool.join(make_system(), 6.0);
  pool.drain(drained);
  EXPECT_TRUE(pool.await_state(drained, ReplicaState::kDead, kAwaitMs));
  EXPECT_EQ(pool.state(0), ReplicaState::kServing);
}

TEST(ReplicaMembership, DrainFinishesQueuedWorkThenExits) {
  ReplicaPool pool(make_replicas(2), ReplicaPoolOptions{});
  const Tensor img = test_image(62);

  // Seed replica 0's affinity so the burst concentrates there, then drain
  // it with work still queued: everything already routed to it must finish
  // before it leaves.
  const auto warm = submit_sync(pool, img, make_ctx(10.0, 3));
  ASSERT_NE(warm.result.outcome, runtime::RequestOutcome::kFailed);

  std::vector<std::future<ReplicaPool::Completion>> futs;
  for (int i = 0; i < 6; ++i)
    futs.push_back(submit_async(pool, img, make_ctx(10.0, 3)));
  pool.drain(0);
  for (auto& f : futs) {
    const auto c = f.get();
    EXPECT_NE(c.result.outcome, runtime::RequestOutcome::kFailed);
  }
  ASSERT_TRUE(pool.await_state(0, ReplicaState::kDead, kAwaitMs));
  EXPECT_EQ(pool.state(1), ReplicaState::kServing);
  EXPECT_EQ(pool.drains(), 1u);
  EXPECT_EQ(pool.routable_count(), 1u);
  EXPECT_EQ(pool.unroutable_failures(), 0u);
}

// ----------------------------------------------------------- routing -------

TEST(ReplicaRouting, AffinityConcentratesSameStrategyOnOneReplica) {
  ReplicaPool pool(make_replicas(2), ReplicaPoolOptions{});
  const Tensor img = test_image(63);

  // Identical context -> identical plan -> identical strategy key. After
  // the first (spill-routed) request establishes the affinity target, the
  // rest must converge on the same replica instead of ping-ponging the
  // resident supernet on both.
  constexpr int kRequests = 6;
  for (int i = 0; i < kRequests; ++i) {
    const auto c = submit_sync(pool, img, make_ctx(20.0, 4));
    ASSERT_NE(c.result.outcome, runtime::RequestOutcome::kFailed);
    EXPECT_EQ(c.replica, 0);  // spill ties break to the lowest id
  }
  EXPECT_EQ(pool.planned(), static_cast<std::uint64_t>(kRequests));
  EXPECT_GE(pool.affinity_routed(), static_cast<std::uint64_t>(kRequests - 1));
  EXPECT_LE(pool.spill_routed(), 1u);
  const auto snap = pool.snapshot();
  EXPECT_EQ(snap[0].executed, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(snap[1].executed, 0u);
  // One warm switch configures the resident supernet; affinity holds the
  // submodel resident for every later batch.
  EXPECT_EQ(snap[0].switches, 1u);
  EXPECT_EQ(snap[0].switches_held,
            static_cast<std::uint64_t>(kRequests - 1));
  EXPECT_EQ(snap[1].switches, 0u);
  EXPECT_EQ(pool.total_switches(), 1u);
}

TEST(ReplicaRouting, OpenReplicaTakesNoTraffic) {
  ReplicaPoolOptions po;
  po.breaker = fast_breaker();
  ReplicaPool pool(make_replicas(2), po);
  const Tensor img = test_image(64);

  for (int i = 0; i < 3; ++i) pool.breakers().record(0, true, 0.0);
  ASSERT_EQ(pool.breakers().state(0), BreakerBoard::State::kOpen);
  EXPECT_EQ(pool.routable_count(), 1u);

  // Before the cooldown every request lands on the healthy survivor.
  for (int i = 0; i < 3; ++i) {
    const auto c = submit_sync(pool, img, make_ctx(100.0, 5));
    EXPECT_NE(c.result.outcome, runtime::RequestOutcome::kFailed);
    EXPECT_EQ(c.replica, 1);
  }
  const auto snap = pool.snapshot();
  EXPECT_EQ(snap[0].executed, 0u);
  EXPECT_EQ(snap[1].executed, 3u);
}

TEST(ReplicaRouting, HalfOpenProbeIsSteeredAndCloses) {
  ReplicaPoolOptions po;
  po.breaker = fast_breaker();
  ReplicaPool pool(make_replicas(2), po);

  // Replica 0 trips before it ever executes (no affinity anywhere), so the
  // first request past the cooldown is deliberately steered at the
  // half-open target: the single probe grant is spent on real traffic, and
  // its success closes the breaker.
  for (int i = 0; i < 3; ++i) pool.breakers().record(0, true, 0.0);
  ASSERT_EQ(pool.breakers().state(0), BreakerBoard::State::kOpen);

  const auto c = submit_sync(pool, test_image(65), make_ctx(1'000.0, 6));
  EXPECT_NE(c.result.outcome, runtime::RequestOutcome::kFailed);
  EXPECT_EQ(c.replica, 0);
  EXPECT_EQ(pool.probe_routed(), 1u);
  EXPECT_EQ(pool.breakers().state(0), BreakerBoard::State::kClosed);
  EXPECT_GE(pool.breakers().closes(), 1u);
  EXPECT_EQ(pool.routable_count(), 2u);
}

// ---------------------------------------------------------- batching -------

TEST(ReplicaBatching, WorkerCoalescesSameStrategyArrivals) {
  ReplicaPoolOptions po;
  po.max_batch = 4;
  po.batch_window_ms = 1e6;    // sim window never the binding constraint
  po.drain_grace_ms = 200.0;   // wall grace so the burst coalesces
  ReplicaPool pool(make_replicas(1), po);
  const Tensor img = test_image(66);

  const auto warm = submit_sync(pool, img, make_ctx(10.0, 7));
  ASSERT_NE(warm.result.outcome, runtime::RequestOutcome::kFailed);

  std::vector<std::future<ReplicaPool::Completion>> futs;
  for (int i = 0; i < 4; ++i)
    futs.push_back(submit_async(pool, img, make_ctx(10.0, 7)));
  for (auto& f : futs) {
    const auto c = f.get();
    EXPECT_NE(c.result.outcome, runtime::RequestOutcome::kFailed);
  }
  // Identical strategy + generous grace: at least one rider shared a batch
  // (and therefore a supernet switch) with another request.
  EXPECT_GE(pool.coalesced(), 1u);
  EXPECT_LT(pool.batches(), 5u);
}

// ------------------------------------------------------------- chaos -------

TEST(ReplicaChaos, KillMidBurstLosesNothing) {
  // The acceptance drill: kill one replica while a burst is in flight.
  // Every admitted request must resolve as completed/degraded/shed — none
  // lost, none hung, none failed — and the pool returns to steady state on
  // the survivor.
  auto systems = make_replicas(2);
  ReplicaPoolOptions po;
  po.breaker = fast_breaker();
  ReplicaPool pool(std::move(systems), po);
  runtime::ServingOptions so;
  so.queue_capacity = 64;
  so.seed = 21;
  runtime::ServingLayer serving(pool, so);
  const Tensor img = test_image(67);

  const auto warm = serving.submit(img, 0.0).get();
  ASSERT_NE(warm.outcome, ServeOutcome::kShed);

  constexpr int kRequests = 32;
  const core::Slo roomy = core::Slo::latency_ms(1e9);
  std::vector<std::future<runtime::ServeResult>> futs;
  futs.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i)
    futs.push_back(serving.submit(img, 1'000.0 + i, roomy));

  // Let the burst reach the workers, then crash a replica under it.
  std::vector<runtime::ServeResult> results;
  results.reserve(kRequests);
  results.push_back(futs.front().get());
  pool.kill(0);
  for (std::size_t i = 1; i < futs.size(); ++i)
    results.push_back(futs[i].get());  // resolves: no hangs

  int redispatched_requests = 0;
  for (const auto& r : results) {
    EXPECT_NE(r.outcome, ServeOutcome::kFailed);
    if (r.redispatches > 0) {
      ++redispatched_requests;
      // A ride through a crash is never reported as a clean completion.
      EXPECT_NE(r.outcome, ServeOutcome::kCompleted);
    }
  }
  EXPECT_EQ(serving.failed(), 0u);
  EXPECT_EQ(serving.completed() + serving.degraded() + serving.shed(),
            static_cast<std::uint64_t>(kRequests) + 1);
  // The victim's backlog really was re-dispatched, not silently dropped.
  EXPECT_GT(pool.redispatched(), 0u);
  EXPECT_GT(redispatched_requests, 0);
  EXPECT_EQ(pool.kills(), 1u);
  ASSERT_TRUE(pool.await_state(0, ReplicaState::kDead, kAwaitMs));
  EXPECT_EQ(pool.state(1), ReplicaState::kServing);

  // Steady state: the survivor still serves.
  const auto after = serving.submit(img, 5'000.0, roomy).get();
  EXPECT_NE(after.outcome, ServeOutcome::kShed);
  EXPECT_NE(after.outcome, ServeOutcome::kFailed);
  EXPECT_EQ(after.inference.replica, 1);
}

TEST(ReplicaChaos, AllReplicasDeadFailsTerminallyInsteadOfHanging) {
  ReplicaPool pool(make_replicas(1), ReplicaPoolOptions{});
  pool.kill(0);
  ASSERT_TRUE(pool.await_state(0, ReplicaState::kDead, kAwaitMs));
  EXPECT_EQ(pool.routable_count(), 0u);
  EXPECT_LT(pool.peek_earliest_start(100.0), 0.0);

  const auto c = submit_sync(pool, test_image(68), make_ctx(100.0, 8));
  EXPECT_EQ(c.result.outcome, runtime::RequestOutcome::kFailed);
  EXPECT_EQ(c.replica, -1);
  EXPECT_GE(pool.unroutable_failures(), 1u);
}

TEST(ReplicaChaos, ThrowingGroupFailsItsMembersAndWorkerKeepsServing) {
  // Declared before the pool, so they outlive its worker threads.
  std::atomic<int> calls{0};
  std::promise<ReplicaPool::Completion> bad_done;
  ReplicaPool pool(make_replicas(1), ReplicaPoolOptions{});
  // Two images in one tensor plan fine but execute_batch rejects them: the
  // request must resolve kFailed exactly once instead of taking the
  // worker thread (and the process) down.
  Rng rng(71);
  const Tensor pair = Tensor::randn({2, 3, 224, 224}, rng, 0.0f, 0.5f);
  pool.submit(pair, make_ctx(100.0, 9), [&](ReplicaPool::Completion&& c) {
    if (calls.fetch_add(1) == 0) bad_done.set_value(std::move(c));
  });
  const auto bad = bad_done.get_future().get();
  EXPECT_EQ(bad.result.outcome, runtime::RequestOutcome::kFailed);
  EXPECT_FALSE(bad.result.slo_met);
  EXPECT_EQ(bad.replica, 0);

  const auto good = submit_sync(pool, test_image(72), make_ctx(200.0, 10));
  EXPECT_NE(good.result.outcome, runtime::RequestOutcome::kFailed);
  EXPECT_EQ(good.replica, 0);
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(pool.state(0), ReplicaState::kServing);
  EXPECT_EQ(pool.batches(), 2u);
}

// --------------------------------------------------- pool-mode admission ---

TEST(ReplicaAdmission, QueueCapacityScalesWithRoutableReplicas) {
  ReplicaPool pool(make_replicas(2), ReplicaPoolOptions{});
  runtime::ServingOptions so;
  so.queue_capacity = 4;  // per replica: 2 routable -> 8 in-system slots
  runtime::ServingLayer serving(pool, so);
  const Tensor img = test_image(69);

  serving.submit(img, 0.0).get();
  ASSERT_GT(serving.latency_estimate_ms(), 0.0);

  const core::Slo roomy = core::Slo::latency_ms(1e9);
  std::vector<std::future<runtime::ServeResult>> futs;
  for (int i = 0; i < 12; ++i)
    futs.push_back(serving.submit(img, 1'000.0, roomy));
  int shed = 0;
  for (auto& f : futs) {
    const auto r = f.get();
    if (r.outcome == ServeOutcome::kShed) {
      ++shed;
      EXPECT_STREQ(r.shed_reason, "queue_full");
    }
  }
  EXPECT_EQ(shed, 4);  // 8 admitted across the pool, 4 shed
  EXPECT_EQ(serving.shed_queue_full(), 4u);
}

TEST(ReplicaAdmission, NoHealthyReplicaShedsInsteadOfHanging) {
  ReplicaPool pool(make_replicas(2), ReplicaPoolOptions{});
  runtime::ServingOptions so;
  so.queue_capacity = 8;
  runtime::ServingLayer serving(pool, so);
  pool.kill(0);
  pool.kill(1);
  ASSERT_TRUE(pool.await_state(0, ReplicaState::kDead, kAwaitMs));
  ASSERT_TRUE(pool.await_state(1, ReplicaState::kDead, kAwaitMs));
  EXPECT_EQ(pool.routable_count(), 0u);

  const auto r = serving.submit(test_image(70), 100.0).get();
  EXPECT_EQ(r.outcome, ServeOutcome::kShed);
  EXPECT_STREQ(r.shed_reason, "no_healthy_replica");
  EXPECT_EQ(serving.shed_no_replica(), 1u);
  EXPECT_EQ(serving.shed(), 1u);
}

TEST(ReplicaAdmission, ReserveTracksPerReplicaClocks) {
  ReplicaPool pool(make_replicas(2), ReplicaPoolOptions{});
  // Two reservations at the same arrival land on different replicas (both
  // clocks idle), so both start immediately; the third must queue behind
  // the earlier of the two.
  EXPECT_DOUBLE_EQ(pool.peek_earliest_start(100.0), 100.0);
  EXPECT_DOUBLE_EQ(pool.reserve(100.0, 50.0), 100.0);
  EXPECT_DOUBLE_EQ(pool.peek_earliest_start(100.0), 100.0);
  EXPECT_DOUBLE_EQ(pool.reserve(100.0, 30.0), 100.0);
  EXPECT_DOUBLE_EQ(pool.peek_earliest_start(100.0), 130.0);
  EXPECT_DOUBLE_EQ(pool.reserve(100.0, 10.0), 130.0);
  // Dead replicas' clocks drop out of the scan entirely.
  pool.kill(1);
  ASSERT_TRUE(pool.await_state(1, ReplicaState::kDead, kAwaitMs));
  EXPECT_DOUBLE_EQ(pool.peek_earliest_start(100.0), 150.0);
}

}  // namespace
}  // namespace murmur
