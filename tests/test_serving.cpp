// SLO-aware admission control, concurrent serving, and overload
// self-protection (DESIGN.md §5.9). The whole suite carries the `serving`
// ctest label: tools/run_chaos_tests.sh runs it under ASan/UBSan and again
// under ThreadSanitizer (the concurrency-heavy tests are the TSan target).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <future>
#include <limits>
#include <thread>
#include <tuple>
#include <vector>

#include "core/decision.h"
#include "core/strategy_cache.h"
#include "core/training.h"
#include "netsim/faults.h"
#include "netsim/scenario.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "partition/plan.h"
#include "runtime/breaker.h"
#include "runtime/serving.h"
#include "runtime/system.h"

namespace murmur {
namespace {

using netsim::FaultInjector;
using netsim::FaultPlan;
using runtime::BreakerBoard;
using runtime::BreakerOptions;
using runtime::ServeOutcome;

// ------------------------------------------------------- breaker machine ----

BreakerOptions fast_breaker() {
  BreakerOptions o;
  o.failure_threshold = 3;
  o.open_cooldown_ms = 500.0;
  return o;
}

TEST(Breaker, TripsAfterConsecutiveFailuresOnly) {
  BreakerBoard board(3, fast_breaker());
  EXPECT_EQ(board.state(1), BreakerBoard::State::kClosed);
  board.record(1, true, 0.0);
  board.record(1, true, 10.0);
  board.record(1, false, 20.0);  // success resets the streak
  board.record(1, true, 30.0);
  board.record(1, true, 40.0);
  EXPECT_EQ(board.state(1), BreakerBoard::State::kClosed);
  EXPECT_EQ(board.trips(), 0u);
  board.record(1, true, 50.0);  // third consecutive failure
  EXPECT_EQ(board.state(1), BreakerBoard::State::kOpen);
  EXPECT_EQ(board.trips(), 1u);
  // The other device's breaker is untouched.
  EXPECT_EQ(board.state(2), BreakerBoard::State::kClosed);
}

TEST(Breaker, OpenBlocksUntilCooldownThenHalfOpenProbe) {
  BreakerBoard board(2, fast_breaker());
  for (int i = 0; i < 3; ++i) board.record(1, true, 100.0);
  ASSERT_EQ(board.state(1), BreakerBoard::State::kOpen);

  // Before the cooldown the device stays out of the admitted mask.
  auto mask = board.admitted_mask(400.0);
  EXPECT_TRUE(mask[0]);  // device 0 is never broken
  EXPECT_FALSE(mask[1]);
  EXPECT_EQ(board.state(1), BreakerBoard::State::kOpen);

  // Cooldown elapsed: the mask itself performs open -> half-open and
  // admits the probe.
  mask = board.admitted_mask(650.0);
  EXPECT_TRUE(mask[1]);
  EXPECT_EQ(board.state(1), BreakerBoard::State::kHalfOpen);
  EXPECT_EQ(board.half_opens(), 1u);
}

TEST(Breaker, HalfOpenProbeDecidesBothWays) {
  // Probe failure: reopen, cooldown restarts from the failure time.
  BreakerBoard reopen(2, fast_breaker());
  for (int i = 0; i < 3; ++i) reopen.record(1, true, 0.0);
  (void)reopen.admitted_mask(600.0);
  ASSERT_EQ(reopen.state(1), BreakerBoard::State::kHalfOpen);
  reopen.record(1, true, 610.0);
  EXPECT_EQ(reopen.state(1), BreakerBoard::State::kOpen);
  EXPECT_EQ(reopen.trips(), 2u);
  EXPECT_FALSE(reopen.admitted_mask(1'000.0)[1]);  // 610 + 500 > 1000
  EXPECT_TRUE(reopen.admitted_mask(1'200.0)[1]);

  // Probe success: close, and the failure streak starts from zero.
  BreakerBoard close(2, fast_breaker());
  for (int i = 0; i < 3; ++i) close.record(1, true, 0.0);
  (void)close.admitted_mask(600.0);
  close.record(1, false, 610.0);
  EXPECT_EQ(close.state(1), BreakerBoard::State::kClosed);
  EXPECT_EQ(close.closes(), 1u);
  close.record(1, true, 620.0);
  close.record(1, true, 630.0);
  EXPECT_EQ(close.state(1), BreakerBoard::State::kClosed);
}

TEST(Breaker, StragglerReportsIgnoredWhileOpen) {
  BreakerBoard board(2, fast_breaker());
  for (int i = 0; i < 3; ++i) board.record(1, true, 0.0);
  ASSERT_EQ(board.state(1), BreakerBoard::State::kOpen);
  // A request admitted before the trip reports late: no state change, no
  // new trip counted.
  board.record(1, true, 5.0);
  board.record(1, false, 6.0);
  EXPECT_EQ(board.state(1), BreakerBoard::State::kOpen);
  EXPECT_EQ(board.trips(), 1u);
  EXPECT_EQ(board.open_count(), 1u);
}

TEST(Breaker, OutOfRangeDeviceReadsAsClosed) {
  BreakerBoard board(2, fast_breaker());
  EXPECT_EQ(board.state(99), BreakerBoard::State::kClosed);
  EXPECT_STREQ(board.state_name(99), "closed");
  // record() already guarded; reads and writes agree on out-of-range ids.
  board.record(99, true, 0.0);
  EXPECT_EQ(board.trips(), 0u);
}

TEST(Breaker, TransitionsVisibleInRuntimeBreakerMetrics) {
  obs::set_enabled(true);
  auto& reg = obs::MetricsRegistry::instance();
  const std::uint64_t trips0 = reg.counter("runtime.breaker.trip").value();
  const std::uint64_t half0 = reg.counter("runtime.breaker.half_open").value();
  const std::uint64_t close0 = reg.counter("runtime.breaker.close").value();

  BreakerBoard board(2, fast_breaker());
  for (int i = 0; i < 3; ++i) board.record(1, true, 0.0);      // trip
  (void)board.admitted_mask(600.0);                            // half-open
  board.record(1, false, 610.0);                               // close
  obs::set_enabled(false);

  EXPECT_EQ(reg.counter("runtime.breaker.trip").value(), trips0 + 1);
  EXPECT_EQ(reg.counter("runtime.breaker.half_open").value(), half0 + 1);
  EXPECT_EQ(reg.counter("runtime.breaker.close").value(), close0 + 1);
}

TEST(Breaker, HalfOpenProbeIsSingleFlightUnderConcurrency) {
  // Many threads consult the board at the same post-cooldown instant:
  // exactly one may carry the half-open probe. The rest must read the
  // target as not admitted until the probe resolves (or expires).
  BreakerBoard board(4, fast_breaker());
  for (int i = 0; i < 3; ++i) board.record(1, true, 0.0);
  ASSERT_EQ(board.state(1), BreakerBoard::State::kOpen);

  constexpr int kThreads = 8;
  constexpr int kCalls = 50;
  std::atomic<int> go{0};
  std::atomic<int> grants{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      go.fetch_add(1);
      while (go.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < kCalls; ++i)
        if (board.admitted_mask(650.0)[1]) grants.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(grants.load(), 1);
  EXPECT_EQ(board.state(1), BreakerBoard::State::kHalfOpen);
  EXPECT_EQ(board.half_opens(), 1u);

  // A probe whose report never arrives expires after another cooldown and
  // a fresh grant is issued — the target cannot be wedged out forever.
  EXPECT_FALSE(board.admitted_mask(1'100.0)[1]);  // 650 + 500 not elapsed
  EXPECT_TRUE(board.admitted_mask(1'200.0)[1]);   // expired: re-granted
  board.record(1, false, 1'210.0);
  EXPECT_EQ(board.state(1), BreakerBoard::State::kClosed);
}

TEST(Breaker, TransitionLogDropsAreCounted) {
  BreakerBoard board(2, fast_breaker());
  EXPECT_EQ(board.dropped_transitions(), 0u);
  // Each cycle logs three transitions: trip, half-open, close.
  double t = 0.0;
  for (int cycle = 0; cycle < 100; ++cycle) {
    for (int i = 0; i < 3; ++i) board.record(1, true, t);
    t += 600.0;                    // past the 500 ms cooldown
    (void)board.admitted_mask(t);  // open -> half-open (probe granted)
    board.record(1, false, t);     // probe success -> closed
    t += 10.0;
  }
  EXPECT_EQ(board.transitions().size(), BreakerBoard::kMaxTransitionLog);
  EXPECT_EQ(board.dropped_transitions(),
            300u - BreakerBoard::kMaxTransitionLog);
}

// --------------------------------------------------- degradation ladder ----

TEST(DegradationLadder, RungAndFactorEndpoints) {
  core::DegradationLadder::Options o;
  o.rungs = 3;
  o.min_factor = 0.4;
  const core::DegradationLadder ladder(o);
  EXPECT_EQ(ladder.rung_for(0.0), 0);
  EXPECT_EQ(ladder.rung_for(1.0), 3);
  EXPECT_EQ(ladder.rung_for(-5.0), 0);   // clamped
  EXPECT_EQ(ladder.rung_for(7.0), 3);    // clamped
  EXPECT_DOUBLE_EQ(ladder.factor(0), 1.0);
  EXPECT_DOUBLE_EQ(ladder.factor(3), 0.4);
  EXPECT_DOUBLE_EQ(ladder.factor(99), 0.4);  // clamped to deepest
  EXPECT_GT(ladder.factor(1), ladder.factor(2));

  const core::Slo slo = core::Slo::latency_ms(200.0);
  const core::Slo deep = ladder.effective(slo, 3);
  EXPECT_EQ(deep.type, core::SloType::kLatency);
  EXPECT_DOUBLE_EQ(deep.value, 80.0);
  // Rung 0 is the honest SLO.
  EXPECT_DOUBLE_EQ(ladder.effective(slo, 0).value, slo.value);
}

TEST(DegradationLadder, ZeroRungsNeverDegrades) {
  core::DegradationLadder::Options o;
  o.rungs = 0;
  const core::DegradationLadder ladder(o);
  EXPECT_EQ(ladder.rung_for(1.0), 0);
  EXPECT_DOUBLE_EQ(ladder.factor(1), 1.0);
}

// ------------------------------------------------ strategy cache hammer ----

core::MurmurationEnv make_aug_env() {
  return core::MurmurationEnv(netsim::make_augmented_computing(),
                              core::SloType::kLatency);
}

TEST(StrategyCacheConcurrency, HammeredFromManyThreadsStaysConsistent) {
  const auto env = make_aug_env();
  core::StrategyCache cache(env, 32);
  constexpr int kThreads = 8;
  constexpr int kOps = 400;
  std::atomic<int> go{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      go.fetch_add(1);
      while (go.load() < kThreads) std::this_thread::yield();
      Rng rng(static_cast<std::uint64_t>(t) + 77);
      for (int i = 0; i < kOps; ++i) {
        rl::ConstraintPoint c{{rng.uniform(), rng.uniform(), rng.uniform()}};
        switch (i % 4) {
          case 0: {
            core::Decision d;
            d.strategy.plan.head_device = static_cast<std::uint8_t>(t % 2);
            cache.put(c, d);
            break;
          }
          case 1:
            (void)cache.get(c);
            break;
          case 2:
            (void)cache.size();
            break;
          default:
            if (i % 40 == 3)
              (void)cache.invalidate_if([&](const core::Decision& d) {
                return d.strategy.plan.head_device == 1;
              });
            break;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  // Post-conditions, not exact counts: bounded size, coherent counters
  // (every one of the kThreads * kOps/4 lookups was a hit or a miss).
  EXPECT_LE(cache.size(), 32u);
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<std::uint64_t>(kThreads) * kOps / 4);
  // The lookups counter is bumped with the hit/miss classification under
  // the same lock, so the ledger balances at any observation point — not
  // just after quiescence.
  EXPECT_EQ(cache.lookups(), cache.hits() + cache.misses());
  // Still fully operational after the storm.
  rl::ConstraintPoint probe{{0.5, 0.5, 0.5}};
  cache.put(probe, core::Decision{});
  EXPECT_TRUE(cache.get(probe).has_value());
}

// ----------------------------------------------------- serving admission ----

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

TEST(ServingAdmission, ConcurrentPathMatchesSingleCallerSemantics) {
  // The thread-safe infer(ctx) overload serves correctly standalone.
  auto system = runtime::MurmurationSystem(
      tiny_artifacts(netsim::Scenario::kAugmentedComputing),
      tiny_system_opts());
  const Tensor img = test_image(51);
  runtime::RequestContext ctx;
  ctx.slo = system.slo();
  ctx.plan_slo = system.slo();
  ctx.sim_now_ms = 50.0;
  ctx.seed = 9;
  const auto r = system.infer(img, ctx);
  EXPECT_EQ(r.logits.dim(1), 10);
  EXPECT_NE(r.outcome, runtime::RequestOutcome::kFailed);
  // Queue wait charges into the SLO check: an enormous wait must flip the
  // same request to slo_violated.
  runtime::RequestContext late = ctx;
  late.sim_now_ms = 100.0;
  late.queue_wait_ms = 1e6;
  const auto r2 = system.infer(img, late);
  EXPECT_FALSE(r2.slo_met);
  EXPECT_EQ(r2.outcome, runtime::RequestOutcome::kSloViolated);
}

TEST(ServingAdmission, QueueFullShedsImmediately) {
  auto system = runtime::MurmurationSystem(
      tiny_artifacts(netsim::Scenario::kAugmentedComputing),
      tiny_system_opts());
  runtime::ServingOptions so;
  so.workers = 2;
  so.queue_capacity = 4;
  runtime::ServingLayer serving(system, so);
  const Tensor img = test_image(52);

  // Teach the estimator a huge latency so subsequent arrivals stack up on
  // the sim clock deterministically: a warm-up request, then wait for it.
  serving.submit(img, 0.0).get();
  ASSERT_GT(serving.latency_estimate_ms(), 0.0);

  // All at sim time 1000: each admit reserves ~one latency of busy time,
  // none retire (they finish later), so the 5th+ arrival sees a full queue.
  // The roomy SLO keeps the deadline check out of the way — queue_full
  // must be the only shed reason in play.
  const core::Slo roomy = core::Slo::latency_ms(1e9);
  std::vector<std::future<runtime::ServeResult>> futs;
  for (int i = 0; i < 8; ++i)
    futs.push_back(serving.submit(img, 1'000.0, roomy));
  int shed = 0;
  for (auto& f : futs) {
    const auto r = f.get();
    if (r.outcome == ServeOutcome::kShed) {
      ++shed;
      EXPECT_STREQ(r.shed_reason, "queue_full");
    }
  }
  EXPECT_EQ(shed, 4);  // capacity 4 admitted, 4 shed
  EXPECT_EQ(serving.shed(), 4u);
  EXPECT_EQ(serving.submitted(), 9u);
}

TEST(ServingAdmission, ColdStartBurstStillHitsQueueCapacity) {
  // No warm-up: the EWMA has no sample, so reservations fall back to the
  // conservative cold-start prior. The bounded queue must hold anyway —
  // a same-instant burst beyond capacity sheds with queue_full instead of
  // flooding the pool through zero-width reservations.
  auto system = runtime::MurmurationSystem(
      tiny_artifacts(netsim::Scenario::kAugmentedComputing),
      tiny_system_opts());
  runtime::ServingOptions so;
  so.workers = 2;
  so.queue_capacity = 4;
  runtime::ServingLayer serving(system, so);
  ASSERT_DOUBLE_EQ(serving.latency_estimate_ms(), 0.0);
  const Tensor img = test_image(58);

  const core::Slo roomy = core::Slo::latency_ms(1e9);
  std::vector<std::future<runtime::ServeResult>> futs;
  for (int i = 0; i < 8; ++i)
    futs.push_back(serving.submit(img, 100.0, roomy));
  int shed = 0;
  for (auto& f : futs) {
    const auto r = f.get();
    if (r.outcome == ServeOutcome::kShed) {
      ++shed;
      EXPECT_STREQ(r.shed_reason, "queue_full");
    }
  }
  EXPECT_EQ(shed, 4);  // capacity 4 admitted, 4 shed — even stone cold
}

TEST(ServingAdmission, DestructionDrainsInFlightRequests) {
  // Submit a burst and destroy the layer without waiting: the pool must
  // drain (tasks still touch the estimator, counters, and metrics) and
  // every future must resolve. Destruction-order bugs here show up as
  // use-after-free under ASan/TSan.
  auto system = runtime::MurmurationSystem(
      tiny_artifacts(netsim::Scenario::kAugmentedComputing),
      tiny_system_opts());
  const Tensor img = test_image(59);
  std::vector<std::future<runtime::ServeResult>> futs;
  {
    runtime::ServingOptions so;
    so.workers = 4;
    so.queue_capacity = 16;
    runtime::ServingLayer serving(system, so);
    for (int i = 0; i < 12; ++i)
      futs.push_back(serving.submit(img, 100.0 + 5.0 * i));
  }  // ~ServingLayer: queued requests still run to completion
  for (auto& f : futs) {
    const auto r = f.get();
    EXPECT_NE(r.outcome, ServeOutcome::kFailed);
  }
}

TEST(ServingAdmission, InfeasibleDeadlineShedsInsteadOfServingLate) {
  auto system = runtime::MurmurationSystem(
      tiny_artifacts(netsim::Scenario::kAugmentedComputing),
      tiny_system_opts());
  runtime::ServingOptions so;
  so.workers = 2;
  so.queue_capacity = 64;  // never the binding constraint here
  runtime::ServingLayer serving(system, so);
  const Tensor img = test_image(53);
  serving.submit(img, 0.0).get();
  const double est = serving.latency_estimate_ms();
  ASSERT_GT(est, 0.0);

  // A request whose SLO cannot be met even at the deepest rung with an
  // empty queue: slo far below the best-case estimate.
  const auto r =
      serving.submit(img, 1'000.0, core::Slo::latency_ms(est * 0.1)).get();
  EXPECT_EQ(r.outcome, ServeOutcome::kShed);
  EXPECT_STREQ(r.shed_reason, "deadline_infeasible");

  // The same arrival with a generous SLO is admitted.
  const auto ok =
      serving.submit(img, 1'000.0, core::Slo::latency_ms(est * 50.0)).get();
  EXPECT_NE(ok.outcome, ServeOutcome::kShed);
}

TEST(ServingAdmission, PressureClimbsTheDegradationLadder) {
  auto system = runtime::MurmurationSystem(
      tiny_artifacts(netsim::Scenario::kAugmentedComputing),
      tiny_system_opts());
  runtime::ServingOptions so;
  so.workers = 2;
  so.queue_capacity = 8;
  so.ladder.rungs = 3;
  runtime::ServingLayer serving(system, so);
  const Tensor img = test_image(54);
  serving.submit(img, 0.0).get();

  // Stack arrivals at one sim instant with an SLO generous enough that the
  // deadline check never sheds: rungs must rise with depth before the
  // queue_full cliff.
  const core::Slo roomy = core::Slo::latency_ms(1e7);
  std::vector<std::future<runtime::ServeResult>> futs;
  for (int i = 0; i < 8; ++i)
    futs.push_back(serving.submit(img, 5'000.0, roomy));
  std::vector<int> rungs;
  for (auto& f : futs) {
    const auto r = f.get();
    ASSERT_NE(r.outcome, ServeOutcome::kShed);
    rungs.push_back(r.rung);
  }
  EXPECT_EQ(rungs.front(), 0);          // empty queue -> honest SLO
  EXPECT_EQ(rungs.back(), 3);           // 7/8 full -> deepest rung
  for (std::size_t i = 1; i < rungs.size(); ++i)
    EXPECT_GE(rungs[i], rungs[i - 1]);  // pressure only grew
  // A degraded rung is reported as a degraded outcome even on success.
  EXPECT_GE(serving.degraded(), 1u);
}

TEST(ServingAdmission, PerSloClassEstimatesTrackEachClassSeparately) {
  auto system = runtime::MurmurationSystem(
      tiny_artifacts(netsim::Scenario::kAugmentedComputing),
      tiny_system_opts());
  runtime::ServingOptions so;
  so.workers = 1;  // sequential completions: estimates update in order
  so.queue_capacity = 64;
  so.ewma_alpha = 0.5;
  runtime::ServingLayer serving(system, so);
  const Tensor img = test_image(57);
  const core::Slo tight = system.slo();
  const core::Slo loose = core::Slo::latency_ms(5'000.0);

  // First completion of the tight class: its class estimate snaps to the
  // observed sim latency; the still-cold loose class reads the global
  // estimate as its fallback.
  const auto r1 = serving.submit(img, 0.0, tight).get();
  ASSERT_NE(r1.outcome, ServeOutcome::kShed);
  const double t1 = r1.inference.sim_latency_ms;
  EXPECT_DOUBLE_EQ(serving.class_latency_estimate_ms(tight), t1);
  EXPECT_DOUBLE_EQ(serving.class_latency_estimate_ms(loose),
                   serving.latency_estimate_ms());

  // First loose completion: the loose class now owns its estimate.
  const auto r2 = serving.submit(img, 2'000.0, loose).get();
  ASSERT_NE(r2.outcome, ServeOutcome::kShed);
  const double l1 = r2.inference.sim_latency_ms;
  EXPECT_DOUBLE_EQ(serving.class_latency_estimate_ms(loose), l1);

  // Further tight completions move only the tight class, by its own EWMA
  // recursion; the loose class estimate stays pinned to its one sample.
  double expect_tight = t1;
  for (int i = 0; i < 3; ++i) {
    const auto r = serving.submit(img, 4'000.0 + 2'000.0 * i, tight).get();
    ASSERT_NE(r.outcome, ServeOutcome::kShed);
    expect_tight += so.ewma_alpha * (r.inference.sim_latency_ms - expect_tight);
  }
  EXPECT_NEAR(serving.class_latency_estimate_ms(tight), expect_tight, 1e-9);
  EXPECT_DOUBLE_EQ(serving.class_latency_estimate_ms(loose), l1);
}

TEST(ServingAdmission, MalformedRequestsShedAsInvalidBeforeAdmission) {
  obs::set_enabled(true);
  obs::FlightRecorder::instance().reset();
  auto system = runtime::MurmurationSystem(
      tiny_artifacts(netsim::Scenario::kAugmentedComputing),
      tiny_system_opts());
  runtime::ServingOptions so;
  so.queue_capacity = 4;
  runtime::ServingLayer serving(system, so);
  const Tensor good = test_image(60);
  const core::Slo slo = system.slo();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(61);
  struct Bad {
    Tensor image;
    double arrival_ms;
    core::Slo slo;
    const char* what;
  };
  const std::vector<Bad> bad = {
      {Tensor::randn({1, 3, 100, 100}, rng, 0.0f, 0.5f), 10.0, slo,
       "smaller than the largest resolution"},
      {Tensor::randn({1, 3, 224, 160}, rng, 0.0f, 0.5f), 10.0, slo,
       "narrower than the largest resolution"},
      {Tensor::randn({2, 3, 224, 224}, rng, 0.0f, 0.5f), 10.0, slo,
       "two images"},
      {Tensor::randn({1, 1, 224, 224}, rng, 0.0f, 0.5f), 10.0, slo,
       "one channel"},
      {Tensor::randn({3, 224, 224}, rng, 0.0f, 0.5f), 10.0, slo, "rank 3"},
      {good, nan, slo, "NaN arrival"},
      {good, inf, slo, "infinite arrival"},
      {good, 10.0, core::Slo::latency_ms(0.0), "zero SLO"},
      {good, 10.0, core::Slo::latency_ms(-5.0), "negative SLO"},
      {good, 10.0, core::Slo::latency_ms(nan), "NaN SLO"},
      {good, 10.0, core::Slo::latency_ms(inf), "infinite SLO"},
  };
  for (const Bad& b : bad) {
    const auto r = serving.submit(b.image, b.arrival_ms, b.slo).get();
    EXPECT_EQ(r.outcome, ServeOutcome::kShed) << b.what;
    EXPECT_STREQ(r.shed_reason, "invalid_request") << b.what;
  }
  const auto n_bad = static_cast<std::uint64_t>(bad.size());
  EXPECT_EQ(serving.submitted(), n_bad);
  EXPECT_EQ(serving.shed(), n_bad);
  EXPECT_EQ(serving.shed_invalid(), n_bad);
  EXPECT_EQ(serving.shed_invalid() + serving.shed_queue_full() +
                serving.shed_infeasible() + serving.shed_no_replica(),
            serving.shed());

  // The rejects reserved nothing (no queue wait at the same arrival) and
  // took no sequence number (the first admitted request is seq 0).
  const auto ok = serving.submit(good, 10.0, slo).get();
  EXPECT_NE(ok.outcome, ServeOutcome::kShed);
  EXPECT_NE(ok.outcome, ServeOutcome::kFailed);
  EXPECT_DOUBLE_EQ(ok.queue_wait_ms, 0.0);
  const auto records = obs::FlightRecorder::instance().snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records.front().seq, 0u);
  EXPECT_EQ(serving.submitted(), n_bad + 1);
  EXPECT_EQ(serving.completed() + serving.degraded() + serving.shed() +
                serving.failed(),
            serving.submitted());
  obs::set_enabled(false);
}

TEST(ServingDeterminism, SingleSystemServingIsReproducible) {
  // One router plans every request in submission order, however many
  // workers the options ask for, so two fresh deployments fed the same
  // sequence serve it identically. As in a drifting deployment, the link
  // changes between drained epochs of 8 in-flight requests: the monitor's
  // smoothed estimate, and with it each request's constraint, depends on
  // the request's position in the planning order. SLOs spread over the
  // env's range make the memo miss and the policy run. Arrivals 10 s apart
  // keep admission out of the way (no queue wait, rung 0), and a near-zero
  // deepest-rung factor keeps the deadline check from shedding on
  // whichever completions happened to land first.
  using Row = std::tuple<ServeOutcome, std::uint64_t, double, int, double>;
  const auto run = [] {
    auto art = tiny_artifacts(netsim::Scenario::kAugmentedComputing);
    const core::EnvOptions eo = art.env->options();
    auto sys_opts = tiny_system_opts();
    sys_opts.use_predictor = true;
    auto system = runtime::MurmurationSystem(std::move(art), sys_opts);
    runtime::ServingOptions so;
    so.workers = 4;
    so.max_batch = 1;
    so.queue_capacity = 64;
    so.seed = 43;
    so.ladder.min_factor = 1e-3;
    runtime::ServingLayer serving(system, so);
    const Tensor img = test_image(62);
    constexpr int kEpochs = 6, kPerEpoch = 8, kRequests = kEpochs * kPerEpoch;
    constexpr double kMbps[kEpochs] = {20.0, 150.0, 40.0, 400.0, 10.0, 80.0};
    std::vector<Row> rows;
    for (int e = 0; e < kEpochs; ++e) {
      netsim::shape_remotes(system.network(), Bandwidth::from_mbps(kMbps[e]),
                            Delay::from_ms(10.0 + 5.0 * e));
      std::vector<std::future<runtime::ServeResult>> futs;
      for (int k = 0; k < kPerEpoch; ++k) {
        const int i = e * kPerEpoch + k;
        const double stratum = ((i * 13) % kRequests + 0.5) / kRequests;
        const double slo_ms = eo.slo_min + (eo.slo_max - eo.slo_min) * stratum;
        futs.push_back(serving.submit(img, 10'000.0 * i,
                                      core::Slo::latency_ms(slo_ms)));
      }
      for (auto& f : futs) {
        const auto r = f.get();
        rows.emplace_back(r.outcome, r.inference.strategy_key,
                          r.inference.sim_latency_ms, r.rung, r.queue_wait_ms);
      }
    }
    EXPECT_GT(system.cache().lookups(), system.cache().hits())
        << "every plan hit the memo: the policy never ran";
    return rows;
  };
  const auto first = run();
  const auto second = run();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_EQ(first[i], second[i]) << "request " << i;
}

TEST(ServingAdmission, CacheHitRequalifiedAgainstTighterSameBucketSlo) {
  // A strategy-cache bucket spans ~(slo_max-slo_min)/grid_points of SLO
  // value: a decision planned against a looser SLO must not be replayed
  // verbatim for a same-bucket request it would violate. Self-calibrating:
  // scan buckets for one where the planned decision's predicted latency
  // lands strictly inside the bucket, then re-plan below it.
  auto art = tiny_artifacts(netsim::Scenario::kAugmentedComputing);
  const auto& eo = art.env->options();
  const double bucket_w = (eo.slo_max - eo.slo_min) / eo.grid_points;
  auto opts = tiny_system_opts();
  auto system = runtime::MurmurationSystem(std::move(art), opts);
  const auto plan_at = [&](double slo_ms) {
    runtime::RequestContext ctx;
    ctx.slo = core::Slo::latency_ms(slo_ms);
    ctx.plan_slo = ctx.slo;
    ctx.sim_now_ms = 10.0;
    ctx.seed = 7;
    return system.plan_request(ctx);
  };

  // Let the monitor's estimate EWMA converge before anything is cached:
  // while it is still moving, consecutive plans can quantize the network
  // dimensions into different buckets and no lookup would ever hit.
  for (int i = 0; i < 16; ++i) (void)plan_at(eo.slo_max);

  double loose_slo = 0.0, tight_slo = 0.0;
  for (int k = 1; k < eo.grid_points && tight_slo == 0.0; ++k) {
    const double lo = eo.slo_min + k * bucket_w;
    const double hi = lo + 0.95 * bucket_w;  // same bucket as lo
    const auto planned = plan_at(hi);
    const double p = planned.result.decision.predicted.latency_ms;
    if (planned.result.decision.satisfied && p > lo + 1e-6 && p <= hi) {
      loose_slo = hi;
      tight_slo = (lo + p) / 2.0;  // same bucket, below the cached plan
    }
  }
  if (tight_slo == 0.0)
    GTEST_SKIP() << "no bucket with an interior predicted latency";

  // The loose plan is cached; the tighter same-bucket request must NOT
  // reuse it (the cached strategy would blow its deadline) — it re-decides.
  const auto tight = plan_at(tight_slo);
  EXPECT_FALSE(tight.result.cache_hit);
  if (tight.result.decision.satisfied) {
    EXPECT_LE(tight.result.decision.predicted.latency_ms, tight_slo + 1e-6);
  }

  // The bucket converged onto the tighter strategy: both classes now hit.
  EXPECT_TRUE(plan_at(tight_slo).result.cache_hit);
  EXPECT_TRUE(plan_at(loose_slo).result.cache_hit);
}

// -------------------------------------------------- breaker integration ----

TEST(ServingBreakers, TrippedDeviceLeavesHealthMaskAndPlans) {
  auto system = runtime::MurmurationSystem(
      tiny_artifacts(netsim::Scenario::kDeviceSwarm), tiny_system_opts());
  // Breakers act only with an injector attached; an empty plan means no
  // scheduled faults — health is pure breaker state.
  FaultInjector inj{FaultPlan{}};
  system.set_failover({.injector = &inj});
  const Tensor img = test_image(55);
  const auto warm = system.infer(img);
  ASSERT_NE(warm.outcome, runtime::RequestOutcome::kFailed);

  // Three observed failures trip device 2's breaker.
  for (int i = 0; i < 3; ++i) system.breakers().record(2, true, 100.0);
  ASSERT_EQ(system.breakers().state(2), BreakerBoard::State::kOpen);

  runtime::RequestContext ctx;
  ctx.slo = system.slo();
  ctx.plan_slo = system.slo();
  ctx.sim_now_ms = 200.0;  // before the 1000 ms cooldown elapses
  ctx.seed = 5;
  const auto r = system.infer(img, ctx);
  EXPECT_NE(r.outcome, runtime::RequestOutcome::kFailed);
  std::vector<bool> healthy(5, true);
  healthy[2] = false;
  EXPECT_FALSE(partition::plan_uses_unhealthy(
      r.decision.strategy.plan, r.decision.strategy.config, healthy));

  // After the cooldown the breaker half-opens and the device is admitted
  // again; a clean request closes it.
  runtime::RequestContext probe = ctx;
  probe.sim_now_ms = 1'500.0;
  const auto r2 = system.infer(img, probe);
  EXPECT_NE(r2.outcome, runtime::RequestOutcome::kFailed);
  EXPECT_GE(system.breakers().half_opens(), 1u);
  EXPECT_NE(system.breakers().state(2), BreakerBoard::State::kOpen);
}

// ------------------------------------------------------- overload soak ----

TEST(OverloadSoak, BurstUnderChaosResolvesEveryRequest) {
  // The acceptance scenario: >= 64 concurrent requests against the device
  // swarm (1 local + 4 remote) under a seeded chaos schedule. No hangs, no
  // crashes; every request resolves to exactly one outcome; a fraction is
  // shed rather than hung.
  auto system = runtime::MurmurationSystem(
      tiny_artifacts(netsim::Scenario::kDeviceSwarm), tiny_system_opts());
  Rng chaos_rng(17);
  FaultPlan::ChaosOptions copts;
  copts.horizon_ms = 2'000.0;
  copts.loss_probability = 0.05;
  FaultInjector inj(
      FaultPlan::chaos(system.network().num_devices(), copts, chaos_rng),
      /*seed=*/17);
  system.set_failover({.injector = &inj, .recv_slack_ms = 50.0});

  runtime::ServingOptions so;
  so.workers = 4;
  so.queue_capacity = 8;
  so.seed = 17;
  runtime::ServingLayer serving(system, so);
  const Tensor img = test_image(56);

  // Deterministic warm-up so the admission estimator is live for the burst.
  const auto warm = serving.submit(img, 0.0).get();
  ASSERT_NE(warm.outcome, ServeOutcome::kShed);
  ASSERT_GT(serving.latency_estimate_ms(), 0.0);

  // Overload burst: inter-arrival far below the service latency.
  constexpr int kRequests = 64;
  const double spacing = 5.0;
  std::vector<std::future<runtime::ServeResult>> futs;
  futs.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i)
    futs.push_back(serving.submit(img, 100.0 + i * spacing));

  int by_outcome[4] = {0, 0, 0, 0};
  for (auto& f : futs) {
    const auto r = f.get();  // resolves: no hangs
    ++by_outcome[static_cast<int>(r.outcome)];
    if (r.outcome != ServeOutcome::kShed) {
      ASSERT_EQ(r.inference.logits.dim(1), 10);
      for (int i = 0; i < 10; ++i)
        ASSERT_TRUE(std::isfinite(r.inference.logits.at(0, i)));
    } else {
      EXPECT_STRNE(r.shed_reason, "");
    }
  }
  // Exactly one outcome per request.
  EXPECT_EQ(by_outcome[0] + by_outcome[1] + by_outcome[2] + by_outcome[3],
            kRequests);
  EXPECT_EQ(serving.completed() + serving.degraded() + serving.shed() +
                serving.failed(),
            static_cast<std::uint64_t>(kRequests) + 1);
  // Sustained 10-40x overload: self-protection must shed a real fraction
  // instead of queueing unboundedly.
  EXPECT_GE(by_outcome[static_cast<int>(ServeOutcome::kShed)], kRequests / 4);
}

TEST(OverloadSoak, HalvedBurstRateShedsAlmostNothing) {
  // Same workload shape, fault-free, with inter-arrival comfortably above
  // the service latency: admission control must get out of the way.
  auto system = runtime::MurmurationSystem(
      tiny_artifacts(netsim::Scenario::kDeviceSwarm), tiny_system_opts());
  runtime::ServingOptions so;
  so.workers = 4;
  so.queue_capacity = 8;
  so.seed = 18;
  runtime::ServingLayer serving(system, so);
  const Tensor img = test_image(57);

  const auto warm = serving.submit(img, 0.0).get();
  ASSERT_NE(warm.outcome, ServeOutcome::kShed);
  const double est = serving.latency_estimate_ms();
  ASSERT_GT(est, 0.0);

  constexpr int kRequests = 64;
  const double spacing = 2.0 * est;  // under capacity: the queue drains
  std::vector<std::future<runtime::ServeResult>> futs;
  futs.reserve(kRequests);
  const double t0 = 100.0 + 2.0 * est;
  for (int i = 0; i < kRequests; ++i)
    futs.push_back(serving.submit(img, t0 + i * spacing));
  int shed = 0, unresolved = 0;
  for (auto& f : futs) {
    const auto r = f.get();
    if (r.outcome == ServeOutcome::kShed) ++shed;
    if (r.outcome != ServeOutcome::kCompleted &&
        r.outcome != ServeOutcome::kDegraded &&
        r.outcome != ServeOutcome::kShed &&
        r.outcome != ServeOutcome::kFailed)
      ++unresolved;
  }
  EXPECT_EQ(unresolved, 0);
  // "~0": allow a stray shed if the estimator drifts across submodels.
  EXPECT_LE(shed, kRequests / 16);
}

}  // namespace
}  // namespace murmur
