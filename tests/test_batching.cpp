// Strategy-coalesced batched execution tests (DESIGN.md §5.10). Carries
// the `batching` ctest label and runs under tools/run_chaos_tests.sh's
// ASan/UBSan/TSan sweeps alongside the serving suite.
//
// The load-bearing property: batching is a WALL-CLOCK optimization only.
// Every per-request observable — logits (bitwise), sim latency, SLO
// judgment, outcome — must be identical to serving the same requests one
// at a time. The serial path literally is a one-member batch (see
// MurmurationSystem::infer), so these tests pin the N-member fused path
// against N independent serial runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <future>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/training.h"
#include "netsim/faults.h"
#include "netsim/scenario.h"
#include "partition/subnet_latency.h"
#include "runtime/executor.h"
#include "runtime/serving.h"
#include "runtime/system.h"
#include "tensor/gemm.h"

namespace murmur {
namespace {

using netsim::FaultInjector;
using netsim::FaultPlan;
using runtime::DistributedExecutor;
using runtime::ServeOutcome;
using supernet::SubnetConfig;

supernet::SupernetOptions tiny_net_opts() {
  supernet::SupernetOptions o;
  o.width_mult = 0.1;
  o.classes = 10;
  o.seed = 3;
  return o;
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b,
                          const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.raw(), b.raw(), a.size() * sizeof(float)), 0)
      << what << ": batched logits differ bitwise from serial";
}

// ------------------------------------------------------ executor level ----

TEST(BatchedExecutor, FusedBatchBitwiseMatchesSerial) {
  supernet::Supernet net(tiny_net_opts());
  auto network = netsim::make_device_swarm();
  DistributedExecutor exec(net, network);

  // Tiled blocks spread across remote devices with a quantized wire: the
  // hardest case — per-sample quantization inside the ACTB envelope must
  // reproduce the serial scale factors exactly.
  SubnetConfig c = SubnetConfig::min_config();
  c.resolution = 192;
  for (auto& b : c.blocks) {
    b.quant = QuantBits::k8;
    b.grid = PartitionGrid{2, 2};
  }
  partition::PlacementPlan spread = partition::PlacementPlan::all_local();
  for (auto& row : spread.device) row = {1, 2, 3, 4};
  spread.head_device = 1;

  Rng rng(11);
  std::vector<Tensor> images;
  std::vector<double> sims;
  for (int i = 0; i < 3; ++i) {
    images.push_back(Tensor::randn({1, 3, 192, 192}, rng, 0.0f, 0.5f));
    sims.push_back(10.0 * i);
  }

  std::vector<runtime::ExecutionReport> serial;
  for (std::size_t i = 0; i < images.size(); ++i)
    serial.push_back(exec.run(images[i], c, spread, sims[i]));

  const auto batched = exec.run_batch(images, c, spread, sims);
  EXPECT_TRUE(batched.batched);
  ASSERT_EQ(batched.reports.size(), images.size());
  const auto n = static_cast<double>(images.size());
  for (std::size_t i = 0; i < images.size(); ++i) {
    expect_bitwise_equal(serial[i].logits, batched.reports[i].logits,
                         "member");
    EXPECT_DOUBLE_EQ(batched.reports[i].sim_latency_ms,
                     serial[i].sim_latency_ms);
    EXPECT_EQ(batched.reports[i].partitioned_blocks,
              serial[i].partitioned_blocks);
    // Occupancy model: a standalone request occupies its full critical
    // path; a fused member's share amortizes the per-message path delays
    // (this plan ships tiles to remote devices, so amortization > 1) but
    // the batch as a whole can never undercut a single request.
    EXPECT_DOUBLE_EQ(serial[i].sim_occupancy_ms, serial[i].sim_latency_ms);
    EXPECT_LT(batched.reports[i].sim_occupancy_ms,
              batched.reports[i].sim_latency_ms);
    EXPECT_GE(batched.reports[i].sim_occupancy_ms * n,
              batched.reports[i].sim_latency_ms);
  }
}

// ----------------------------------------------------- occupancy model ----

TEST(OccupancyModel, UnitBatchReproducesEvaluateBitwise) {
  // evaluate() is defined as evaluate_batch(.., 1): the bn == 1.0 scaling
  // must be a bitwise no-op, or every existing latency/SLO number in the
  // repo silently shifts.
  auto network = netsim::make_augmented_computing();
  partition::SubnetLatencyEvaluator eval(network);
  SubnetConfig c = SubnetConfig::min_config();
  c.resolution = 192;
  for (auto& b : c.blocks) {
    b.quant = QuantBits::k8;
    b.grid = PartitionGrid{2, 1};
  }
  partition::PlacementPlan plan = partition::PlacementPlan::all_local();
  for (auto& row : plan.device) row = {1, 0};
  const auto one = eval.evaluate(c, plan);
  const auto batch1 = eval.evaluate_batch(c, plan, 1);
  EXPECT_EQ(one.total_ms, batch1.total_ms);
  EXPECT_EQ(one.comm_ms, batch1.comm_ms);
  EXPECT_EQ(one.compute_ms, batch1.compute_ms);
  EXPECT_EQ(one.messages, batch1.messages);
  EXPECT_EQ(one.total_ms, eval.batch_latency_ms(c, plan, 1));
}

TEST(OccupancyModel, AmortizationIsMonotoneAndBounded) {
  // A fused batch of n pays payload bytes and device compute n times but
  // per-message path delays once, so per-member occupancy L_n / n falls
  // monotonically with n — yet L_n itself can only grow (more work on the
  // same event structure). Shape the remote link to a metro-edge profile
  // (as the throughput bench does): with the LAN default the 0.05 ms path
  // delay hides entirely behind compute and there is nothing to amortize.
  auto network = netsim::make_augmented_computing();
  netsim::shape_remotes(network, Bandwidth::from_mbps(1000),
                        Delay::from_ms(10));
  partition::SubnetLatencyEvaluator eval(network);
  SubnetConfig c = SubnetConfig::min_config();
  c.resolution = 192;
  for (auto& b : c.blocks) {
    b.quant = QuantBits::k8;
    b.grid = PartitionGrid{2, 1};
  }
  partition::PlacementPlan plan = partition::PlacementPlan::all_local();
  for (auto& row : plan.device) row = {1, 0};
  // Fully remote placement: with a local tile in the plan the critical
  // path is the local compute branch, which scales exactly with n and
  // shows no amortization at all.
  for (auto& row : plan.device) row = {1, 1};
  plan.head_device = 1;
  ASSERT_GT(eval.evaluate(c, plan).messages, 0)
      << "plan is all-local: occupancy amortization is vacuous";

  double prev_occ = 0.0, prev_total = 0.0;
  for (int n : {1, 2, 4, 8, 16}) {
    const double total = eval.batch_latency_ms(c, plan, n);
    const double occ = total / n;
    if (n > 1) {
      EXPECT_LT(occ, prev_occ) << "n=" << n;
      EXPECT_GT(total, prev_total) << "n=" << n;
    }
    prev_occ = occ;
    prev_total = total;
  }
}

TEST(BatchedExecutor, DecomposesUnderFaultInjectorAndStaysIdentical) {
  supernet::Supernet net(tiny_net_opts());
  auto network = netsim::make_device_swarm();
  DistributedExecutor exec(net, network);
  FaultPlan plan;
  plan.straggler(2, 2.0, 0.0, netsim::kNever);
  FaultInjector inj(plan, /*seed=*/5);
  exec.set_failover({.injector = &inj});

  SubnetConfig c = SubnetConfig::min_config();
  c.resolution = 160;
  Rng rng(12);
  std::vector<Tensor> images;
  std::vector<double> sims;
  for (int i = 0; i < 2; ++i) {
    images.push_back(Tensor::randn({1, 3, 160, 160}, rng, 0.0f, 0.5f));
    sims.push_back(0.0);
  }
  const auto plan_local = partition::PlacementPlan::all_local();
  const auto batched = exec.run_batch(images, c, plan_local, sims);
  // Fault injection owns per-request failover state, so the batch must
  // decompose to the serial path rather than fuse.
  EXPECT_FALSE(batched.batched);
  ASSERT_EQ(batched.reports.size(), images.size());
  for (std::size_t i = 0; i < images.size(); ++i)
    EXPECT_GT(batched.reports[i].logits.size(), 0u);

  // Per-member sim anchors: device 3 crashes between the two members'
  // starts, so only the later member sees it. Each member's report must
  // equal a standalone run() of that member, failover accounting included.
  SubnetConfig spread_c = SubnetConfig::min_config();
  spread_c.resolution = 192;
  for (auto& b : spread_c.blocks) b.grid = PartitionGrid{2, 2};
  partition::PlacementPlan spread = partition::PlacementPlan::all_local();
  for (auto& row : spread.device) row = {1, 2, 3, 4};
  spread.head_device = 1;
  const double clean_ms =
      partition::SubnetLatencyEvaluator(network).latency_ms(spread_c, spread);
  plan.crash(3, 10.0 * clean_ms);
  FaultInjector crash_inj(plan, /*seed=*/5);
  exec.set_failover({.injector = &crash_inj});
  std::vector<Tensor> spread_images;
  for (int i = 0; i < 2; ++i)
    spread_images.push_back(Tensor::randn({1, 3, 192, 192}, rng, 0.0f, 0.5f));
  const std::vector<double> starts = {0.0, 20.0 * clean_ms};
  const auto anchored = exec.run_batch(spread_images, spread_c, spread, starts);
  EXPECT_FALSE(anchored.batched);
  ASSERT_EQ(anchored.reports.size(), 2u);
  EXPECT_FALSE(anchored.reports[0].degraded);
  EXPECT_TRUE(anchored.reports[1].degraded);
  for (std::size_t i = 0; i < 2; ++i) {
    SCOPED_TRACE(::testing::Message() << "member " << i);
    const auto& r = anchored.reports[i];
    const auto solo = exec.run(spread_images[i], spread_c, spread, starts[i]);
    expect_bitwise_equal(solo.logits, r.logits, "member");
    EXPECT_EQ(r.redispatched_tiles, solo.redispatched_tiles);
    EXPECT_EQ(r.local_fallbacks, solo.local_fallbacks);
    EXPECT_EQ(r.device_failures, solo.device_failures);
    EXPECT_EQ(r.transport.messages, solo.transport.messages);
    EXPECT_EQ(r.transport.drops, solo.transport.drops);
    EXPECT_EQ(r.transport.retries, solo.transport.retries);
    EXPECT_EQ(r.transport.timeouts, solo.transport.timeouts);
    EXPECT_EQ(r.degraded, solo.degraded);
    EXPECT_NEAR(r.failover_penalty_ms, solo.failover_penalty_ms, 1e-9);
    EXPECT_NEAR(r.sim_latency_ms, solo.sim_latency_ms, 1e-9);
  }
}

TEST(BatchedExecutor, EmptyBatchReturnsEmptyReport) {
  supernet::Supernet net(tiny_net_opts());
  auto network = netsim::make_device_swarm();
  DistributedExecutor exec(net, network);
  const auto out =
      exec.run_batch({}, SubnetConfig::min_config(),
                     partition::PlacementPlan::all_local(), {});
  EXPECT_TRUE(out.reports.empty());
  EXPECT_FALSE(out.batched);
}

TEST(BatchedExecutor, MismatchedSimStartsThrowInvalidArgument) {
  supernet::Supernet net(tiny_net_opts());
  auto network = netsim::make_device_swarm();
  DistributedExecutor exec(net, network);
  SubnetConfig c = SubnetConfig::min_config();
  c.resolution = 160;
  Rng rng(14);
  const std::vector<Tensor> images(
      2, Tensor::randn({1, 3, 160, 160}, rng, 0.0f, 0.5f));
  const auto plan = partition::PlacementPlan::all_local();
  EXPECT_THROW(exec.run_batch(images, c, plan, {0.0}), std::invalid_argument);
  EXPECT_THROW(exec.run_batch(images, c, plan, {0.0, 0.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(exec.run_batch({}, c, plan, {0.0}), std::invalid_argument);
  // Malformed images: not rank 4, more than one member, a spatial size
  // other than config.resolution, or a shape different from the first.
  const auto one_image = [&](std::vector<int> shape) {
    return exec.run_batch({Tensor(std::move(shape))}, c, plan, {0.0});
  };
  EXPECT_THROW(one_image({3, 160, 160}), std::invalid_argument);
  EXPECT_THROW(one_image({2, 3, 160, 160}), std::invalid_argument);
  EXPECT_THROW(one_image({1, 3, 128, 128}), std::invalid_argument);
  EXPECT_THROW(one_image({1, 3, 160, 128}), std::invalid_argument);
  EXPECT_THROW(exec.run_batch({images[0], Tensor({1, 1, 160, 160})}, c, plan,
                              {0.0, 0.0}),
               std::invalid_argument);
}

TEST(BatchedExecutor, MemberSplitBitwiseAcrossThreadCounts) {
  // run_batch splits every unit forward (stem, each tile, head) into
  // min(n, kernel threads) contiguous member chunks. One thread is the
  // unsplit fused pass; 3 and 4 threads cut batches of 2, 3, 5 and 8 into
  // uneven chunks. Whatever the cut, each member's logits must be bitwise
  // its serial run(), and the wire must not see the split.
  struct Case {
    const char* name;
    SubnetConfig config;
    partition::PlacementPlan plan;
  };
  std::vector<Case> cases;
  {
    SubnetConfig c = SubnetConfig::min_config();
    c.resolution = 160;
    for (auto& b : c.blocks) b.quant = QuantBits::k32;
    cases.push_back({"all-local", c, partition::PlacementPlan::all_local()});
  }
  {
    // steady-like: stem and head local, every block on device 1, a few
    // 1x2 grids, only block 0 int8.
    SubnetConfig c = SubnetConfig::min_config();
    c.resolution = 160;
    for (std::size_t b = 0; b < c.blocks.size(); ++b) {
      c.blocks[b].quant = b == 0 ? QuantBits::k8 : QuantBits::k32;
      if (b % 4 == 1) c.blocks[b].grid = PartitionGrid{1, 2};
    }
    partition::PlacementPlan p = partition::PlacementPlan::all_local();
    for (auto& row : p.device) row = {1, 1};
    cases.push_back({"steady-like", c, p});
  }
  {
    SubnetConfig c = SubnetConfig::min_config();
    c.resolution = 192;
    for (auto& b : c.blocks) {
      b.quant = QuantBits::k8;
      b.grid = PartitionGrid{2, 2};
    }
    partition::PlacementPlan p = partition::PlacementPlan::all_local();
    for (auto& row : p.device) row = {1, 2, 3, 4};
    p.head_device = 1;
    cases.push_back({"2x2-spread", c, p});
  }

  struct RestoreThreads {
    ~RestoreThreads() { gemm_override_threads(0); }
  } restore;
  supernet::Supernet net(tiny_net_opts());
  auto network = netsim::make_device_swarm();
  DistributedExecutor exec(net, network);
  constexpr int kMaxMembers = 8;
  for (const auto& tc : cases) {
    SCOPED_TRACE(tc.name);
    Rng rng(21);
    std::vector<Tensor> images;
    std::vector<Tensor> serial;
    for (int i = 0; i < kMaxMembers; ++i) {
      images.push_back(Tensor::randn(
          {1, 3, tc.config.resolution, tc.config.resolution}, rng, 0.0f,
          0.5f));
      serial.push_back(exec.run(images.back(), tc.config, tc.plan).logits);
    }
    // wire[n] = (messages, payload bytes) of the first thread count run.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> wire(kMaxMembers + 1);
    for (int threads : {1, 3, 4}) {
      gemm_override_threads(threads);
      for (int n : {2, 3, 5, 8}) {
        SCOPED_TRACE(::testing::Message()
                     << "threads=" << threads << " n=" << n);
        const std::vector<Tensor> batch(images.begin(), images.begin() + n);
        const auto out = exec.run_batch(
            batch, tc.config, tc.plan,
            std::vector<double>(static_cast<std::size_t>(n), 0.0));
        ASSERT_TRUE(out.batched);
        ASSERT_EQ(out.reports.size(), static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i)
          expect_bitwise_equal(serial[static_cast<std::size_t>(i)],
                               out.reports[static_cast<std::size_t>(i)].logits,
                               "member");
        const auto& ts = out.reports.front().transport;
        auto& w = wire[static_cast<std::size_t>(n)];
        if (threads == 1) {
          w = {ts.messages, ts.payload_bytes};
        } else {
          EXPECT_EQ(ts.messages, w.first);
          EXPECT_EQ(ts.payload_bytes, w.second);
        }
      }
    }
  }
}

// -------------------------------------------------------- system level ----

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

TEST(BatchedSystem, ExecuteBatchBitwiseMatchesSerialPipeline) {
  // Two identically seeded systems: A serves each request as a one-member
  // batch (the serial pipeline), B coalesces all of them into one
  // execute_batch. Same ctx sequence -> same monitor/decision trajectory,
  // so every per-request observable must agree, logits bitwise.
  auto a = runtime::MurmurationSystem(
      tiny_artifacts(netsim::Scenario::kAugmentedComputing),
      tiny_system_opts());
  auto b = runtime::MurmurationSystem(
      tiny_artifacts(netsim::Scenario::kAugmentedComputing),
      tiny_system_opts());

  constexpr int kN = 4;
  std::vector<Tensor> images;
  std::vector<runtime::RequestContext> ctxs;
  for (int i = 0; i < kN; ++i) {
    images.push_back(test_image(90 + static_cast<std::uint64_t>(i)));
    runtime::RequestContext ctx;
    ctx.slo = ctx.plan_slo = core::Slo::latency_ms(10'000.0);
    ctx.sim_now_ms = 25.0 * i;
    ctx.seed = 700 + static_cast<std::uint64_t>(i);
    ctxs.push_back(ctx);
  }

  std::vector<runtime::InferenceResult> serial;
  for (int i = 0; i < kN; ++i) serial.push_back(a.infer(images[i], ctxs[i]));

  std::vector<runtime::PlannedRequest> planned;
  for (int i = 0; i < kN; ++i) planned.push_back(b.plan_request(ctxs[i]));
  // Group consecutive same-strategy requests exactly like the dispatcher
  // and run each group as one fused batch. With static conditions and a
  // warm cache this should coalesce — assert the batch path was actually
  // exercised, not N one-member groups.
  std::size_t largest_group = 0;
  for (std::size_t lo = 0; lo < planned.size();) {
    std::size_t hi = lo + 1;
    while (hi < planned.size() &&
           planned[hi].strategy_key == planned[lo].strategy_key &&
           planned[hi].result.decision.strategy.config ==
               planned[lo].result.decision.strategy.config &&
           planned[hi].result.decision.strategy.plan ==
               planned[lo].result.decision.strategy.plan)
      ++hi;
    b.execute_batch(std::span<const Tensor>(&images[lo], hi - lo),
                    std::span<runtime::PlannedRequest>(&planned[lo], hi - lo));
    largest_group = std::max(largest_group, hi - lo);
    lo = hi;
  }
  EXPECT_GE(largest_group, 2u) << "no coalescing: differential is vacuous";

  for (int i = 0; i < kN; ++i) {
    const auto& s = serial[static_cast<std::size_t>(i)];
    const auto& r = planned[static_cast<std::size_t>(i)].result;
    expect_bitwise_equal(s.logits, r.logits, "request");
    EXPECT_EQ(r.predicted_class, s.predicted_class);
    EXPECT_DOUBLE_EQ(r.sim_latency_ms, s.sim_latency_ms);
    EXPECT_EQ(r.slo_met, s.slo_met);
    EXPECT_EQ(r.outcome, s.outcome);
    EXPECT_TRUE(r.decision.strategy.config == s.decision.strategy.config);
    EXPECT_TRUE(r.decision.strategy.plan == s.decision.strategy.plan);
  }
}

TEST(BatchedSystem, ExecuteBatchRejectsMalformedBatchBeforeAnySideEffect) {
  auto system = runtime::MurmurationSystem(
      tiny_artifacts(netsim::Scenario::kAugmentedComputing),
      tiny_system_opts());
  std::vector<Tensor> images;
  std::vector<runtime::PlannedRequest> planned;
  for (int i = 0; i < 2; ++i) {
    images.push_back(test_image(95 + static_cast<std::uint64_t>(i)));
    runtime::RequestContext ctx;
    ctx.slo = ctx.plan_slo = core::Slo::latency_ms(10'000.0);
    ctx.sim_now_ms = 25.0 * i;
    ctx.seed = 800 + static_cast<std::uint64_t>(i);
    planned.push_back(system.plan_request(ctx));
  }
  // A second member under a different strategy must not run under the
  // first member's.
  auto& q = planned[1].result.decision.strategy.config.blocks[0].quant;
  q = q == QuantBits::k8 ? QuantBits::k32 : QuantBits::k8;
  const auto switches = system.host().switch_count();
  const auto held = system.host().held_switches();
  ASSERT_THROW(system.execute_batch(images, planned), std::invalid_argument);
  EXPECT_THROW(system.execute_batch(std::span<const Tensor>(images.data(), 1),
                                    planned),
               std::invalid_argument);
  EXPECT_EQ(system.host().switch_count(), switches);
  EXPECT_EQ(system.host().held_switches(), held);
  for (const auto& pr : planned) EXPECT_EQ(pr.result.logits.size(), 0u);
}

// ------------------------------------------------------- serving level ----

runtime::ServingOptions serving_opts(int workers, std::size_t max_batch) {
  runtime::ServingOptions so;
  so.workers = workers;
  so.queue_capacity = 64;
  so.seed = 33;
  so.max_batch = max_batch;
  so.batch_window_ms = 1e6;  // effectively unbounded unless a test narrows it
  return so;
}

/// Run one warmed burst through a fresh system+serving pair; returns the
/// per-request outcomes in submission order. The burst SLO is derived from
/// the warmed latency estimate so the deadline-feasibility bound bites a
/// few reservations into the queue, whatever the trained policy's latency
/// turns out to be.
std::vector<ServeOutcome> run_burst(std::size_t max_batch, int burst) {
  auto system = runtime::MurmurationSystem(
      tiny_artifacts(netsim::Scenario::kAugmentedComputing),
      tiny_system_opts());
  system.set_slo(core::Slo::latency_ms(1e6));
  runtime::ServingLayer serving(system, serving_opts(/*workers=*/2, max_batch));
  const Tensor img = test_image(77);

  // Warm-up seeds the EWMA. Every later completion reports the same
  // analytic sim latency for the same strategy, so the estimate — and with
  // it every admission decision — is identical across the serial and
  // batched runs.
  const auto warm = serving.submit(img, 0.0).get();
  EXPECT_NE(warm.outcome, ServeOutcome::kShed);
  const double est = serving.latency_estimate_ms();
  EXPECT_GT(est, 0.0);
  const core::Slo burst_slo = core::Slo::latency_ms(3.5 * est);

  std::vector<std::future<runtime::ServeResult>> futs;
  for (int i = 0; i < burst; ++i)
    futs.push_back(serving.submit(img, 1e7 + 1.0 * i, burst_slo));
  std::vector<ServeOutcome> outcomes;
  for (auto& f : futs) outcomes.push_back(f.get().outcome);
  EXPECT_EQ(serving.submitted(),
            serving.completed() + serving.degraded() + serving.shed() +
                serving.failed());
  return outcomes;
}

TEST(BatchedServing, OutcomePartitionMatchesSerialIncludingSheds) {
  // Tight-ish SLO so the warmed deadline-feasibility bound sheds the tail
  // of the burst: the shed SET (by submission index), not just counts,
  // must be identical — batching must never admit a request past the
  // deadline-infeasible bound, and never shed one admission would accept.
  constexpr int kBurst = 12;
  const auto serial = run_burst(/*max_batch=*/1, kBurst);
  const auto batched = run_burst(/*max_batch=*/6, kBurst);
  ASSERT_EQ(serial.size(), batched.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(serial[i], batched[i]) << "request " << i;
  EXPECT_GT(std::count(serial.begin(), serial.end(), ServeOutcome::kShed), 0)
      << "SLO too loose: shed path not exercised, partition test is weak";
  EXPECT_LT(std::count(serial.begin(), serial.end(), ServeOutcome::kShed),
            kBurst)
      << "SLO too tight: everything shed, partition test is vacuous";
}

TEST(BatchedServing, CoalescesAndCountsBatches) {
  auto system = runtime::MurmurationSystem(
      tiny_artifacts(netsim::Scenario::kAugmentedComputing),
      tiny_system_opts());
  system.set_slo(core::Slo::latency_ms(1e6));
  auto so = serving_opts(2, 4);
  // Without a drain grace the dispatcher can race ahead of the submit
  // loop and flush singleton groups whenever the queue momentarily runs
  // dry; the wall-clock grace makes coalescing deterministic here.
  so.drain_grace_ms = 100.0;
  runtime::ServingLayer serving(system, so);
  const Tensor img = test_image(78);
  const auto warm = serving.submit(img, 0.0).get();
  ASSERT_NE(warm.outcome, ServeOutcome::kShed);

  std::vector<std::future<runtime::ServeResult>> futs;
  for (int i = 0; i < 8; ++i)
    futs.push_back(serving.submit(img, 1e7 + 1.0 * i));
  for (auto& f : futs) ASSERT_NE(f.get().outcome, ServeOutcome::kShed);

  // One warm strategy + an unbounded window: the burst coalesces.
  EXPECT_GE(serving.batches(), 1u);
  EXPECT_GE(serving.coalesced(), 1u);
  EXPECT_EQ(serving.batched_requests(),
            serving.completed() + serving.degraded() + serving.failed());
  EXPECT_EQ(serving.full_flushes() + serving.window_flushes() +
                serving.key_flushes() + serving.drain_flushes(),
            serving.batches());
}

TEST(BatchedServing, SimClockWindowBoundsGroupSpan) {
  auto system = runtime::MurmurationSystem(
      tiny_artifacts(netsim::Scenario::kAugmentedComputing),
      tiny_system_opts());
  system.set_slo(core::Slo::latency_ms(1e6));
  auto so = serving_opts(2, 8);
  // Window far below the per-request reservation width: consecutive
  // requests' estimated starts are spaced one sim-latency apart, so every
  // group closes before a second member can join.
  so.batch_window_ms = 1e-3;
  runtime::ServingLayer serving(system, so);
  const Tensor img = test_image(79);
  const auto warm = serving.submit(img, 0.0).get();
  ASSERT_NE(warm.outcome, ServeOutcome::kShed);

  std::vector<std::future<runtime::ServeResult>> futs;
  for (int i = 0; i < 6; ++i)
    futs.push_back(serving.submit(img, 1e7 + 1.0 * i));
  for (auto& f : futs) ASSERT_NE(f.get().outcome, ServeOutcome::kShed);

  EXPECT_EQ(serving.coalesced(), 0u)
      << "a group outlived its sim-clock batching window";
  EXPECT_GE(serving.batches(), 1u);
}

TEST(BatchedServing, SerialOccupancyEstimateEqualsLatencyEstimate) {
  // Under serial serving every completion reports occupancy == latency, so
  // the two admission EWMAs must stay bit-identical — this is what makes
  // max_batch=1 reproduce the pre-batching admission behavior exactly.
  auto system = runtime::MurmurationSystem(
      tiny_artifacts(netsim::Scenario::kAugmentedComputing),
      tiny_system_opts());
  system.set_slo(core::Slo::latency_ms(1e6));
  runtime::ServingLayer serving(system, serving_opts(2, /*max_batch=*/1));
  const Tensor img = test_image(81);
  std::vector<std::future<runtime::ServeResult>> futs;
  for (int i = 0; i < 6; ++i)
    futs.push_back(serving.submit(img, 100.0 * i));
  for (auto& f : futs) ASSERT_NE(f.get().outcome, ServeOutcome::kShed);
  EXPECT_GT(serving.latency_estimate_ms(), 0.0);
  EXPECT_EQ(serving.occupancy_estimate_ms(), serving.latency_estimate_ms());
}

TEST(BatchedServing, ChaosBurstResolvesEveryRequest) {
  // Sanitizer target: the dispatcher + fused execution under a seeded
  // chaos schedule. Faults force per-member decomposition inside
  // execute_batch; every future must still resolve exactly once.
  auto system = runtime::MurmurationSystem(
      tiny_artifacts(netsim::Scenario::kDeviceSwarm), tiny_system_opts());
  Rng chaos_rng(21);
  FaultPlan::ChaosOptions copts;
  copts.horizon_ms = 2'000.0;
  copts.loss_probability = 0.05;
  FaultInjector inj(
      FaultPlan::chaos(system.network().num_devices(), copts, chaos_rng),
      /*seed=*/21);
  system.set_failover({.injector = &inj, .recv_slack_ms = 50.0});

  auto so = serving_opts(/*workers=*/4, /*max_batch=*/4);
  so.queue_capacity = 8;
  runtime::ServingLayer serving(system, so);
  const Tensor img = test_image(80);
  (void)serving.submit(img, 0.0).get();

  std::vector<std::future<runtime::ServeResult>> futs;
  for (int i = 0; i < 32; ++i)
    futs.push_back(serving.submit(img, 100.0 + 5.0 * i));
  for (auto& f : futs) (void)f.get();
  EXPECT_EQ(serving.submitted(),
            serving.completed() + serving.degraded() + serving.shed() +
                serving.failed());
}

}  // namespace
}  // namespace murmur
