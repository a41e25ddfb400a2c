// Fault-injection, deadline-aware transport and failover tests
// (DESIGN.md §5.8). The whole suite carries the `faults` ctest label and
// is the target of tools/run_chaos_tests.sh's ASan/UBSan sweep.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <span>

#include "core/strategy_cache.h"
#include "fuzz_util.h"
#include "core/training.h"
#include "netsim/faults.h"
#include "netsim/scenario.h"
#include "partition/plan.h"
#include "runtime/executor.h"
#include "runtime/system.h"

namespace murmur {
namespace {

using netsim::FaultInjector;
using netsim::FaultPlan;
using netsim::kNever;
using runtime::Transport;
using supernet::SubnetConfig;

// ----------------------------------------------------------- fault model ----

TEST(FaultPlan, WindowsGateAvailability) {
  FaultPlan plan;
  plan.crash(1, 100.0, 300.0)       // down during [100, 300)
      .blackout(2, 50.0, 150.0)     // link dark during [50, 150)
      .straggler(3, 4.0, 0.0, 200.0)
      .packet_loss(1, 0.5, 0.0, kNever);
  FaultInjector inj(plan);

  EXPECT_TRUE(inj.device_up(1, 99.0));
  EXPECT_FALSE(inj.device_up(1, 100.0));  // window is [start, end)
  EXPECT_FALSE(inj.device_up(1, 299.0));
  EXPECT_TRUE(inj.device_up(1, 300.0));

  // Blackout downs the link, not the device.
  EXPECT_TRUE(inj.device_up(2, 100.0));
  EXPECT_FALSE(inj.link_up(2, 100.0));
  EXPECT_TRUE(inj.link_up(2, 200.0));
  // A crashed device's link is down too.
  EXPECT_FALSE(inj.link_up(1, 150.0));

  EXPECT_DOUBLE_EQ(inj.slowdown(3, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(inj.slowdown(3, 250.0), 1.0);
  EXPECT_DOUBLE_EQ(inj.slowdown(0, 100.0), 1.0);

  EXPECT_DOUBLE_EQ(inj.loss_probability(1, 1e6), 0.5);
  EXPECT_DOUBLE_EQ(inj.loss_probability(2, 1e6), 0.0);
}

TEST(FaultPlan, PermanentCrashNeverRecovers) {
  FaultPlan plan;
  plan.crash(1, 10.0);  // default recover = kNever
  FaultInjector inj(plan);
  EXPECT_TRUE(inj.device_up(1, 9.9));
  EXPECT_FALSE(inj.device_up(1, 10.0));
  EXPECT_FALSE(inj.device_up(1, 1e12));
}

TEST(FaultInjector, LossComposesAcrossPath) {
  FaultPlan plan;
  plan.packet_loss(1, 0.5).packet_loss(2, 0.5);
  FaultInjector inj(plan);
  // 1 - (1-0.5)(1-0.5) = 0.75 across both endpoints' access links.
  EXPECT_DOUBLE_EQ(inj.path_loss(1, 2, 0.0), 0.75);
  EXPECT_DOUBLE_EQ(inj.path_loss(0, 1, 0.0), 0.5);
  EXPECT_DOUBLE_EQ(inj.path_loss(0, 3, 0.0), 0.0);
}

TEST(FaultInjector, DropMessageMatchesProbabilityRoughly) {
  FaultPlan plan;
  plan.packet_loss(1, 0.3);
  FaultInjector inj(plan, /*seed=*/7);
  int dropped = 0;
  for (int i = 0; i < 10000; ++i)
    if (inj.drop_message(0, 1, 0.0)) ++dropped;
  EXPECT_NEAR(dropped / 10000.0, 0.3, 0.03);
  // A loss-free path never drops.
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(inj.drop_message(0, 2, 0.0));
}

TEST(FaultPlan, ChaosSparesDeviceZeroAndIsSeedDeterministic) {
  FaultPlan::ChaosOptions opts;
  opts.crash_rate = 3.0;  // force plenty of events
  opts.blackout_rate = 3.0;
  opts.straggler_rate = 3.0;
  Rng rng_a(11), rng_b(11), rng_c(12);
  const FaultPlan a = FaultPlan::chaos(5, opts, rng_a);
  const FaultPlan b = FaultPlan::chaos(5, opts, rng_b);
  const FaultPlan c = FaultPlan::chaos(5, opts, rng_c);
  EXPECT_FALSE(a.empty());
  for (const auto& e : a.crashes()) EXPECT_NE(e.device, 0u);
  for (const auto& e : a.blackouts()) EXPECT_NE(e.device, 0u);
  for (const auto& e : a.losses()) EXPECT_NE(e.device, 0u);
  for (const auto& e : a.stragglers()) EXPECT_NE(e.device, 0u);
  // Same seed -> identical schedule; different seed -> different schedule.
  ASSERT_EQ(a.crashes().size(), b.crashes().size());
  for (std::size_t i = 0; i < a.crashes().size(); ++i) {
    EXPECT_EQ(a.crashes()[i].device, b.crashes()[i].device);
    EXPECT_DOUBLE_EQ(a.crashes()[i].t_crash_ms, b.crashes()[i].t_crash_ms);
  }
  const bool same = a.crashes().size() == c.crashes().size() &&
                    a.blackouts().size() == c.blackouts().size() &&
                    a.stragglers().size() == c.stragglers().size();
  EXPECT_FALSE(same && !a.crashes().empty() &&
               a.crashes()[0].t_crash_ms == c.crashes()[0].t_crash_ms);
}

// ------------------------------------------------------------- transport ----

netsim::Network two_node() {
  auto net = netsim::make_augmented_computing();
  netsim::shape_remotes(net, Bandwidth::from_mbps(100), Delay::from_ms(10));
  return net;
}

TEST(TransportFaults, RecvForDeliversBeforeDeadline) {
  auto net = two_node();
  Transport tp(net);
  const double arrival = tp.send(0, 1, 5, {9}, 100, 0.0);
  const auto msg = tp.recv_for(1, 5, arrival + 1.0);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload[0], 9);
  EXPECT_EQ(tp.stats().timeouts, 0u);
}

TEST(TransportFaults, RecvForTimesOutOnLateArrival) {
  auto net = two_node();
  Transport tp(net);
  const double arrival = tp.send(0, 1, 5, {9}, 1'000'000, 0.0);
  ASSERT_GT(arrival, 10.0);
  // Deadline earlier than the simulated arrival: the message is "late".
  const auto msg = tp.recv_for(1, 5, arrival / 2.0);
  EXPECT_FALSE(msg.has_value());
  EXPECT_EQ(tp.stats().timeouts, 1u);
}

TEST(TransportFaults, RecvForWallBudgetBoundsMissingMessage) {
  auto net = two_node();
  Transport tp(net);
  // Nothing was ever sent: the wall budget must bound the wait.
  const auto t0 = std::chrono::steady_clock::now();
  const auto msg = tp.recv_for(1, 99, Transport::kNoDeadline,
                               /*wall_budget_ms=*/50.0);
  const double waited =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_FALSE(msg.has_value());
  EXPECT_GE(waited, 45.0);
  EXPECT_LT(waited, 5'000.0);
  EXPECT_EQ(tp.stats().timeouts, 1u);
}

TEST(TransportFaults, HookDropLeavesTombstoneAndCountsRetries) {
  auto net = two_node();
  Transport tp(net);
  Transport::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_ms = 2.0;
  policy.backoff_factor = 2.0;
  tp.set_retry_policy(policy);
  tp.set_message_hook([](int, int, std::uint64_t, int) {
    return Transport::MessageFate::kDrop;  // every attempt lost
  });
  const double gave_up = tp.send(0, 1, 1, {1, 2}, 100, 10.0);
  // Two backoffs burned before giving up on attempt 3: 2 + 4 ms.
  EXPECT_DOUBLE_EQ(gave_up, 16.0);
  const auto stats = tp.stats();
  EXPECT_EQ(stats.drops, 1u);
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_DOUBLE_EQ(stats.backoff_ms, 6.0);
  // The tombstone resolves the receiver's wait immediately -> nullopt.
  const auto msg = tp.recv_for(1, 1, Transport::kNoDeadline);
  EXPECT_FALSE(msg.has_value());
  EXPECT_EQ(tp.stats().timeouts, 1u);
}

TEST(TransportFaults, RetrySucceedsAfterTransientLoss) {
  auto net = two_node();
  Transport tp(net);
  std::atomic<int> calls{0};
  tp.set_message_hook([&](int, int, std::uint64_t, int attempt) {
    ++calls;
    return attempt == 1 ? Transport::MessageFate::kDrop
                        : Transport::MessageFate::kDeliver;
  });
  const double clean = [&] {
    Transport fresh(net);
    return fresh.send(0, 1, 2, {3}, 100, 0.0);
  }();
  const double arrival = tp.send(0, 1, 2, {3}, 100, 0.0);
  EXPECT_EQ(calls.load(), 2);
  // The retry charged one backoff on top of the clean arrival.
  EXPECT_NEAR(arrival, clean + 2.0, 1e-9);
  const auto stats = tp.stats();
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.drops, 0u);
  const auto msg = tp.recv_for(1, 2, arrival + 1.0);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload[0], 3);
}

TEST(TransportFaults, DuplicateDeliveriesDiscardedOnRecv) {
  auto net = two_node();
  Transport tp(net);
  tp.set_message_hook([](int, int, std::uint64_t, int) {
    return Transport::MessageFate::kDuplicate;
  });
  const double arrival = tp.send(0, 1, 3, {7}, 100, 0.0);
  const auto msg = tp.recv_for(1, 3, arrival + 1.0);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(tp.stats().duplicates, 1u);
  // The duplicate is gone: a second receive times out on its wall budget.
  EXPECT_FALSE(tp.recv_for(1, 3, arrival + 1.0, 20.0).has_value());
}

TEST(TransportFaults, InjectorBlackoutDropsAfterRetries) {
  auto net = two_node();
  FaultPlan plan;
  plan.blackout(1, 0.0, kNever);
  FaultInjector inj(plan);
  Transport tp(net);
  tp.set_fault_injector(&inj);
  tp.send(0, 1, 4, {1}, 100, 0.0);
  EXPECT_EQ(tp.stats().drops, 1u);
  EXPECT_FALSE(tp.recv_for(1, 4, Transport::kNoDeadline).has_value());
  // Loopback is immune even under a total blackout.
  tp.send(1, 1, 6, {2}, 100, 0.0);
  EXPECT_TRUE(tp.recv_for(1, 6, Transport::kNoDeadline).has_value());
}

TEST(TransportFaults, StragglerStretchesTransferTime) {
  auto net = two_node();
  FaultPlan plan;
  plan.straggler(1, 3.0, 0.0, kNever);
  FaultInjector inj(plan);
  Transport clean(net), slowed(net);
  slowed.set_fault_injector(&inj);
  const double fast = clean.send(0, 1, 1, {1}, 1'000'000, 0.0);
  const double slow = slowed.send(0, 1, 1, {1}, 1'000'000, 0.0);
  EXPECT_NEAR(slow, fast * 3.0, 1e-9);
}

TEST(TransportFaults, FaultFreeStatsStayZero) {
  auto net = two_node();
  Transport tp(net);
  for (int i = 0; i < 8; ++i) tp.send(0, 1, i, {1}, 100, 0.0);
  for (int i = 0; i < 8; ++i) (void)tp.recv(1, i);
  const auto stats = tp.stats();
  EXPECT_EQ(stats.drops, 0u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.timeouts, 0u);
  EXPECT_EQ(stats.duplicates, 0u);
  EXPECT_DOUBLE_EQ(stats.backoff_ms, 0.0);
}

// -------------------------------------------------------- codec hardening ----

TEST(CodecRobustness, ZeroLengthAndTinyPayloads) {
  EXPECT_FALSE(runtime::decode_activation({}).has_value());
  std::vector<std::uint8_t> one = {0x41};
  EXPECT_FALSE(runtime::decode_activation(one).has_value());
}

TEST(CodecRobustness, EveryTruncatedPrefixRejected) {
  Rng rng(21);
  Tensor t = Tensor::randn({1, 4, 5, 5}, rng);
  const auto act1_accepts = [](std::span<const std::uint8_t> b) {
    return runtime::decode_activation(b).has_value();
  };
  for (QuantBits bits :
       {QuantBits::k32, QuantBits::k16, QuantBits::k8, QuantBits::k4}) {
    const auto bytes = runtime::encode_activation(quantize(t, bits));
    EXPECT_EQ(testfuzz::count_truncation_survivors(bytes, act1_accepts), 0u)
        << "a truncated prefix accepted at " << bit_count(bits) << " bits";
    // The untruncated payload still decodes.
    EXPECT_TRUE(runtime::decode_activation(bytes).has_value());
  }
}

TEST(CodecRobustness, CorruptionCorpusNeverCrashes) {
  Rng rng(22);
  Tensor t = Tensor::randn({1, 3, 8, 8}, rng);
  const auto clean = runtime::encode_activation(quantize(t, QuantBits::k8));
  // ACT1 carries no payload checksum (the transport layer is reliable;
  // this codec defends its HEADER against malformed shapes), so payload
  // bit flips legitimately decode. The corpus asserts the decoder never
  // crashes/over-reads (sanitizer passes) and that structural mutations
  // do get rejected: survivors must be a strict subset of the corpus.
  const auto stats = testfuzz::fuzz_corruption_corpus(
      clean,
      [](std::span<const std::uint8_t> b) {
        return runtime::decode_activation(b).has_value();
      },
      /*seed=*/23, /*trials=*/400);
  EXPECT_GT(stats.mutants, 0u);
  EXPECT_LT(stats.accepted, stats.mutants);
}

TEST(CodecRobustness, BatchEnvelopeRoundTrips) {
  Rng rng(29);
  std::vector<QuantizedTensor> members;
  for (int i = 0; i < 3; ++i)
    members.push_back(
        quantize(Tensor::randn({1, 2, 4, 4}, rng), QuantBits::k8));
  const auto bytes = runtime::encode_activation_batch(members);
  const auto decoded = runtime::decode_activation_batch(bytes);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    const Tensor a = dequantize(members[i]);
    const Tensor b = dequantize((*decoded)[i]);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k)
      EXPECT_EQ(a.raw()[k], b.raw()[k]);
  }
}

TEST(CodecRobustness, BatchEnvelopeRejectsMalformedCounts) {
  Rng rng(30);
  std::vector<QuantizedTensor> one;
  one.push_back(quantize(Tensor::randn({1, 2, 3, 3}, rng), QuantBits::k8));
  auto bytes = runtime::encode_activation_batch(one);
  // Count field sits right after the 4-byte magic (little-endian u32).
  const auto patch_count = [&](std::uint32_t v) {
    auto mutant = bytes;
    for (int k = 0; k < 4; ++k)
      mutant[4 + static_cast<std::size_t>(k)] =
          static_cast<std::uint8_t>(v >> (8 * k));
    return mutant;
  };
  EXPECT_FALSE(runtime::decode_activation_batch(patch_count(0)).has_value());
  EXPECT_FALSE(runtime::decode_activation_batch(
                   patch_count(runtime::kMaxWireBatch + 1))
                   .has_value());
  EXPECT_FALSE(
      runtime::decode_activation_batch(patch_count(0xFFFFFFFFu)).has_value());
  // Trailing junk after the last member is rejected, not ignored.
  auto extended = bytes;
  extended.push_back(0xAB);
  EXPECT_FALSE(runtime::decode_activation_batch(extended).has_value());
}

TEST(CodecRobustness, BatchEnvelopeCorruptionCorpus) {
  Rng rng(31);
  std::vector<QuantizedTensor> members;
  for (int i = 0; i < 4; ++i)
    members.push_back(
        quantize(Tensor::randn({1, 3, 5, 5}, rng), QuantBits::k4));
  const auto clean = runtime::encode_activation_batch(members);
  const auto accepts = [](std::span<const std::uint8_t> b) {
    return runtime::decode_activation_batch(b).has_value();
  };
  EXPECT_EQ(testfuzz::count_truncation_survivors(clean, accepts), 0u);
  const auto stats =
      testfuzz::fuzz_corruption_corpus(clean, accepts, /*seed=*/32,
                                       /*trials=*/400);
  EXPECT_GT(stats.mutants, 0u);
  EXPECT_LT(stats.accepted, stats.mutants);
}

TEST(CodecRobustness, HugeDeclaredShapeRejectedWithoutAllocating) {
  Rng rng(24);
  Tensor t = Tensor::randn({1, 2, 3, 3}, rng);
  auto bytes = runtime::encode_activation(quantize(t, QuantBits::k8));
  // Rewrite dim 0 (offset 8: magic + rank) to a huge value: the declared
  // element count no longer matches the packed payload -> reject, and in
  // particular no multi-gigabyte resize may happen first.
  bytes[8] = 0xff;
  bytes[9] = 0xff;
  bytes[10] = 0xff;
  bytes[11] = 0x7f;
  EXPECT_FALSE(runtime::decode_activation(bytes).has_value());
}

// ------------------------------------------------ strategy cache purging ----

core::MurmurationEnv make_aug_env() {
  return core::MurmurationEnv(netsim::make_augmented_computing(),
                              core::SloType::kLatency);
}

core::Decision decision_on(std::uint8_t device) {
  core::Decision d;
  d.strategy.plan.head_device = device;
  d.reward = static_cast<double>(device);
  return d;
}

TEST(StrategyCacheInvalidate, RemovesMatchesAndKeepsCounters) {
  const auto env = make_aug_env();
  core::StrategyCache cache(env, 8);
  rl::ConstraintPoint c0{{0.1, 0.1, 0.1}}, c1{{0.5, 0.5, 0.5}},
      c2{{0.9, 0.9, 0.9}};
  cache.put(c0, decision_on(0));
  cache.put(c1, decision_on(1));
  cache.put(c2, decision_on(1));
  const std::size_t removed = cache.invalidate_if(
      [](const core::Decision& d) { return d.strategy.plan.head_device == 1; });
  EXPECT_EQ(removed, 2u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.invalidations(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_FALSE(cache.get(c1).has_value());
  EXPECT_FALSE(cache.get(c2).has_value());
  EXPECT_TRUE(cache.get(c0).has_value());
  // Matching nothing removes nothing.
  EXPECT_EQ(cache.invalidate_if([](const core::Decision&) { return false; }),
            0u);
  EXPECT_EQ(cache.invalidations(), 2u);
}

TEST(StrategyCacheInvalidate, SurvivorsKeepLruOrder) {
  const auto env = make_aug_env();
  core::StrategyCache cache(env, 2);
  rl::ConstraintPoint c0{{0.1, 0.1, 0.1}}, c1{{0.5, 0.5, 0.5}},
      c2{{0.9, 0.9, 0.9}}, c3{{0.3, 0.7, 0.2}};
  cache.put(c0, decision_on(0));  // LRU order (new->old): c0
  cache.put(c1, decision_on(1));  // c1, c0
  cache.put(c2, decision_on(0));  // c2, c1, c0 -> evicts c0
  EXPECT_EQ(cache.size(), 2u);    // c2 (newest), c1 (oldest)
  // Purge nothing; then inserting one more must still evict c1 (the
  // oldest survivor), proving invalidate_if did not reorder the list.
  (void)cache.invalidate_if([](const core::Decision&) { return false; });
  cache.put(c3, decision_on(0));
  EXPECT_FALSE(cache.get(c1).has_value());
  EXPECT_TRUE(cache.get(c2).has_value());
  EXPECT_TRUE(cache.get(c3).has_value());
}

TEST(StrategyCacheInvalidate, EmptyCacheAndRemoveAllEdgeCases) {
  const auto env = make_aug_env();
  core::StrategyCache cache(env, 8);
  // Empty cache: any predicate removes nothing and is never a crash.
  EXPECT_EQ(cache.invalidate_if([](const core::Decision&) { return true; }),
            0u);
  EXPECT_EQ(cache.invalidations(), 0u);
  // Remove-all predicate drains the cache completely.
  rl::ConstraintPoint c0{{0.1, 0.1, 0.1}}, c1{{0.5, 0.5, 0.5}},
      c2{{0.9, 0.9, 0.9}};
  cache.put(c0, decision_on(0));
  cache.put(c1, decision_on(1));
  cache.put(c2, decision_on(2));
  EXPECT_EQ(cache.invalidate_if([](const core::Decision&) { return true; }),
            3u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.invalidations(), 3u);
  EXPECT_FALSE(cache.get(c0).has_value());
  // The drained cache accepts new entries as usual.
  cache.put(c0, decision_on(0));
  EXPECT_TRUE(cache.get(c0).has_value());
}

// -------------------------------------------------------- plan re-mapping ----

TEST(PlanHealth, DetectsAndRemapsUnhealthyEntries) {
  SubnetConfig c = SubnetConfig::min_config();
  for (auto& b : c.blocks) b.grid = PartitionGrid{2, 2};
  partition::PlacementPlan plan = partition::PlacementPlan::all_local();
  for (auto& row : plan.device) row = {1, 2, 3, 4};
  plan.head_device = 2;
  const std::vector<bool> all_up(5, true);
  EXPECT_FALSE(partition::plan_uses_unhealthy(plan, c, all_up));
  std::vector<bool> two_down = {true, true, false, true, false};
  EXPECT_TRUE(partition::plan_uses_unhealthy(plan, c, two_down));
  partition::PlacementPlan fixed = plan;
  const int moved = partition::remap_unhealthy(fixed, c, two_down);
  EXPECT_GT(moved, 0);
  EXPECT_FALSE(partition::plan_uses_unhealthy(fixed, c, two_down));
  EXPECT_TRUE(fixed.valid(c, 5));
  // A healthy plan is left untouched.
  partition::PlacementPlan clean = fixed;
  EXPECT_EQ(partition::remap_unhealthy(clean, c, two_down), 0);
  EXPECT_EQ(clean, fixed);
  // No survivors: nothing to remap to.
  partition::PlacementPlan hopeless = plan;
  EXPECT_EQ(partition::remap_unhealthy(hopeless, c,
                                       std::vector<bool>(5, false)),
            0);
}

TEST(PlanHealth, AllButOneDeviceDeadCollapsesToSurvivor) {
  SubnetConfig c = SubnetConfig::min_config();
  for (auto& b : c.blocks) b.grid = PartitionGrid{2, 2};
  partition::PlacementPlan plan = partition::PlacementPlan::all_local();
  for (auto& row : plan.device) row = {1, 2, 3, 4};
  plan.stem_device = 3;
  plan.head_device = 4;
  // Only device 2 survives: every entry must land there.
  std::vector<bool> only_two = {false, false, true, false, false};
  const int moved = partition::remap_unhealthy(plan, c, only_two);
  EXPECT_GT(moved, 0);
  EXPECT_FALSE(partition::plan_uses_unhealthy(plan, c, only_two));
  EXPECT_EQ(plan.stem_device, 2);
  EXPECT_EQ(plan.head_device, 2);
  EXPECT_EQ(plan.devices_used(c), 1);
}

TEST(PlanHealth, OnlyLocalDeviceHealthyMeansAllLocal) {
  SubnetConfig c = SubnetConfig::min_config();
  for (auto& b : c.blocks) b.grid = PartitionGrid{2, 2};
  partition::PlacementPlan plan = partition::PlacementPlan::all_local();
  for (auto& row : plan.device) row = {1, 2, 3, 4};
  plan.head_device = 1;
  std::vector<bool> only_local = {true, false, false, false, false};
  EXPECT_GT(partition::remap_unhealthy(plan, c, only_local), 0);
  EXPECT_FALSE(partition::plan_uses_unhealthy(plan, c, only_local));
  EXPECT_EQ(plan.stem_device, 0);
  EXPECT_EQ(plan.head_device, 0);
  EXPECT_EQ(plan.devices_used(c), 1);
  // Re-running on the already-clean plan is a no-op.
  EXPECT_EQ(partition::remap_unhealthy(plan, c, only_local), 0);
}

// ------------------------------------------------------ executor failover ----

supernet::SupernetOptions tiny_opts() {
  supernet::SupernetOptions o;
  o.width_mult = 0.1;
  o.classes = 10;
  o.seed = 3;
  return o;
}

SubnetConfig spread_config() {
  SubnetConfig c = SubnetConfig::min_config();
  c.resolution = 192;
  for (auto& b : c.blocks) {
    b.quant = QuantBits::k32;
    b.grid = PartitionGrid{2, 2};
  }
  return c;
}

partition::PlacementPlan spread_plan() {
  partition::PlacementPlan plan = partition::PlacementPlan::all_local();
  for (auto& row : plan.device) row = {1, 2, 3, 4};
  plan.head_device = 1;
  return plan;
}

TEST(ExecutorFailover, NoInjectorIsBitForBitFaultFree) {
  supernet::Supernet net(tiny_opts());
  auto network = netsim::make_device_swarm();
  runtime::DistributedExecutor exec(net, network);
  Rng rng(31);
  Tensor img = Tensor::randn({1, 3, 192, 192}, rng, 0.0f, 0.5f);
  const auto rep = exec.run(img, spread_config(), spread_plan());
  EXPECT_EQ(rep.redispatched_tiles, 0);
  EXPECT_EQ(rep.local_fallbacks, 0);
  EXPECT_DOUBLE_EQ(rep.failover_penalty_ms, 0.0);
  EXPECT_FALSE(rep.degraded);
  EXPECT_EQ(rep.transport.drops, 0u);
  EXPECT_EQ(rep.transport.timeouts, 0u);
  const partition::SubnetLatencyEvaluator eval(network);
  EXPECT_DOUBLE_EQ(rep.sim_latency_ms,
                   eval.latency_ms(spread_config(), spread_plan()));
}

TEST(ExecutorFailover, DeadDeviceTilesRedispatchToSurvivors) {
  supernet::Supernet net(tiny_opts());
  auto network = netsim::make_device_swarm();
  runtime::DistributedExecutor exec(net, network);
  Rng rng(32);
  Tensor img = Tensor::randn({1, 3, 192, 192}, rng, 0.0f, 0.5f);
  const auto clean = exec.run(img, spread_config(), spread_plan());

  FaultPlan fp;
  fp.crash(2, 0.0);  // dead before the request starts
  FaultInjector inj(fp);
  runtime::FailoverOptions fo;
  fo.injector = &inj;
  exec.set_failover(fo);
  const auto rep = exec.run(img, spread_config(), spread_plan());
  EXPECT_GT(rep.redispatched_tiles, 0);
  EXPECT_TRUE(rep.degraded);
  EXPECT_GT(rep.failover_penalty_ms, 0.0);
  EXPECT_GT(rep.sim_latency_ms, clean.sim_latency_ms);
  // Redispatch happens before dispatch, so results stay numerically
  // identical to the fault-free run (fp32 wires end to end).
  EXPECT_TRUE(rep.logits.allclose(clean.logits, 1e-4f));
  for (int i = 0; i < rep.logits.dim(1); ++i)
    ASSERT_TRUE(std::isfinite(rep.logits.at(0, i)));
}

TEST(ExecutorFailover, ChaosRunCompletesEveryRequest) {
  // The ISSUE's acceptance scenario: device swarm, 5% packet loss on every
  // remote link plus a device crash mid-request. Every request must
  // complete (no hang, no crash) with failover accounting to show for it.
  supernet::Supernet net(tiny_opts());
  auto network = netsim::make_device_swarm();
  runtime::DistributedExecutor exec(net, network);
  Rng rng(33);
  Tensor img = Tensor::randn({1, 3, 192, 192}, rng, 0.0f, 0.5f);
  const SubnetConfig c = spread_config();
  const partition::PlacementPlan plan = spread_plan();
  const partition::SubnetLatencyEvaluator eval(network);
  const double clean_latency = eval.latency_ms(c, plan);

  FaultPlan fp;
  for (std::size_t d = 1; d < 5; ++d) fp.packet_loss(d, 0.05);
  fp.crash(3, clean_latency / 2.0);  // dies while its tiles are in flight
  FaultInjector inj(fp, /*seed=*/99);
  runtime::FailoverOptions fo;
  fo.injector = &inj;
  exec.set_failover(fo);

  runtime::TransportStats total;
  int redispatched = 0, fallbacks = 0;
  for (int req = 0; req < 6; ++req) {
    const auto rep = exec.run(img, c, plan, /*sim_start_ms=*/0.0);
    ASSERT_EQ(rep.logits.dim(1), 10);
    for (int i = 0; i < rep.logits.dim(1); ++i)
      ASSERT_TRUE(std::isfinite(rep.logits.at(0, i))) << "request " << req;
    total.drops += rep.transport.drops;
    total.timeouts += rep.transport.timeouts;
    total.retries += rep.transport.retries;
    redispatched += rep.redispatched_tiles;
    fallbacks += rep.local_fallbacks;
  }
  // 5% loss across hundreds of messages: retries must have fired, and the
  // mid-request crash must have produced redispatches or local fallbacks.
  EXPECT_GT(total.retries, 0u);
  EXPECT_GT(redispatched + fallbacks, 0);
  // Dropped messages (loss beyond the retry budget or the crashed device)
  // surface as receiver-visible timeouts, never hangs.
  EXPECT_EQ(total.timeouts, total.drops);
}

TEST(ExecutorFailover, CrashScheduleAccountingIsExact) {
  // Deterministic failover scenario (no packet loss, so no RNG): device 2
  // is dead before the first request starts and device 3 dies halfway
  // through the clean critical path. Every count and charge below comes
  // from the analytic network model, never from host kernels, so the
  // values are host-independent; they pin the failover protocol itself
  // (redispatch, deadline receives, local fallback, blame, sim clock).
  supernet::Supernet net(tiny_opts());
  auto network = netsim::make_device_swarm();
  runtime::DistributedExecutor exec(net, network);
  Rng rng(34);
  Tensor img = Tensor::randn({1, 3, 192, 192}, rng, 0.0f, 0.5f);
  const SubnetConfig c = spread_config();
  const partition::PlacementPlan plan = spread_plan();
  const double clean_latency =
      partition::SubnetLatencyEvaluator(network).latency_ms(c, plan);

  FaultPlan fp;
  fp.crash(2, 0.0);
  fp.crash(3, clean_latency / 2.0);
  FaultInjector inj(fp);
  runtime::FailoverOptions fo;
  fo.injector = &inj;
  exec.set_failover(fo);

  struct Expected {
    double sim_start_ms;
    int redispatched_tiles, local_fallbacks;
    std::vector<int> device_failures;
    std::uint64_t messages, drops, retries, timeouts;
    double failover_penalty_ms, sim_latency_ms;
  };
  const std::vector<Expected> expected = {
      // Device 3 dies mid-request: its later tiles are redispatched, and
      // two regions it computed just before the crash can no longer leave
      // it, so each exhausts its retries and the receiver falls back.
      {0.0, 14, 2, {0, 0, 10, 6, 0}, 16, 2, 6, 2, 326.218432, 403.178208},
      // Both devices are dead from the start: every one of their tile
      // assignments is redispatched before anything ships.
      {clean_latency, 20, 0, {0, 0, 10, 10, 0}, 17, 0, 0, 0, 100.0,
       176.651221333333},
  };
  for (const auto& e : expected) {
    SCOPED_TRACE(::testing::Message() << "sim_start_ms=" << e.sim_start_ms);
    const auto rep = exec.run(img, c, plan, e.sim_start_ms);
    EXPECT_EQ(rep.redispatched_tiles, e.redispatched_tiles);
    EXPECT_EQ(rep.local_fallbacks, e.local_fallbacks);
    EXPECT_EQ(rep.device_failures, e.device_failures);
    EXPECT_EQ(rep.transport.messages, e.messages);
    EXPECT_EQ(rep.transport.drops, e.drops);
    EXPECT_EQ(rep.transport.retries, e.retries);
    EXPECT_EQ(rep.transport.timeouts, e.timeouts);
    EXPECT_TRUE(rep.degraded);
    EXPECT_NEAR(rep.failover_penalty_ms, e.failover_penalty_ms, 1e-9);
    EXPECT_NEAR(rep.sim_latency_ms, e.sim_latency_ms, 1e-9);
  }
}

// --------------------------------------------------------- system facade ----

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

TEST(SystemFailover, LocalDeviceCrashFailsFast) {
  auto system = runtime::MurmurationSystem(
      tiny_artifacts(netsim::Scenario::kAugmentedComputing),
      tiny_system_opts());
  FaultPlan fp;
  fp.crash(0, 0.0);  // the serving device itself
  FaultInjector inj(fp);
  runtime::FailoverOptions fo;
  fo.injector = &inj;
  system.set_failover(fo);
  Rng rng(41);
  Tensor img = Tensor::randn({1, 3, 224, 224}, rng, 0.0f, 0.5f);
  const auto r = system.infer(img);
  EXPECT_EQ(r.outcome, runtime::RequestOutcome::kFailed);
  EXPECT_STREQ(runtime::to_string(r.outcome), "failed");
}

TEST(SystemFailover, RemoteCrashPurgesCacheAndStillServes) {
  auto system = runtime::MurmurationSystem(
      tiny_artifacts(netsim::Scenario::kDeviceSwarm), tiny_system_opts());
  Rng rng(42);
  Tensor img = Tensor::randn({1, 3, 224, 224}, rng, 0.0f, 0.5f);
  // Warm the cache fault-free, then crash every remote device.
  const auto warm = system.infer(img);
  EXPECT_EQ(warm.replanned_entries, 0);
  FaultPlan fp;
  for (std::size_t d = 1; d < 5; ++d) fp.crash(d, 0.0);
  FaultInjector inj(fp);
  runtime::FailoverOptions fo;
  fo.injector = &inj;
  system.set_failover(fo);
  const auto health = system.health_mask();
  ASSERT_EQ(health.size(), 5u);
  EXPECT_TRUE(health[0]);
  for (std::size_t d = 1; d < 5; ++d) EXPECT_FALSE(health[d]);
  const auto r = system.infer(img);
  EXPECT_NE(r.outcome, runtime::RequestOutcome::kFailed);
  EXPECT_EQ(r.logits.dim(1), 10);
  // Whatever strategy is chosen, nothing may land on a dead device; any
  // cached strategy that did was purged, any fresh one re-planned.
  EXPECT_FALSE(partition::plan_uses_unhealthy(
      r.decision.strategy.plan, r.decision.strategy.config, health));
  // Every request after the mask change completes too.
  const auto r2 = system.infer(img);
  EXPECT_NE(r2.outcome, runtime::RequestOutcome::kFailed);
}

}  // namespace
}  // namespace murmur
