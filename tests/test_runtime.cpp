// Tests for the runtime: wire codec, transport, distributed executor
// (partitioned vs single-device numerical agreement, quantization
// propagation), supernet host switching, and the full system facade.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>

#include "common/serialize.h"
#include "core/training.h"
#include "netsim/scenario.h"
#include "runtime/executor.h"
#include "runtime/supernet_host.h"
#include "runtime/system.h"

namespace murmur::runtime {
namespace {

using supernet::SubnetConfig;

// ----------------------------------------------------------- wire codec ----

class CodecBits : public ::testing::TestWithParam<QuantBits> {};

TEST_P(CodecBits, EncodeDecodeRoundTrip) {
  Rng rng(1);
  Tensor t = Tensor::randn({1, 3, 6, 6}, rng);
  const QuantizedTensor qt = quantize(t, GetParam());
  const auto bytes = encode_activation(qt);
  const auto back = decode_activation(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->shape, qt.shape);
  EXPECT_EQ(back->bits, qt.bits);
  // Decoded tensor must match the original quantized representation.
  EXPECT_TRUE(dequantize(*back).allclose(dequantize(qt), 1e-6f));
}

INSTANTIATE_TEST_SUITE_P(AllWidths, CodecBits,
                         ::testing::Values(QuantBits::k32, QuantBits::k16,
                                           QuantBits::k8, QuantBits::k4));

TEST(Codec, PackedPayloadSmallerThanFp32) {
  Rng rng(2);
  Tensor t = Tensor::randn({1, 8, 16, 16}, rng);
  const auto b32 = encode_activation(quantize(t, QuantBits::k32));
  const auto b8 = encode_activation(quantize(t, QuantBits::k8));
  EXPECT_LT(b8.size(), b32.size() / 3);
}

// The ACT1 encoding as first specified: header, then the fp32 payload or
// the codes bit-packed into a separate buffer written length-prefixed.
std::vector<std::uint8_t> reference_encode(const QuantizedTensor& qt) {
  ByteWriter w;
  w.write_u32(0x41435431u);
  w.write_u32(static_cast<std::uint32_t>(qt.shape.size()));
  for (int d : qt.shape) w.write_i32(d);
  w.write_u32(static_cast<std::uint32_t>(bit_count(qt.bits)));
  w.write_f32(qt.scale);
  w.write_f32(qt.zero_point);
  if (qt.bits == QuantBits::k32) {
    w.write_f32_span(qt.passthrough);
    return w.take();
  }
  const int bits = bit_count(qt.bits);
  w.write_u64(qt.q.size());
  std::vector<std::uint8_t> packed;
  std::uint64_t acc = 0;
  int filled = 0;
  for (std::int32_t v : qt.q) {
    acc |= (static_cast<std::uint64_t>(v) & ((1ull << bits) - 1)) << filled;
    for (filled += bits; filled >= 8; filled -= 8, acc >>= 8)
      packed.push_back(static_cast<std::uint8_t>(acc & 0xff));
  }
  if (filled > 0) packed.push_back(static_cast<std::uint8_t>(acc & 0xff));
  w.write_bytes(packed);
  return w.take();
}

TEST(Codec, BatchFrameEqualsLengthPrefixedMemberEncodings) {
  // The batch encoder writes members straight into one reserved frame; its
  // bytes must equal the composition of magic, count and each member's
  // length-prefixed single-sample encoding.
  Rng rng(3);
  for (const QuantBits bits :
       {QuantBits::k32, QuantBits::k16, QuantBits::k8, QuantBits::k4}) {
    for (const int count : {1, 3}) {
      std::vector<QuantizedTensor> members;
      // 75 elements: 4-bit codes leave a half-filled trailing byte.
      for (int i = 0; i < count; ++i)
        members.push_back(quantize(Tensor::randn({1, 3, 5, 5}, rng), bits));
      ByteWriter want;
      want.write_u32(0x41435442u);
      want.write_u32(static_cast<std::uint32_t>(count));
      for (const auto& m : members) {
        const auto one = encode_activation(m);
        EXPECT_EQ(one, reference_encode(m)) << bit_count(bits) << " bits";
        want.write_bytes(one);
      }
      EXPECT_EQ(encode_activation_batch(members), want.data())
          << bit_count(bits) << " bits, batch of " << count;
    }
  }
}

TEST(Codec, RejectsGarbage) {
  std::vector<std::uint8_t> junk = {1, 2, 3, 4, 5};
  EXPECT_FALSE(decode_activation(junk).has_value());
}

// ------------------------------------------------------------ transport ----

TEST(Transport, DeliversByTagAndChargesSimTime) {
  auto net = netsim::make_augmented_computing();
  netsim::shape_remotes(net, Bandwidth::from_mbps(80),
                        Delay::from_ms(10));
  Transport tp(net);
  const double arrival =
      tp.send(0, 1, 42, {1, 2, 3}, /*wire_bytes=*/1'000'000, /*send_ms=*/5.0);
  // 1 MB at 80 Mbps = 100 ms + ~10 ms delay + 5 ms send time.
  EXPECT_NEAR(arrival, 115.0, 1.0);
  const auto msg = tp.recv(1, 42);
  EXPECT_EQ(msg.src, 0);
  EXPECT_EQ(msg.payload, (std::vector<std::uint8_t>{1, 2, 3}));
  const auto stats = tp.stats();
  EXPECT_EQ(stats.messages, 1u);
  EXPECT_EQ(stats.wire_bytes, 1'000'000u);
  EXPECT_GT(stats.sim_transfer_ms, 100.0);
}

TEST(Transport, MultipleTagsIndependent) {
  auto net = netsim::make_augmented_computing();
  Transport tp(net);
  tp.send(0, 1, 7, {7}, 1, 0.0);
  tp.send(0, 1, 8, {8}, 1, 0.0);
  EXPECT_EQ(tp.recv(1, 8).payload[0], 8);
  EXPECT_EQ(tp.recv(1, 7).payload[0], 7);
}

// ------------------------------------------------------------- executor ----

supernet::SupernetOptions tiny_opts() {
  supernet::SupernetOptions o;
  o.width_mult = 0.1;
  o.classes = 10;
  o.seed = 3;
  return o;
}

TEST(Executor, AllLocalMatchesDirectForward) {
  supernet::Supernet net(tiny_opts());
  auto network = netsim::make_augmented_computing();
  DistributedExecutor exec(net, network);
  Rng rng(4);
  Tensor img = Tensor::randn({1, 3, 192, 192}, rng, 0.0f, 0.5f);
  SubnetConfig c = SubnetConfig::min_config();
  c.resolution = 192;
  for (auto& b : c.blocks) b.quant = QuantBits::k32;  // lossless
  const auto rep = exec.run(img, c, partition::PlacementPlan::all_local());
  net.activate(c);
  const Tensor direct = net.forward(img);
  EXPECT_TRUE(rep.logits.allclose(direct, 1e-4f));
  EXPECT_EQ(rep.transport.messages, 0u);
  EXPECT_GT(rep.sim_latency_ms, 0.0);
}

TEST(Executor, DistributedFp32MatchesLocal) {
  // Spreading tiles across devices with fp32 wires must be numerically
  // identical to local partitioned execution.
  supernet::Supernet net(tiny_opts());
  auto network = netsim::make_device_swarm();
  DistributedExecutor exec(net, network);
  Rng rng(5);
  Tensor img = Tensor::randn({1, 3, 192, 192}, rng, 0.0f, 0.5f);
  SubnetConfig c = SubnetConfig::min_config();
  c.resolution = 192;
  for (auto& b : c.blocks) {
    b.quant = QuantBits::k32;
    b.grid = PartitionGrid{2, 2};
  }
  partition::PlacementPlan spread = partition::PlacementPlan::all_local();
  for (auto& row : spread.device) row = {1, 2, 3, 4};
  const auto distributed = exec.run(img, c, spread);
  EXPECT_GT(distributed.transport.messages, 0u);
  EXPECT_GT(distributed.partitioned_blocks, 0);
  const auto local = exec.run(img, c, partition::PlacementPlan::all_local());
  EXPECT_TRUE(distributed.logits.allclose(local.logits, 1e-3f));
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.raw(), b.raw(), a.bytes()) == 0;
}

TEST(Executor, Fp32WiresMatchSupernetForwardBitwise) {
  // Differential: with fp32 wires the distributed forward IS the supernet's
  // forward, bit for bit, at every resolution (176 and 208 feed odd maps
  // into stride-2 blocks), on an all-local and a spread plan, with each
  // block tiled alone and with every block tiled at once.
  supernet::Supernet net(tiny_opts());
  auto network = netsim::make_device_swarm();
  DistributedExecutor exec(net, network);
  partition::PlacementPlan spread = partition::PlacementPlan::all_local();
  for (auto& row : spread.device) row = {1, 2, 3, 4};
  const partition::PlacementPlan plans[] = {
      partition::PlacementPlan::all_local(), spread};
  for (const int res : {160, 176, 192, 208, 224}) {
    Rng rng(static_cast<std::uint64_t>(res));
    const Tensor img = Tensor::randn({1, 3, res, res}, rng, 0.0f, 0.5f);
    SubnetConfig untiled = SubnetConfig::max_config();
    untiled.resolution = res;
    for (auto& b : untiled.blocks) {
      b.quant = QuantBits::k32;
      b.grid = PartitionGrid{1, 1};
    }
    std::vector<SubnetConfig> cases{untiled};
    SubnetConfig all_tiled = untiled;
    for (std::size_t b = 0; b < untiled.blocks.size(); ++b) {
      cases.push_back(untiled);
      cases.back().blocks[b].grid = PartitionGrid{2, 2};
      all_tiled.blocks[b].grid = PartitionGrid{2, 2};
    }
    cases.push_back(all_tiled);
    int tiled_alone = 0;
    for (std::size_t k = 0; k < cases.size(); ++k) {
      net.activate(cases[k]);
      const Tensor direct = net.forward(img);
      for (const auto& plan : plans) {
        const auto rep = exec.run(img, cases[k], plan);
        EXPECT_TRUE(bitwise_equal(rep.logits, direct))
            << "res " << res << " case " << k << " spread " << (plan == spread);
        if (k > 0 && k <= supernet::kMaxBlocks && plan == spread)
          tiled_alone += rep.partitioned_blocks;
      }
    }
    // 18-20 of the 20 blocks tile alone on a 2x2 grid at these sizes.
    EXPECT_GE(tiled_alone, 15) << "res " << res;
  }
}

TEST(Executor, QuantizedWiresPerturbLogits) {
  supernet::Supernet net(tiny_opts());
  auto network = netsim::make_augmented_computing();
  DistributedExecutor exec(net, network);
  Rng rng(6);
  Tensor img = Tensor::randn({1, 3, 160, 160}, rng, 0.0f, 0.5f);
  SubnetConfig fp32 = SubnetConfig::min_config();
  for (auto& b : fp32.blocks) b.quant = QuantBits::k32;
  SubnetConfig int4 = fp32;
  for (auto& b : int4.blocks) b.quant = QuantBits::k4;
  // Offload the second half to device 1 so quantization hits the wire.
  partition::PlacementPlan plan = partition::PlacementPlan::all_local();
  for (int b = 10; b < supernet::kMaxBlocks; ++b)
    plan.device[static_cast<std::size_t>(b)].fill(1);
  plan.head_device = 1;
  const auto lossless = exec.run(img, fp32, plan);
  const auto lossy = exec.run(img, int4, plan);
  EXPECT_FALSE(lossless.logits.allclose(lossy.logits, 1e-6f));
  // Same plan with fp32 wires matches pure local execution.
  const auto local = exec.run(img, fp32, partition::PlacementPlan::all_local());
  EXPECT_TRUE(lossless.logits.allclose(local.logits, 1e-4f));
}

TEST(Executor, SimLatencyTracksEvaluator) {
  supernet::Supernet net(tiny_opts());
  auto network = netsim::make_augmented_computing();
  netsim::shape_remotes(network, Bandwidth::from_mbps(100),
                        Delay::from_ms(10));
  DistributedExecutor exec(net, network);
  Rng rng(7);
  Tensor img = Tensor::randn({1, 3, 160, 160}, rng, 0.0f, 0.5f);
  const SubnetConfig c = SubnetConfig::min_config();
  const auto plan = partition::PlacementPlan::all_local();
  const auto rep = exec.run(img, c, plan);
  const partition::SubnetLatencyEvaluator eval(network);
  EXPECT_NEAR(rep.sim_latency_ms, eval.latency_ms(c, plan), 1e-9);
}

// --------------------------------------------------------- supernet host ----

TEST(SupernetHost, SwitchIsOrdersOfMagnitudeFasterThanReload) {
  supernet::SupernetOptions o = tiny_opts();
  o.width_mult = 0.25;
  SupernetHost host(o);
  // Warm up, then measure.
  host.switch_submodel(SubnetConfig::min_config());
  double switch_ms = 0, reload_ms = 0;
  for (int i = 0; i < 5; ++i) {
    switch_ms += host.switch_submodel(i % 2 ? SubnetConfig::min_config()
                                            : SubnetConfig::max_config());
    reload_ms += host.cold_model_load();
  }
  EXPECT_LT(switch_ms, reload_ms / 10.0);
  EXPECT_GT(host.resident_bytes(), 0u);
}

TEST(SupernetHost, DeviceScaling) {
  EXPECT_GT(SupernetHost::scale_to_device(10.0,
                                          netsim::DeviceType::kRaspberryPi4),
            10.0);
  EXPECT_LT(SupernetHost::scale_to_device(10.0, netsim::DeviceType::kDesktopGpu),
            10.0);
}

// --------------------------------------------------------------- system ----

TEST(System, EndToEndInference) {
  core::TrainSetup setup;
  setup.scenario = netsim::Scenario::kAugmentedComputing;
  setup.trainer.total_steps = 30;  // untrained-ish policy is fine here
  setup.trainer.eval_every = 30;
  setup.trainer.eval_points = 4;
  setup.policy.hidden = 16;
  auto artifacts = core::train(setup);

  SystemOptions opts;
  opts.slo = core::Slo::latency_ms(400.0);
  opts.exec_width_mult = 0.1;
  opts.classes = 10;
  MurmurationSystem system(std::move(artifacts), opts);

  Rng rng(8);
  Tensor img = Tensor::randn({1, 3, 224, 224}, rng, 0.0f, 0.5f);
  const auto r1 = system.infer(img);
  EXPECT_EQ(r1.logits.dim(1), 10);
  EXPECT_GE(r1.predicted_class, 0);
  EXPECT_LT(r1.predicted_class, 10);
  EXPECT_GT(r1.sim_latency_ms, 0.0);
  EXPECT_TRUE(r1.decision.strategy.config.valid());
  EXPECT_TRUE(r1.decision.strategy.plan.valid(r1.decision.strategy.config, 2));
}

TEST(System, FreshAndLoadedArtifactsStartOnScenarioLinks) {
  // Training evaluates thousands of constraints; none of them may stay in
  // the env's network. A system built from fresh artifacts starts on the
  // same links as one built from the checkpoint they were saved to.
  core::TrainSetup setup;
  setup.trainer.total_steps = 10;
  setup.trainer.eval_every = 10;
  setup.trainer.eval_points = 2;
  setup.policy.hidden = 16;
  const auto fresh = core::train(setup);
  EXPECT_EQ(fresh.env->network().conditions(),
            netsim::make_scenario(setup.scenario).conditions());

  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "murmur_links_ckpt";
  std::filesystem::remove_all(dir);
  SystemOptions opts;
  opts.exec_width_mult = 0.1;
  opts.classes = 10;
  MurmurationSystem trained(core::train_or_load(setup, dir.string()), opts);
  MurmurationSystem loaded(core::train_or_load(setup, dir.string()), opts);
  EXPECT_EQ(trained.network().conditions(), loaded.network().conditions());
  EXPECT_EQ(trained.network().conditions(),
            netsim::make_scenario(setup.scenario).conditions());
  std::filesystem::remove_all(dir);
}

TEST(System, CacheHitsOnRepeatedRequests) {
  core::TrainSetup setup;
  setup.trainer.total_steps = 10;
  setup.trainer.eval_every = 10;
  setup.trainer.eval_points = 2;
  setup.policy.hidden = 16;
  auto artifacts = core::train(setup);
  SystemOptions opts;
  opts.exec_width_mult = 0.1;
  opts.classes = 10;
  opts.use_predictor = false;
  MurmurationSystem system(std::move(artifacts), opts);
  Rng rng(9);
  Tensor img = Tensor::randn({1, 3, 224, 224}, rng, 0.0f, 0.5f);
  (void)system.infer(img);
  const auto r2 = system.infer(img);
  EXPECT_TRUE(r2.cache_hit);
  EXPECT_GT(system.cache().hits(), 0u);
}

TEST(System, SloChangeChangesStrategyClass) {
  core::TrainSetup setup;
  setup.trainer.total_steps = 10;
  setup.trainer.eval_every = 10;
  setup.trainer.eval_points = 2;
  setup.policy.hidden = 16;
  auto artifacts = core::train(setup);
  SystemOptions opts;
  opts.exec_width_mult = 0.1;
  opts.classes = 10;
  MurmurationSystem system(std::move(artifacts), opts);
  system.set_slo(core::Slo::latency_ms(150.0));
  EXPECT_EQ(system.slo().value, 150.0);
  system.set_slo(core::Slo::accuracy_pct(75.0));
  EXPECT_EQ(system.slo().type, core::SloType::kAccuracy);
}


TEST(Executor, RandomFp32StrategiesMatchDirectForward) {
  // Property: with lossless (fp32) wires, distributed execution of ANY
  // schema-valid strategy produces the same logits as running the active
  // submodel directly (the executor's tile assembly + FDSP semantics match
  // the supernet's own partitioned forward).
  supernet::Supernet net(tiny_opts());
  auto network = netsim::make_device_swarm();
  DistributedExecutor exec(net, network);
  Rng rng(77);
  for (int trial = 0; trial < 5; ++trial) {
    SubnetConfig c = SubnetConfig::random(rng);
    for (auto& b : c.blocks) b.quant = QuantBits::k32;
    partition::PlacementPlan plan;
    for (auto& row : plan.device)
      for (auto& d : row)
        d = static_cast<std::uint8_t>(rng.uniform_index(5));
    plan.stem_device = static_cast<std::uint8_t>(rng.uniform_index(5));
    plan.head_device = static_cast<std::uint8_t>(rng.uniform_index(5));
    Tensor img =
        Tensor::randn({1, 3, c.resolution, c.resolution}, rng, 0.0f, 0.5f);
    const auto rep = exec.run(img, c, plan);
    net.activate(c);
    const Tensor direct = net.forward(img);
    EXPECT_TRUE(rep.logits.allclose(direct, 5e-3f))
        << "trial " << trial << " config " << c.to_string();
  }
}

}  // namespace
}  // namespace murmur::runtime
