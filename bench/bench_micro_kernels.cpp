// google-benchmark microbenchmarks of the hot kernels: packed vs. naive
// GEMM over real supernet layer shapes, GEMM-based convolution, depthwise
// convolution (stride 1 and 2), the BN + hard-swish epilogue, activation
// quantization, the LSTM policy step and the
// supernet submodel switch.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "rl/lstm.h"
#include "runtime/supernet_host.h"
#include "tensor/conv_kernels.h"
#include "tensor/gemm.h"
#include "tensor/quantize.h"

using namespace murmur;

namespace {

// GEMM shapes taken from real supernet layers at 14×14 / 7×7 feature maps:
// MBConv expand (320×80·196), project (80×320·196), stem-adjacent
// (64×16·196), deep stage (160×640·49), and a square cache-stressing shape.
const int kGemmShapes[][3] = {
    {320, 80, 196}, {80, 320, 196}, {64, 16, 196},
    {160, 640, 49}, {256, 256, 256},
};

template <typename F>
void gemm_shape_bench(benchmark::State& state, F&& fn) {
  Rng rng(7);
  const auto& s = kGemmShapes[state.range(0)];
  const int m = s[0], k = s[1], n = s[2];
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  std::vector<float> c(static_cast<std::size_t>(m) * n, 0.0f);
  for (auto _ : state) {
    fn(m, k, n, a.raw(), b.raw(), c.data());
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(std::to_string(m) + "x" + std::to_string(k) + "x" +
                 std::to_string(n));
  state.SetItemsProcessed(state.iterations() * 2 * static_cast<std::int64_t>(m) *
                          k * n);
}

void BM_GemmPacked(benchmark::State& state) {
  gemm_shape_bench(state, [](int m, int k, int n, const float* a,
                             const float* b, float* c) { gemm(m, k, n, a, b, c); });
}
BENCHMARK(BM_GemmPacked)->DenseRange(0, 4);

void BM_GemmNaive(benchmark::State& state) {
  gemm_shape_bench(state,
                   [](int m, int k, int n, const float* a, const float* b,
                      float* c) { gemm_ref(m, k, n, a, b, c); });
}
BENCHMARK(BM_GemmNaive)->DenseRange(0, 4);

void BM_Conv2dPointwise(benchmark::State& state) {
  Rng rng(1);
  const int ch = static_cast<int>(state.range(0));
  nn::Conv2D conv(ch, ch * 4, 1, 1, 1, rng);
  Tensor x = Tensor::randn({1, ch, 14, 14}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(conv.forward(x));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Conv2dPointwise)->Arg(16)->Arg(40)->Arg(80);

// Same shapes as BM_Conv2dPointwise, through the int8 VNNI GEMM path.
// real_time(Int8)/real_time(fp32) per shape is the measured per-MAC ratio
// recorded in BENCH_kernels.json's `quantized` block and calibrated into
// CostModel::mac_cost_factor.
void BM_Conv2dPointwiseInt8(benchmark::State& state) {
  Rng rng(1);
  const int ch = static_cast<int>(state.range(0));
  nn::Conv2D conv(ch, ch * 4, 1, 1, 1, rng);
  conv.set_compute_precision(QuantBits::k8);
  Tensor x = Tensor::randn({1, ch, 14, 14}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(conv.forward(x));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Conv2dPointwiseInt8)->Arg(16)->Arg(40)->Arg(80);

void BM_Conv2dDepthwise(benchmark::State& state) {
  Rng rng(2);
  const int k = static_cast<int>(state.range(0));
  nn::Conv2D conv(64, 64, 7, 1, 64, rng);
  conv.set_active_kernel(k);
  Tensor x = Tensor::randn({1, 64, 14, 14}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(conv.forward(x));
}
BENCHMARK(BM_Conv2dDepthwise)->Arg(3)->Arg(5)->Arg(7);

// Stride-2 depthwise at the shapes of the supernet's downsampling blocks:
// args are (channels, input side, kernel).
void BM_Conv2dDepthwiseStride2(benchmark::State& state) {
  Rng rng(2);
  const int ch = static_cast<int>(state.range(0));
  const int side = static_cast<int>(state.range(1));
  const int k = static_cast<int>(state.range(2));
  nn::Conv2D conv(ch, ch, 7, 2, ch, rng);
  conv.set_active_kernel(k);
  Tensor x = Tensor::randn({1, ch, side, side}, rng);
  Tensor out(conv.out_shape(x.shape()));
  for (auto _ : state) {
    conv.forward_into(x, out);
    benchmark::DoNotOptimize(out.raw());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(conv.flops(x.shape())));
}
BENCHMARK(BM_Conv2dDepthwiseStride2)
    ->Args({16, 112, 3})
    ->Args({16, 112, 5})
    ->Args({16, 112, 7})
    ->Args({32, 28, 7});

// The in-place BN + hard-swish epilogue on a 16×112×112 map. Each
// iteration restores the input first (a plain copy, timed too): applied to
// its own output, hard-swish drives negative values into denormals.
void BM_BnHardSwishInplace(benchmark::State& state) {
  Rng rng(5);
  nn::BatchNorm bn(16);
  const Tensor src = Tensor::randn({1, 16, 112, 112}, rng);
  Tensor x = src;
  for (auto _ : state) {
    std::copy(src.raw(), src.raw() + src.size(), x.raw());
    bn.forward_inplace(x, true);
    benchmark::DoNotOptimize(x.raw());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * x.bytes());
}
BENCHMARK(BM_BnHardSwishInplace);

// Int8 depthwise (VBMI sliding-window kernel) over the same shapes.
void BM_Conv2dDepthwiseInt8(benchmark::State& state) {
  Rng rng(2);
  const int k = static_cast<int>(state.range(0));
  nn::Conv2D conv(64, 64, 7, 1, 64, rng);
  conv.set_active_kernel(k);
  conv.set_compute_precision(QuantBits::k8);
  Tensor x = Tensor::randn({1, 64, 14, 14}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(conv.forward(x));
}
BENCHMARK(BM_Conv2dDepthwiseInt8)->Arg(3)->Arg(5)->Arg(7);

void BM_QuantizeInt8(benchmark::State& state) {
  Rng rng(3);
  Tensor x = Tensor::randn({1, 80, 14, 14}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(quantize(x, QuantBits::k8));
  state.SetBytesProcessed(state.iterations() * x.bytes());
}
BENCHMARK(BM_QuantizeInt8);

void BM_LstmPolicyStep(benchmark::State& state) {
  Rng rng(4);
  rl::LstmCell cell(24, static_cast<std::size_t>(state.range(0)), rng);
  auto s = cell.initial_state();
  std::vector<double> x(24, 0.1);
  for (auto _ : state) {
    cell.forward(x, s, nullptr);
    benchmark::DoNotOptimize(s.h.data());
  }
}
BENCHMARK(BM_LstmPolicyStep)->Arg(64)->Arg(128)->Arg(256);

void BM_SubmodelSwitch(benchmark::State& state) {
  supernet::SupernetOptions opts;
  opts.width_mult = 0.25;
  runtime::SupernetHost host(opts);
  bool flip = false;
  for (auto _ : state) {
    host.switch_submodel(flip ? supernet::SubnetConfig::min_config()
                              : supernet::SubnetConfig::max_config());
    flip = !flip;
  }
}
BENCHMARK(BM_SubmodelSwitch);

}  // namespace

int main(int argc, char** argv) {
  // Name the int8 depthwise path in the JSON context, so a recorded
  // Conv2dInt8 number says whether the vector kernel or the scalar
  // fallback produced it.
  benchmark::AddCustomContext(
      "int8_depthwise_vectorized",
      kernels::int8_depthwise_vectorized() ? "true" : "false");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
