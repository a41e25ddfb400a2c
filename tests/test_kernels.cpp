// Differential tests for the optimized compute kernels: every fast path
// (packed GEMM, parallel GEMM dispatch, gemv, im2col, depthwise conv,
// grouped conv, quantize) is checked against its naive `_ref`
// counterpart across awkward shapes — odd H/W, pad > 0, strides 2 and 3,
// groups > 1, elastic kernel crops, and sizes straddling the parallel
// threshold. Where a fast path keeps the reference's accumulation order
// (depthwise at every stride, the in-place BN + hard-swish epilogue) the
// check is bitwise. Also covers the kernel pool's task primitive
// (nesting, chunk counts, exceptions), Workspace reuse (zero steady-state
// heap allocation) and the cropped-weight cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "tensor/conv_kernels.h"
#include "tensor/gemm.h"
#include "tensor/gemm_int8.h"
#include "tensor/quantize.h"
#include "tensor/tensor.h"
#include "tensor/workspace.h"

namespace murmur {
namespace {

constexpr float kTol = 1e-4f;

std::vector<float> random_vec(std::size_t n, Rng& rng, float stddev = 0.25f) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal(0.0, stddev));
  return v;
}

void expect_close(const float* got, const float* want, std::size_t n,
                  const char* what) {
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_NEAR(got[i], want[i], kTol) << what << " mismatch at index " << i;
  }
}

// ---------------------------------------------------------------------------
// GEMM
// ---------------------------------------------------------------------------

void check_gemm(int m, int k, int n, Rng& rng) {
  const auto a = random_vec(static_cast<std::size_t>(m) * k, rng);
  const auto b = random_vec(static_cast<std::size_t>(k) * n, rng);
  // Non-zero initial C exercises the accumulate-into contract.
  const auto c0 = random_vec(static_cast<std::size_t>(m) * n, rng);
  auto c_fast = c0;
  auto c_ref = c0;
  gemm(m, k, n, a.data(), b.data(), c_fast.data());
  gemm_ref(m, k, n, a.data(), b.data(), c_ref.data());
  SCOPED_TRACE(::testing::Message() << "m=" << m << " k=" << k << " n=" << n);
  expect_close(c_fast.data(), c_ref.data(), c_fast.size(), "gemm");
}

TEST(Gemm, MatchesReferenceAcrossAwkwardShapes) {
  Rng rng(41);
  // Degenerate, sub-tile, exact-tile, and remainder-heavy shapes. kMR=6,
  // kNR is 2x the vector width, KC=256 — shapes straddle all of them.
  const int shapes[][3] = {
      {1, 1, 1},    {1, 7, 1},     {3, 5, 7},    {6, 16, 16},
      {6, 256, 32}, {7, 17, 33},   {13, 64, 196}, {37, 23, 5},
      {100, 3, 50}, {96, 257, 31}, {5, 300, 97},  {64, 80, 196},
  };
  for (const auto& s : shapes) check_gemm(s[0], s[1], s[2], rng);
}

TEST(Gemm, MatchesReferenceAcrossParallelThreshold) {
  // Force a multi-thread kernel pool even on 1-core CI so the banded
  // parallel dispatch path actually runs; sizes sit just below and well
  // above the flop threshold (2*m*k*n vs gemm_parallel_flops()).
  Rng rng(43);
  gemm_override_threads(3);
  ASSERT_EQ(gemm_kernel_threads(), 3);
  const std::size_t thr = gemm_parallel_flops();
  ASSERT_LT(2ull * 48 * 64 * 128, thr);   // serial
  ASSERT_GE(2ull * 64 * 128 * 512, thr);  // parallel
  check_gemm(48, 64, 128, rng);
  check_gemm(64, 128, 512, rng);
  check_gemm(97, 130, 509, rng);  // parallel + ragged band/tile remainders
  gemm_override_threads(0);
}

// ---------------------------------------------------------------------------
// Kernel pool
// ---------------------------------------------------------------------------

/// Restores the default kernel thread count when a test leaves scope, even
/// through a failed assertion.
struct ThreadOverride {
  explicit ThreadOverride(int n) { gemm_override_threads(n); }
  ~ThreadOverride() { gemm_override_threads(0); }
  void set(int n) { gemm_override_threads(n); }
};

TEST(KernelPool, NestedGemmRunsInlineAndMatchesSingleThreadBitwise) {
  // gemm's row-band dispatch reached from inside a kernel_parallel_for task
  // must run inline: queueing the bands behind the tasks that occupy the
  // pool would leave a worker blocked on work no thread can pick up.
  // Row bands never change a product's per-element accumulation order, so
  // every path must agree bitwise with the single-thread product.
  Rng rng(53);
  const int m = 96, k = 256, n = 256;
  ASSERT_GE(2ull * m * k * n, gemm_parallel_flops());
  const auto a = random_vec(static_cast<std::size_t>(m) * k, rng);
  const auto b = random_vec(static_cast<std::size_t>(k) * n, rng);
  const std::size_t bytes = static_cast<std::size_t>(m) * n * sizeof(float);

  ThreadOverride threads(1);
  std::vector<float> want(static_cast<std::size_t>(m) * n, 0.0f);
  gemm(m, k, n, a.data(), b.data(), want.data());

  threads.set(4);
  std::vector<float> top(want.size(), 0.0f);
  gemm(m, k, n, a.data(), b.data(), top.data());  // banded across the pool
  EXPECT_EQ(std::memcmp(top.data(), want.data(), bytes), 0);

  constexpr std::size_t kTasks = 6;  // more tasks than threads
  std::vector<std::vector<float>> got(kTasks,
                                      std::vector<float>(want.size(), 0.0f));
  std::vector<std::size_t> inner_chunks(kTasks, 0);
  kernel_parallel_for(kTasks, [&](std::size_t t) {
    inner_chunks[t] = kernel_chunks(8);
    gemm(m, k, n, a.data(), b.data(), got[t].data());
  });
  for (std::size_t t = 0; t < kTasks; ++t) {
    SCOPED_TRACE(::testing::Message() << "task " << t);
    EXPECT_EQ(inner_chunks[t], 1u);
    EXPECT_EQ(std::memcmp(got[t].data(), want.data(), bytes), 0);
  }
}

TEST(KernelPool, ChunkCountsAndSingleThreadDegradesToPlainCall) {
  ThreadOverride threads(4);
  EXPECT_EQ(kernel_chunks(0), 0u);
  EXPECT_EQ(kernel_chunks(1), 1u);
  EXPECT_EQ(kernel_chunks(3), 3u);  // n < threads: one item per chunk
  EXPECT_EQ(kernel_chunks(4), 4u);
  EXPECT_EQ(kernel_chunks(9), 4u);

  std::vector<std::atomic<int>> hits(9);
  kernel_parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), 1) << "task " << i;

  // One configured thread: a plain in-order loop on the calling thread.
  threads.set(1);
  EXPECT_EQ(kernel_chunks(9), 1u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  kernel_parallel_for(5, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(KernelPool, RethrowsAfterEveryTaskFinishes) {
  ThreadOverride threads(4);
  std::atomic<int> finished{0};
  EXPECT_THROW(kernel_parallel_for(8,
                                   [&](std::size_t i) {
                                     if (i == 2) throw std::runtime_error("x");
                                     ++finished;
                                   }),
               std::runtime_error);
  EXPECT_EQ(finished.load(), 7);
}

TEST(Gemv, MatchesGemmReference) {
  Rng rng(47);
  const int shapes[][2] = {{1, 1}, {3, 17}, {8, 64}, {13, 100}, {640, 160}};
  for (const auto& s : shapes) {
    const int m = s[0], k = s[1];
    const auto a = random_vec(static_cast<std::size_t>(m) * k, rng);
    const auto x = random_vec(static_cast<std::size_t>(k), rng);
    const auto bias = random_vec(static_cast<std::size_t>(m), rng);
    std::vector<float> y(m), want(m);
    // Reference: y = A.x + bias via gemm_ref with n=1.
    for (int i = 0; i < m; ++i) want[i] = bias[i];
    gemm_ref(m, k, 1, a.data(), x.data(), want.data());
    gemv(m, k, a.data(), x.data(), bias.data(), y.data());
    SCOPED_TRACE(::testing::Message() << "m=" << m << " k=" << k);
    expect_close(y.data(), want.data(), y.size(), "gemv");
    // And the bias == nullptr branch.
    std::fill(want.begin(), want.end(), 0.0f);
    gemm_ref(m, k, 1, a.data(), x.data(), want.data());
    gemv(m, k, a.data(), x.data(), nullptr, y.data());
    expect_close(y.data(), want.data(), y.size(), "gemv-nobias");
  }
}

// ---------------------------------------------------------------------------
// im2col
// ---------------------------------------------------------------------------

/// Element-by-element im2col reference.
void im2col_ref(const float* input, int c, int h, int w, int kh, int kw,
                int stride, int pad, float* out) {
  const int oh = conv_out_size(h, kh, stride, pad);
  const int ow = conv_out_size(w, kw, stride, pad);
  std::size_t r = 0;
  for (int ch = 0; ch < c; ++ch)
    for (int ky = 0; ky < kh; ++ky)
      for (int kx = 0; kx < kw; ++kx, ++r)
        for (int oy = 0; oy < oh; ++oy)
          for (int ox = 0; ox < ow; ++ox) {
            const int iy = oy * stride - pad + ky;
            const int ix = ox * stride - pad + kx;
            const bool in_bounds = iy >= 0 && iy < h && ix >= 0 && ix < w;
            out[r * static_cast<std::size_t>(oh) * ow +
                static_cast<std::size_t>(oy) * ow + ox] =
                in_bounds
                    ? input[(static_cast<std::size_t>(ch) * h + iy) * w + ix]
                    : 0.0f;
          }
}

TEST(Im2col, MatchesReference) {
  Rng rng(53);
  struct Case {
    int c, h, w, kh, kw, stride, pad;
  };
  const Case cases[] = {
      {1, 5, 5, 3, 3, 1, 1},  {3, 7, 9, 3, 3, 1, 0},  {2, 14, 14, 5, 5, 1, 2},
      {4, 11, 13, 7, 7, 1, 3}, {2, 9, 7, 3, 3, 2, 1},  {3, 15, 11, 5, 5, 2, 2},
      {1, 3, 3, 7, 7, 1, 3},   {2, 8, 6, 1, 1, 1, 0},  {2, 10, 10, 3, 5, 1, 1},
      {1, 2, 2, 7, 7, 2, 3},
  };
  for (const auto& cs : cases) {
    const int oh = conv_out_size(cs.h, cs.kh, cs.stride, cs.pad);
    const int ow = conv_out_size(cs.w, cs.kw, cs.stride, cs.pad);
    ASSERT_GT(oh, 0);
    ASSERT_GT(ow, 0);
    const auto in =
        random_vec(static_cast<std::size_t>(cs.c) * cs.h * cs.w, rng);
    const std::size_t cols =
        static_cast<std::size_t>(cs.c) * cs.kh * cs.kw * oh * ow;
    std::vector<float> got(cols, -99.0f), want(cols, 99.0f);
    im2col(in.data(), cs.c, cs.h, cs.w, cs.kh, cs.kw, cs.stride, cs.pad,
           got.data());
    im2col_ref(in.data(), cs.c, cs.h, cs.w, cs.kh, cs.kw, cs.stride, cs.pad,
               want.data());
    SCOPED_TRACE(::testing::Message()
                 << "c=" << cs.c << " h=" << cs.h << " w=" << cs.w
                 << " k=" << cs.kh << "x" << cs.kw << " s=" << cs.stride
                 << " p=" << cs.pad);
    // im2col is pure data movement: exact, not approximate.
    for (std::size_t i = 0; i < cols; ++i)
      ASSERT_EQ(got[i], want[i]) << "im2col mismatch at " << i;
  }
}

// ---------------------------------------------------------------------------
// Depthwise convolution
// ---------------------------------------------------------------------------

TEST(DepthwiseConv, MatchesReference) {
  Rng rng(59);
  struct Case {
    int c, h, w, k, stride;
  };
  const Case cases[] = {
      {1, 5, 5, 3, 1},   {3, 7, 9, 3, 1},   {8, 14, 14, 5, 1},
      {4, 11, 13, 7, 1}, {5, 9, 7, 3, 2},   {8, 15, 11, 5, 2},
      {2, 14, 14, 7, 2}, {1, 3, 3, 7, 1},   {2, 2, 2, 7, 1},
      {3, 2, 3, 7, 2},   {16, 1, 1, 3, 1},  {7, 28, 28, 7, 2},
      {4, 13, 11, 5, 3}, {2, 9, 10, 7, 3},
  };
  for (const auto& cs : cases) {
    const int pad = cs.k / 2;
    const int oh = conv_out_size(cs.h, cs.k, cs.stride, pad);
    const int ow = conv_out_size(cs.w, cs.k, cs.stride, pad);
    ASSERT_GT(oh, 0);
    ASSERT_GT(ow, 0);
    const auto in =
        random_vec(static_cast<std::size_t>(cs.c) * cs.h * cs.w, rng);
    const auto wts =
        random_vec(static_cast<std::size_t>(cs.c) * cs.k * cs.k, rng);
    const auto bias = random_vec(static_cast<std::size_t>(cs.c), rng);
    const std::size_t on = static_cast<std::size_t>(cs.c) * oh * ow;
    std::vector<float> got(on, -99.0f), want(on, 99.0f);
    for (const float* b : {bias.data(), static_cast<const float*>(nullptr)}) {
      kernels::depthwise_conv2d(in.data(), cs.c, cs.h, cs.w, wts.data(), b,
                                cs.k, cs.stride, pad, got.data());
      kernels::depthwise_conv2d_ref(in.data(), cs.c, cs.h, cs.w, wts.data(), b,
                                    cs.k, cs.stride, pad, want.data());
      SCOPED_TRACE(::testing::Message()
                   << "c=" << cs.c << " h=" << cs.h << " w=" << cs.w
                   << " k=" << cs.k << " s=" << cs.stride
                   << " bias=" << (b != nullptr));
      expect_close(got.data(), want.data(), on, "depthwise");
    }
  }
}

TEST(DepthwiseConv, MatchesTapOrderReferenceBitwise) {
  // Every stride adds each output's taps to +0 in (ky, kx) order and the
  // bias last, exactly like the reference, so the two must agree bit for
  // bit (both sit in the kernel translation unit, so both see the same FMA
  // contraction). The inputs are hard-swish outputs, so about one in
  // fifteen is −0.0.
  Rng rng(61);
  struct Case {
    int c, h, w, stride;
  };
  const Case cases[] = {
      // Stride 1 at the supernet's shapes, then sides that are not a
      // multiple of the vector width or of the row tile.
      {16, 112, 112, 1}, {16, 56, 56, 1}, {32, 28, 28, 1}, {80, 14, 14, 1},
      {112, 14, 14, 1},  {160, 7, 7, 1},  {3, 1, 1, 1},    {2, 2, 2, 1},
      {4, 9, 7, 1},      {3, 13, 11, 1},  {2, 5, 17, 1},   {1, 19, 33, 1},
      // Stride 2.
      {1, 9, 9, 2},      {3, 8, 10, 2},   {2, 13, 6, 2},   {4, 2, 5, 2},
      {2, 5, 2, 2},      {1, 1, 1, 2},    {16, 112, 112, 2}, {16, 56, 28, 2},
      {16, 28, 56, 2},   {8, 27, 29, 2},
      // Stride 3.
      {4, 13, 11, 3},    {2, 9, 10, 3},
  };
  std::size_t negative_zeros = 0;
  for (const auto& cs : cases) {
    for (const int k : {3, 5, 7}) {
      const int pad = k / 2;
      const int oh = conv_out_size(cs.h, k, cs.stride, pad);
      const int ow = conv_out_size(cs.w, k, cs.stride, pad);
      auto in = random_vec(static_cast<std::size_t>(cs.c) * cs.h * cs.w, rng,
                           2.0f);
      for (auto& v : in) {
        v = v * std::clamp(v + 3.0f, 0.0f, 6.0f) / 6.0f;
        negative_zeros += v == 0.0f && std::signbit(v);
      }
      const auto wts = random_vec(static_cast<std::size_t>(cs.c) * k * k, rng);
      const auto bias = random_vec(static_cast<std::size_t>(cs.c), rng);
      const std::size_t on = static_cast<std::size_t>(cs.c) * oh * ow;
      std::vector<float> got(on, -99.0f), want(on, 99.0f);
      for (const float* b : {bias.data(), static_cast<const float*>(nullptr)}) {
        kernels::depthwise_conv2d(in.data(), cs.c, cs.h, cs.w, wts.data(), b,
                                  k, cs.stride, pad, got.data());
        kernels::depthwise_conv2d_ref(in.data(), cs.c, cs.h, cs.w, wts.data(),
                                      b, k, cs.stride, pad, want.data());
        ASSERT_EQ(std::memcmp(got.data(), want.data(), on * sizeof(float)), 0)
            << "c=" << cs.c << " h=" << cs.h << " w=" << cs.w << " k=" << k
            << " s=" << cs.stride << " bias=" << (b != nullptr);
      }
    }
  }
  EXPECT_GT(negative_zeros, 0u);
}

TEST(BatchNorm, InPlaceEpilogueMatchesForwardThenActivationBitwise) {
  Rng rng(67);
  const int ch = 6;
  const auto gamma = random_vec(ch, rng, 1.0f);
  const auto beta = random_vec(ch, rng, 1.0f);
  const auto mean = random_vec(ch, rng, 0.5f);
  auto var = random_vec(ch, rng, 0.5f);
  for (auto& v : var) v = std::fabs(v) + 0.1f;
  nn::BatchNorm bn(ch, gamma, beta, mean, var);
  // Wide inputs reach both clamp bounds of hard-swish; odd planes leave
  // vector remainders.
  for (const auto& shape : {std::vector<int>{1, ch, 7, 9},
                            std::vector<int>{3, ch, 14, 14}}) {
    const Tensor x = Tensor::randn(shape, rng, 0.0f, 4.0f);
    Tensor want = bn.forward(x);
    Tensor affine = x;
    bn.forward_inplace(affine, false);
    ASSERT_EQ(std::memcmp(affine.raw(), want.raw(), want.bytes()), 0);
    nn::apply_activation(nn::Activation::kHardSwish, want);
    Tensor got = x;
    bn.forward_inplace(got, true);
    ASSERT_EQ(std::memcmp(got.raw(), want.raw(), want.bytes()), 0);
  }
}

// ---------------------------------------------------------------------------
// Conv2D layer vs conv2d_ref (covers im2col+GEMM, grouped, pointwise
// direct path, and elastic kernel crops)
// ---------------------------------------------------------------------------

/// Centre crop of [out, in/g, maxk, maxk] weights down to k×k.
std::vector<float> crop_weights(const Tensor& w, int k) {
  const int oc = w.dim(0), ic = w.dim(1), mk = w.dim(2);
  const int off = (mk - k) / 2;
  std::vector<float> out(static_cast<std::size_t>(oc) * ic * k * k);
  std::size_t r = 0;
  for (int o = 0; o < oc; ++o)
    for (int c = 0; c < ic; ++c)
      for (int ky = 0; ky < k; ++ky)
        for (int kx = 0; kx < k; ++kx, ++r)
          out[r] = w.raw()[((static_cast<std::size_t>(o) * ic + c) * mk +
                            off + ky) *
                               mk +
                           off + kx];
  return out;
}

void check_conv_layer(int in_c, int out_c, int max_k, int active_k, int stride,
                      int groups, int batch, int h, int w, Rng& rng) {
  SCOPED_TRACE(::testing::Message()
               << "in=" << in_c << " out=" << out_c << " maxk=" << max_k
               << " k=" << active_k << " s=" << stride << " g=" << groups
               << " n=" << batch << " h=" << h << " w=" << w);
  nn::Conv2D conv(in_c, out_c, max_k, stride, groups, rng);
  conv.set_active_kernel(active_k);
  const Tensor input = Tensor::randn({batch, in_c, h, w}, rng, 0.0f, 0.25f);
  const Tensor out = conv.forward(input);

  const int pad = active_k / 2;
  const int oh = conv_out_size(h, active_k, stride, pad);
  const int ow = conv_out_size(w, active_k, stride, pad);
  ASSERT_EQ(out.dim(2), oh);
  ASSERT_EQ(out.dim(3), ow);

  const auto wk = crop_weights(conv.weights(), active_k);
  // conv2d_ref has no bias pointer access to the layer's bias; reconstruct
  // it by probing a zero input: out(0) = bias broadcast over the plane.
  const Tensor zero({1, in_c, h, w});
  const Tensor bias_map = conv.forward(zero);
  std::vector<float> bias(static_cast<std::size_t>(out_c));
  for (int o = 0; o < out_c; ++o)
    bias[o] = bias_map.raw()[static_cast<std::size_t>(o) * oh * ow];

  std::vector<float> want(static_cast<std::size_t>(out_c) * oh * ow);
  for (int b = 0; b < batch; ++b) {
    kernels::conv2d_ref(input.raw() + static_cast<std::size_t>(b) * in_c * h * w,
                        in_c, h, w, wk.data(), bias.data(), out_c, active_k,
                        stride, pad, groups, want.data());
    expect_close(out.raw() + static_cast<std::size_t>(b) * out_c * oh * ow,
                 want.data(), want.size(), "conv2d");
  }
}

TEST(Conv2DLayer, MatchesReferenceAcrossShapes) {
  Rng rng(61);
  // {in_c, out_c, max_k, active_k, stride, groups, batch, h, w}
  const int cases[][9] = {
      {3, 8, 3, 3, 1, 1, 1, 7, 9},     // odd H/W, pad 1
      {4, 12, 5, 5, 1, 1, 2, 14, 14},  // batch 2
      {8, 16, 7, 7, 2, 1, 1, 15, 11},  // stride 2, pad 3, odd dims
      {8, 8, 3, 3, 1, 2, 1, 9, 9},     // groups 2
      {12, 24, 5, 5, 2, 4, 1, 13, 7},  // groups 4, stride 2
      {16, 32, 1, 1, 1, 1, 1, 14, 14}, // pointwise direct (no im2col)
      {16, 32, 1, 1, 2, 1, 1, 14, 14}, // pointwise stride 2 (im2col path)
      {8, 8, 7, 7, 1, 8, 1, 10, 10},   // depthwise via the layer
  };
  for (const auto& c : cases)
    check_conv_layer(c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7], c[8], rng);
}

TEST(Conv2DLayer, ElasticKernelCropsMatchReference) {
  Rng rng(67);
  // One layer with max kernel 7 executed at every elastic crop.
  for (int k : {3, 5, 7}) {
    check_conv_layer(6, 10, 7, k, 1, 1, 1, 11, 13, rng);
    check_conv_layer(8, 8, 7, k, 2, 8, 1, 14, 14, rng);  // depthwise crops
  }
}

// ---------------------------------------------------------------------------
// Quantize
// ---------------------------------------------------------------------------

TEST(Quantize, VectorizedRoundingMatchesScalarReference) {
  Rng rng(71);
  Tensor t = Tensor::randn({2, 3, 9, 7}, rng, 0.0f, 2.0f);
  // Include exact halfway points and extremes to stress the rounding path.
  t.raw()[0] = 0.5f * t.max_abs() / 127.0f;
  t.raw()[1] = -t.max_abs();
  for (QuantBits bits : {QuantBits::k8, QuantBits::k4, QuantBits::k16}) {
    const QuantizedTensor qt = quantize(t, bits);
    const int levels = (1 << (bit_count(bits) - 1)) - 1;
    ASSERT_EQ(qt.q.size(), t.size());
    for (std::size_t i = 0; i < t.size(); ++i) {
      const float v = t.raw()[i] / qt.scale;
      // Codes stay in range and within 0.5+eps of the exact quotient
      // (round-to-nearest-even can differ from nearbyintf by at most the
      // tie-breaking direction, still within half a step).
      ASSERT_LE(std::abs(qt.q[i]), levels);
      ASSERT_LE(std::abs(static_cast<float>(qt.q[i]) -
                         std::clamp(v, -static_cast<float>(levels),
                                    static_cast<float>(levels))),
                0.5f + 1e-3f)
          << "bits=" << bit_count(bits) << " i=" << i;
    }
    // Round trip error bounded by half a quantization step.
    const Tensor back = dequantize(qt);
    for (std::size_t i = 0; i < t.size(); ++i)
      ASSERT_LE(std::abs(back.raw()[i] - t.raw()[i]), 0.5f * qt.scale + 1e-5f);
  }
}

// ---------------------------------------------------------------------------
// Workspace + zero-allocation steady state
// ---------------------------------------------------------------------------

TEST(Workspace, FrameRewindReusesChunks) {
  Workspace& ws = Workspace::tls();
  ws.release();
  const std::uint64_t base = ws.chunk_allocations();
  {
    Workspace::Frame f(ws);
    float* a = ws.alloc(1000);
    float* b = ws.alloc(5000);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    ASSERT_EQ(reinterpret_cast<std::uintptr_t>(a) % Workspace::kAlign, 0u);
    ASSERT_EQ(reinterpret_cast<std::uintptr_t>(b) % Workspace::kAlign, 0u);
  }
  const std::uint64_t warm = ws.chunk_allocations();
  ASSERT_GT(warm, base);
  float* prev = nullptr;
  for (int iter = 0; iter < 10; ++iter) {
    Workspace::Frame f(ws);
    float* a = ws.alloc(1000);
    float* b = ws.alloc(5000);
    ASSERT_NE(b, nullptr);
    if (prev) {
      ASSERT_EQ(a, prev);  // same buffer handed back after rewind
    }
    prev = a;
  }
  ASSERT_EQ(ws.chunk_allocations(), warm);  // no new chunks in steady state
  ASSERT_EQ(ws.used_bytes(), 0u);
}

TEST(Workspace, NestedFramesUnwindLifo) {
  Workspace& ws = Workspace::tls();
  Workspace::Frame outer(ws);
  float* a = ws.alloc(128);
  a[0] = 1.0f;
  {
    Workspace::Frame inner(ws);
    float* b = ws.alloc(1 << 18);  // forces a fresh chunk
    b[0] = 2.0f;
  }
  float* c = ws.alloc(64);
  ASSERT_NE(c, a);          // outer allocation still live
  ASSERT_EQ(a[0], 1.0f);
}

TEST(Conv2D, SteadyStateForwardIsAllocationFree) {
  Rng rng(73);
  // A grouped conv (im2col + GEMM) and stride-1 and stride-2 depthwise
  // convs (zero-padded planes), all from the workspace arena.
  nn::Conv2D grouped(16, 32, 5, 1, 1, rng);
  nn::Conv2D depthwise(16, 16, 7, 1, 16, rng);
  nn::Conv2D strided(16, 16, 7, 2, 16, rng);
  for (nn::Conv2D* conv : {&grouped, &depthwise, &strided}) {
    conv->set_active_kernel(5);
    const Tensor input = Tensor::randn({1, 16, 14, 14}, rng);
    Tensor out(conv->out_shape(input.shape()));

    Workspace& ws = Workspace::tls();
    conv->forward_into(input, out);  // warm the arena + crop cache
    conv->forward_into(input, out);
    const std::uint64_t chunks = ws.chunk_allocations();
    const std::size_t cap = ws.capacity_bytes();
    const std::uint64_t builds = conv->crop_cache_builds();
    for (int i = 0; i < 20; ++i) conv->forward_into(input, out);
    EXPECT_EQ(ws.chunk_allocations(), chunks)
        << conv->name() << ": steady-state forward grew the workspace";
    EXPECT_EQ(ws.capacity_bytes(), cap);
    EXPECT_EQ(conv->crop_cache_builds(), builds)
        << conv->name() << ": steady-state forward rebuilt the cropped weights";
  }
}

// ---------------------------------------------------------------------------
// Int8 compute path (VNNI GEMM, quantized pointwise/depthwise conv)
// ---------------------------------------------------------------------------

// The int8 result differs from the fp32 reference by at most the quant
// noise both operands carry: writing w = w_hat + e_w, x = x_hat + e_x with
// |e_w| <= ws_o/2 (symmetric per-channel weight step) and |e_x| <= as (the
// activation step; the zero point itself is rounded, so the safe bound is
// one full step), the per-output error telescopes to
//   |err| <= as * sum|w| + ws_o/2 * sum|x| + taps * ws_o * as
// plus float-epilogue slop. Everything in the bound is computable from the
// same tensors the kernel saw, so the tolerance tracks the data instead of
// being a magic constant.
float int8_tol(float act_scale, float w_scale, float abs_w_sum,
               float abs_x_sum, int taps) {
  return act_scale * abs_w_sum + 0.5f * w_scale * abs_x_sum +
         static_cast<float>(taps) * w_scale * act_scale + 1e-3f;
}

/// Per-output-channel symmetric weight scale, mirroring the kernels'
/// quantization rule (amax / 127, underflow rows -> scale 1, codes 0).
float weight_row_scale(const float* row, int taps) {
  float amax = 0.0f;
  for (int i = 0; i < taps; ++i) {
    const float v = std::fabs(row[i]);
    if (std::isfinite(v) && v > amax) amax = v;
  }
  const float s = amax / 127.0f;
  return (s > 1e-35f && std::isfinite(s)) ? s : 1.0f;
}

void check_gemm_int8(int m, int k, int n, bool with_bias, Rng& rng) {
  SCOPED_TRACE(::testing::Message()
               << "m=" << m << " k=" << k << " n=" << n
               << " bias=" << with_bias);
  const auto a = random_vec(static_cast<std::size_t>(m) * k, rng);
  const auto b = random_vec(static_cast<std::size_t>(k) * n, rng);
  const auto bias = random_vec(static_cast<std::size_t>(m), rng);
  const float* bias_ptr = with_bias ? bias.data() : nullptr;

  PackedGemmInt8 pa;
  pa.pack(m, k, a.data());
  std::vector<float> got(static_cast<std::size_t>(m) * n, -77.0f);
  gemm_int8(pa, n, b.data(), bias_ptr, got.data());

  // fp32 reference (gemm_ref accumulates, so seed with the bias).
  std::vector<float> want(static_cast<std::size_t>(m) * n, 0.0f);
  if (with_bias)
    for (int o = 0; o < m; ++o)
      std::fill_n(want.begin() + static_cast<std::size_t>(o) * n, n, bias[o]);
  gemm_ref(m, k, n, a.data(), b.data(), want.data());

  const ActQuantU8 aq = choose_act_quant_u8(b.data(), b.size());
  for (int o = 0; o < m; ++o) {
    const float* arow = a.data() + static_cast<std::size_t>(o) * k;
    const float ws = weight_row_scale(arow, k);
    float aw = 0.0f;
    for (int i = 0; i < k; ++i) aw += std::fabs(arow[i]);
    for (int j = 0; j < n; ++j) {
      float ax = 0.0f;
      for (int i = 0; i < k; ++i)
        ax += std::fabs(b[static_cast<std::size_t>(i) * n + j]);
      const float tol = int8_tol(aq.scale, ws, aw, ax, k);
      const std::size_t at = static_cast<std::size_t>(o) * n + j;
      ASSERT_NEAR(got[at], want[at], tol) << "o=" << o << " j=" << j;
    }
  }
}

TEST(GemmInt8, MatchesFp32WithinQuantTolerance) {
  Rng rng(83);
  // Shapes straddle the 8x32 register tile, the 4-deep k groups, and the
  // column-panel remainder handling (n % 32, m % 8, k % 4 all nonzero).
  const int shapes[][3] = {
      {1, 1, 1},   {1, 7, 3},    {8, 4, 32},   {8, 16, 196},
      {5, 9, 33},  {13, 21, 67}, {64, 16, 196}, {320, 80, 196},
      {17, 30, 49},
  };
  for (const auto& s : shapes) {
    check_gemm_int8(s[0], s[1], s[2], true, rng);
    check_gemm_int8(s[0], s[1], s[2], false, rng);
  }
}

TEST(GemmInt8, DegenerateScalesProduceBiasExactly) {
  Rng rng(89);
  const int m = 6, k = 20, n = 40;
  const auto bias = random_vec(static_cast<std::size_t>(m), rng);
  auto b = random_vec(static_cast<std::size_t>(k) * n, rng);
  std::vector<float> got(static_cast<std::size_t>(m) * n);

  // Zero and denormal-magnitude weights: every row hits the underflow
  // guard, codes are all zero, output collapses to the bias exactly.
  for (const float wval : {0.0f, 1e-40f, -1e-40f}) {
    std::vector<float> a(static_cast<std::size_t>(m) * k, wval);
    PackedGemmInt8 pa;
    pa.pack(m, k, a.data());
    gemm_int8(pa, n, b.data(), bias.data(), got.data());
    for (int o = 0; o < m; ++o)
      for (int j = 0; j < n; ++j)
        ASSERT_EQ(got[static_cast<std::size_t>(o) * n + j], bias[o])
            << "wval=" << wval << " o=" << o << " j=" << j;
  }

  // Degenerate activations: all-zero (range 0 -> scale 1, zp 0) and
  // all-equal-negative inputs must stay finite and bias-exact / bounded.
  const auto a = random_vec(static_cast<std::size_t>(m) * k, rng);
  PackedGemmInt8 pa;
  pa.pack(m, k, a.data());
  std::fill(b.begin(), b.end(), 0.0f);
  gemm_int8(pa, n, b.data(), bias.data(), got.data());
  for (int o = 0; o < m; ++o)
    for (int j = 0; j < n; ++j)
      ASSERT_EQ(got[static_cast<std::size_t>(o) * n + j], bias[o]);

  std::fill(b.begin(), b.end(), -0.75f);
  gemm_int8(pa, n, b.data(), bias.data(), got.data());
  const ActQuantU8 aq = choose_act_quant_u8(b.data(), b.size());
  for (int o = 0; o < m; ++o) {
    const float* arow = a.data() + static_cast<std::size_t>(o) * k;
    const float ws = weight_row_scale(arow, k);
    float aw = 0.0f, want = bias[o];
    for (int i = 0; i < k; ++i) {
      aw += std::fabs(arow[i]);
      want += arow[i] * -0.75f;
    }
    const float tol = int8_tol(aq.scale, ws, aw, 0.75f * k, k);
    for (int j = 0; j < n; ++j)
      ASSERT_NEAR(got[static_cast<std::size_t>(o) * n + j], want, tol);
  }

  // Non-finite activations quantize to *some* in-range code; the result
  // must at least come back finite (no NaN poisoning the accumulators).
  b = random_vec(static_cast<std::size_t>(k) * n, rng);
  b[3] = std::numeric_limits<float>::quiet_NaN();
  b[17] = std::numeric_limits<float>::infinity();
  b[29] = -std::numeric_limits<float>::infinity();
  gemm_int8(pa, n, b.data(), bias.data(), got.data());
  for (const float v : got) ASSERT_TRUE(std::isfinite(v));
}

void check_conv_int8(int in_c, int out_c, int max_k, int active_k, int stride,
                     int groups, int batch, int h, int w, Rng& rng) {
  SCOPED_TRACE(::testing::Message()
               << "in=" << in_c << " out=" << out_c << " k=" << active_k
               << " s=" << stride << " g=" << groups << " n=" << batch);
  nn::Conv2D conv(in_c, out_c, max_k, stride, groups, rng);
  conv.set_active_kernel(active_k);
  const Tensor input = Tensor::randn({batch, in_c, h, w}, rng, 0.0f, 0.25f);
  const Tensor want = conv.forward(input);  // fp32 reference path
  conv.set_compute_precision(QuantBits::k8);
  ASSERT_EQ(conv.compute_precision(), QuantBits::k8);
  const Tensor got = conv.forward(input);
  ASSERT_EQ(got.shape(), want.shape());

  const int pad = active_k / 2;
  const int oh = got.dim(2), ow = got.dim(3);
  const auto wk = crop_weights(conv.weights(), active_k);
  const int cpg = in_c / groups;
  const int taps = cpg * active_k * active_k;
  const std::size_t in_img = static_cast<std::size_t>(in_c) * h * w;
  const std::size_t out_img = static_cast<std::size_t>(out_c) * oh * ow;

  for (int b = 0; b < batch; ++b) {
    const float* x = input.raw() + static_cast<std::size_t>(b) * in_img;
    const ActQuantU8 aq = choose_act_quant_u8(x, in_img);
    for (int o = 0; o < out_c; ++o) {
      const float* wrow = wk.data() + static_cast<std::size_t>(o) * taps;
      const float ws = weight_row_scale(wrow, taps);
      float aw = 0.0f;
      for (int i = 0; i < taps; ++i) aw += std::fabs(wrow[i]);
      const int g = o / (out_c / groups);
      for (int oy = 0; oy < oh; ++oy) {
        for (int ox = 0; ox < ow; ++ox) {
          // |x| over the in-bounds receptive field (padding taps carry no
          // quantization error: zp decodes to exactly 0).
          float ax = 0.0f;
          for (int c = 0; c < cpg; ++c)
            for (int ky = 0; ky < active_k; ++ky)
              for (int kx = 0; kx < active_k; ++kx) {
                const int iy = oy * stride - pad + ky;
                const int ix = ox * stride - pad + kx;
                if (iy < 0 || iy >= h || ix < 0 || ix >= w) continue;
                ax += std::fabs(
                    x[(static_cast<std::size_t>(g * cpg + c) * h + iy) * w +
                      ix]);
              }
          const float tol = int8_tol(aq.scale, ws, aw, ax, taps);
          const std::size_t at = static_cast<std::size_t>(b) * out_img +
                                 (static_cast<std::size_t>(o) * oh + oy) * ow +
                                 ox;
          ASSERT_NEAR(got.raw()[at], want.raw()[at], tol)
              << "b=" << b << " o=" << o << " oy=" << oy << " ox=" << ox;
        }
      }
    }
  }
}

TEST(Conv2DInt8, PointwiseMatchesFp32WithinQuantTolerance) {
  Rng rng(97);
  check_conv_int8(16, 32, 1, 1, 1, 1, 1, 14, 14, rng);
  check_conv_int8(8, 40, 1, 1, 1, 1, 1, 7, 9, rng);   // ragged columns
  check_conv_int8(40, 160, 1, 1, 1, 1, 2, 14, 14, rng);  // batched
}

TEST(Conv2DInt8, DepthwiseCropsMatchFp32WithinQuantTolerance) {
  Rng rng(101);
  for (int k : {3, 5, 7})
    check_conv_int8(8, 8, 7, k, 1, 8, 1, 14, 14, rng);
  check_conv_int8(8, 8, 7, 5, 2, 8, 1, 14, 14, rng);  // stride 2
  check_conv_int8(4, 4, 7, 7, 1, 4, 2, 11, 13, rng);  // batch, odd dims
}

TEST(Conv2DInt8, BatchedForwardMatchesSerialBitwise) {
  Rng rng(103);
  // Activation quantization is chosen per sample, so how requests were
  // batched must never change a single output bit.
  struct Case {
    int in_c, out_c, max_k, groups;
  };
  for (const Case cs : {Case{16, 32, 1, 1}, Case{8, 8, 5, 8}}) {
    nn::Conv2D conv(cs.in_c, cs.out_c, cs.max_k, 1, cs.groups, rng);
    conv.set_compute_precision(QuantBits::k8);
    const Tensor batch = Tensor::randn({3, cs.in_c, 14, 14}, rng);
    const Tensor fused = conv.forward(batch);
    const std::size_t img = batch.size() / 3;
    const std::size_t out_img = fused.size() / 3;
    for (int b = 0; b < 3; ++b) {
      Tensor one({1, cs.in_c, 14, 14});
      std::memcpy(one.raw(), batch.raw() + b * img, img * sizeof(float));
      const Tensor single = conv.forward(one);
      ASSERT_EQ(std::memcmp(single.raw(), fused.raw() + b * out_img,
                            out_img * sizeof(float)),
                0)
          << "int8 batched/serial divergence, sample " << b;
    }
  }
}

TEST(Conv2DLayer, FusedBatchPointwiseMatchesSerialBitwise) {
  Rng rng(107);
  // The fp32 batch-fused GEMM folds samples into the N dimension; the
  // per-element accumulation order depends only on the k blocking, so the
  // fused product must agree bitwise with one GEMM per sample.
  nn::Conv2D conv(16, 32, 1, 1, 1, rng);
  const Tensor batch = Tensor::randn({4, 16, 14, 14}, rng);
  const Tensor fused = conv.forward(batch);
  const std::size_t img = batch.size() / 4;
  const std::size_t out_img = fused.size() / 4;
  for (int b = 0; b < 4; ++b) {
    Tensor one({1, 16, 14, 14});
    std::memcpy(one.raw(), batch.raw() + b * img, img * sizeof(float));
    const Tensor single = conv.forward(one);
    ASSERT_EQ(std::memcmp(single.raw(), fused.raw() + b * out_img,
                          out_img * sizeof(float)),
              0)
        << "fused/serial fp32 divergence, sample " << b;
  }
}

TEST(Conv2DInt8, SteadyStateForwardIsAllocationFree) {
  Rng rng(109);
  nn::Conv2D pw(16, 64, 1, 1, 1, rng);
  nn::Conv2D dw(16, 16, 7, 1, 16, rng);
  pw.set_compute_precision(QuantBits::k8);
  dw.set_compute_precision(QuantBits::k8);
  const Tensor input = Tensor::randn({1, 16, 14, 14}, rng);
  Tensor mid(pw.out_shape(input.shape()));
  Tensor out(dw.out_shape(input.shape()));

  Workspace& ws = Workspace::tls();
  for (int i = 0; i < 2; ++i) {  // warm the arena and both weight caches
    pw.forward_into(input, mid);
    dw.forward_into(input, out);
  }
  const std::uint64_t chunks = ws.chunk_allocations();
  const std::size_t cap = ws.capacity_bytes();
  const std::uint64_t builds = pw.int8_cache_builds() + dw.int8_cache_builds();
  for (int i = 0; i < 20; ++i) {
    pw.forward_into(input, mid);
    dw.forward_into(input, out);
  }
  EXPECT_EQ(ws.chunk_allocations(), chunks)
      << "steady-state int8 forward grew the workspace";
  EXPECT_EQ(ws.capacity_bytes(), cap);
  EXPECT_EQ(pw.int8_cache_builds() + dw.int8_cache_builds(), builds)
      << "steady-state int8 forward requantized the weights";

  // Weight mutation invalidates the int8 cache like the crop cache.
  dw.weights().raw()[0] += 0.5f;
  dw.forward_into(input, out);
  EXPECT_GT(dw.int8_cache_builds(), builds - pw.int8_cache_builds());
}

TEST(Conv2D, KernelSwitchesReuseCropCache) {
  Rng rng(79);
  nn::Conv2D conv(8, 8, 7, 1, 8, rng);  // depthwise, elastic 3/5/7
  const Tensor input = Tensor::randn({1, 8, 10, 10}, rng);

  // First pass over each crop builds it once.
  for (int k : {3, 5, 7}) {
    conv.set_active_kernel(k);
    (void)conv.forward(input);
  }
  const std::uint64_t builds = conv.crop_cache_builds();
  EXPECT_EQ(builds, 2u);  // k=7 is the stored max size, no crop needed

  // 30 more switches: all hits, zero builds.
  const std::uint64_t hits0 = conv.crop_cache_hits();
  for (int i = 0; i < 10; ++i)
    for (int k : {5, 3, 7}) {
      conv.set_active_kernel(k);
      (void)conv.forward(input);
    }
  EXPECT_EQ(conv.crop_cache_builds(), builds);
  EXPECT_GT(conv.crop_cache_hits(), hits0);

  // Mutating the weights invalidates the cache: next crop rebuilds and the
  // output tracks the new weights.
  conv.weights().raw()[0] += 1.0f;
  conv.set_active_kernel(7);
  const Tensor before = conv.forward(input);
  conv.weights().fill(0.0f);
  conv.set_active_kernel(3);
  const Tensor after = conv.forward(input);
  EXPECT_GT(conv.crop_cache_builds(), builds);
  // All-zero weights => output is pure bias, constant over each plane.
  const int plane = after.dim(2) * after.dim(3);
  for (int c = 0; c < after.dim(1); ++c)
    for (int i = 1; i < plane; ++i)
      ASSERT_EQ(after.raw()[c * plane + i], after.raw()[c * plane]);
}

}  // namespace
}  // namespace murmur
