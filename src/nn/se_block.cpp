#include "nn/se_block.h"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "nn/activations.h"
#include "obs/trace.h"
#include "tensor/gemm.h"
#include "tensor/workspace.h"

namespace murmur::nn {

SEBlock::SEBlock(int channels, int reduction, Rng& rng)
    : channels_(channels), hidden_(std::max(1, channels / reduction)) {
  w1_ = Tensor::kaiming({hidden_, channels_}, channels_, rng);
  w2_ = Tensor::kaiming({channels_, hidden_}, hidden_, rng);
}

Tensor SEBlock::forward(const Tensor& input) {
  Tensor out = input;
  forward_into(input, out);
  return out;
}

void SEBlock::forward_into(const Tensor& input, Tensor& out) {
  MURMUR_SPAN("kernel.se", "kernel", obs::maybe_histogram("kernel.se_ms"));
  assert(input.rank() == 4 && input.dim(1) == channels_);
  assert(out.shape() == input.shape());
  const int n = input.dim(0), h = input.dim(2), w = input.dim(3);
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  const float inv = 1.0f / static_cast<float>(plane);
  // Scratch from the thread-local arena: forward may run concurrently on
  // the same block from the executor's tile workers.
  Workspace& ws = Workspace::tls();
  Workspace::Frame frame(ws);
  float* pooled = ws.alloc(static_cast<std::size_t>(channels_));
  float* hid = ws.alloc(static_cast<std::size_t>(hidden_));
  float* gate = ws.alloc(static_cast<std::size_t>(channels_));
  for (int b = 0; b < n; ++b) {
    const float* in_b = input.raw() +
                        static_cast<std::size_t>(b) * channels_ * plane;
    // Squeeze: per-channel mean over a contiguous plane.
    for (int c = 0; c < channels_; ++c) {
      const float* p = in_b + static_cast<std::size_t>(c) * plane;
      float lanes[8] = {};
      std::size_t i = 0;
      for (; i + 8 <= plane; i += 8)
        for (int l = 0; l < 8; ++l) lanes[l] += p[i + l];
      float s = 0.0f;
      for (int l = 0; l < 8; ++l) s += lanes[l];
      for (; i < plane; ++i) s += p[i];
      pooled[c] = s * inv;
    }
    // Excite: two small FCs.
    gemv(hidden_, channels_, w1_.raw(), pooled, nullptr, hid);
    for (int i = 0; i < hidden_; ++i)
      hid[i] = apply_activation(Activation::kRelu, hid[i]);
    gemv(channels_, hidden_, w2_.raw(), hid, nullptr, gate);
    for (int c = 0; c < channels_; ++c)
      gate[c] = apply_activation(Activation::kHardSigmoid, gate[c]);
    // Scale: channel-wise multiply over contiguous planes (reads the
    // input, writes the output, so `out` may alias `input`'s storage).
    float* out_b = out.raw() + static_cast<std::size_t>(b) * channels_ * plane;
    for (int c = 0; c < channels_; ++c) {
      const float g = gate[c];
      const float* p = in_b + static_cast<std::size_t>(c) * plane;
      float* q = out_b + static_cast<std::size_t>(c) * plane;
      for (std::size_t i = 0; i < plane; ++i) q[i] = p[i] * g;
    }
  }
}

double SEBlock::flops(const std::vector<int>& in) const {
  const double fc = 2.0 * channels_ * hidden_ * 2.0;
  return static_cast<double>(shape_numel(in)) * 2.0 + fc * in[0];
}

std::size_t SEBlock::param_bytes() const noexcept {
  return w1_.bytes() + w2_.bytes();
}

std::string SEBlock::name() const {
  std::ostringstream os;
  os << "se(" << channels_ << "/" << hidden_ << ")";
  return os.str();
}

}  // namespace murmur::nn
