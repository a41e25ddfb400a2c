#include "nn/batchnorm.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

#include "obs/trace.h"

namespace murmur::nn {

BatchNorm::BatchNorm(int channels) : channels_(channels) {
  scale_.assign(static_cast<std::size_t>(channels), 1.0f);
  shift_.assign(static_cast<std::size_t>(channels), 0.0f);
}

BatchNorm::BatchNorm(int channels, std::span<const float> gamma,
                     std::span<const float> beta,
                     std::span<const float> running_mean,
                     std::span<const float> running_var, float eps)
    : BatchNorm(channels) {
  assert(gamma.size() == static_cast<std::size_t>(channels));
  for (int c = 0; c < channels; ++c) {
    const float inv = 1.0f / std::sqrt(running_var[c] + eps);
    scale_[c] = gamma[c] * inv;
    shift_[c] = beta[c] - running_mean[c] * gamma[c] * inv;
  }
}

Tensor BatchNorm::forward(const Tensor& input) {
  Tensor out = input;
  forward_inplace(out, false);
  return out;
}

void BatchNorm::forward_inplace(Tensor& x, bool hswish) const {
  MURMUR_SPAN("kernel.bn_act", "kernel",
              obs::maybe_histogram("kernel.bn_act_ms"));
  assert(x.rank() == 4 && x.dim(1) == channels_);
  const std::size_t plane = static_cast<std::size_t>(x.dim(2)) * x.dim(3);
  float* p = x.raw();
  for (int b = 0; b < x.dim(0); ++b)
    for (int c = 0; c < channels_; ++c, p += plane) {
      const float s = scale_[c], t = shift_[c];
      if (hswish) {
        for (std::size_t i = 0; i < plane; ++i) {
          const float y = s * p[i] + t;
          p[i] = y * std::clamp(y + 3.0f, 0.0f, 6.0f) / 6.0f;
        }
      } else {
        for (std::size_t i = 0; i < plane; ++i) p[i] = s * p[i] + t;
      }
    }
}

std::string BatchNorm::name() const {
  std::ostringstream os;
  os << "bn(" << channels_ << ")";
  return os.str();
}

}  // namespace murmur::nn
