// Inference-time batch normalization, folded to a per-channel affine
// transform y = scale * x + shift (which is how deployed edge runtimes
// execute BN).
#pragma once

#include "nn/layer.h"

namespace murmur::nn {

class BatchNorm final : public Layer {
 public:
  /// Identity-initialised (scale 1, shift 0) folded BN over `channels`.
  explicit BatchNorm(int channels);
  /// Fold explicit BN statistics into scale/shift.
  BatchNorm(int channels, std::span<const float> gamma,
            std::span<const float> beta, std::span<const float> running_mean,
            std::span<const float> running_var, float eps = 1e-5f);

  /// Copy of the input, then forward_inplace(copy, false).
  Tensor forward(const Tensor& input) override;
  /// In place, per channel plane: y = scale·x + shift, then, when `hswish`,
  /// y·clamp(y + 3, 0, 6) / 6. The expressions and their order are those of
  /// forward() followed by apply_activation(kHardSwish), so the fused
  /// epilogue is bitwise equal to the two passes. Elementwise, so the
  /// result never depends on the batch size or the tile.
  void forward_inplace(Tensor& x, bool hswish) const;
  std::vector<int> out_shape(const std::vector<int>& in) const override {
    return in;
  }
  double flops(const std::vector<int>& in) const override {
    return 2.0 * static_cast<double>(shape_numel(in));
  }
  std::size_t param_bytes() const noexcept override {
    return (scale_.size() + shift_.size()) * sizeof(float);
  }
  std::string name() const override;

  std::span<float> scale() noexcept { return scale_; }
  std::span<float> shift() noexcept { return shift_; }

 private:
  int channels_;
  std::vector<float> scale_, shift_;
};

}  // namespace murmur::nn
