// Direct convolution kernels: a fast depthwise path and naive references.
//
// The fp32 depthwise kernel runs one register-tiled tap loop for every
// stride. Each channel is copied into zero-padded planes in the calling
// thread's Workspace (stride s > 1 splits every padded row into its s
// column phases, so each tap still reads a contiguous run), and a tile of
// output rows × one vector of columns accumulates in registers with no
// bounds check in the loop. Every stride adds each output's taps to +0 in
// (ky, kx) order and the bias last, `depthwise_conv2d_ref`'s order, so the
// two agree bit for bit for finite weights. The reference skips an
// out-of-bounds tap while the kernel multiplies a padded zero, so an ±inf
// weight there gives NaN in the kernel only. The `_ref` variants are
// checked quad-loops kept for differential testing.
//
// All kernels operate on a single image in CHW layout with square kernels,
// symmetric zero padding and row-major contiguous storage.
//
// The int8 depthwise path mirrors the fp32 contract but computes u8×s8→s32
// on a zero-point-padded plane: activations are quantized per call (range
// widened to include 0, so the conv's zero padding maps to the zero point
// exactly), weights carry per-channel symmetric scales quantized once per
// weight epoch via `quantize_dw_weights`, and the dequantizing epilogue
// applies the standard zero-point correction. Integer accumulation is
// exact, so results are independent of traversal order — batched and
// serial execution agree bitwise.
#pragma once

#include <cstdint>
#include <vector>

namespace murmur::kernels {

/// True when `depthwise_conv2d_int8` runs its AVX-512 VNNI+VBMI kernel for
/// the common strides, false when every call takes the scalar integer
/// path. Defined out of line on purpose: only the kernel sources are built
/// with the target flags (-march=native), so the answer must come from the
/// translation unit that holds the kernel, not from the caller's.
/// Benchmarks record it so a measurement names the path that actually ran.
bool int8_depthwise_vectorized() noexcept;

/// Depthwise convolution: in (C,H,W), weights (C,k,k), optional bias (C),
/// out (C,oh,ow) fully overwritten. `pad` is the symmetric zero padding.
void depthwise_conv2d(const float* in, int channels, int h, int w,
                      const float* weights, const float* bias, int k,
                      int stride, int pad, float* out);

/// Reference depthwise convolution (per-element bounds checks). Each output
/// adds its in-bounds taps to zero in (ky, kx) order, then the bias.
void depthwise_conv2d_ref(const float* in, int channels, int h, int w,
                          const float* weights, const float* bias, int k,
                          int stride, int pad, float* out);

/// Depthwise weights quantized to s8 with per-channel symmetric scales.
/// The kx axis is padded to a multiple of 4 (zero codes) so the VNNI
/// kernel can broadcast whole dwords; `sum` is the per-channel code sum
/// used by the zero-point correction. Build once per weight epoch
/// (nn/conv2d caches it alongside the cropped-weight slots).
struct QuantDwWeights {
  int channels = 0;
  int k = 0;
  int kg = 0;  // ceil(k / 4) kx dword groups
  std::vector<std::int8_t> codes;  // [c][k][kg * 4], kx zero-padded
  std::vector<float> scale;        // [c]: w ≈ scale[c] * code
  std::vector<std::int32_t> sum;   // [c]: Σ codes (real taps only)

  bool matches(int c, int kk) const noexcept {
    return channels == c && k == kk && !codes.empty();
  }
};

/// Quantize fp32 depthwise weights (C,k,k) into `out` (reused in place).
void quantize_dw_weights(const float* weights, int channels, int k,
                         QuantDwWeights& out);

/// Quantized depthwise convolution: same shape contract as
/// `depthwise_conv2d`, computed u8×s8→s32 with a per-call activation
/// quantization over `in` and a fused dequantizing epilogue. Scratch (the
/// zero-point-padded plane) comes from the calling thread's Workspace.
void depthwise_conv2d_int8(const float* in, int channels, int h, int w,
                           const QuantDwWeights& qw, const float* bias,
                           int stride, int pad, float* out);

/// Reference grouped convolution for a single image: in (Cin,H,W), weights
/// (Cout, Cin/groups, k, k), optional bias (Cout), out (Cout,oh,ow) fully
/// overwritten. Covers standard (groups=1), grouped and depthwise
/// (groups=Cin) shapes; used to differentially test the im2col+GEMM path.
void conv2d_ref(const float* in, int c_in, int h, int w, const float* weights,
                const float* bias, int c_out, int k, int stride, int pad,
                int groups, float* out);

}  // namespace murmur::kernels
