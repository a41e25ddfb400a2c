#include "tensor/conv_kernels.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

#include "tensor/gemm.h"
#include "tensor/gemm_int8.h"
#include "tensor/workspace.h"

#if defined(_MSC_VER)
#define MURMUR_RESTRICT __restrict
#else
#define MURMUR_RESTRICT __restrict__
#endif

// The vectorized int8 depthwise kernel needs VNNI for the u8×s8 dot
// products and VBMI for the byte-granular sliding-window shuffle.
#if defined(__AVX512F__) && defined(__AVX512BW__) && \
    defined(__AVX512VNNI__) && defined(__AVX512VBMI__)
#include <immintrin.h>
#define MURMUR_INT8_DW_VEC 1
#else
#define MURMUR_INT8_DW_VEC 0
#endif

namespace murmur::kernels {

bool int8_depthwise_vectorized() noexcept { return MURMUR_INT8_DW_VEC != 0; }

namespace {

/// Accumulate one bounds-checked output pixel (border path).
inline float border_pixel(const float* MURMUR_RESTRICT ic,
                          const float* MURMUR_RESTRICT wc, int w, int k,
                          int iy0, int ix0, int ky_lo, int ky_hi) {
  const int kx_lo = std::max(0, -ix0);
  const int kx_hi = std::min(k, w - ix0);
  float acc = 0.0f;
  for (int ky = ky_lo; ky < ky_hi; ++ky) {
    const float* MURMUR_RESTRICT row =
        ic + static_cast<std::size_t>(iy0 + ky) * w + ix0;
    const float* MURMUR_RESTRICT wrow = wc + static_cast<std::size_t>(ky) * k;
    for (int kx = kx_lo; kx < kx_hi; ++kx) acc += wrow[kx] * row[kx];
  }
  return acc;
}

}  // namespace

namespace {

/// Stride-1 depthwise: for each weight tap (ky,kx), the set of outputs the
/// tap touches is a contiguous sub-rectangle of the plane, so the whole
/// convolution decomposes into k·k shifted axpy sweeps — unit-stride,
/// branch-free, fully vectorizable, borders included.
void depthwise_stride1(const float* MURMUR_RESTRICT ic,
                       const float* MURMUR_RESTRICT wc, int h, int w, int k,
                       int pad, float bias_v, int oh, int ow,
                       float* MURMUR_RESTRICT oc) {
  for (int i = 0; i < oh * ow; ++i) oc[i] = bias_v;
  for (int ky = 0; ky < k; ++ky) {
    // oy values with iy = oy - pad + ky inside [0, h).
    const int oy_lo = std::max(0, pad - ky);
    const int oy_hi = std::min(oh, h + pad - ky);
    for (int kx = 0; kx < k; ++kx) {
      const int ox_lo = std::max(0, pad - kx);
      const int ox_hi = std::min(ow, w + pad - kx);
      const int span = ox_hi - ox_lo;
      if (span <= 0 || oy_hi <= oy_lo) continue;
      const float wv = wc[ky * k + kx];
      const float* MURMUR_RESTRICT ip =
          ic + static_cast<std::size_t>(oy_lo - pad + ky) * w +
          (ox_lo - pad + kx);
      float* MURMUR_RESTRICT op =
          oc + static_cast<std::size_t>(oy_lo) * ow + ox_lo;
      for (int oy = oy_lo; oy < oy_hi; ++oy, ip += w, op += ow)
        for (int x = 0; x < span; ++x) op[x] += wv * ip[x];
    }
  }
}

}  // namespace

void depthwise_conv2d(const float* in, int channels, int h, int w,
                      const float* weights, const float* bias, int k,
                      int stride, int pad, float* out) {
  const int oh = conv_out_size(h, k, stride, pad);
  const int ow = conv_out_size(w, k, stride, pad);
  if (stride == 1) {
    for (int c = 0; c < channels; ++c)
      depthwise_stride1(in + static_cast<std::size_t>(c) * h * w,
                        weights + static_cast<std::size_t>(c) * k * k, h, w, k,
                        pad, bias ? bias[c] : 0.0f, oh, ow,
                        out + static_cast<std::size_t>(c) * oh * ow);
    return;
  }
  // Interior output range along x: every kx tap lands inside [0, w).
  const int x_lo = std::min((pad + stride - 1) / stride, ow);
  const int x_hi =
      std::clamp(w - k + pad >= 0 ? (w - k + pad) / stride + 1 : 0, x_lo, ow);

  for (int c = 0; c < channels; ++c) {
    const float* MURMUR_RESTRICT ic =
        in + static_cast<std::size_t>(c) * h * w;
    const float* MURMUR_RESTRICT wc =
        weights + static_cast<std::size_t>(c) * k * k;
    float* MURMUR_RESTRICT oc = out + static_cast<std::size_t>(c) * oh * ow;
    const float b = bias ? bias[c] : 0.0f;

    for (int oy = 0; oy < oh; ++oy) {
      float* MURMUR_RESTRICT orow = oc + static_cast<std::size_t>(oy) * ow;
      const int iy0 = oy * stride - pad;
      const int ky_lo = std::max(0, -iy0);
      const int ky_hi = std::min(k, h - iy0);
      for (int ox = 0; ox < ow; ++ox) orow[ox] = b;

      // Left/right borders: clamped kx range per pixel, no inner-loop ifs.
      for (int ox = 0; ox < x_lo; ++ox)
        orow[ox] +=
            border_pixel(ic, wc, w, k, iy0, ox * stride - pad, ky_lo, ky_hi);
      for (int ox = x_hi; ox < ow; ++ox)
        orow[ox] +=
            border_pixel(ic, wc, w, k, iy0, ox * stride - pad, ky_lo, ky_hi);

      // Interior: full kx range guaranteed in bounds, no per-tap checks.
      for (int ox = x_lo; ox < x_hi; ++ox) {
        const int ix0 = ox * stride - pad;
        float acc = 0.0f;
        for (int ky = ky_lo; ky < ky_hi; ++ky) {
          const float* MURMUR_RESTRICT row =
              ic + static_cast<std::size_t>(iy0 + ky) * w + ix0;
          const float* MURMUR_RESTRICT wrow =
              wc + static_cast<std::size_t>(ky) * k;
          for (int kx = 0; kx < k; ++kx) acc += wrow[kx] * row[kx];
        }
        orow[ox] += acc;
      }
    }
  }
}

void depthwise_conv2d_ref(const float* in, int channels, int h, int w,
                          const float* weights, const float* bias, int k,
                          int stride, int pad, float* out) {
  const int oh = conv_out_size(h, k, stride, pad);
  const int ow = conv_out_size(w, k, stride, pad);
  for (int c = 0; c < channels; ++c) {
    const float* ic = in + static_cast<std::size_t>(c) * h * w;
    const float* wc = weights + static_cast<std::size_t>(c) * k * k;
    float* oc = out + static_cast<std::size_t>(c) * oh * ow;
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        float acc = bias ? bias[c] : 0.0f;
        for (int ky = 0; ky < k; ++ky) {
          const int iy = oy * stride - pad + ky;
          if (iy < 0 || iy >= h) continue;
          for (int kx = 0; kx < k; ++kx) {
            const int ix = ox * stride - pad + kx;
            if (ix < 0 || ix >= w) continue;
            acc += wc[ky * k + kx] * ic[static_cast<std::size_t>(iy) * w + ix];
          }
        }
        oc[static_cast<std::size_t>(oy) * ow + ox] = acc;
      }
    }
  }
}

namespace {

/// Round-to-nearest-even magic (1.5 * 2^23) — same idiom as quantize.cpp.
constexpr float kDwRound = 12582912.0f;

inline std::uint8_t* alloc_bytes(Workspace& ws, std::size_t bytes) {
  return reinterpret_cast<std::uint8_t*>(ws.alloc((bytes + 3) / 4));
}

}  // namespace

void quantize_dw_weights(const float* weights, int channels, int k,
                         QuantDwWeights& out) {
  out.channels = channels;
  out.k = k;
  out.kg = (k + 3) / 4;
  const std::size_t row = static_cast<std::size_t>(out.kg) * 4;
  out.codes.assign(static_cast<std::size_t>(channels) * k * row, 0);
  out.scale.assign(static_cast<std::size_t>(channels), 1.0f);
  out.sum.assign(static_cast<std::size_t>(channels), 0);
  for (int c = 0; c < channels; ++c) {
    const float* wc = weights + static_cast<std::size_t>(c) * k * k;
    float amax = 0.0f;
    for (int i = 0; i < k * k; ++i) {
      const float v = std::fabs(wc[i]);
      if (std::isfinite(v) && v > amax) amax = v;
    }
    const float s = amax / 127.0f;
    if (!(s > 1e-35f) || !std::isfinite(s)) continue;  // all-zero channel
    out.scale[static_cast<std::size_t>(c)] = s;
    const float inv = 127.0f / amax;
    std::int32_t cs = 0;
    for (int ky = 0; ky < k; ++ky) {
      std::int8_t* dst =
          out.codes.data() + (static_cast<std::size_t>(c) * k + ky) * row;
      for (int kx = 0; kx < k; ++kx) {
        float v = wc[ky * k + kx] * inv;
        v = std::min(std::max(v, -127.0f), 127.0f);
        const auto q = static_cast<std::int32_t>((v + kDwRound) - kDwRound);
        dst[kx] = static_cast<std::int8_t>(q);
        cs += q;
      }
    }
    out.sum[static_cast<std::size_t>(c)] = cs;
  }
}

#if MURMUR_INT8_DW_VEC
namespace {

/// One channel of the int8 depthwise conv, kernel size known at compile
/// time: the ky/kg loops unroll fully and the K*KG weight broadcasts are
/// hoisted out of the pixel loop entirely (they fit the zmm file alongside
/// the accumulator and shuffle index for every supernet kernel size).
template <int K>
void dw_int8_channel(const std::uint8_t* plane, std::size_t row_stride,
                     int oh, int ow, int stride, const std::int8_t* wc,
                     __m512i idx, __m512 scv, __m512 corrv, __m512 bsv,
                     float* oc) {
  constexpr int kKg = (K + 3) / 4;
  __m512i wv[K * kKg];
  for (int ky = 0; ky < K; ++ky) {
    for (int g = 0; g < kKg; ++g) {
      std::int32_t wdw;
      std::memcpy(&wdw, wc + static_cast<std::size_t>(ky) * (kKg * 4) + 4 * g,
                  4);
      wv[ky * kKg + g] = _mm512_set1_epi32(wdw);
    }
  }
  alignas(64) float tail[16];
  for (int oy = 0; oy < oh; ++oy) {
    float* orow = oc + static_cast<std::size_t>(oy) * ow;
    for (int j0 = 0; j0 < ow; j0 += 16) {
      __m512i acc = _mm512_setzero_si512();
      for (int ky = 0; ky < K; ++ky) {
        const std::uint8_t* prow =
            plane + static_cast<std::size_t>(oy * stride + ky) * row_stride +
            static_cast<std::size_t>(j0) * stride;
        for (int g = 0; g < kKg; ++g) {
          const __m512i src = _mm512_loadu_si512(prow + 4 * g);
          acc = _mm512_dpbusd_epi32(acc, _mm512_permutexvar_epi8(idx, src),
                                    wv[ky * kKg + g]);
        }
      }
      const __m512 f = _mm512_cvtepi32_ps(acc);
      const __m512 val = _mm512_fmadd_ps(_mm512_sub_ps(f, corrv), scv, bsv);
      if (j0 + 16 <= ow) {
        _mm512_storeu_ps(orow + j0, val);
      } else {
        _mm512_store_ps(tail, val);
        std::memcpy(orow + j0, tail,
                    static_cast<std::size_t>(ow - j0) * sizeof(float));
      }
    }
  }
}

}  // namespace
#endif  // MURMUR_INT8_DW_VEC

void depthwise_conv2d_int8(const float* in, int channels, int h, int w,
                           const QuantDwWeights& qw, const float* bias,
                           int stride, int pad, float* out) {
  const int k = qw.k;
  const int kg = qw.kg;
  const int oh = conv_out_size(h, k, stride, pad);
  const int ow = conv_out_size(w, k, stride, pad);
  assert(qw.channels == channels);

  // One zero-point-padded u8 plane, reused across channels. Row capacity
  // covers the widest vector load of the last 16-pixel chunk plus slack so
  // the kernel never branches on bounds; zp bytes decode to x == 0, so the
  // padding is numerically exact, not just memory-safe.
  const std::size_t img = static_cast<std::size_t>(channels) * h * w;
  const ActQuantU8 aq = choose_act_quant_u8(in, img);
  const int ph = h + 2 * pad;
  const std::size_t row_stride =
      static_cast<std::size_t>(((ow + 15) / 16) * 16) * stride + 4 * kg + 64;
  Workspace& ws = Workspace::tls();
  Workspace::Frame frame(ws);
  std::uint8_t* plane = alloc_bytes(ws, static_cast<std::size_t>(ph) * row_stride);
  // Quantize the whole image in one pass; per channel only cheap row
  // copies remain. The plane padding is seeded once — every channel
  // overwrites exactly the same interior window, so the zp border
  // survives across iterations.
  std::uint8_t* qimg = alloc_bytes(ws, img);
  quantize_u8(in, img, aq, qimg);
  std::memset(plane, static_cast<std::uint8_t>(aq.zero_point),
              static_cast<std::size_t>(ph) * row_stride);

  const float zp = static_cast<float>(aq.zero_point);
  const std::size_t wrow = static_cast<std::size_t>(kg) * 4;

#if MURMUR_INT8_DW_VEC
  // Sliding-window shuffle: result byte (4j + b) = source byte (j*stride +
  // b), so one 64-byte load covers 16 output pixels per (ky, kx-group).
  // Requires stride*15 + 3 < 64, i.e. stride <= 4 — the supernet uses 1/2.
  const bool vec = stride <= 4;
  alignas(64) std::uint8_t idx_bytes[64];
  for (int j = 0; j < 16; ++j)
    for (int b = 0; b < 4; ++b)
      idx_bytes[4 * j + b] = static_cast<std::uint8_t>(j * stride + b);
  const __m512i idx = _mm512_load_si512(idx_bytes);
  alignas(64) float tail[16];
#else
  const bool vec = false;
#endif

  for (int c = 0; c < channels; ++c) {
    const std::uint8_t* qc = qimg + static_cast<std::size_t>(c) * h * w;
    for (int y = 0; y < h; ++y)
      std::memcpy(plane + (static_cast<std::size_t>(y) + pad) * row_stride + pad,
                  qc + static_cast<std::size_t>(y) * w,
                  static_cast<std::size_t>(w));

    const std::int8_t* wc =
        qw.codes.data() + static_cast<std::size_t>(c) * k * wrow;
    const float sc = qw.scale[static_cast<std::size_t>(c)] * aq.scale;
    const float corr =
        zp * static_cast<float>(qw.sum[static_cast<std::size_t>(c)]);
    const float bs = bias ? bias[c] : 0.0f;
    float* oc = out + static_cast<std::size_t>(c) * oh * ow;

    if (vec) {
#if MURMUR_INT8_DW_VEC
      const __m512 scv = _mm512_set1_ps(sc);
      const __m512 corrv = _mm512_set1_ps(corr);
      const __m512 bsv = _mm512_set1_ps(bs);
      // Supernet kernel sizes take the fully unrolled template; anything
      // else falls through to the generic (runtime-k) vector loop below.
      if (k == 3) {
        dw_int8_channel<3>(plane, row_stride, oh, ow, stride, wc, idx, scv,
                           corrv, bsv, oc);
        continue;
      }
      if (k == 5) {
        dw_int8_channel<5>(plane, row_stride, oh, ow, stride, wc, idx, scv,
                           corrv, bsv, oc);
        continue;
      }
      if (k == 7) {
        dw_int8_channel<7>(plane, row_stride, oh, ow, stride, wc, idx, scv,
                           corrv, bsv, oc);
        continue;
      }
      for (int oy = 0; oy < oh; ++oy) {
        float* orow = oc + static_cast<std::size_t>(oy) * ow;
        for (int j0 = 0; j0 < ow; j0 += 16) {
          __m512i acc = _mm512_setzero_si512();
          for (int ky = 0; ky < k; ++ky) {
            const std::uint8_t* prow =
                plane + static_cast<std::size_t>(oy * stride + ky) * row_stride +
                static_cast<std::size_t>(j0) * stride;
            const std::int8_t* wk = wc + static_cast<std::size_t>(ky) * wrow;
            for (int g = 0; g < kg; ++g) {
              const __m512i src = _mm512_loadu_si512(prow + 4 * g);
              const __m512i av = _mm512_permutexvar_epi8(idx, src);
              std::int32_t wdw;
              std::memcpy(&wdw, wk + 4 * g, 4);
              acc = _mm512_dpbusd_epi32(acc, av, _mm512_set1_epi32(wdw));
            }
          }
          const __m512 f = _mm512_cvtepi32_ps(acc);
          const __m512 val =
              _mm512_fmadd_ps(_mm512_sub_ps(f, corrv), scv, bsv);
          if (j0 + 16 <= ow) {
            _mm512_storeu_ps(orow + j0, val);
          } else {
            _mm512_store_ps(tail, val);
            std::memcpy(orow + j0, tail,
                        static_cast<std::size_t>(ow - j0) * sizeof(float));
          }
        }
      }
      continue;
#endif
    }

    // Scalar integer path (exotic strides / no AVX512-VNNI+VBMI build):
    // same padded plane, same accumulator, same epilogue expression.
    for (int oy = 0; oy < oh; ++oy) {
      float* orow = oc + static_cast<std::size_t>(oy) * ow;
      for (int ox = 0; ox < ow; ++ox) {
        std::int32_t acc = 0;
        for (int ky = 0; ky < k; ++ky) {
          const std::uint8_t* prow =
              plane + static_cast<std::size_t>(oy * stride + ky) * row_stride +
              static_cast<std::size_t>(ox) * stride;
          const std::int8_t* wk = wc + static_cast<std::size_t>(ky) * wrow;
          for (std::size_t kx = 0; kx < wrow; ++kx)
            acc += static_cast<std::int32_t>(wk[kx]) *
                   static_cast<std::int32_t>(prow[kx]);
        }
        orow[ox] = (static_cast<float>(acc) - corr) * sc + bs;
      }
    }
  }
}

void conv2d_ref(const float* in, int c_in, int h, int w, const float* weights,
                const float* bias, int c_out, int k, int stride, int pad,
                int groups, float* out) {
  const int oh = conv_out_size(h, k, stride, pad);
  const int ow = conv_out_size(w, k, stride, pad);
  const int cpg = c_in / groups;
  const int opg = c_out / groups;
  for (int o = 0; o < c_out; ++o) {
    const int g = o / opg;
    float* oc = out + static_cast<std::size_t>(o) * oh * ow;
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        float acc = bias ? bias[o] : 0.0f;
        for (int c = 0; c < cpg; ++c) {
          const float* ic =
              in + static_cast<std::size_t>(g * cpg + c) * h * w;
          const float* wc = weights + (static_cast<std::size_t>(o) * cpg + c) *
                                          k * k;
          for (int ky = 0; ky < k; ++ky) {
            const int iy = oy * stride - pad + ky;
            if (iy < 0 || iy >= h) continue;
            for (int kx = 0; kx < k; ++kx) {
              const int ix = ox * stride - pad + kx;
              if (ix < 0 || ix >= w) continue;
              acc +=
                  wc[ky * k + kx] * ic[static_cast<std::size_t>(iy) * w + ix];
            }
          }
        }
        oc[static_cast<std::size_t>(oy) * ow + ox] = acc;
      }
    }
  }
}

}  // namespace murmur::kernels
