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

// Register tile of the fp32 depthwise kernel: kDwRB output rows × one
// vector of kDwVL columns, written with GCC/Clang vector extensions like
// the GEMM micro-kernel. Other compilers run the same loop one column at a
// time.
#if defined(__GNUC__) || defined(__clang__)
#if defined(__AVX512F__)
constexpr int kDwVL = 16;
#elif defined(__AVX__)
constexpr int kDwVL = 8;
#else
constexpr int kDwVL = 4;
#endif
using dwvec = float __attribute__((vector_size(kDwVL * sizeof(float))));
#else
constexpr int kDwVL = 1;
using dwvec = float;
#endif
constexpr int kDwRB = 8;

inline dwvec load_dwvec(const float* p) {
  dwvec v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Geometry of the zero-padded input a depthwise call reads. Padded column
/// px = x + pad is split by phase px mod s into s planes of `rows` × `cols`
/// (stride 1 has one phase: the padded plane itself), so output column ox
/// reads tap kx at element ox + kx / s of phase kx mod s, and every tap of
/// a tile is one unit-stride vector load. The planes cover every row and
/// column a whole tile reads, including tile rows and lanes past the
/// output's edge.
struct PaddedPlanes {
  int s, pad, rows, cols;
  std::size_t phase_size() const {
    return static_cast<std::size_t>(rows) * cols;
  }
};

PaddedPlanes padded_planes(int k, int s, int pad, int oh, int ow) {
  const int tile_rows = (oh + kDwRB - 1) / kDwRB * kDwRB;
  return {s, pad, s * (tile_rows - 1) + k, std::max(ow, kDwVL) + (k - 1) / s};
}

/// Store the first `nr` rows of a tile, bias added last: row r goes to
/// dst + r·ow. A row is written as a whole vector while that stays inside
/// the channel's output plane [.., end). When ow < kDwVL the vector runs
/// into the following rows, which are stored after it and overwrite it;
/// only the plane's last rows are clipped. Kept out of line: inlined, its
/// branches cost the tap loop registers (k = 7 ran about 30% slower).
[[gnu::noinline]] void store_tile_rows(const dwvec* acc, float b, int nr,
                                       float* dst, int ow, const float* end) {
  for (int r = 0; r < nr; ++r, dst += ow) {
    const dwvec o = b + acc[r];
    if (end - dst >= kDwVL) {
      std::memcpy(dst, &o, sizeof o);
    } else {
      float lanes[kDwVL];
      std::memcpy(lanes, &o, sizeof o);
      for (int l = 0; dst + l < end; ++l) dst[l] = lanes[l];
    }
  }
}

/// One channel of the fp32 depthwise conv: copy the channel into the
/// interior of the (already zeroed) phase planes, then run the register
/// tile over the output. Each output adds all k·k taps to a +0 accumulator
/// in (ky, kx) order and the bias last, depthwise_conv2d_ref's order. A
/// tap the reference skips reads a padded zero here, and adding w·0 = ±0
/// to an accumulator that started at +0 (so is never −0) changes nothing
/// for finite w, so the two agree bitwise. Every tile, full or not, runs
/// the same tap loop, so all see the same FMA contraction. The last tile
/// of a row that is at least a vector wide starts at ow − kDwVL and
/// recomputes a few outputs of its neighbour (to the same bits), so every
/// store of such a row is a whole vector inside the row. KT / ST fix k and
/// s at compile time (0: read them from k_rt / g.s).
template <int KT, int ST>
void depthwise_channel(const float* MURMUR_RESTRICT ic, int h, int w,
                       const float* MURMUR_RESTRICT wc, int k_rt, float b,
                       const PaddedPlanes& g, float* MURMUR_RESTRICT planes,
                       int oh, int ow, float* MURMUR_RESTRICT oc) {
  const int k = KT ? KT : k_rt;
  const int s = ST ? ST : g.s;
  const std::size_t phase = g.phase_size();
  for (int y = 0; y < h && y + g.pad < g.rows; ++y) {
    const float* MURMUR_RESTRICT row = ic + static_cast<std::size_t>(y) * w;
    float* MURMUR_RESTRICT prow =
        planes + static_cast<std::size_t>(y + g.pad) * g.cols;
    for (int p = 0; p < s; ++p) {
      // First input column of phase p, and its element in the phase row.
      const int x0 = ((p - g.pad) % s + s) % s;
      float* MURMUR_RESTRICT dst = prow + p * phase + (x0 + g.pad) / s;
      const int n = std::min((w - x0 + s - 1) / s, g.cols - (x0 + g.pad) / s);
      for (int j = 0; j < n; ++j) dst[j] = row[x0 + j * s];
    }
  }
  const float* end = oc + static_cast<std::size_t>(oh) * ow;
  for (int y0 = 0; y0 < oh; y0 += kDwRB) {
    const float* MURMUR_RESTRICT tile_in =
        planes + static_cast<std::size_t>(s * y0) * g.cols;
    for (int xt = 0; xt < ow; xt += kDwVL) {
      const int x0 = std::max(0, std::min(xt, ow - kDwVL));
      // Padded row j of the tile feeds output row r through tap row
      // ky = j − s·r: each row is loaded once per kx and every output
      // still takes its taps in (ky, kx) order.
      dwvec acc[kDwRB] = {};
#pragma GCC unroll 32
      for (int j = 0; j < s * (kDwRB - 1) + k; ++j) {
#pragma GCC unroll 8
        for (int kx = 0; kx < k; ++kx) {
          const dwvec v = load_dwvec(tile_in + (kx % s) * phase +
                                     static_cast<std::size_t>(j) * g.cols +
                                     x0 + kx / s);
#pragma GCC unroll 8
          for (int r = 0; r < kDwRB; ++r) {
            const int ky = j - s * r;
            if (ky >= 0 && ky < k) acc[r] += wc[ky * k + kx] * v;
          }
        }
      }
      store_tile_rows(acc, b, std::min(kDwRB, oh - y0),
                      oc + static_cast<std::size_t>(y0) * ow + x0, ow, end);
    }
  }
}

using DepthwiseChannelFn = void (*)(const float*, int, int, const float*, int,
                                    float, const PaddedPlanes&, float*, int,
                                    int, float*);

template <int ST>
DepthwiseChannelFn depthwise_channel_for_k(int k) {
  switch (k) {
    case 3: return depthwise_channel<3, ST>;
    case 5: return depthwise_channel<5, ST>;
    case 7: return depthwise_channel<7, ST>;
    default: return depthwise_channel<0, ST>;
  }
}

}  // namespace

void depthwise_conv2d(const float* in, int channels, int h, int w,
                      const float* weights, const float* bias, int k,
                      int stride, int pad, float* out) {
  assert(stride >= 1 && pad >= 0);
  const int oh = conv_out_size(h, k, stride, pad);
  const int ow = conv_out_size(w, k, stride, pad);
  if (oh <= 0 || ow <= 0) return;
  const PaddedPlanes g = padded_planes(k, stride, pad, oh, ow);
  const DepthwiseChannelFn run = stride == 1   ? depthwise_channel_for_k<1>(k)
                                 : stride == 2 ? depthwise_channel_for_k<2>(k)
                                               : depthwise_channel<0, 0>;
  Workspace& ws = Workspace::tls();
  Workspace::Frame frame(ws);
  const std::size_t n = static_cast<std::size_t>(stride) * g.phase_size();
  float* planes = ws.alloc(n);
  // Each channel overwrites the same interior, so the padding stays zero.
  std::fill(planes, planes + n, 0.0f);
  for (int c = 0; c < channels; ++c)
    run(in + static_cast<std::size_t>(c) * h * w, h, w,
        weights + static_cast<std::size_t>(c) * k * k, k,
        bias ? bias[c] : 0.0f, g, planes, oh, ow,
        out + static_cast<std::size_t>(c) * oh * ow);
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
        float acc = 0.0f;
        for (int ky = 0; ky < k; ++ky) {
          const int iy = oy * stride - pad + ky;
          if (iy < 0 || iy >= h) continue;
          for (int kx = 0; kx < k; ++kx) {
            const int ix = ox * stride - pad + kx;
            if (ix < 0 || ix >= w) continue;
            acc += wc[ky * k + kx] * ic[static_cast<std::size_t>(iy) * w + ix];
          }
        }
        oc[static_cast<std::size_t>(oy) * ow + ox] =
            (bias ? bias[c] : 0.0f) + acc;
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
