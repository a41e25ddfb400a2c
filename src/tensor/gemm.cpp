#include "tensor/gemm.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "common/thread_pool.h"
#include "obs/trace.h"
#include "tensor/workspace.h"

#if defined(_MSC_VER)
#define MURMUR_RESTRICT __restrict
#else
#define MURMUR_RESTRICT __restrict__
#endif

namespace murmur {

namespace {

// Micro-tile of the register-blocked kernel: kMR rows × two vectors of
// kVL floats. 6×(2×8) keeps twelve 8-wide accumulators live on AVX2 (the
// classic BLIS shape); AVX-512 widens the same shape to twelve zmm. The
// micro-kernel is written with GCC/Clang vector extensions so codegen is a
// broadcast-FMA lattice by construction instead of relying on the
// auto-vectorizer (which SLP-mangles the scalar form).
#if defined(__AVX512F__)
constexpr int kVL = 16;
#elif defined(__AVX__)
constexpr int kVL = 8;
#else
constexpr int kVL = 4;
#endif
constexpr int kMR = 6;
constexpr int kNR = 2 * kVL;

#if defined(__GNUC__) || defined(__clang__)
#define MURMUR_VEC_EXT 1
using vfloat = float __attribute__((vector_size(kVL * sizeof(float)),
                                    aligned(alignof(float)), may_alias));
#endif

// Cache blocking: A panels (kMC×kKC ≈ 96 KiB) target L2, the B block
// (kKC×kNC ≤ 1 MiB) targets L3/streaming. kMC is a multiple of kMR.
constexpr int kKC = 256;
constexpr int kMC = 96;
constexpr int kNC = 1024;

// Flop threshold for parallel dispatch: below this the fork/join overhead
// dominates any speedup from extra cores.
constexpr std::size_t kParallelFlops = std::size_t{1} << 23;  // ~8 MFLOP

/// Pack A[0:mc, 0:kc] (row-major, leading dim `lda`) into micro-panels of
/// kMR rows: panel i0 holds kc columns of kMR consecutive rows, laid out
/// p-major so the micro-kernel streams it linearly. Short panels zero-pad.
void pack_a(int mc, int kc, const float* MURMUR_RESTRICT a, int lda,
            float* MURMUR_RESTRICT dst) {
  MURMUR_SPAN("kernel.pack", "kernel", obs::maybe_histogram("kernel.pack_ms"));
  for (int i0 = 0; i0 < mc; i0 += kMR) {
    const int mr = std::min(kMR, mc - i0);
    for (int p = 0; p < kc; ++p) {
      int r = 0;
      for (; r < mr; ++r)
        dst[p * kMR + r] = a[static_cast<std::size_t>(i0 + r) * lda + p];
      for (; r < kMR; ++r) dst[p * kMR + r] = 0.0f;
    }
    dst += static_cast<std::size_t>(kc) * kMR;
  }
}

/// Pack B[0:kc, 0:nc] (row-major, leading dim `ldb`) into micro-panels of
/// kNR columns, p-major within each panel. Short panels zero-pad.
void pack_b(int kc, int nc, const float* MURMUR_RESTRICT b, int ldb,
            float* MURMUR_RESTRICT dst) {
  MURMUR_SPAN("kernel.pack", "kernel", obs::maybe_histogram("kernel.pack_ms"));
  for (int j0 = 0; j0 < nc; j0 += kNR) {
    const int nr = std::min(kNR, nc - j0);
    if (nr == kNR) {
      for (int p = 0; p < kc; ++p)
        std::memcpy(dst + static_cast<std::size_t>(p) * kNR,
                    b + static_cast<std::size_t>(p) * ldb + j0,
                    sizeof(float) * kNR);
    } else {
      for (int p = 0; p < kc; ++p) {
        int j = 0;
        for (; j < nr; ++j)
          dst[static_cast<std::size_t>(p) * kNR + j] =
              b[static_cast<std::size_t>(p) * ldb + j0 + j];
        for (; j < kNR; ++j) dst[static_cast<std::size_t>(p) * kNR + j] = 0.0f;
      }
    }
    dst += static_cast<std::size_t>(kc) * kNR;
  }
}

/// kMR×kNR micro-kernel over packed panels: acc += Apanel · Bpanel, then
/// C[0:mr, 0:nr] += acc.
#if MURMUR_VEC_EXT
void micro_kernel(int kc, const float* MURMUR_RESTRICT ap,
                  const float* MURMUR_RESTRICT bp, float* MURMUR_RESTRICT c,
                  int ldc, int mr, int nr) {
  // 2·kMR accumulator vectors; `scalar * vector` broadcasts, so each p
  // step is two packed loads plus 2·kMR FMAs.
  vfloat acc[kMR][2] = {};
  for (int p = 0; p < kc; ++p) {
    const vfloat b0 = *reinterpret_cast<const vfloat*>(bp);
    const vfloat b1 = *reinterpret_cast<const vfloat*>(bp + kVL);
    for (int i = 0; i < kMR; ++i) {
      const float av = ap[i];
      acc[i][0] += av * b0;
      acc[i][1] += av * b1;
    }
    ap += kMR;
    bp += kNR;
  }
  if (mr == kMR && nr == kNR) {
    for (int i = 0; i < kMR; ++i) {
      float* crow = c + static_cast<std::size_t>(i) * ldc;
      vfloat* c0 = reinterpret_cast<vfloat*>(crow);
      vfloat* c1 = reinterpret_cast<vfloat*>(crow + kVL);
      *c0 += acc[i][0];
      *c1 += acc[i][1];
    }
  } else {
    for (int i = 0; i < mr; ++i) {
      float* crow = c + static_cast<std::size_t>(i) * ldc;
      for (int j = 0; j < nr; ++j) crow[j] += acc[i][j / kVL][j % kVL];
    }
  }
}
#else
void micro_kernel(int kc, const float* MURMUR_RESTRICT ap,
                  const float* MURMUR_RESTRICT bp, float* MURMUR_RESTRICT c,
                  int ldc, int mr, int nr) {
  float acc[kMR][kNR] = {};
  for (int p = 0; p < kc; ++p) {
    const float* MURMUR_RESTRICT brow = bp + static_cast<std::size_t>(p) * kNR;
    const float* MURMUR_RESTRICT acol = ap + static_cast<std::size_t>(p) * kMR;
    for (int i = 0; i < kMR; ++i) {
      const float av = acol[i];
      for (int j = 0; j < kNR; ++j) acc[i][j] += av * brow[j];
    }
  }
  for (int i = 0; i < mr; ++i) {
    float* MURMUR_RESTRICT crow = c + static_cast<std::size_t>(i) * ldc;
    for (int j = 0; j < nr; ++j) crow[j] += acc[i][j];
  }
}
#endif

/// Blocked single-thread GEMM over the row band [m0, m1): C += A·B.
/// Packing scratch comes from the calling thread's Workspace.
void gemm_band(int m0, int m1, int k, int n, const float* MURMUR_RESTRICT a,
               const float* MURMUR_RESTRICT b, float* MURMUR_RESTRICT c) {
  Workspace& ws = Workspace::tls();
  Workspace::Frame frame(ws);
  const int kcap = std::min(kKC, k);
  const int ncap = std::min(kNC, (n + kNR - 1) / kNR * kNR);
  const int mcap = std::min(kMC, (m1 - m0 + kMR - 1) / kMR * kMR);
  float* bpack = ws.alloc(static_cast<std::size_t>(kcap) * ncap);
  float* apack = ws.alloc(static_cast<std::size_t>(kcap) * mcap);

  for (int jc = 0; jc < n; jc += kNC) {
    const int nc = std::min(kNC, n - jc);
    const int npanels = (nc + kNR - 1) / kNR;
    for (int pc = 0; pc < k; pc += kKC) {
      const int kc = std::min(kKC, k - pc);
      pack_b(kc, nc, b + static_cast<std::size_t>(pc) * n + jc, n, bpack);
      for (int ic = m0; ic < m1; ic += kMC) {
        const int mc = std::min(kMC, m1 - ic);
        pack_a(mc, kc, a + static_cast<std::size_t>(ic) * k + pc, k, apack);
        for (int jr = 0; jr < npanels; ++jr) {
          const float* bp = bpack + static_cast<std::size_t>(jr) * kc * kNR;
          const int nr = std::min(kNR, nc - jr * kNR);
          for (int ir = 0; ir < mc; ir += kMR) {
            micro_kernel(kc,
                         apack + static_cast<std::size_t>(ir / kMR) * kc * kMR,
                         bp,
                         c + static_cast<std::size_t>(ic + ir) * n + jc +
                             jr * kNR,
                         n, std::min(kMR, mc - ir), nr);
          }
        }
      }
    }
  }
}

/// Process-wide kernel pool behind kernel_parallel_for. Lazily constructed
/// on first parallel call with one worker fewer than the kernel thread
/// count: the calling thread always works too.
ThreadPool& kernel_pool() {
  static ThreadPool pool(static_cast<std::size_t>(
      std::max(1, gemm_kernel_threads() - 1)));
  return pool;
}

/// Nonzero while this thread runs a kernel_parallel_for task; nested
/// parallel calls then run inline instead of queueing behind the tasks
/// that are already occupying the pool.
thread_local int t_task_depth = 0;

/// Shared state of one kernel_parallel_for call. Workers hold it by
/// shared_ptr, so a helper dequeued after every task was claimed finds the
/// counter exhausted and leaves without touching `fn` — which is only
/// dereferenced for a claimed task, while the caller is still waiting.
struct ParallelRegion {
  ParallelRegion(std::size_t n, const std::function<void(std::size_t)>& f)
      : tasks(n), fn(&f) {}

  /// Claim and run tasks until none is left unclaimed.
  void work() {
    ++t_task_depth;
    for (std::size_t i; (i = next.fetch_add(1)) < tasks;) {
      std::exception_ptr err;
      try {
        (*fn)(i);
      } catch (...) {
        err = std::current_exception();
      }
      std::lock_guard lock(mutex);
      if (err && !error) error = err;
      if (++done == tasks) cv.notify_all();
    }
    --t_task_depth;
  }

  const std::size_t tasks;
  const std::function<void(std::size_t)>* fn;
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t done = 0;      // guarded by mutex
  std::exception_ptr error;  // first failure; guarded by mutex
};

}  // namespace

namespace {
std::atomic<int> g_thread_override{0};
}  // namespace

int gemm_kernel_threads() noexcept {
  const int ov = g_thread_override.load(std::memory_order_relaxed);
  if (ov > 0) return ov;
  static const int n = [] {
    if (const char* e = std::getenv("MURMUR_KERNEL_THREADS")) {
      const int v = std::atoi(e);
      if (v > 0) return std::min(v, 64);
    }
    const unsigned hc = std::thread::hardware_concurrency();
    return hc ? static_cast<int>(std::min(hc, 16u)) : 1;
  }();
  return n;
}

void gemm_override_threads(int n) noexcept {
  g_thread_override.store(n, std::memory_order_relaxed);
}

std::size_t gemm_parallel_flops() noexcept { return kParallelFlops; }

std::size_t kernel_chunks(std::size_t n) noexcept {
  if (n == 0) return 0;
  if (t_task_depth > 0) return 1;
  return std::min(n, static_cast<std::size_t>(gemm_kernel_threads()));
}

void kernel_parallel_for(std::size_t tasks,
                         const std::function<void(std::size_t)>& fn) {
  if (tasks <= 1 || gemm_kernel_threads() == 1 || t_task_depth > 0) {
    for (std::size_t i = 0; i < tasks; ++i) fn(i);
    return;
  }
  const auto region = std::make_shared<ParallelRegion>(tasks, fn);
  ThreadPool& pool = kernel_pool();
  const std::size_t helpers = std::min(tasks - 1, pool.size());
  for (std::size_t h = 0; h < helpers; ++h)
    (void)pool.submit([region] { region->work(); });
  region->work();
  std::unique_lock lock(region->mutex);
  region->cv.wait(lock, [&] { return region->done == tasks; });
  if (region->error) std::rethrow_exception(region->error);
}

void gemm(int m, int k, int n, const float* a, const float* b, float* c) {
  if (m <= 0 || k <= 0 || n <= 0) return;
  MURMUR_SPAN("kernel.gemm", "kernel", obs::maybe_histogram("kernel.gemm_ms"));
  const std::size_t flops = 2u * static_cast<std::size_t>(m) *
                            static_cast<std::size_t>(k) *
                            static_cast<std::size_t>(n);
  // Row bands, each a multiple of kMR so no micro-tile straddles bands.
  const int bands =
      flops >= kParallelFlops && m >= 2 * kMR
          ? static_cast<int>(kernel_chunks(
                static_cast<std::size_t>((m + kMR - 1) / kMR)))
          : 1;
  if (bands > 1) {
    const int rows_per = ((m + bands - 1) / bands + kMR - 1) / kMR * kMR;
    kernel_parallel_for(static_cast<std::size_t>(bands), [&](std::size_t t) {
      const int m0 = static_cast<int>(t) * rows_per;
      const int m1 = std::min(m, m0 + rows_per);
      if (m0 < m1) gemm_band(m0, m1, k, n, a, b, c);
    });
    return;
  }
  gemm_band(0, m, k, n, a, b, c);
}

void PackedGemmA::pack(int m, int k, const float* a) {
  m_ = m;
  k_ = k;
  packed_ = false;
  if (m <= 0 || k <= 0 || a == nullptr) return;
  // Same (pc, ic) traversal as gemm_band over the full row range, so the
  // stored panels are byte-identical to what pack_a would produce inline.
  offs_.clear();
  std::size_t total = 0;
  for (int pc = 0; pc < k; pc += kKC) {
    const int kc = std::min(kKC, k - pc);
    for (int ic = 0; ic < m; ic += kMC) {
      const int mc = std::min(kMC, m - ic);
      offs_.push_back(total);
      total += static_cast<std::size_t>((mc + kMR - 1) / kMR) * kc * kMR;
    }
  }
  panels_.resize(total);
  std::size_t idx = 0;
  for (int pc = 0; pc < k; pc += kKC) {
    const int kc = std::min(kKC, k - pc);
    for (int ic = 0; ic < m; ic += kMC) {
      const int mc = std::min(kMC, m - ic);
      pack_a(mc, kc, a + static_cast<std::size_t>(ic) * k + pc, k,
             panels_.data() + offs_[idx++]);
    }
  }
  packed_ = true;
}

void gemm_packed(const PackedGemmA& a, int n, const float* b, float* c) {
  const int m = a.m_, k = a.k_;
  if (!a.packed_ || m <= 0 || k <= 0 || n <= 0) return;
  MURMUR_SPAN("kernel.gemm", "kernel", obs::maybe_histogram("kernel.gemm_ms"));
  Workspace& ws = Workspace::tls();
  Workspace::Frame frame(ws);
  const int kcap = std::min(kKC, k);
  const int ncap = std::min(kNC, (n + kNR - 1) / kNR * kNR);
  float* bpack = ws.alloc(static_cast<std::size_t>(kcap) * ncap);

  // gemm_band's jc → pc → ic → jr → ir loop nest with the A packs hoisted:
  // per-element accumulation order is untouched, which is what makes this
  // path bit-compatible with the unpacked gemm.
  for (int jc = 0; jc < n; jc += kNC) {
    const int nc = std::min(kNC, n - jc);
    const int npanels = (nc + kNR - 1) / kNR;
    std::size_t pidx = 0;
    for (int pc = 0; pc < k; pc += kKC) {
      const int kc = std::min(kKC, k - pc);
      pack_b(kc, nc, b + static_cast<std::size_t>(pc) * n + jc, n, bpack);
      for (int ic = 0; ic < m; ic += kMC, ++pidx) {
        const int mc = std::min(kMC, m - ic);
        const float* apack = a.panels_.data() + a.offs_[pidx];
        for (int jr = 0; jr < npanels; ++jr) {
          const float* bp = bpack + static_cast<std::size_t>(jr) * kc * kNR;
          const int nr = std::min(kNR, nc - jr * kNR);
          for (int ir = 0; ir < mc; ir += kMR) {
            micro_kernel(
                kc, apack + static_cast<std::size_t>(ir / kMR) * kc * kMR, bp,
                c + static_cast<std::size_t>(ic + ir) * n + jc + jr * kNR, n,
                std::min(kMR, mc - ir), nr);
          }
        }
      }
    }
  }
}

void gemm_ref(int m, int k, int n, const float* a, const float* b, float* c) {
  for (int i = 0; i < m; ++i) {
    float* ci = c + static_cast<std::size_t>(i) * n;
    for (int p = 0; p < k; ++p) {
      const float aip = a[static_cast<std::size_t>(i) * k + p];
      const float* bp = b + static_cast<std::size_t>(p) * n;
      for (int j = 0; j < n; ++j) ci[j] += aip * bp[j];
    }
  }
}

void gemv(int m, int k, const float* a, const float* x, const float* bias,
          float* y) {
  constexpr int kLanes = 8;
  int o = 0;
  // Four rows at a time: 4×8 lane accumulators vectorize without needing
  // float-reassociation flags; one horizontal reduction per row at the end.
  for (; o + 4 <= m; o += 4) {
    const float* MURMUR_RESTRICT r0 = a + static_cast<std::size_t>(o) * k;
    const float* MURMUR_RESTRICT r1 = r0 + k;
    const float* MURMUR_RESTRICT r2 = r1 + k;
    const float* MURMUR_RESTRICT r3 = r2 + k;
    float acc[4][kLanes] = {};
    int i = 0;
    for (; i + kLanes <= k; i += kLanes) {
      for (int l = 0; l < kLanes; ++l) {
        const float xv = x[i + l];
        acc[0][l] += r0[i + l] * xv;
        acc[1][l] += r1[i + l] * xv;
        acc[2][l] += r2[i + l] * xv;
        acc[3][l] += r3[i + l] * xv;
      }
    }
    float s[4] = {};
    for (int r = 0; r < 4; ++r)
      for (int l = 0; l < kLanes; ++l) s[r] += acc[r][l];
    for (; i < k; ++i) {
      const float xv = x[i];
      s[0] += r0[i] * xv;
      s[1] += r1[i] * xv;
      s[2] += r2[i] * xv;
      s[3] += r3[i] * xv;
    }
    for (int r = 0; r < 4; ++r) y[o + r] = s[r] + (bias ? bias[o + r] : 0.0f);
  }
  for (; o < m; ++o) {
    const float* MURMUR_RESTRICT row = a + static_cast<std::size_t>(o) * k;
    float acc[kLanes] = {};
    int i = 0;
    for (; i + kLanes <= k; i += kLanes)
      for (int l = 0; l < kLanes; ++l) acc[l] += row[i + l] * x[i + l];
    float s = 0.0f;
    for (int l = 0; l < kLanes; ++l) s += acc[l];
    for (; i < k; ++i) s += row[i] * x[i];
    y[o] = s + (bias ? bias[o] : 0.0f);
  }
}

void im2col(const float* input, int channels, int height, int width, int kh,
            int kw, int stride, int pad, float* out) {
  MURMUR_SPAN("kernel.im2col", "kernel",
              obs::maybe_histogram("kernel.im2col_ms"));
  const int oh = conv_out_size(height, kh, stride, pad);
  const int ow = conv_out_size(width, kw, stride, pad);
  const std::size_t cols = static_cast<std::size_t>(oh) * ow;
  std::size_t row = 0;
  for (int c = 0; c < channels; ++c) {
    const float* in_c = input + static_cast<std::size_t>(c) * height * width;
    for (int ky = 0; ky < kh; ++ky) {
      for (int kx = 0; kx < kw; ++kx, ++row) {
        float* out_row = out + row * cols;
        // ox values for which ix = ox*stride - pad + kx lands in [0, width):
        const int ox_lo =
            std::clamp(kx >= pad ? 0 : (pad - kx + stride - 1) / stride, 0, ow);
        // Guard the negative case explicitly: C division truncates toward
        // zero, so (negative)/stride + 1 would wrongly admit ox = 0.
        const int hi_num = width - 1 - kx + pad;
        const int ox_hi =
            std::clamp(hi_num >= 0 ? hi_num / stride + 1 : 0, ox_lo, ow);
        for (int oy = 0; oy < oh; ++oy) {
          const int iy = oy * stride - pad + ky;
          float* dst = out_row + static_cast<std::size_t>(oy) * ow;
          if (iy < 0 || iy >= height) {
            std::memset(dst, 0, sizeof(float) * ow);
            continue;
          }
          const float* in_row = in_c + static_cast<std::size_t>(iy) * width;
          if (ox_lo > 0) std::memset(dst, 0, sizeof(float) * ox_lo);
          if (ox_hi < ow)
            std::memset(dst + ox_hi, 0, sizeof(float) * (ow - ox_hi));
          if (stride == 1) {
            std::memcpy(dst + ox_lo, in_row + ox_lo - pad + kx,
                        sizeof(float) * (ox_hi - ox_lo));
          } else {
            for (int ox = ox_lo; ox < ox_hi; ++ox)
              dst[ox] = in_row[ox * stride - pad + kx];
          }
        }
      }
    }
  }
}

}  // namespace murmur
