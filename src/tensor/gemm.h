// GEMM + im2col kernels used by the convolution and linear layers.
//
// `gemm` is a cache-blocked, register-tiled SGEMM: A and B are repacked
// into contiguous micro-panels sized for the vector registers, a fixed
// MR×NR micro-kernel accumulates over the packed panels, and — above a
// flop threshold — row bands are dispatched across a process-wide kernel
// thread pool. The naive triple-loop version survives as `gemm_ref` for
// differential testing and packed-vs-naive benchmarks.
//
// The same pool serves coarser work through `kernel_parallel_for`: the
// distributed executor splits a fused batch's members across it.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "tensor/tensor.h"

namespace murmur {

/// C(m×n) += A(m×k) · B(k×n). Row-major, contiguous. Blocked/packed with an
/// explicit micro-kernel; scratch comes from the calling thread's
/// Workspace; dispatches row bands over the kernel pool when the problem
/// exceeds `gemm_parallel_flops()` and more than one kernel thread is
/// configured (inline when called from inside a kernel_parallel_for task).
void gemm(int m, int k, int n, const float* a, const float* b, float* c);

/// A(m×k) repacked once into `gemm`'s internal micro-panel layout so the
/// pack cost is paid a single time and amortized across many products that
/// reuse the same A (the batched pointwise-convolution fast path packs the
/// weight matrix once and multiplies per sample). `gemm_packed` reproduces
/// `gemm`'s cache blocking and per-element accumulation order exactly, so
/// results are bit-identical to the unpacked call on the same operands.
class PackedGemmA {
 public:
  /// Repack `a` (row-major m×k, contiguous). Safe to call again to re-pack
  /// different contents or a different shape.
  void pack(int m, int k, const float* a);

  bool matches(int m, int k) const noexcept {
    return packed_ && m_ == m && k_ == k;
  }
  int m() const noexcept { return m_; }
  int k() const noexcept { return k_; }

 private:
  friend void gemm_packed(const PackedGemmA& a, int n, const float* b,
                          float* c);
  int m_ = 0;
  int k_ = 0;
  bool packed_ = false;
  std::vector<float> panels_;       // concatenated (pc, ic) micro-panel runs
  std::vector<std::size_t> offs_;   // start of each (pc, ic) run in panels_
};

/// C(m×n) += Apacked(m×k) · B(k×n); bit-identical to `gemm(m,k,n,...)` on
/// the same operands. Single-threaded by design: the batched callers run
/// many independent products and parallelize above this call.
void gemm_packed(const PackedGemmA& a, int n, const float* b, float* c);

/// Reference triple-loop GEMM (ikj order), same accumulate-into-C contract.
/// Kept for differential tests and benchmarks; not used on the hot path.
void gemm_ref(int m, int k, int n, const float* a, const float* b, float* c);

/// y(m) = A(m×k) · x(k) [+ bias(m) when non-null]. Row-major matrix-vector
/// product with multi-accumulator inner loops (the Linear/SE fast path).
void gemv(int m, int k, const float* a, const float* x, const float* bias,
          float* y);

/// Flop count (2·m·k·n) above which `gemm` considers parallel dispatch.
std::size_t gemm_parallel_flops() noexcept;

/// Number of threads, the caller included, that kernel_parallel_for work
/// may use: gemm's row bands and the executor's member split. Defaults to
/// the hardware concurrency; override with MURMUR_KERNEL_THREADS (1
/// disables both parallel paths). Read once, at first use.
int gemm_kernel_threads() noexcept;

/// Test hook: force the kernel thread count (0 restores the default).
/// Call before the first over-threshold gemm so the pool is sized to
/// match; intended for differential tests of the parallel dispatch path.
void gemm_override_threads(int n) noexcept;

/// Number of contiguous chunks to split `n` independent items into for
/// `kernel_parallel_for`: min(n, gemm_kernel_threads()), or 1 when called
/// from inside a kernel_parallel_for task (nested work runs inline).
std::size_t kernel_chunks(std::size_t n) noexcept;

/// Run fn(i) for every i in [0, tasks) on the process-wide kernel pool
/// (gemm_kernel_threads() threads in all, shared by every caller in the
/// process) and return when all have finished. The calling thread claims
/// tasks alongside the pool workers, so it never waits on a task no thread
/// has started: progress holds even when other callers saturate the pool.
/// With one task, one kernel thread, or when called from inside a task,
/// every task runs inline on the caller in index order and an exception
/// propagates at once; otherwise the first exception thrown by fn is
/// rethrown once every task has finished.
void kernel_parallel_for(std::size_t tasks,
                         const std::function<void(std::size_t)>& fn);

/// im2col for a single image: input (C,H,W) -> columns matrix of shape
/// (C*kh*kw) × (oh*ow), with given stride and symmetric zero padding.
/// `out` must hold (c*kh*kw) * (oh*ow) floats. Bounds handling is hoisted
/// out of the inner loop; the stride-1 interior is a straight memcpy.
void im2col(const float* input, int channels, int height, int width, int kh,
            int kw, int stride, int pad, float* out);

/// Output spatial size of a convolution along one dimension.
constexpr int conv_out_size(int in, int kernel, int stride, int pad) noexcept {
  return (in + 2 * pad - kernel) / stride + 1;
}

}  // namespace murmur
