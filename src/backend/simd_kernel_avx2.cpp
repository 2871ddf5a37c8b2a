/// \file simd_kernel_avx2.cpp
/// The vectorized block sweep. This is the only translation unit built
/// with -mavx2 -mfma (per-file, see src/backend/CMakeLists.txt), so the
/// rest of the library never emits AVX2 instructions and the runtime
/// cpu probe fully guards execution. When the compiler cannot target
/// AVX2 the file degrades to stubs and simd_compiled() reports false.

#include "backend/simd_kernel.hpp"

#include <algorithm>
#include <cstdint>

#if defined(__AVX2__) && defined(__FMA__)
#define BARS_BACKEND_HAS_AVX2 1
#include <immintrin.h>
#else
#define BARS_BACKEND_HAS_AVX2 0
#endif

namespace bars::backend::detail {

bool simd_compiled() noexcept { return BARS_BACKEND_HAS_AVX2 != 0; }

bool simd_cpu_supported() noexcept {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

#if BARS_BACKEND_HAS_AVX2

namespace {

/// One padded slice: acc -= vals[k] * source[cols[k]] for four lanes,
/// over the group's entries [begin, end) (packed-entry-group units).
inline __m256d gather_fnmadd(const std::int32_t* cols, const value_t* vals,
                             const value_t* source, index_t begin,
                             index_t end, __m256d acc) {
  // The masked form of the same vgatherdpd with every lane enabled and
  // a zeroed pass-through source: gcc's unmasked _mm256_i32gather_pd
  // leaves its pass-through operand uninitialized, which trips
  // -Wmaybe-uninitialized.
  const __m256d all_lanes = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  for (index_t k = begin; k < end; ++k) {
    const __m128i idx = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(cols + 4 * k));
    const __m256d v = _mm256_loadu_pd(vals + 4 * k);
    const __m256d g = _mm256_mask_i32gather_pd(_mm256_setzero_pd(), source,
                                               idx, all_lanes, 8);
    acc = _mm256_fnmadd_pd(v, g, acc);
  }
  return acc;
}

}  // namespace

void simd_update_block(const SimdBlockLayout& blk,
                       std::span<const value_t> halo_values,
                       const value_t* rhs, std::span<value_t> x,
                       value_t omega, index_t sweeps,
                       const std::vector<std::uint8_t>* mask,
                       value_t* residual_sq) noexcept {
  const index_t m = blk.m;
  const index_t full = blk.full_groups;
  const value_t* xw = x.data() + blk.lo;
  const value_t* hv = halo_values.data();
  value_t* s = blk.scratch_s.data();
  value_t* cur = blk.scratch_a.data();
  value_t* nxt = blk.scratch_b.data();

  const __m256d vomega = _mm256_set1_pd(omega);
  const __m256d vrest = _mm256_set1_pd(1.0 - omega);

  // First sweep, fused exactly like the scalar kernel: the frozen
  // s_i = b_i - (global part) shares the accumulator chain with the
  // local part and is spilled only when later sweeps need it. Its
  // acc - a_ii x_i is the row's residual at read time, summed squared
  // into the block's residual slot.
  __m256d vrsq = _mm256_setzero_pd();
  for (index_t g = 0; g < full; ++g) {
    const index_t r = 4 * g;
    __m256d acc = _mm256_loadu_pd(rhs + blk.lo + r);
    acc = gather_fnmadd(blk.gcol.data(), blk.gval.data(), hv,
                        blk.ggroup_ptr[g], blk.ggroup_ptr[g + 1], acc);
    if (sweeps > 1) _mm256_storeu_pd(s + r, acc);
    acc = gather_fnmadd(blk.lcol.data(), blk.lval.data(), xw,
                        blk.lgroup_ptr[g], blk.lgroup_ptr[g + 1], acc);
    const __m256d xq = _mm256_loadu_pd(xw + r);
    const __m256d d = _mm256_loadu_pd(blk.diag.data() + r);
    const __m256d rv = _mm256_fnmadd_pd(d, xq, acc);
    vrsq = _mm256_fmadd_pd(rv, rv, vrsq);
    const __m256d out = _mm256_fmadd_pd(
        vrest, xq, _mm256_mul_pd(vomega, _mm256_div_pd(acc, d)));
    _mm256_storeu_pd(cur + r, out);
  }
  alignas(32) value_t lanes[4];
  _mm256_store_pd(lanes, vrsq);
  value_t rsq = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  // Tail rows (< 4) run scalar over the same padded slices: lane l of
  // the last group, padding entries contribute 0.
  for (index_t r = 4 * full; r < m; ++r) {
    const index_t l = r - 4 * full;
    value_t acc = rhs[blk.lo + r];
    for (index_t k = blk.ggroup_ptr[full]; k < blk.ggroup_ptr[full + 1];
         ++k) {
      acc -= blk.gval[4 * k + l] * hv[blk.gcol[4 * k + l]];
    }
    if (sweeps > 1) s[r] = acc;
    for (index_t k = blk.lgroup_ptr[full]; k < blk.lgroup_ptr[full + 1];
         ++k) {
      acc -= blk.lval[4 * k + l] * xw[blk.lcol[4 * k + l]];
    }
    const value_t ri = acc - blk.diag[r] * xw[r];
    rsq += ri * ri;
    cur[r] = (1.0 - omega) * xw[r] + omega * (acc / blk.diag[r]);
  }
  if (residual_sq != nullptr) *residual_sq = rsq;

  for (index_t sweep = 1; sweep < sweeps; ++sweep) {
    for (index_t g = 0; g < full; ++g) {
      const index_t r = 4 * g;
      __m256d acc = _mm256_loadu_pd(s + r);
      acc = gather_fnmadd(blk.lcol.data(), blk.lval.data(), cur,
                          blk.lgroup_ptr[g], blk.lgroup_ptr[g + 1], acc);
      const __m256d xq = _mm256_loadu_pd(cur + r);
      const __m256d d = _mm256_loadu_pd(blk.diag.data() + r);
      const __m256d out = _mm256_fmadd_pd(
          vrest, xq, _mm256_mul_pd(vomega, _mm256_div_pd(acc, d)));
      _mm256_storeu_pd(nxt + r, out);
    }
    for (index_t r = 4 * full; r < m; ++r) {
      const index_t l = r - 4 * full;
      value_t acc = s[r];
      for (index_t k = blk.lgroup_ptr[full]; k < blk.lgroup_ptr[full + 1];
           ++k) {
        acc -= blk.lval[4 * k + l] * cur[blk.lcol[4 * k + l]];
      }
      nxt[r] = (1.0 - omega) * cur[r] + omega * (acc / blk.diag[r]);
    }
    std::swap(cur, nxt);
  }

  // Commit the owned rows, honoring the component fault mask.
  if (mask != nullptr) {
    for (index_t r = 0; r < m; ++r) {
      if ((*mask)[static_cast<std::size_t>(blk.lo + r)]) continue;
      x[blk.lo + r] = cur[r];
    }
  } else {
    std::copy(cur, cur + m, x.data() + blk.lo);
  }
}

#else  // !BARS_BACKEND_HAS_AVX2

void simd_update_block(const SimdBlockLayout&, std::span<const value_t>,
                       const value_t*, std::span<value_t>, value_t, index_t,
                       const std::vector<std::uint8_t>*, value_t*) noexcept {
  // Unreachable: SimdBlockSweepKernel's constructor throws
  // backend_unsupported when simd_compiled() is false.
}

#endif

}  // namespace bars::backend::detail
