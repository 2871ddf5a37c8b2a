#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "sparse/csr.hpp"

/// \file fingerprint.hpp
/// Content fingerprint for sparse matrices — the plan-cache key.
///
/// Two matrices with equal dimensions, sparsity pattern, and values
/// produce the same fingerprint; any structural or numerical change
/// produces (with overwhelming probability) a different one. The hash
/// is xxHash64-style over the CSR arrays' bytes (four independent
/// 64-bit lanes, one multiply per word), so it is deterministic across
/// runs and platforms of equal endianness and costs one O(nnz) pass at
/// memory speed: about 1 ms for Trefethen_20000's 9.0 MB of CSR arrays
/// on a 4-core x86-64 host, against about 40 ms for a prebuilt async-(5)
/// solve of it. A byte-serial hash (one dependent multiply per byte)
/// took 13.7 ms there. SolveService hashes each request once, at submit.

namespace bars::service {

/// Hash of (rows, cols, the three array lengths, row_ptr, col_idx,
/// values).
[[nodiscard]] std::uint64_t matrix_fingerprint(const Csr& a) noexcept;

/// The same fingerprint over raw CSR arrays that need not form a valid
/// Csr; matrix_fingerprint(a) equals this over a's own arrays.
[[nodiscard]] std::uint64_t matrix_fingerprint(
    index_t rows, index_t cols, std::span<const index_t> row_ptr,
    std::span<const index_t> col_idx,
    std::span<const value_t> values) noexcept;

/// The raw word-wide hash primitive (xxHash64 rounds), exposed for
/// composing derived keys: the plan cache and the circuit breaker fold
/// their partition config into the matrix fingerprint with it.
[[nodiscard]] std::uint64_t hash64(const void* data, std::size_t bytes,
                                   std::uint64_t seed) noexcept;

}  // namespace bars::service
