#include "sparse/csr.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/check.hpp"

namespace bars {

Csr Csr::from_coo(const Coo& coo) {
  // Entries already strictly row-major (so free of duplicates) are
  // their own canonical form: skip the sorted copy.
  const std::vector<Triplet>& raw = coo.entries();
  const bool canonical =
      std::adjacent_find(raw.begin(), raw.end(),
                         [](const Triplet& a, const Triplet& b) {
                           return a.row != b.row ? a.row > b.row
                                                 : a.col >= b.col;
                         }) == raw.end();
  const Coo canon = canonical ? Coo{} : coo.sorted(/*keep_zeros=*/true);
  const std::vector<Triplet>& entries = canonical ? raw : canon.entries();
  std::vector<index_t> row_ptr(static_cast<std::size_t>(coo.rows()) + 1, 0);
  std::vector<index_t> col_idx;
  std::vector<value_t> values;
  col_idx.reserve(entries.size());
  values.reserve(entries.size());
  for (const auto& t : entries) {
    ++row_ptr[static_cast<std::size_t>(t.row) + 1];
    col_idx.push_back(t.col);
    values.push_back(t.value);
  }
  for (std::size_t i = 1; i < row_ptr.size(); ++i) row_ptr[i] += row_ptr[i - 1];
  return Csr(coo.rows(), coo.cols(), std::move(row_ptr), std::move(col_idx),
             std::move(values));
}

Csr::Csr(index_t rows, index_t cols, std::vector<index_t> row_ptr,
         std::vector<index_t> col_idx, std::vector<value_t> values)
    : rows_(rows),
      cols_(cols),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
  if (rows_ < 0 || cols_ < 0) {
    throw std::invalid_argument("Csr: negative dimensions");
  }
  if (row_ptr_.size() != static_cast<std::size_t>(rows_) + 1 ||
      row_ptr_.front() != 0 ||
      row_ptr_.back() != static_cast<index_t>(values_.size()) ||
      col_idx_.size() != values_.size()) {
    throw std::invalid_argument("Csr: inconsistent array sizes");
  }
  for (index_t i = 0; i < rows_; ++i) {
    if (row_ptr_[i] > row_ptr_[i + 1]) {
      throw std::invalid_argument("Csr: row_ptr not monotone");
    }
    for (index_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      if (col_idx_[k] < 0 || col_idx_[k] >= cols_) {
        throw std::invalid_argument("Csr: column index out of range");
      }
      if (k > row_ptr_[i] && col_idx_[k - 1] >= col_idx_[k]) {
        throw std::invalid_argument("Csr: columns not strictly increasing");
      }
    }
  }
}

std::span<const index_t> Csr::row_cols(index_t i) const {
  BARS_DCHECK(i >= 0 && i < rows_) << "row " << i << " of " << rows_;
  return std::span<const index_t>(col_idx_).subspan(
      static_cast<std::size_t>(row_ptr_[i]),
      static_cast<std::size_t>(row_ptr_[i + 1] - row_ptr_[i]));
}

std::span<const value_t> Csr::row_vals(index_t i) const {
  BARS_DCHECK(i >= 0 && i < rows_) << "row " << i << " of " << rows_;
  return std::span<const value_t>(values_).subspan(
      static_cast<std::size_t>(row_ptr_[i]),
      static_cast<std::size_t>(row_ptr_[i + 1] - row_ptr_[i]));
}

value_t Csr::at(index_t i, index_t j) const {
  const auto cols = row_cols(i);
  const auto it = std::lower_bound(cols.begin(), cols.end(), j);
  if (it == cols.end() || *it != j) return 0.0;
  return row_vals(i)[static_cast<std::size_t>(it - cols.begin())];
}

void Csr::spmv(std::span<const value_t> x, std::span<value_t> y) const {
  BARS_DCHECK(static_cast<index_t>(x.size()) == cols_)
      << "spmv x: " << x.size() << " vs cols " << cols_;
  BARS_DCHECK(static_cast<index_t>(y.size()) == rows_)
      << "spmv y: " << y.size() << " vs rows " << rows_;
  for (index_t i = 0; i < rows_; ++i) {
    value_t s = 0.0;
    for (index_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      s += values_[k] * x[col_idx_[k]];
    }
    y[i] = s;
  }
}

void Csr::residual(std::span<const value_t> b, std::span<const value_t> x,
                   std::span<value_t> y) const {
  BARS_DCHECK(static_cast<index_t>(b.size()) == rows_)
      << "residual b: " << b.size() << " vs rows " << rows_;
  for (index_t i = 0; i < rows_; ++i) {
    value_t s = b[i];
    for (index_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      s -= values_[k] * x[col_idx_[k]];
    }
    y[i] = s;
  }
}

Vector Csr::diagonal() const {
  Vector d(static_cast<std::size_t>(rows_), 0.0);
  for (index_t i = 0; i < std::min(rows_, cols_); ++i) d[i] = at(i, i);
  return d;
}

bool Csr::is_symmetric(value_t tol) const {
  if (rows_ != cols_) return false;
  value_t amax = 0.0;
  for (auto v : values_) amax = std::max(amax, std::abs(v));
  const value_t bound = tol * amax;
  for (index_t i = 0; i < rows_; ++i) {
    const auto cols = row_cols(i);
    const auto vals = row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (std::abs(vals[k] - at(cols[k], i)) > bound) return false;
    }
  }
  return true;
}

Csr Csr::transpose() const {
  Coo coo(cols_, rows_);
  coo.reserve(values_.size());
  for (index_t i = 0; i < rows_; ++i) {
    const auto cols = row_cols(i);
    const auto vals = row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      coo.add(cols[k], i, vals[k]);
    }
  }
  return Csr::from_coo(coo);
}

Csr Csr::abs() const {
  Csr out = *this;
  for (auto& v : out.values_) v = std::abs(v);
  return out;
}

Coo Csr::to_coo() const {
  Coo coo(rows_, cols_);
  coo.reserve(values_.size());
  for (index_t i = 0; i < rows_; ++i) {
    const auto cols = row_cols(i);
    const auto vals = row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) coo.add(i, cols[k], vals[k]);
  }
  return coo;
}

namespace {

Csr iteration_matrix_impl(const Csr& a, value_t tau) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("iteration matrix requires a square matrix");
  }
  const Vector d = a.diagonal();
  Coo coo(a.rows(), a.cols());
  coo.reserve(static_cast<std::size_t>(a.nnz()));
  for (index_t i = 0; i < a.rows(); ++i) {
    if (d[i] == 0.0) {
      throw std::invalid_argument("iteration matrix: zero diagonal entry");
    }
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const value_t scaled = tau * vals[k] / d[i];
      if (cols[k] == i) {
        const value_t diag = 1.0 - scaled;
        if (diag != 0.0) coo.add(i, i, diag);
      } else if (scaled != 0.0) {
        coo.add(i, cols[k], -scaled);
      }
    }
  }
  return Csr::from_coo(coo);
}

}  // namespace

Csr jacobi_iteration_matrix(const Csr& a) {
  return iteration_matrix_impl(a, 1.0);
}

Csr scaled_jacobi_iteration_matrix(const Csr& a, value_t tau) {
  return iteration_matrix_impl(a, tau);
}

}  // namespace bars
