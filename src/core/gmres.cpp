#include "core/gmres.hpp"

#include <cmath>
#include <optional>
#include <stdexcept>
#include <vector>

#include "sparse/vector_ops.hpp"

namespace bars {

SolveResult gmres_solve(const Csr& a, const Vector& b,
                        const GmresOptions& opts, const Vector* x0) {
  if (a.rows() != a.cols() ||
      static_cast<index_t>(b.size()) != a.rows()) {
    throw std::invalid_argument("gmres_solve: dimension mismatch");
  }
  if (opts.restart <= 0) {
    throw std::invalid_argument("gmres_solve: restart must be > 0");
  }
  const std::size_t n = b.size();
  const auto m = static_cast<std::size_t>(opts.restart);

  SolveResult res;
  res.x = x0 ? *x0 : Vector(n, 0.0);
  const value_t nb = norm2(b);
  const value_t den = nb > 0.0 ? nb : 1.0;

  SolveRecorder rec(res, opts.solve, "gmres");
  rec.probe().start(a.rows(), a.nnz());

  Vector r(n);
  a.residual(b, res.x, r);
  value_t beta = norm2(r);
  value_t rel = beta / den;
  rec.record(0, rel);

  std::vector<Vector> v;                 // Krylov basis
  std::vector<std::vector<value_t>> h;   // Hessenberg columns
  Vector cs(m, 0.0), sn(m, 0.0), g(m + 1, 0.0);
  Vector w(n);

  // Restart boundaries decide on the true residual; boundary 0 is one.
  std::optional<SolverStatus> stop;
  while (!(stop = rec.rule().verdict(res.iterations, rel))) {
    // Start a cycle from the true residual.
    a.residual(b, res.x, r);
    beta = norm2(r);
    if (beta == 0.0) {
      rel = 0.0;
      stop = SolverStatus::kConverged;
      break;
    }
    v.assign(1, r);
    scale(1.0 / beta, v[0]);
    h.clear();
    std::fill(g.begin(), g.end(), 0.0);
    g[0] = beta;

    std::size_t k = 0;
    for (; k < m; ++k) {
      a.spmv(v[k], w);
      std::vector<value_t> hk(k + 2, 0.0);
      // Modified Gram-Schmidt.
      for (std::size_t i = 0; i <= k; ++i) {
        hk[i] = dot(w, v[i]);
        axpy(-hk[i], v[i], w);
      }
      hk[k + 1] = norm2(w);

      // Apply the accumulated Givens rotations to the new column.
      for (std::size_t i = 0; i < k; ++i) {
        const value_t t = cs[i] * hk[i] + sn[i] * hk[i + 1];
        hk[i + 1] = -sn[i] * hk[i] + cs[i] * hk[i + 1];
        hk[i] = t;
      }
      // New rotation to annihilate hk[k+1].
      const value_t denom =
          std::sqrt(hk[k] * hk[k] + hk[k + 1] * hk[k + 1]);
      if (denom == 0.0) {
        cs[k] = 1.0;
        sn[k] = 0.0;
      } else {
        cs[k] = hk[k] / denom;
        sn[k] = hk[k + 1] / denom;
      }
      hk[k] = cs[k] * hk[k] + sn[k] * hk[k + 1];
      hk[k + 1] = 0.0;
      const value_t g_next = -sn[k] * g[k];
      g[k] = cs[k] * g[k];
      g[k + 1] = g_next;
      h.push_back(std::move(hk));

      ++res.iterations;
      rel = std::abs(g[k + 1]) / den;

      // Inside a cycle the rule sees the Givens estimate; any verdict
      // ends the cycle, and the restart boundary confirms it on the
      // true residual. The cycle's last step is recorded once, after
      // the update below, with that true residual.
      if (k + 1 == m || rec.rule().verdict(res.iterations, rel)) {
        ++k;
        break;
      }
      // Lucky breakdown: exact solution found in this subspace.
      const value_t wnorm = norm2(w);
      if (wnorm == 0.0) {
        ++k;
        break;
      }
      rec.record(res.iterations, rel);
      Vector next = w;
      scale(1.0 / wnorm, next);
      v.push_back(std::move(next));
    }

    // Back-substitute y from the k x k triangular system and update x.
    std::vector<value_t> y(k, 0.0);
    for (std::size_t i = k; i-- > 0;) {
      value_t s = g[i];
      for (std::size_t j = i + 1; j < k; ++j) s -= h[j][i] * y[j];
      y[i] = h[i][i] != 0.0 ? s / h[i][i] : 0.0;
    }
    for (std::size_t i = 0; i < k; ++i) axpy(y[i], v[i], res.x);

    rel = relative_residual(a, b, res.x);
    rec.record(res.iterations, rel);
  }
  rec.finish(*stop, rel);
  return res;
}

}  // namespace bars
