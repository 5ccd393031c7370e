#include "numlib/lu.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.h"
#include "common/thread_pool.h"
#include "numlib/blas.h"

namespace ninf::numlib {

namespace {

[[noreturn]] void singular(std::size_t k) {
  throw Error("matrix is singular at column " + std::to_string(k));
}

/// Unblocked panel factorization of the m x n submatrix starting at
/// (offset, offset) of a column-major array with leading dimension lda.
/// Records pivots relative to the full matrix.  Row swaps are applied to
/// the panel columns only; callers swap the rest.
void panelFactor(double* a, std::size_t lda, std::size_t offset, std::size_t m,
                 std::size_t n, PivotVector& ipvt) {
  for (std::size_t k = 0; k < n; ++k) {
    double* colk = a + (offset + k) * lda + offset;
    // Pivot search in column k, rows k..m-1 of the panel.
    std::size_t p = k + idamax({colk + k, m - k});
    ipvt[offset + k] = offset + p;
    if (colk[p] == 0.0) singular(offset + k);
    // Swap rows k and p within the panel columns.
    if (p != k) {
      for (std::size_t j = 0; j < n; ++j) {
        double* colj = a + (offset + j) * lda + offset;
        std::swap(colj[k], colj[p]);
      }
    }
    // Scale multipliers and update the remaining panel columns.
    const double pivot = colk[k];
    for (std::size_t i = k + 1; i < m; ++i) colk[i] /= pivot;
    for (std::size_t j = k + 1; j < n; ++j) {
      double* colj = a + (offset + j) * lda + offset;
      daxpy(-colj[k], {colk + k + 1, m - k - 1}, {colj + k + 1, m - k - 1});
    }
  }
}

/// Apply the row interchanges recorded for panel columns [offset,
/// offset+nb) to columns [col_begin, col_end).
void applyPivots(double* a, std::size_t lda, std::size_t offset,
                 std::size_t nb, std::size_t col_begin, std::size_t col_end,
                 const PivotVector& ipvt) {
  for (std::size_t k = offset; k < offset + nb; ++k) {
    const std::size_t p = ipvt[k];
    if (p == k) continue;
    for (std::size_t j = col_begin; j < col_end; ++j) {
      std::swap(a[k + j * lda], a[p + j * lda]);
    }
  }
}

PivotVector luBlockedImpl(Matrix& a, std::size_t nb, std::size_t workers) {
  NINF_REQUIRE(a.rows() == a.cols(), "LU requires a square matrix");
  NINF_REQUIRE(nb > 0, "block size must be positive");
  const std::size_t n = a.rows();
  PivotVector ipvt(n);
  if (n == 0) return ipvt;
  double* data = a.data();
  const std::size_t lda = n;

  for (std::size_t k = 0; k < n; k += nb) {
    const std::size_t b = std::min(nb, n - k);
    // 1. Factor the panel A[k:n, k:k+b].
    panelFactor(data, lda, k, n - k, b, ipvt);
    // 2. Apply its pivots to the columns left and right of the panel.
    applyPivots(data, lda, k, b, 0, k, ipvt);
    applyPivots(data, lda, k, b, k + b, n, ipvt);
    if (k + b >= n) break;
    // 3. U-panel: solve L11 * U12 = A12.
    const std::size_t trailing = n - k - b;
    double* a12 = data + (k + b) * lda + k;
    dtrsmLowerUnit(b, trailing, data + k * lda + k, lda, a12, lda);
    // 4. Trailing update: A22 -= L21 * U12, parallel over column strips.
    double* l21 = data + k * lda + (k + b);
    double* a22 = data + (k + b) * lda + (k + b);
    const std::size_t rows22 = n - k - b;
    if (workers <= 1 || trailing < 2 * nb) {
      dgemmAcc(rows22, trailing, b, l21, lda, a12, lda, a22, lda, -1.0);
    } else {
      const std::size_t strips = std::min(workers * 2, trailing);
      const std::size_t strip =
          (trailing + strips - 1) / strips;
      parallelFor(strips, workers, [&](std::size_t s) {
        const std::size_t j0 = s * strip;
        if (j0 >= trailing) return;
        const std::size_t jn = std::min(trailing, j0 + strip) - j0;
        dgemmAcc(rows22, jn, b, l21, lda, a12 + j0 * lda, lda,
                 a22 + j0 * lda, lda, -1.0);
      });
    }
  }
  return ipvt;
}

}  // namespace

PivotVector dgefa(Matrix& a) {
  NINF_REQUIRE(a.rows() == a.cols(), "dgefa requires a square matrix");
  const std::size_t n = a.rows();
  PivotVector ipvt(n);
  if (n == 0) return ipvt;
  // Steps run in blocks of kBlock.  Within a block, each step updates
  // only the block's own later columns; every column after the block
  // then takes the block's steps in one pass over its trailing rows.
  // Every element still gets the same multiplies and adds in the same
  // step order, so the factors are bit-identical to one daxpy per column
  // per step.  The swaps may all go first: step r's swap touches only
  // rows >= k + r, which earlier steps update elementwise, and it swaps
  // the stored multiplier columns the same way.
  constexpr std::size_t kBlock = kMaxAxpyTerms;
  for (std::size_t k = 0; k + 1 < n; k += kBlock) {
    const std::size_t end = std::min(k + kBlock, n - 1);  // steps k..end-1
    for (std::size_t s = k; s < end; ++s) {
      auto cols = a.col(s);
      const std::size_t p = s + idamax(cols.subspan(s));
      ipvt[s] = p;
      if (cols[p] == 0.0) singular(s);
      // Full row interchange (LAPACK storage convention: L and U are the
      // true factors of P*A, so the solve applies P to b up front).  The
      // original LINPACK dgefa left columns < k unswapped and compensated
      // in dgesl; the blocked factorizations need the LAPACK convention,
      // so every variant uses it for interchangeable pivot vectors.
      // Columns 0..s swap here; each later column swaps just before its
      // update, as in LINPACK's dgefa (after the block, in its fused
      // pass), so the pass over it runs once.
      if (p != s) {
        for (std::size_t j = 0; j <= s; ++j) std::swap(a(s, j), a(p, j));
      }
      dscal(1.0 / cols[s], cols.subspan(s + 1));
      for (std::size_t j = s + 1; j < end; ++j) {
        auto colj = a.col(j);
        std::swap(colj[s], colj[p]);  // a no-op when p == s
        daxpy(-colj[s], cols.subspan(s + 1), colj.subspan(s + 1));
      }
    }
    // Each later column: the block's swaps, the triangle of updates to
    // rows k..end-1, then one kernel pass over rows end.. that applies
    // every nonzero multiplier, in step order (daxpy skips a zero one).
    for (std::size_t j = end; j < n; ++j) {
      auto colj = a.col(j);
      for (std::size_t s = k; s < end; ++s) std::swap(colj[s], colj[ipvt[s]]);
      std::array<AxpyTerm, kBlock> terms{};
      std::size_t m = 0;
      for (std::size_t s = k; s < end; ++s) {
        const double t = colj[s];
        if (t == 0.0) continue;
        const auto l = a.col(s);
        daxpy(-t, l.subspan(s + 1, end - s - 1),
              colj.subspan(s + 1, end - s - 1));
        terms[m++] = {-t, l.subspan(end)};
      }
      if (m > 0) daxpyTerms({terms.data(), m}, colj.subspan(end));
    }
  }
  ipvt[n - 1] = n - 1;
  if (a(n - 1, n - 1) == 0.0) singular(n - 1);
  return ipvt;
}

void dgesl(const Matrix& a, const PivotVector& ipvt, std::span<double> b) {
  const std::size_t n = a.rows();
  NINF_REQUIRE(ipvt.size() == n && b.size() == n, "dgesl size mismatch");
  // Apply the row interchanges: b := P b.
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t p = ipvt[k];
    if (p != k) std::swap(b[k], b[p]);
  }
  // Forward: solve L y = P b (L unit lower triangular).
  for (std::size_t k = 0; k + 1 < n; ++k) {
    daxpy(-b[k], a.col(k).subspan(k + 1), b.subspan(k + 1));
  }
  // Backward: solve U x = y.
  for (std::size_t k = n; k-- > 0;) {
    b[k] /= a(k, k);
    daxpy(-b[k], a.col(k).first(k), b.first(k));
  }
}

double dgeco(Matrix& a, PivotVector& ipvt) {
  NINF_REQUIRE(a.rows() == a.cols(), "dgeco requires a square matrix");
  const std::size_t n = a.rows();
  if (n == 0) {
    ipvt.clear();
    return 1.0;
  }
  // ||A||_1 before factoring.
  double anorm = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    double col_sum = 0.0;
    for (const double v : a.col(j)) col_sum += std::abs(v);
    anorm = std::max(anorm, col_sum);
  }

  ipvt = dgefa(a);

  // Estimate ||A^-1||_1 via one inverse-power-ish step: solve A^T y = e
  // with e chosen to grow y (the LINPACK heuristic simplified to a
  // forward solve with adaptive signs), then z = A^-1 y via dgesl.
  // Solve U^T w = e, growing w.
  std::vector<double> w(n, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    const double sum =
        ddot(a.col(k).first(k), std::span<const double>(w).first(k));
    // Choose e_k = ±1 to maximize |w_k| (the LINPACK growth heuristic).
    const double ek = sum >= 0 ? -1.0 : 1.0;
    const double diag = a(k, k);
    if (diag == 0.0) return 0.0;  // exactly singular
    w[k] = (ek - sum) / diag;
  }
  // Solve L^T v = w (L unit lower): back substitution over rows.
  std::vector<double> v = w;
  for (std::size_t k = n; k-- > 0;) {
    for (std::size_t i = k + 1; i < n; ++i) v[k] -= a(i, k) * v[i];
  }
  // Apply P^T and normalize: y.
  for (std::size_t k = n; k-- > 0;) {
    const std::size_t p = ipvt[k];
    if (p != k) std::swap(v[k], v[p]);
  }
  double ynorm = 0.0;
  for (const double x : v) ynorm += std::abs(x);
  if (ynorm == 0.0) return 0.0;
  for (double& x : v) x /= ynorm;
  // z = A^-1 y through the factors; ||z||_1 estimates ||A^-1||_1.
  dgesl(a, ipvt, v);
  double znorm = 0.0;
  for (const double x : v) znorm += std::abs(x);

  if (anorm == 0.0) return 0.0;
  const double rcond = 1.0 / (anorm * std::max(znorm, 1e-300));
  return std::min(rcond, 1.0);
}

PivotVector luBlocked(Matrix& a, std::size_t nb) {
  return luBlockedImpl(a, nb, /*workers=*/1);
}

PivotVector luParallel(Matrix& a, std::size_t workers, std::size_t nb) {
  NINF_REQUIRE(workers >= 1, "need at least one worker");
  return luBlockedImpl(a, nb, workers);
}

void luSolve(Matrix& a, std::span<double> b, LuVariant variant,
             std::size_t workers) {
  PivotVector ipvt;
  switch (variant) {
    case LuVariant::Reference: ipvt = dgefa(a); break;
    case LuVariant::Blocked: ipvt = luBlocked(a); break;
    case LuVariant::Parallel: ipvt = luParallel(a, workers); break;
  }
  dgesl(a, ipvt, b);
}

}  // namespace ninf::numlib
