#include "numlib/blas.h"

#include <cmath>

#include "common/error.h"

namespace ninf::numlib {

void daxpy(double alpha, std::span<const double> x, std::span<double> y) {
  NINF_REQUIRE(x.size() == y.size(), "daxpy length mismatch");
  if (alpha == 0.0) return;
  // Reference BLAS daxpy.f form: a clean-up loop for n mod 4, then a
  // loop unrolled by 4.  Each element still gets exactly one
  // y + alpha * x, so results are bit-identical to the plain loop.  The
  // plain loop's speed hinged on its code alignment: moved by 16 bytes
  // it made LINPACK's factorization up to 1.8x slower, while this form
  // runs at the same speed at every offset.
  const std::size_t n = x.size();
  const double* xp = x.data();
  double* yp = y.data();
  const std::size_t m = n % 4;
  for (std::size_t i = 0; i < m; ++i) yp[i] += alpha * xp[i];
  for (std::size_t i = m; i < n; i += 4) {
    yp[i] += alpha * xp[i];
    yp[i + 1] += alpha * xp[i + 1];
    yp[i + 2] += alpha * xp[i + 2];
    yp[i + 3] += alpha * xp[i + 3];
  }
}

double ddot(std::span<const double> x, std::span<const double> y) {
  NINF_REQUIRE(x.size() == y.size(), "ddot length mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) acc += x[i] * y[i];
  return acc;
}

void dscal(double alpha, std::span<double> x) {
  for (double& v : x) v *= alpha;
}

std::size_t idamax(std::span<const double> x) {
  std::size_t best = 0;
  double best_abs = -1.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double a = std::abs(x[i]);
    if (a > best_abs) {
      best_abs = a;
      best = i;
    }
  }
  return best;
}

void dgemmAcc(std::size_t m, std::size_t n, std::size_t k, const double* a,
              std::size_t lda, const double* b, std::size_t ldb, double* c,
              std::size_t ldc, double alpha) {
  // jki ordering: stream down columns of C and A (both column-major).
  // Each column update is a daxpy: its unrolled form runs at the same
  // speed at every code offset, so dmmul and the LU update keep their
  // speed when unrelated code growth moves them.
  for (std::size_t j = 0; j < n; ++j) {
    double* cj = c + j * ldc;
    for (std::size_t p = 0; p < k; ++p) {
      const double bpj = alpha * b[p + j * ldb];
      if (bpj == 0.0) continue;
      daxpy(bpj, std::span<const double>(a + p * lda, m),
            std::span<double>(cj, m));
    }
  }
}

void dtrsmLowerUnit(std::size_t m, std::size_t n, const double* l,
                    std::size_t lda, double* b, std::size_t ldb) {
  // Forward substitution, column by column of B.
  for (std::size_t j = 0; j < n; ++j) {
    double* bj = b + j * ldb;
    for (std::size_t p = 0; p < m; ++p) {
      const double bp = bj[p];
      if (bp == 0.0) continue;
      const double* lp = l + p * lda;
      for (std::size_t i = p + 1; i < m; ++i) bj[i] -= bp * lp[i];
    }
  }
}

}  // namespace ninf::numlib
