#include "numlib/blas.h"

#include <cmath>
#include <cstring>

#include "common/error.h"

namespace ninf::numlib {

void daxpy(double alpha, std::span<const double> x, std::span<double> y) {
  NINF_REQUIRE(x.size() == y.size(), "daxpy length mismatch");
  if (alpha == 0.0) return;
  // Two 16-byte lanes per step, then a scalar tail.  Each element still
  // gets exactly one y + alpha * x, a separate IEEE multiply and add, so
  // results are bit-identical to the plain loop.  x86-64's baseline SSE2
  // carries the vector type; other targets lower it themselves.  Loads
  // and stores go through memcpy: they assume no alignment and break no
  // aliasing rule.
  using V2 = double __attribute__((vector_size(16)));
  const auto load = [](const double* p) {
    V2 v;
    std::memcpy(&v, p, sizeof v);
    return v;
  };
  const V2 a = {alpha, alpha};
  const std::size_t n = x.size();
  const double* xp = x.data();
  double* yp = y.data();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const V2 lo = load(yp + i) + a * load(xp + i);
    const V2 hi = load(yp + i + 2) + a * load(xp + i + 2);
    std::memcpy(yp + i, &lo, sizeof lo);
    std::memcpy(yp + i + 2, &hi, sizeof hi);
  }
  for (; i < n; ++i) yp[i] += alpha * xp[i];
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
  // Each column update is a daxpy, the one kernel every column update in
  // numlib runs.
  for (std::size_t j = 0; j < n; ++j) {
    double* cj = c + j * ldc;
    for (std::size_t p = 0; p < k; ++p) {
      daxpy(alpha * b[p + j * ldb], std::span<const double>(a + p * lda, m),
            std::span<double>(cj, m));
    }
  }
}

void dtrsmLowerUnit(std::size_t m, std::size_t n, const double* l,
                    std::size_t lda, double* b, std::size_t ldb) {
  // Forward substitution, column by column of B.
  for (std::size_t j = 0; j < n; ++j) {
    double* bj = b + j * ldb;
    for (std::size_t p = 0; p + 1 < m; ++p) {
      daxpy(-bj[p], std::span<const double>(l + p * lda + p + 1, m - p - 1),
            std::span<double>(bj + p + 1, m - p - 1));
    }
  }
}

}  // namespace ninf::numlib
