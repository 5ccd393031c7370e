#include "numlib/blas.h"

#include <array>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/error.h"

namespace ninf::numlib {

namespace {

// Vector form of the kernel.  x86-64's baseline SSE2 carries the vector
// type; other targets lower it themselves.  Loads and stores go through
// memcpy: they assume no alignment and break no aliasing rule.
using V2 = double __attribute__((vector_size(16)));

V2 load(const double* p) {
  V2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store(double* p, V2 v) { std::memcpy(p, &v, sizeof v); }

/// daxpyTerms for the terms Ms..., expanded at compile time so every
/// alpha stays in a register.  Four 16-byte lanes per step, then
/// two-double steps, then a scalar tail; each element gets v + alpha * x,
/// a separate IEEE multiply and add, term by term (a comma fold runs
/// left to right).  Always inlined: daxpy runs once per column in
/// dgemmAcc, dtrsmLowerUnit, the panel and dgesl, and an out-of-line
/// kernel under it read BM_Dmmul/64 up to 17% slower.
template <std::size_t... Ms>
[[gnu::always_inline]] inline void axpyTerms(std::index_sequence<Ms...>,
                                             const AxpyTerm* terms, double* y,
                                             std::size_t n) {
  const std::array<const double*, sizeof...(Ms)> x = {terms[Ms].x.data()...};
  const std::array<double, sizeof...(Ms)> alpha = {terms[Ms].alpha...};
  const std::array<V2, sizeof...(Ms)> a = {V2{alpha[Ms], alpha[Ms]}...};
  const auto lane = [&](std::size_t i) {
    V2 v = load(y + i);
    ((v = v + a[Ms] * load(x[Ms] + i)), ...);
    return v;
  };
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const V2 v0 = lane(i);
    const V2 v1 = lane(i + 2);
    const V2 v2 = lane(i + 4);
    const V2 v3 = lane(i + 6);
    store(y + i, v0);
    store(y + i + 2, v1);
    store(y + i + 4, v2);
    store(y + i + 6, v3);
  }
  for (; i + 2 <= n; i += 2) store(y + i, lane(i));
  for (; i < n; ++i) {
    double v = y[i];
    ((v = v + alpha[Ms] * x[Ms][i]), ...);
    y[i] = v;
  }
}

}  // namespace

void daxpyTerms(std::span<const AxpyTerm> terms, std::span<double> y) {
  NINF_REQUIRE(!terms.empty() && terms.size() <= kMaxAxpyTerms,
               "daxpyTerms takes 1 to 4 terms");
  for (const AxpyTerm& t : terms) {
    NINF_REQUIRE(t.x.size() == y.size(), "daxpyTerms length mismatch");
  }
  static_assert(kMaxAxpyTerms == 4, "one case per term count");
  const auto run = [&](auto terms_seq) {
    axpyTerms(terms_seq, terms.data(), y.data(), y.size());
  };
  switch (terms.size()) {
    case 1: run(std::make_index_sequence<1>()); break;
    case 2: run(std::make_index_sequence<2>()); break;
    case 3: run(std::make_index_sequence<3>()); break;
    default: run(std::make_index_sequence<4>()); break;
  }
}

void daxpy(double alpha, std::span<const double> x, std::span<double> y) {
  NINF_REQUIRE(x.size() == y.size(), "daxpy length mismatch");
  if (alpha == 0.0) return;
  // The kernel's one-term case, entered past daxpyTerms's term checks.
  const AxpyTerm term{alpha, x};
  axpyTerms(std::make_index_sequence<1>(), &term, y.data(), y.size());
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
  // Each column update is a daxpy, daxpyTerms's one-term case.
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
