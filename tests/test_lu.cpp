// LU factorizations: the three library variants of the paper (reference
// dgefa/dgesl, blocked, data-parallel) must all solve to LINPACK accuracy
// and agree with each other.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <tuple>
#include <utility>

#include "common/error.h"
#include "numlib/linpack_driver.h"
#include "numlib/lu.h"
#include "numlib/matrix.h"

namespace ninf::numlib {
namespace {

std::vector<double> solveWith(LuVariant variant, std::size_t n,
                              std::uint64_t seed, std::size_t workers = 4) {
  Matrix a = randomMatrix(n, seed);
  std::vector<double> b = onesRhs(a);
  luSolve(a, b, variant, workers);
  return b;
}

TEST(Lu, Dgefa2x2KnownSolution) {
  Matrix a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  std::vector<double> b = {5.0, 10.0};  // x = (1, 3)
  luSolve(a, b, LuVariant::Reference);
  EXPECT_NEAR(b[0], 1.0, 1e-12);
  EXPECT_NEAR(b[1], 3.0, 1e-12);
}

TEST(Lu, DgefaPivotsOnZeroDiagonal) {
  Matrix a(2, 2);
  a(0, 0) = 0;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 0;
  std::vector<double> b = {2.0, 3.0};  // x = (3, 2) after the swap
  luSolve(a, b, LuVariant::Reference);
  EXPECT_NEAR(b[0], 3.0, 1e-12);
  EXPECT_NEAR(b[1], 2.0, 1e-12);
}

TEST(Lu, SingularMatrixThrows) {
  Matrix a(2, 2);  // all zeros
  EXPECT_THROW(dgefa(a), Error);
  Matrix b(3, 3);
  b(0, 0) = 1;
  b(1, 1) = 1;  // third column all zero
  EXPECT_THROW(dgefa(b), Error);
}

TEST(Lu, NonSquareRejected) {
  Matrix a(2, 3);
  EXPECT_THROW(dgefa(a), std::logic_error);
}

TEST(Lu, EmptyMatrixIsFine) {
  Matrix a(0, 0);
  EXPECT_TRUE(dgefa(a).empty());
}

TEST(Lu, OneByOne) {
  Matrix a(1, 1);
  a(0, 0) = 4.0;
  std::vector<double> b = {8.0};
  luSolve(a, b, LuVariant::Reference);
  EXPECT_DOUBLE_EQ(b[0], 2.0);
}

TEST(Lu, VariantsAgreeOnSolution) {
  // All three variants perform the same pivoting, so the solutions agree
  // to rounding noise; the blocked panel divides by the pivot where the
  // reference scales by its reciprocal, so not bit for bit
  // (VariantsMatchTheirPlainLoopsBitForBit pins bit identity).
  const auto ref = solveWith(LuVariant::Reference, 96, 7);
  const auto blk = solveWith(LuVariant::Blocked, 96, 7);
  const auto par = solveWith(LuVariant::Parallel, 96, 7);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(blk[i], ref[i], 1e-8);
    EXPECT_NEAR(par[i], ref[i], 1e-8);
  }
}

TEST(Lu, BlockedHandlesSizeNotMultipleOfBlock) {
  Matrix a = randomMatrix(37, 11);
  const Matrix original = a;
  std::vector<double> b = onesRhs(a);
  const std::vector<double> rhs = b;
  const auto ipvt = luBlocked(a, 8);
  dgesl(a, ipvt, b);
  EXPECT_LT(linpackResidual(original, b, rhs), kResidualThreshold);
}

TEST(Lu, BlockSizeLargerThanMatrix) {
  Matrix a = randomMatrix(5, 13);
  const Matrix original = a;
  std::vector<double> b = onesRhs(a);
  const std::vector<double> rhs = b;
  const auto ipvt = luBlocked(a, 64);
  dgesl(a, ipvt, b);
  EXPECT_LT(linpackResidual(original, b, rhs), kResidualThreshold);
}

// The factorizations written as plain scalar loops, the oracle for the
// kernels: the same pivots and, on every element, the same operations in
// the same order.  Each column update is y -= t * x, skipped when t is 0
// (as the reference BLAS daxpy returns at alpha == 0).
void plainColumnUpdate(double t, const double* x, double* y, std::size_t len) {
  if (t == 0.0) return;
  for (std::size_t i = 0; i < len; ++i) y[i] -= t * x[i];
}

std::size_t plainArgmax(const Matrix& a, std::size_t col, std::size_t from) {
  std::size_t p = from;
  for (std::size_t i = from + 1; i < a.rows(); ++i) {
    if (std::abs(a(i, col)) > std::abs(a(p, col))) p = i;
  }
  return p;
}

void plainSwapRows(Matrix& a, std::size_t k, std::size_t p,
                   std::size_t col_begin, std::size_t col_end) {
  for (std::size_t j = col_begin; j < col_end; ++j) {
    std::swap(a(k, j), a(p, j));
  }
}

PivotVector plainDgefa(Matrix& a) {
  const std::size_t n = a.rows();
  PivotVector ipvt(n);
  for (std::size_t k = 0; k + 1 < n; ++k) {
    const std::size_t p = plainArgmax(a, k, k);
    ipvt[k] = p;
    plainSwapRows(a, k, p, 0, n);
    const double scale = 1.0 / a(k, k);
    for (std::size_t i = k + 1; i < n; ++i) a(i, k) *= scale;
    for (std::size_t j = k + 1; j < n; ++j) {
      plainColumnUpdate(a(k, j), &a(k + 1, k), &a(k + 1, j), n - k - 1);
    }
  }
  if (n > 0) ipvt[n - 1] = n - 1;
  return ipvt;
}

PivotVector plainBlocked(Matrix& a, std::size_t nb) {
  const std::size_t n = a.rows();
  PivotVector ipvt(n);
  for (std::size_t k = 0; k < n; k += nb) {
    const std::size_t end = std::min(n, k + nb);
    for (std::size_t kk = k; kk < end; ++kk) {
      const std::size_t p = plainArgmax(a, kk, kk);
      ipvt[kk] = p;
      plainSwapRows(a, kk, p, k, end);
      const double pivot = a(kk, kk);
      for (std::size_t i = kk + 1; i < n; ++i) a(i, kk) /= pivot;
      for (std::size_t j = kk + 1; j < end; ++j) {
        plainColumnUpdate(a(kk, j), &a(kk + 1, kk), &a(kk + 1, j),
                          n - kk - 1);
      }
    }
    for (std::size_t kk = k; kk < end; ++kk) {
      plainSwapRows(a, kk, ipvt[kk], 0, k);
      plainSwapRows(a, kk, ipvt[kk], end, n);
    }
    // U12 by forward substitution, then A22 -= L21 * U12.
    for (std::size_t j = end; j < n; ++j) {
      for (std::size_t p = k; p + 1 < end; ++p) {
        plainColumnUpdate(a(p, j), &a(p + 1, p), &a(p + 1, j), end - p - 1);
      }
      for (std::size_t p = k; p < end; ++p) {
        plainColumnUpdate(a(p, j), &a(end, p), &a(end, j), n - end);
      }
    }
  }
  return ipvt;
}

void plainDgesl(const Matrix& a, const PivotVector& ipvt,
                std::vector<double>& b) {
  const std::size_t n = a.rows();
  for (std::size_t k = 0; k < n; ++k) std::swap(b[k], b[ipvt[k]]);
  for (std::size_t k = 0; k + 1 < n; ++k) {
    plainColumnUpdate(b[k], a.col(k).data() + k + 1, &b[k + 1], n - k - 1);
  }
  for (std::size_t k = n; k-- > 0;) {
    b[k] /= a(k, k);
    plainColumnUpdate(b[k], a.col(k).data(), b.data(), k);
  }
}

bool sameBits(std::span<const double> x, std::span<const double> y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

/// Dense 3x3 blocks of positive entries on the diagonal (the last one
/// smaller when 3 does not divide n) and -0.0 everywhere else:
/// nonsingular, and every step meets zero multipliers.  A skipped update
/// keeps a -0.0 entry's sign; an applied one, -0.0 + 0.0 * l with l > 0
/// (each block's first multipliers are), turns it into +0.0.
Matrix blockDiagonal(std::size_t n, std::uint64_t seed) {
  Matrix a = randomMatrix(n, seed);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      a(i, j) = i / 3 == j / 3 ? std::abs(a(i, j)) : -0.0;
    }
  }
  return a;
}

TEST(Lu, VariantsMatchTheirPlainLoopsBitForBit) {
  // Every variant, factor and solve, against its plain-loop oracle:
  // identical factors, pivots and solution, down to the last bit.  The
  // dense random matrices never produce a zero multiplier; the
  // block-diagonal ones produce them inside every block of steps.
  for (const std::size_t n : {1, 2, 3, 5, 17, 64, 127, 350}) {
    const std::pair<const char*, Matrix> inputs[] = {
        {"dense", randomMatrix(n, 500 + n)},
        {"block-diagonal", blockDiagonal(n, 900 + n)}};
    for (const auto& entry : inputs) {
      const char* input = entry.first;
      const Matrix& original = entry.second;
      const std::vector<double> rhs = onesRhs(original);
      const auto check = [&](const char* variant, auto factor, auto oracle) {
        Matrix got = original;
        Matrix want = original;
        std::vector<double> x = rhs;
        std::vector<double> x_want = rhs;
        const PivotVector ipvt = factor(got);
        const PivotVector ipvt_want = oracle(want);
        dgesl(got, ipvt, x);
        plainDgesl(want, ipvt_want, x_want);
        EXPECT_EQ(ipvt, ipvt_want) << variant << ' ' << input << " n=" << n;
        EXPECT_TRUE(sameBits(got.flat(), want.flat()))
            << variant << ' ' << input << " n=" << n;
        EXPECT_TRUE(sameBits(x, x_want))
            << variant << ' ' << input << " n=" << n;
      };
      check("dgefa", [](Matrix& m) { return dgefa(m); }, plainDgefa);
      for (const std::size_t nb : {8, 64}) {
        check(
            "luBlocked", [nb](Matrix& m) { return luBlocked(m, nb); },
            [nb](Matrix& m) { return plainBlocked(m, nb); });
      }
      // The strips split the trailing update by columns: each column gets
      // the same operations as in the one-thread blocked path.
      check(
          "luParallel", [](Matrix& m) { return luParallel(m, 4); },
          [](Matrix& m) { return plainBlocked(m, 32); });
    }
  }
}

class LuResidualTest
    : public ::testing::TestWithParam<std::tuple<LuVariant, std::size_t>> {};

TEST_P(LuResidualTest, SolvesToLinpackAccuracy) {
  const auto [variant, n] = GetParam();
  Matrix a = randomMatrix(n, 1000 + n);
  const Matrix original = a;
  std::vector<double> b = onesRhs(a);
  const std::vector<double> rhs = b;
  luSolve(a, b, variant, 4);
  const double resid = linpackResidual(original, b, rhs);
  EXPECT_LT(resid, kResidualThreshold) << "n=" << n;
  // The generated system has solution all-ones.
  for (double x : b) EXPECT_NEAR(x, 1.0, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LuResidualTest,
    ::testing::Combine(::testing::Values(LuVariant::Reference,
                                         LuVariant::Blocked,
                                         LuVariant::Parallel),
                       ::testing::Values<std::size_t>(1, 2, 3, 8, 17, 33, 64,
                                                      100, 200)));

TEST(Dgeco, WellConditionedMatrixHasLargeRcond) {
  // Identity: condition number 1, rcond == 1.
  Matrix eye(8, 8);
  for (std::size_t i = 0; i < 8; ++i) eye(i, i) = 1.0;
  PivotVector ipvt;
  EXPECT_NEAR(dgeco(eye, ipvt), 1.0, 1e-12);
}

TEST(Dgeco, ScalingInvariance) {
  // rcond depends on conditioning, not scale: 1000*I is as good as I.
  Matrix a(6, 6);
  for (std::size_t i = 0; i < 6; ++i) a(i, i) = 1000.0;
  PivotVector ipvt;
  EXPECT_NEAR(dgeco(a, ipvt), 1.0, 1e-12);
}

TEST(Dgeco, IllConditionedMatrixHasSmallRcond) {
  // Diagonal with a 1e-10 spread: condition number ~1e10.
  Matrix a(4, 4);
  a(0, 0) = 1.0;
  a(1, 1) = 1.0;
  a(2, 2) = 1.0;
  a(3, 3) = 1e-10;
  PivotVector ipvt;
  const double rcond = dgeco(a, ipvt);
  EXPECT_LT(rcond, 1e-8);
  EXPECT_GT(rcond, 1e-12);
}

TEST(Dgeco, OrderingDiscriminatesConditioning) {
  // A random matrix is far better conditioned than a nearly singular one.
  Matrix good = randomMatrix(24, 5);
  Matrix bad = randomMatrix(24, 5);
  // Make two rows of `bad` nearly identical.
  for (std::size_t j = 0; j < 24; ++j) {
    bad(1, j) = bad(0, j) * (1.0 + 1e-12);
  }
  PivotVector ipvt;
  const double rcond_good = dgeco(good, ipvt);
  const double rcond_bad = dgeco(bad, ipvt);
  EXPECT_GT(rcond_good, rcond_bad * 1e3);
}

TEST(Dgeco, FactorsRemainUsableWithDgesl) {
  Matrix a = randomMatrix(16, 9);
  const Matrix original = a;
  std::vector<double> b = onesRhs(a);
  PivotVector ipvt;
  const double rcond = dgeco(a, ipvt);
  EXPECT_GT(rcond, 0.0);
  dgesl(a, ipvt, b);
  for (double xi : b) EXPECT_NEAR(xi, 1.0, 1e-6);
}

TEST(Dgeco, SingularReturnsZero) {
  Matrix a(3, 3);
  a(0, 0) = 1.0;
  a(1, 1) = 1.0;  // third column/row zero -> dgefa throws... use try
  PivotVector ipvt;
  try {
    const double rcond = dgeco(a, ipvt);
    EXPECT_EQ(rcond, 0.0);
  } catch (const Error&) {
    SUCCEED();  // exact singularity may surface from dgefa instead
  }
}

TEST(LinpackDriver, ReportsPassingRun) {
  const LinpackReport report = runLinpack(64, LuVariant::Blocked);
  EXPECT_TRUE(report.passed);
  EXPECT_GT(report.mflops, 0.0);
  EXPECT_LT(report.residual, kResidualThreshold);
  EXPECT_EQ(report.n, 64u);
}

TEST(LinpackDriver, ParallelVariantUsesWorkers) {
  const LinpackReport report = runLinpack(200, LuVariant::Parallel, 4);
  EXPECT_TRUE(report.passed);
}

}  // namespace
}  // namespace ninf::numlib
