#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include "numlib/blas.h"
#include "numlib/matrix.h"

namespace ninf::numlib {
namespace {

TEST(Blas, Daxpy) {
  const std::vector<double> x = {1, 2, 3};
  std::vector<double> y = {10, 20, 30};
  daxpy(2.0, x, y);
  EXPECT_EQ(y, (std::vector<double>{12, 24, 36}));
}

TEST(Blas, DaxpyUnrolledIsBitIdenticalToTheScalarLoop) {
  // daxpyTerms runs four 16-byte lanes per step, then two-double steps,
  // then a scalar tail.  With 1 to 4 terms, each element must still get
  // exactly one y + alpha * x per term, in term order (one plain loop per
  // term), for every length mod 8 and every start offset, at every tuple
  // of zero alphas of either sign, extreme ones and an ordinary one (two
  // ordinary terms round differently in the other order), and nothing
  // outside the span may change.  daxpy, the one-term case, skips a zero
  // alpha; daxpyTerms applies every term it is given.
  constexpr std::size_t kMaxN = 131;
  constexpr std::size_t kLen = kMaxN + 4;
  std::array<std::vector<double>, kMaxAxpyTerms> xs;
  std::vector<double> ys(kLen);
  for (std::size_t m = 0; m < xs.size(); ++m) {
    xs[m].resize(kLen);
    for (std::size_t i = 0; i < kLen; ++i) {
      xs[m][i] = std::sin(static_cast<double>(i * (m + 1)) + 0.5) * 1e3 /
                 (1.0 + i);
    }
  }
  for (std::size_t i = 0; i < kLen; ++i) {
    ys[i] = std::cos(static_cast<double>(i) * 1.7) * 3.0 - 1e-3 * i;
  }
  const std::array<double, 5> alphas = {-0.0, 0.0, -0.7310585786300049,
                                        1e300, 1e-300};
  std::vector<double> got;
  std::vector<double> want;
  std::vector<AxpyTerm> terms;
  std::size_t tuples = 1;
  for (std::size_t count = 1; count <= kMaxAxpyTerms; ++count) {
    tuples *= alphas.size();
    for (std::size_t tuple = 0; tuple < tuples; ++tuple) {
      for (std::size_t offset = 0; offset < 4; ++offset) {
        for (std::size_t n = 0; n <= kMaxN; ++n) {
          terms.clear();
          for (std::size_t m = 0, code = tuple; m < count;
               ++m, code /= alphas.size()) {
            terms.push_back(
                {alphas[code % alphas.size()],
                 std::span<const double>(xs[m].data() + offset, n)});
          }
          want = ys;
          for (const AxpyTerm& t : terms) {
            for (std::size_t i = 0; i < n; ++i) {
              want[offset + i] += t.alpha * t.x[i];
            }
          }
          got = ys;
          daxpyTerms(terms, std::span<double>(got.data() + offset, n));
          EXPECT_EQ(
              std::memcmp(got.data(), want.data(), kLen * sizeof(double)), 0)
              << "daxpyTerms terms=" << count << " tuple=" << tuple
              << " n=" << n << " offset=" << offset;
          if (count > 1) continue;
          got = ys;
          daxpy(terms[0].alpha, terms[0].x,
                std::span<double>(got.data() + offset, n));
          if (terms[0].alpha == 0.0) want = ys;
          EXPECT_EQ(
              std::memcmp(got.data(), want.data(), kLen * sizeof(double)), 0)
              << "daxpy alpha=" << terms[0].alpha << " n=" << n
              << " offset=" << offset;
        }
      }
    }
  }
}

TEST(Blas, DaxpyZeroAlphaIsNoop) {
  const std::vector<double> x = {1, 2};
  std::vector<double> y = {5, 6};
  daxpy(0.0, x, y);
  EXPECT_EQ(y, (std::vector<double>{5, 6}));
}

TEST(Blas, DaxpyLengthMismatchThrows) {
  const std::vector<double> x = {1};
  std::vector<double> y = {1, 2};
  EXPECT_THROW(daxpy(1.0, x, y), std::logic_error);
  const std::vector<double> x2 = {3, 4};
  const std::vector<AxpyTerm> mismatched = {{1.0, x2}, {1.0, x}};
  EXPECT_THROW(daxpyTerms(mismatched, y), std::logic_error);
  EXPECT_THROW(daxpyTerms({}, y), std::logic_error);
  const std::vector<AxpyTerm> five(kMaxAxpyTerms + 1, AxpyTerm{1.0, x2});
  EXPECT_THROW(daxpyTerms(five, y), std::logic_error);
  EXPECT_EQ(y, (std::vector<double>{1, 2}));
}

TEST(Blas, Ddot) {
  const std::vector<double> x = {1, 2, 3};
  const std::vector<double> y = {4, 5, 6};
  EXPECT_DOUBLE_EQ(ddot(x, y), 32.0);
}

TEST(Blas, Dscal) {
  std::vector<double> x = {1, -2, 3};
  dscal(-2.0, x);
  EXPECT_EQ(x, (std::vector<double>{-2, 4, -6}));
}

TEST(Blas, IdamaxFindsLargestMagnitude) {
  const std::vector<double> x = {1.0, -7.0, 3.0, 6.9};
  EXPECT_EQ(idamax(x), 1u);
  EXPECT_EQ(idamax(std::span<const double>{}), 0u);
}

TEST(Blas, IdamaxFirstOfTies) {
  const std::vector<double> x = {-5.0, 5.0};
  EXPECT_EQ(idamax(x), 0u);
}

TEST(Blas, DgemmAccMatchesNaive) {
  const std::size_t m = 7, n = 5, k = 6;
  Matrix a(m, k), b(k, n), c(m, n), expected(m, n);
  SplitMix64 rng(3);
  for (double& v : a.flat()) v = rng.nextDouble() - 0.5;
  for (double& v : b.flat()) v = rng.nextDouble() - 0.5;
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < m; ++i) {
      double acc = 0;
      for (std::size_t p = 0; p < k; ++p) acc += a(i, p) * b(p, j);
      expected(i, j) = acc;
    }
  }
  dgemmAcc(m, n, k, a.data(), m, b.data(), k, c.data(), m);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_NEAR(c(i, j), expected(i, j), 1e-12);
    }
  }
}

TEST(Blas, DgemmAccNegativeAlphaSubtracts) {
  Matrix a(2, 2), b(2, 2), c(2, 2);
  a(0, 0) = a(1, 1) = 1.0;  // identity
  b(0, 0) = 3.0;
  b(1, 1) = 4.0;
  c(0, 0) = 10.0;
  c(1, 1) = 10.0;
  dgemmAcc(2, 2, 2, a.data(), 2, b.data(), 2, c.data(), 2, -1.0);
  EXPECT_DOUBLE_EQ(c(0, 0), 7.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 6.0);
}

TEST(Blas, DtrsmLowerUnitSolves) {
  // L = [1 0; 2 1]; B = L * X with X = [3; 4] => solve recovers X.
  Matrix l(2, 2);
  l(0, 0) = 1;
  l(1, 0) = 2;
  l(1, 1) = 1;
  std::vector<double> b = {3.0, 2.0 * 3.0 + 4.0};
  dtrsmLowerUnit(2, 1, l.data(), 2, b.data(), 2);
  EXPECT_DOUBLE_EQ(b[0], 3.0);
  EXPECT_DOUBLE_EQ(b[1], 4.0);
}

}  // namespace
}  // namespace ninf::numlib
