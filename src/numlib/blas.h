// Level-1/3 BLAS kernels used by the LU factorizations.
// Signatures follow the reference BLAS but take spans; strides are always 1
// because our matrices are column-contiguous.
#pragma once

#include <cstddef>
#include <span>

namespace ninf::numlib {

/// One term of daxpyTerms: alpha * x.
struct AxpyTerm {
  double alpha = 0.0;
  std::span<const double> x;
};

/// The most terms one daxpyTerms call takes: with four, each step's
/// eight y elements, four broadcast alphas and the loaded x lanes fit
/// x86-64's 16 SSE registers.
inline constexpr std::size_t kMaxAxpyTerms = 4;

/// y += alpha_1 * x_1 + ... + alpha_m * x_m, the one column-update
/// kernel of numlib.  Each element gets, term by term in the order
/// given, one multiply and one add (v = v + alpha_t * x_t[i]), so the
/// result is bit-identical to one daxpy per term in that order; one
/// pass over y replaces m.  Takes 1 to kMaxAxpyTerms terms, each x as
/// long as y.  Every term given is applied: a caller that wants
/// daxpy's zero skip leaves zero alphas out.  No x may overlap y: a
/// step loads its elements before it stores them.
void daxpyTerms(std::span<const AxpyTerm> terms, std::span<double> y);

/// y += alpha * x: daxpyTerms with one term, in element order; returns
/// at once when alpha == 0.  x and y must not overlap.
void daxpy(double alpha, std::span<const double> x, std::span<double> y);

/// dot(x, y).
double ddot(std::span<const double> x, std::span<const double> y);

/// x *= alpha.
void dscal(double alpha, std::span<double> x);

/// Index of the element of largest magnitude; 0 for empty input.
std::size_t idamax(std::span<const double> x);

/// C(mxn) += alpha * A(mxk) * B(kxn), all column-major with leading
/// dimensions lda/ldb/ldc.  A jki loop of daxpy calls, one per column of
/// A and of C; this is the workhorse of dmmul and of the blocked
/// ("optimized library") LU path.  C must not overlap A.
void dgemmAcc(std::size_t m, std::size_t n, std::size_t k, const double* a,
              std::size_t lda, const double* b, std::size_t ldb, double* c,
              std::size_t ldc, double alpha = 1.0);

/// Solve L * X = B for X in place, where L is unit lower triangular
/// (m x m, column-major, lda) and B is m x n (ldb).  Used for the U-panel
/// update in blocked LU.  B must not overlap L.
void dtrsmLowerUnit(std::size_t m, std::size_t n, const double* l,
                    std::size_t lda, double* b, std::size_t ldb);

}  // namespace ninf::numlib
