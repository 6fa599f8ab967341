// Eigen.*: sanity checks of the cyclic-Jacobi oracle itself.
// EigenLambda2.*: the production f14 solver against that oracle.
#include "haralick/eigen.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "oracle/jacobi_eigen.hpp"

namespace h4d::haralick {
namespace {

using oracle::jacobi_eigenvalues;

TEST(Eigen, EmptyAndScalar) {
  EXPECT_TRUE(jacobi_eigenvalues({}, 0).empty());
  const auto e = jacobi_eigenvalues({4.0}, 1);
  ASSERT_EQ(e.size(), 1u);
  EXPECT_DOUBLE_EQ(e[0], 4.0);
}

TEST(Eigen, DiagonalMatrix) {
  const auto e = jacobi_eigenvalues({3, 0, 0, 0, 1, 0, 0, 0, 2}, 3);
  ASSERT_EQ(e.size(), 3u);
  EXPECT_NEAR(e[0], 3.0, 1e-12);
  EXPECT_NEAR(e[1], 2.0, 1e-12);
  EXPECT_NEAR(e[2], 1.0, 1e-12);
}

TEST(Eigen, Known2x2) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  const auto e = jacobi_eigenvalues({2, 1, 1, 2}, 2);
  EXPECT_NEAR(e[0], 3.0, 1e-10);
  EXPECT_NEAR(e[1], 1.0, 1e-10);
}

TEST(Eigen, RejectsSizeMismatch) {
  EXPECT_THROW(jacobi_eigenvalues({1, 2, 3}, 2), std::invalid_argument);
  EXPECT_THROW(jacobi_eigenvalues({1}, -1), std::invalid_argument);
}

TEST(Eigen, TraceAndFrobeniusPreserved) {
  // Random symmetric matrices: sum of eigenvalues == trace, sum of squares
  // == Frobenius norm^2.
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  for (int n : {2, 5, 16, 32}) {
    std::vector<double> a(static_cast<std::size_t>(n) * n);
    for (int i = 0; i < n; ++i) {
      for (int j = i; j < n; ++j) {
        const double v = u(rng);
        a[static_cast<std::size_t>(i) * n + j] = v;
        a[static_cast<std::size_t>(j) * n + i] = v;
      }
    }
    double trace = 0.0, frob2 = 0.0;
    for (int i = 0; i < n; ++i) trace += a[static_cast<std::size_t>(i) * n + i];
    for (double v : a) frob2 += v * v;

    const auto e = jacobi_eigenvalues(a, n);
    double esum = 0.0, e2sum = 0.0;
    for (double v : e) {
      esum += v;
      e2sum += v * v;
    }
    EXPECT_NEAR(esum, trace, 1e-8) << "n=" << n;
    EXPECT_NEAR(e2sum, frob2, 1e-8) << "n=" << n;
  }
}

TEST(Eigen, SortedDescending) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> u(-2.0, 2.0);
  const int n = 12;
  std::vector<double> a(static_cast<std::size_t>(n) * n);
  for (int i = 0; i < n; ++i)
    for (int j = i; j < n; ++j) {
      const double v = u(rng);
      a[static_cast<std::size_t>(i) * n + j] = v;
      a[static_cast<std::size_t>(j) * n + i] = v;
    }
  const auto e = jacobi_eigenvalues(a, n);
  for (std::size_t i = 1; i < e.size(); ++i) EXPECT_GE(e[i - 1], e[i]);
}

TEST(EigenLambda2, MatchesJacobiOnPsdGramMatrices) {
  // f14 feeds S = A A^T (PSD, spectral radius 1). Cross-check on that shape.
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (int n : {4, 8, 32}) {
    std::vector<double> b(static_cast<std::size_t>(n) * n);
    for (double& v : b) v = u(rng);
    std::vector<double> s(static_cast<std::size_t>(n) * n, 0.0);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) {
        double acc = 0.0;
        for (int k = 0; k < n; ++k)
          acc += b[static_cast<std::size_t>(i) * n + k] * b[static_cast<std::size_t>(j) * n + k];
        s[static_cast<std::size_t>(i) * n + j] = acc;
      }
    const auto slow = jacobi_eigenvalues(s, n);
    EXPECT_NEAR(symmetric_lambda2(s, n), slow[1], 1e-8 * std::max(1.0, slow[0])) << "n=" << n;
  }
}

TEST(EigenLambda2, MatchesJacobiSecondEigenvalue) {
  std::mt19937_64 rng(5150);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  for (int n : {2, 3, 8, 22, 32, 64}) {
    std::vector<double> a(static_cast<std::size_t>(n) * n);
    for (int i = 0; i < n; ++i)
      for (int j = i; j < n; ++j) {
        const double v = u(rng);
        a[static_cast<std::size_t>(i) * n + j] = v;
        a[static_cast<std::size_t>(j) * n + i] = v;
      }
    const auto slow = jacobi_eigenvalues(a, n);
    const double l2 = symmetric_lambda2(a, n);
    EXPECT_NEAR(l2, slow[1], 1e-10) << "n=" << n;
  }
}

TEST(EigenLambda2, RepeatedTopEigenvalue) {
  // Two identical decoupled blocks: lambda1 == lambda2. Bisection must land
  // on the repeated value, not between clusters.
  // diag blocks [[2,1],[1,2]] twice -> eigenvalues {3, 3, 1, 1}.
  const std::vector<double> a{2, 1, 0, 0,  //
                              1, 2, 0, 0,  //
                              0, 0, 2, 1,  //
                              0, 0, 1, 2};
  EXPECT_NEAR(symmetric_lambda2(a, 4), 3.0, 1e-12);
}

TEST(EigenLambda2, EdgeCases) {
  EXPECT_EQ(symmetric_lambda2({}, 0), 0.0);
  EXPECT_EQ(symmetric_lambda2({7.0}, 1), 0.0);
  EXPECT_NEAR(symmetric_lambda2({2, 1, 1, 2}, 2), 1.0, 1e-12);
  EXPECT_THROW(symmetric_lambda2({1, 2, 3}, 2), std::invalid_argument);
}

TEST(Eigen, RankOneMatrix) {
  // v v^T with |v|^2 = 14 has eigenvalues {14, 0, 0}.
  const std::vector<double> v{1, 2, 3};
  std::vector<double> a(9);
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j)
      a[static_cast<std::size_t>(i) * 3 + j] = v[static_cast<std::size_t>(i)] * v[static_cast<std::size_t>(j)];
  const auto e = jacobi_eigenvalues(a, 3);
  EXPECT_NEAR(e[0], 14.0, 1e-10);
  EXPECT_NEAR(e[1], 0.0, 1e-10);
  EXPECT_NEAR(e[2], 0.0, 1e-10);
}

}  // namespace
}  // namespace h4d::haralick
