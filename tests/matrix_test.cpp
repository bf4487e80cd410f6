// Tests for the dense matrix substrate.
#include "linalg/matrix.hpp"

#include <gtest/gtest.h>

namespace metas::linalg {
namespace {

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(Matrix, Identity) {
  Matrix i = Matrix::identity(3);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_DOUBLE_EQ(i(r, c), r == c ? 1.0 : 0.0);
}

TEST(Matrix, Transpose) {
  Matrix m(2, 3);
  m(0, 0) = 1; m(0, 1) = 2; m(0, 2) = 3;
  m(1, 0) = 4; m(1, 1) = 5; m(1, 2) = 6;
  Matrix t = m.transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
  EXPECT_DOUBLE_EQ(t(0, 1), 4.0);
}

TEST(Matrix, MultiplyKnownProduct) {
  Matrix a(2, 2), b(2, 2);
  a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 3; a(1, 1) = 4;
  b(0, 0) = 5; b(0, 1) = 6; b(1, 0) = 7; b(1, 1) = 8;
  Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MultiplyDimensionMismatchThrows) {
  Matrix a(2, 3), b(2, 2);
  EXPECT_THROW(a * b, std::invalid_argument);
  Vector v{1.0, 2.0};
  EXPECT_THROW(a * v, std::invalid_argument);
}

TEST(Matrix, MatrixVectorProduct) {
  Matrix a(2, 3);
  a(0, 0) = 1; a(0, 1) = 0; a(0, 2) = 2;
  a(1, 0) = 0; a(1, 1) = 3; a(1, 2) = 0;
  Vector v{1, 2, 3};
  Vector r = a * v;
  EXPECT_EQ(r.size(), 2u);
  EXPECT_DOUBLE_EQ(r[0], 7.0);
  EXPECT_DOUBLE_EQ(r[1], 6.0);
}

TEST(Matrix, ScaleAndNorms) {
  Matrix a(1, 2);
  a(0, 0) = 3; a(0, 1) = 4;
  EXPECT_DOUBLE_EQ(a.frobenius_norm(), 5.0);
}

TEST(Matrix, MaxAbsDiff) {
  Matrix a(2, 2, 1.0), b(2, 2, 1.0);
  b(1, 0) = -2.0;
  EXPECT_DOUBLE_EQ(a.max_abs_diff(b), 3.0);
  EXPECT_THROW(a.max_abs_diff(Matrix(1, 1)), std::invalid_argument);
}

TEST(Matrix, GramIsAtA) {
  Matrix a(3, 2);
  a(0, 0) = 1; a(0, 1) = 2;
  a(1, 0) = 3; a(1, 1) = 4;
  a(2, 0) = 5; a(2, 1) = 6;
  Matrix g = a.gram();
  Matrix expected = a.transpose() * a;
  EXPECT_LT(g.max_abs_diff(expected), 1e-12);
}

}  // namespace
}  // namespace metas::linalg
