#include "tensor/tensor.h"

#include <gtest/gtest.h>

namespace ada {
namespace {

TEST(Tensor, ConstructsZeroInitialized) {
  Tensor t(2, 3, 4, 5);
  EXPECT_EQ(t.n(), 2);
  EXPECT_EQ(t.c(), 3);
  EXPECT_EQ(t.h(), 4);
  EXPECT_EQ(t.w(), 5);
  EXPECT_EQ(t.size(), 120u);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, DefaultIsEmpty) {
  Tensor t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
}

TEST(Tensor, AtIndexingIsRowMajorNchw) {
  Tensor t(1, 2, 2, 3);
  t.at(0, 1, 1, 2) = 7.0f;
  // offset = ((0*2+1)*2+1)*3+2 = 11
  EXPECT_EQ(t[11], 7.0f);
}

TEST(Tensor, FillSetsAll) {
  Tensor t(1, 1, 2, 2);
  t.fill(3.5f);
  EXPECT_EQ(t.sum(), 14.0);
  EXPECT_EQ(t.mean(), 3.5);
}

TEST(Tensor, SameShapeComparison) {
  Tensor a(1, 2, 3, 4), b(1, 2, 3, 4), c(1, 2, 4, 3);
  EXPECT_TRUE(a.same_shape(b));
  EXPECT_FALSE(a.same_shape(c));
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t(1, 2, 2, 3);
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = static_cast<float>(i);
  t.reshape(1, 12, 1, 1);
  EXPECT_EQ(t.c(), 12);
  EXPECT_EQ(t[5], 5.0f);
}

TEST(Tensor, ResizeZeroFillsAndKeepsLargeEnoughStorage) {
  Tensor t(1, 4, 6, 8);
  t.fill(7.0f);
  const float* big = t.data();
  t.resize(1, 2, 3, 5);  // smaller: same storage, new shape, all zeros
  EXPECT_EQ(t.data(), big);
  EXPECT_TRUE(t.same_shape(Tensor(1, 2, 3, 5)));
  EXPECT_EQ(t.size(), 30u);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
  t.resize(1, 4, 6, 8);  // back up to the old size: still no reallocation
  EXPECT_EQ(t.data(), big);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
  t.resize(2, 4, 6, 8);  // beyond the storage: grows, still zeros
  EXPECT_EQ(t.size(), 384u);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, AbsMax) {
  Tensor t = Tensor::vec(3);
  t[0] = -5.0f;
  t[1] = 2.0f;
  t[2] = 4.0f;
  EXPECT_EQ(t.abs_max(), 5.0f);
}

TEST(Tensor, ChwAndVecFactories) {
  Tensor a = Tensor::chw(3, 8, 9);
  EXPECT_EQ(a.n(), 1);
  EXPECT_EQ(a.c(), 3);
  Tensor v = Tensor::vec(10);
  EXPECT_EQ(v.c(), 10);
  EXPECT_EQ(v.h(), 1);
}

TEST(Tensor, ShapeStr) {
  Tensor t(1, 48, 18, 25);
  EXPECT_EQ(t.shape_str(), "[1,48,18,25]");
}

TEST(Tensor, CopyIsDeep) {
  Tensor a(1, 1, 1, 2);
  a[0] = 1.0f;
  Tensor b = a;
  b[0] = 9.0f;
  EXPECT_EQ(a[0], 1.0f);
}

}  // namespace
}  // namespace ada
