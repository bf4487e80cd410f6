// EstimatedMatrix (E_m) semantics tests.
#include "core/estimated_matrix.hpp"

#include <gtest/gtest.h>

#include "core/als.hpp"

namespace metas::core {
namespace {

using topology::GeoScope;

TEST(Ratings, TransferabilityValues) {
  EXPECT_DOUBLE_EQ(positive_rating(GeoScope::kSameMetro), 1.0);
  EXPECT_DOUBLE_EQ(positive_rating(GeoScope::kSameCountry), 0.7);
  EXPECT_DOUBLE_EQ(positive_rating(GeoScope::kSameContinent), 0.4);
  EXPECT_DOUBLE_EQ(positive_rating(GeoScope::kElsewhere), 0.1);
  for (int g = 0; g < topology::kNumGeoScopes; ++g)
    EXPECT_DOUBLE_EQ(negative_rating(static_cast<GeoScope>(g)),
                     -positive_rating(static_cast<GeoScope>(g)));
}

TEST(EstimatedMatrix, SetIsSymmetric) {
  EstimatedMatrix e(4);
  EXPECT_FALSE(e.filled(0, 1));
  e.set(0, 1, 0.7);
  EXPECT_TRUE(e.filled(0, 1));
  EXPECT_TRUE(e.filled(1, 0));
  EXPECT_DOUBLE_EQ(e.value(1, 0), 0.7);
  EXPECT_EQ(e.row_filled(0), 1u);
  EXPECT_EQ(e.row_filled(1), 1u);
  EXPECT_EQ(e.total_filled(), 1u);
}

TEST(EstimatedMatrix, BiggestAbsoluteValueWins) {
  EstimatedMatrix e(3);
  e.set(0, 1, 0.4);
  e.set(0, 1, -1.0);  // |−1| > |0.4|: replaces
  EXPECT_DOUBLE_EQ(e.value(0, 1), -1.0);
  e.set(0, 1, 0.7);   // |0.7| < 1: ignored
  EXPECT_DOUBLE_EQ(e.value(0, 1), -1.0);
  EXPECT_EQ(e.total_filled(), 1u);  // still one entry
}

TEST(EstimatedMatrix, DiagonalAndBoundsRejected) {
  EstimatedMatrix e(3);
  EXPECT_THROW(e.set(1, 1, 1.0), std::invalid_argument);
  EXPECT_THROW(e.set(0, 3, 1.0), std::out_of_range);
}

TEST(EstimatedMatrix, FilledEntriesUpperTriangle) {
  EstimatedMatrix e(4);
  e.set(2, 0, 1.0);
  e.set(1, 3, -0.7);
  auto entries = e.filled_entries();
  ASSERT_EQ(entries.size(), 2u);
  for (auto [i, j] : entries) EXPECT_LT(i, j);
}

TEST(RatingEntries, ExtractsValues) {
  EstimatedMatrix e(3);
  e.set(0, 2, -0.4);
  auto entries = rating_entries(e);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].i, 0u);
  EXPECT_EQ(entries[0].j, 2u);
  EXPECT_DOUBLE_EQ(entries[0].value, -0.4);
}

}  // namespace
}  // namespace metas::core
