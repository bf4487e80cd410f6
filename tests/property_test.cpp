// Cross-module property sweeps: randomized reference checks that complement
// the per-module unit tests.
#include <gtest/gtest.h>

#include "core/estimated_matrix.hpp"
#include "ipnet/prefix.hpp"
#include "util/rng.hpp"

namespace metas {
namespace {

// PrefixTable lookup must agree with a brute-force longest-match scan for
// arbitrary random prefix sets.
class PrefixTablePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PrefixTablePropertyTest, MatchesBruteForceReference) {
  util::Rng rng(GetParam());
  std::vector<std::pair<ipnet::Prefix, int>> prefixes;
  ipnet::PrefixTable table;
  for (int k = 0; k < 200; ++k) {
    ipnet::Prefix p(rng.engine()(), rng.uniform_int(4, 30));
    int owner = rng.uniform_int(0, 50);
    // Mirror insert_or_assign semantics in the reference set.
    bool replaced = false;
    for (auto& [q, o] : prefixes) {
      if (q == p) {
        o = owner;
        replaced = true;
      }
    }
    if (!replaced) prefixes.emplace_back(p, owner);
    table.insert(p, owner);
  }
  for (int k = 0; k < 500; ++k) {
    ipnet::Ip ip = static_cast<ipnet::Ip>(rng.engine()());
    int best_len = -1, best_owner = -1;
    for (const auto& [p, o] : prefixes) {
      if (p.contains(ip) && p.len > best_len) {
        best_len = p.len;
        best_owner = o;
      }
    }
    auto got = table.lookup(ip);
    if (best_len < 0) {
      EXPECT_FALSE(got.has_value());
    } else {
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(*got, best_owner);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrefixTablePropertyTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

// EstimatedMatrix invariants under arbitrary set() sequences: symmetry,
// non-negative row counts consistent with the mask, max-|value| retention.
class EstimatedMatrixPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EstimatedMatrixPropertyTest, InvariantsUnderRandomOps) {
  util::Rng rng(GetParam() + 50);
  const std::size_t n = 12;
  core::EstimatedMatrix e(n);
  std::vector<double> shadow(n * n, 0.0);  // 0 = unfilled
  for (int op = 0; op < 600; ++op) {
    std::size_t i = rng.index(n), j = rng.index(n);
    if (i == j) continue;
    double v = rng.pick(std::vector<double>{1.0, 0.7, 0.4, 0.1, -0.1, -0.4,
                                            -0.7, -1.0});
    e.set(i, j, v);
    double& cur = shadow[i * n + j];
    if (cur == 0.0 || std::fabs(v) > std::fabs(cur)) {
      cur = v;
      shadow[j * n + i] = v;
    }
  }
  std::vector<std::size_t> row_counts(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      EXPECT_EQ(e.filled(i, j), shadow[i * n + j] != 0.0);
      if (e.filled(i, j)) {
        EXPECT_DOUBLE_EQ(e.value(i, j), shadow[i * n + j]);
        EXPECT_DOUBLE_EQ(e.value(j, i), e.value(i, j));
        ++row_counts[i];
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(e.row_filled(i), row_counts[i]);
  // total_filled is half the sum of row counts.
  std::size_t sum = 0;
  for (auto c : row_counts) sum += c;
  EXPECT_EQ(e.total_filled(), sum / 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EstimatedMatrixPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace metas
