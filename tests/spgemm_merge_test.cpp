// Merge-path SpGEMM: the paper's Fig 3 worked example, randomized
// validation against Gustavson, configuration ablations, and the
// work-proportional cost property.
#include <gtest/gtest.h>

#include "baselines/seq.hpp"
#include "core/spgemm.hpp"
#include "oracle.hpp"
#include "sparse/compare.hpp"
#include "sparse/convert.hpp"
#include "test_matrices.hpp"
#include "vgpu/device.hpp"

namespace mps {
namespace {

using core::merge::spgemm;
using core::merge::SpgemmConfig;
using sparse::coo_to_csr;
using testing::expect_spgemm_matches;
using testing::random_coo;

TEST(MergeSpgemm, PaperFig3WorkedExample) {
  vgpu::Device dev;
  const auto a = coo_to_csr(testing::paper_a());
  const auto b = coo_to_csr(testing::paper_b());
  sparse::CsrD c;
  const auto stats = spgemm(dev, a, b, c);
  EXPECT_EQ(stats.num_products, 11);  // Fig 3(a): 11 intermediate entries
  const std::vector<double> expect{10,  0,   0, 0,    //
                                   120, 430, 0, 340,  //
                                   0,   300, 0, 350,  //
                                   0,   120, 0, 180};
  EXPECT_EQ(testing::dense_of(c), expect);
}

TEST(MergeSpgemm, Fig3PartitioningAtTinyTiles) {
  // Forcing a tile of 6 products reproduces Fig 3(b)'s split of the 11
  // intermediate entries into two subsets; the result must be unchanged.
  vgpu::Device dev;
  const auto a = coo_to_csr(testing::paper_a());
  const auto b = coo_to_csr(testing::paper_b());
  SpgemmConfig cfg;
  cfg.block_threads = 2;
  cfg.items_per_thread = 3;  // tile = 6 as in Fig 3(b)
  sparse::CsrD c;
  const auto stats = spgemm(dev, a, b, c, cfg);
  EXPECT_EQ(stats.num_products, 11);
  expect_spgemm_matches(dev, a, b, cfg);
}

class MergeSpgemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(MergeSpgemmShapes, MatchesGustavson) {
  const auto [m, k, n, nnz] = GetParam();
  vgpu::Device dev;
  util::Rng rng(static_cast<std::uint64_t>(m * 5 + k * 3 + n + nnz));
  const auto a = coo_to_csr(random_coo(rng, static_cast<index_t>(m), static_cast<index_t>(k), nnz));
  const auto b = coo_to_csr(random_coo(rng, static_cast<index_t>(k), static_cast<index_t>(n), nnz));
  expect_spgemm_matches(dev, a, b);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MergeSpgemmShapes,
    ::testing::Values(std::make_tuple(1, 1, 1, 1), std::make_tuple(5, 5, 5, 10),
                      std::make_tuple(50, 60, 70, 400),
                      std::make_tuple(300, 300, 300, 3000),
                      std::make_tuple(1000, 50, 1000, 5000),
                      std::make_tuple(16, 4000, 16, 2000),
                      std::make_tuple(2000, 2000, 2000, 20000)));

TEST(MergeSpgemm, EmptyCases) {
  vgpu::Device dev;
  sparse::CsrD a(10, 10), c;
  const auto stats = spgemm(dev, a, a, c);
  EXPECT_EQ(stats.num_products, 0);
  EXPECT_EQ(c.nnz(), 0);
  EXPECT_TRUE(c.is_valid());
  // A nonzero times an empty B row contributes nothing.
  util::Rng rng(51);
  const auto x = coo_to_csr(random_coo(rng, 20, 20, 50));
  sparse::CsrD zero(20, 20);
  spgemm(dev, x, zero, c);
  EXPECT_EQ(c.nnz(), 0);
}

TEST(MergeSpgemm, PairSortFallbackMatches) {
  // Huge column count forces col_bits + rank_bits > 32 -> pair sort.
  vgpu::Device dev;
  util::Rng rng(53);
  const auto a = coo_to_csr(random_coo(rng, 100, 1 << 22, 2000));
  const auto b = coo_to_csr(random_coo(rng, 1 << 22, 100, 2000));
  // b has 4M rows: keep it light — products still form correctly.
  const auto ref = baselines::seq::spgemm(a, b);
  sparse::CsrD c;
  const auto stats = spgemm(dev, a, b, c);
  EXPECT_FALSE(stats.used_pair_sort);  // cols(B)=100 -> embedding fits
  // Now multiply the other way: cols(B)=4M forces the fallback.
  sparse::CsrD c2;
  const auto stats2 = spgemm(dev, b, a, c2);
  EXPECT_TRUE(stats2.used_pair_sort);
  EXPECT_TRUE(c2.is_valid());
  const auto ref2 = baselines::seq::spgemm(b, a);
  const auto cmp = sparse::compare_csr(c2, ref2, 1e-9, 1e-11);
  EXPECT_TRUE(cmp.equal) << cmp.detail;
  const auto cmp1 = sparse::compare_csr(c, ref, 1e-9, 1e-11);
  EXPECT_TRUE(cmp1.equal) << cmp1.detail;
}

TEST(MergeSpgemm, AblationConfigsMatch) {
  vgpu::Device dev;
  util::Rng rng(57);
  const auto a = coo_to_csr(random_coo(rng, 400, 400, 4000));
  for (const bool pair : {false, true}) {
    for (const bool full : {false, true}) {
      SpgemmConfig cfg;
      cfg.force_pair_sort = pair;
      cfg.force_full_bits = full;
      expect_spgemm_matches(dev, a, a, cfg);
    }
  }
}

TEST(MergeSpgemm, BitLimitingReducesBlockSortCost) {
  vgpu::Device dev;
  util::Rng rng(59);
  const auto a = coo_to_csr(random_coo(rng, 2000, 2000, 40000));
  sparse::CsrD c;
  SpgemmConfig limited;      // default: sorts log2(2000) = 11 bits, keys-only
  SpgemmConfig full;
  full.force_full_bits = true;  // 32 bits, pair sort (the 2P/28-bit regime)
  const auto s_lim = spgemm(dev, a, a, c, limited);
  const auto s_full = spgemm(dev, a, a, c, full);
  // The phase includes the expansion's memory traffic, so the sort saving
  // shows up diluted here; the raw 2x-per-pass property is asserted at the
  // primitive level (CtaRadixSort.CostScalesWithBitsAndPairs).
  EXPECT_LT(s_lim.phases.block_sort_ms, 0.85 * s_full.phases.block_sort_ms);
}

TEST(MergeSpgemm, PhaseBreakdownIsComplete) {
  vgpu::Device dev;
  util::Rng rng(61);
  const auto a = coo_to_csr(random_coo(rng, 1000, 1000, 20000));
  sparse::CsrD c;
  const auto stats = spgemm(dev, a, a, c);
  EXPECT_GT(stats.phases.setup_ms, 0.0);
  EXPECT_GT(stats.phases.block_sort_ms, 0.0);
  EXPECT_GT(stats.phases.global_sort_ms, 0.0);
  EXPECT_GT(stats.phases.product_compute_ms, 0.0);
  EXPECT_GT(stats.phases.product_reduce_ms, 0.0);
  EXPECT_GT(stats.phases.other_ms, 0.0);
  EXPECT_GT(stats.block_unique, 0);
  EXPECT_LE(stats.block_unique, stats.num_products);
}

TEST(MergeSpgemm, OomOnTinyDevice) {
  vgpu::DeviceProperties tiny = vgpu::gtx_titan();
  tiny.global_mem_bytes = 1 << 18;  // 256 KiB
  vgpu::Device dev(tiny);
  util::Rng rng(63);
  const auto a = coo_to_csr(random_coo(rng, 300, 300, 9000));
  sparse::CsrD c;
  EXPECT_THROW(spgemm(dev, a, a, c), vgpu::DeviceOomError);
}

TEST(MergeSpgemm, CostTracksProductsNotStructure) {
  // Fig 10's ρ ≈ 0.98: modeled ms per product should be nearly structure
  // independent.
  vgpu::Device dev;
  util::Rng rng(67);
  const auto uniform = coo_to_csr(random_coo(rng, 2000, 2000, 30000));
  const auto skewed = testing::random_powerlaw_csr(rng, 2000, 2000, 12.0);
  sparse::CsrD c;
  const auto su = spgemm(dev, uniform, uniform, c);
  const auto ss = spgemm(dev, skewed, skewed, c);
  const double per_u = su.modeled_ms() / static_cast<double>(su.num_products);
  const double per_s = ss.modeled_ms() / static_cast<double>(ss.num_products);
  const double ratio = per_s / per_u;
  EXPECT_GT(ratio, 0.6);
  EXPECT_LT(ratio, 1.6);
}

}  // namespace
}  // namespace mps
