// Randomized cross-product fuzz: every (kernel family x scheme) pair over
// a seeded grid of structural regimes — uniform, banded, power-law,
// hypersparse, near-dense, rectangular — validated against the sequential
// references.  These sweeps are the broad safety net behind the targeted
// suites.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "baselines/cusplike.hpp"
#include "baselines/rowwise.hpp"
#include "baselines/seq.hpp"
#include "core/spadd.hpp"
#include "core/spgemm.hpp"
#include "core/spgemm_chunked.hpp"
#include "core/spmv.hpp"
#include "sparse/compare.hpp"
#include "sparse/convert.hpp"
#include "test_matrices.hpp"
#include "vgpu/device.hpp"
#include "workloads/generators.hpp"

namespace mps {
namespace {

using sparse::coo_to_csr;
using sparse::CsrD;

enum class Regime {
  kUniform,
  kBanded,
  kPowerLaw,
  kHypersparse,
  kNearDense,
  kRectWide,
  kRectTall,
};

std::string regime_name(Regime r) {
  switch (r) {
    case Regime::kUniform: return "uniform";
    case Regime::kBanded: return "banded";
    case Regime::kPowerLaw: return "powerlaw";
    case Regime::kHypersparse: return "hypersparse";
    case Regime::kNearDense: return "neardense";
    case Regime::kRectWide: return "rectwide";
    case Regime::kRectTall: return "recttall";
  }
  return "?";
}

CsrD make_matrix(Regime r, std::uint64_t seed) {
  util::Rng rng(seed);
  switch (r) {
    case Regime::kUniform:
      return coo_to_csr(testing::random_coo(rng, 400, 400, 4800));
    case Regime::kBanded:
      return workloads::fem_banded(500, 18.0, 4.0, seed);
    case Regime::kPowerLaw:
      return testing::random_powerlaw_csr(rng, 500, 500, 6.0);
    case Regime::kHypersparse:
      return coo_to_csr(testing::random_coo(rng, 2000, 2000, 300));
    case Regime::kNearDense:
      return coo_to_csr(testing::random_coo(rng, 60, 60, 2800));
    case Regime::kRectWide:
      return coo_to_csr(testing::random_coo(rng, 64, 3000, 2500));
    case Regime::kRectTall:
      return coo_to_csr(testing::random_coo(rng, 3000, 64, 2500));
  }
  return {};
}

class FuzzTest
    : public ::testing::TestWithParam<std::tuple<Regime, std::uint64_t>> {
 protected:
  vgpu::Device dev_;
};

TEST_P(FuzzTest, AllSpmvSchemesAgree) {
  const auto [regime, seed] = GetParam();
  const auto a = make_matrix(regime, seed);
  util::Rng rng(seed * 7 + 1);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols));
  for (auto& v : x) v = rng.uniform_double(-1, 1);
  std::vector<double> ref(static_cast<std::size_t>(a.num_rows));
  baselines::seq::spmv(a, x, ref);
  std::vector<double> y(ref.size());

  core::merge::spmv(dev_, a, x, y);
  for (std::size_t i = 0; i < y.size(); ++i)
    ASSERT_NEAR(y[i], ref[i], 1e-10) << regime_name(regime) << " merge row " << i;
  baselines::cusplike::spmv(dev_, a, x, y);
  for (std::size_t i = 0; i < y.size(); ++i)
    ASSERT_NEAR(y[i], ref[i], 1e-10) << regime_name(regime) << " cusp row " << i;
  baselines::rowwise::spmv(dev_, a, x, y);
  for (std::size_t i = 0; i < y.size(); ++i)
    ASSERT_NEAR(y[i], ref[i], 1e-10) << regime_name(regime) << " rowwise row " << i;
  baselines::cusplike::spmv_coo(dev_, sparse::csr_to_coo(a), x, y);
  for (std::size_t i = 0; i < y.size(); ++i)
    ASSERT_NEAR(y[i], ref[i], 1e-10) << regime_name(regime) << " coo row " << i;
}

TEST_P(FuzzTest, AllSpaddSchemesAgree) {
  const auto [regime, seed] = GetParam();
  const auto a = make_matrix(regime, seed);
  const auto b = make_matrix(regime, seed + 1000);
  const auto ref = baselines::seq::spadd(a, b);
  const auto a_coo = sparse::csr_to_coo(a);
  const auto b_coo = sparse::csr_to_coo(b);

  sparse::CooD c_merge;
  core::merge::spadd(dev_, a_coo, b_coo, c_merge);
  EXPECT_TRUE(sparse::compare_csr(coo_to_csr(c_merge), ref).equal)
      << regime_name(regime) << " merge";
  sparse::CooD c_cusp;
  baselines::cusplike::spadd(dev_, a_coo, b_coo, c_cusp);
  EXPECT_TRUE(sparse::compare_csr(coo_to_csr(c_cusp), ref).equal)
      << regime_name(regime) << " cusp";
  CsrD c_row;
  baselines::rowwise::spadd(dev_, a, b, c_row);
  EXPECT_TRUE(sparse::compare_csr(c_row, ref).equal)
      << regime_name(regime) << " rowwise";
}

TEST_P(FuzzTest, AllSpgemmSchemesAgree) {
  const auto [regime, seed] = GetParam();
  const auto a = make_matrix(regime, seed);
  const auto b = sparse::transpose(make_matrix(regime, seed + 2000));
  ASSERT_EQ(a.num_cols, b.num_rows);
  const auto ref = baselines::seq::spgemm(a, b);

  CsrD c_merge;
  core::merge::spgemm(dev_, a, b, c_merge);
  EXPECT_TRUE(sparse::compare_csr(c_merge, ref, 1e-9, 1e-11).equal)
      << regime_name(regime) << " merge";
  CsrD c;
  baselines::cusplike::spgemm(dev_, a, b, c);
  EXPECT_TRUE(sparse::compare_csr(c, ref, 1e-9, 1e-11).equal)
      << regime_name(regime) << " cusp";
  baselines::rowwise::spgemm(dev_, a, b, c);
  EXPECT_TRUE(sparse::compare_csr(c, ref, 1e-9, 1e-11).equal)
      << regime_name(regime) << " rowwise";
  // Chunked under a budget below the whole footprint (40 bytes per
  // product plus a floor): at least two chunks, bitwise equal to merge.
  core::merge::ChunkedConfig cfg;
  cfg.chunk_bytes = static_cast<std::size_t>(
      20 * baselines::seq::spgemm_num_products(a, b) + 4096);
  const auto stats = core::merge::spgemm_chunked(dev_, a, b, c, cfg);
  EXPECT_GE(stats.num_chunks, 2) << regime_name(regime) << " chunked";
  EXPECT_EQ(c.row_offsets, c_merge.row_offsets) << regime_name(regime);
  EXPECT_EQ(c.col, c_merge.col) << regime_name(regime);
  ASSERT_EQ(c.val.size(), c_merge.val.size()) << regime_name(regime);
  EXPECT_EQ(std::memcmp(c.val.data(), c_merge.val.data(),
                        c.val.size() * sizeof(double)),
            0)
      << regime_name(regime) << " chunked";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FuzzTest,
    ::testing::Combine(::testing::Values(Regime::kUniform, Regime::kBanded,
                                         Regime::kPowerLaw, Regime::kHypersparse,
                                         Regime::kNearDense, Regime::kRectWide,
                                         Regime::kRectTall),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{2},
                                         std::uint64_t{3})),
    [](const ::testing::TestParamInfo<std::tuple<Regime, std::uint64_t>>& info) {
      return regime_name(std::get<0>(info.param)) +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace mps
