#pragma once
// Merge-path SpGEMM (paper Section III-C, Figures 3 and 11).
//
// The intermediate product stream (one entry per FLOP of the expansion)
// is partitioned at product granularity: every CTA receives exactly
// `tile` products irrespective of the rows they came from.  Processing is
// split into the paper's phases:
//
//   Setup           — scan of |B_row(A.col[k])| over A's nonzeros -> S,
//                     the product-offset array (work = num_products);
//   Block Sort      — each CTA expands its products' (row, col) indices
//                     (values stay unformed, Fig 3's "x"), runs ONE
//                     bit-limited CTA radix sort on the column indices
//                     (origin rank embedded in the unused upper key bits
//                     when it fits, else a key-value sort), flags and
//                     stores the locally-unique tuples plus the 16-bit
//                     local permutation;
//   Global Sort     — device radix sort of the locally reduced tuples,
//                     computing only a permutation (still no values);
//   Product Compute — the expansion replays, forming products this time;
//                     the stored local permutation and head flags reduce
//                     them within the CTA and the global ranks scatter the
//                     partial sums into globally sorted order;
//   Product Reduce  — reduce-by-key over the sorted stream forms C;
//   Other           — row-pointer construction and misc memory ops.

#include <cstdint>
#include <optional>
#include <vector>

#include "sparse/csr.hpp"
#include "vgpu/device.hpp"

namespace mps::core::merge {

struct SpgemmConfig {
  int block_threads = 128;
  int items_per_thread = 11;  ///< the Fig 4 CTA geometry (tile = 1408)
  /// Disable the keys-only permutation-embedding optimization (ablation).
  bool force_pair_sort = false;
  /// Disable bit-limiting: always sort full 32-bit columns (ablation).
  bool force_full_bits = false;
  /// Global product index of this instance's first product.  The CTA
  /// tiling is aligned so boundaries fall at multiples of tile() in the
  /// *global* product stream; a row slice of A passes its entry of
  /// row_product_prefix() here (spgemm_chunked adds each chunk's to the
  /// origin it was given, shard::spgemm gives each slice its own) so
  /// per-tuple partial-sum grouping — and therefore every floating-point
  /// sum — matches the flat path bit for bit.  Leave 0 for standalone use.
  std::uint64_t product_origin = 0;
  int tile() const { return block_threads * items_per_thread; }
};

/// Per-phase modeled time; the components of the paper's Figure 11.
struct SpgemmPhases {
  double setup_ms = 0.0;
  double block_sort_ms = 0.0;
  double global_sort_ms = 0.0;
  double product_compute_ms = 0.0;
  double product_reduce_ms = 0.0;
  double other_ms = 0.0;
  double total_ms() const {
    return setup_ms + block_sort_ms + global_sort_ms + product_compute_ms +
           product_reduce_ms + other_ms;
  }
};

struct SpgemmStats {
  SpgemmPhases phases;
  long long num_products = 0;   ///< paper's work measure (Fig 10 x-axis)
  long long block_unique = 0;   ///< tuples surviving the CTA-level reduction
  bool used_pair_sort = false;  ///< permutation embedding did not fit
  double wall_ms = 0.0;
  double modeled_ms() const { return phases.total_ms(); }
};

/// C = A x B.  Throws vgpu::DeviceOomError when the intermediate exceeds
/// device memory (the paper's Dense case in Fig 9); on any throw, device
/// accounting is restored and `c` is untouched (strong guarantee).
/// Callers that must not overflow use spgemm_chunked.hpp, the
/// bounded-footprint entry point that runs this pipeline per row chunk.
SpgemmStats spgemm(vgpu::Device& device, const sparse::CsrD& a,
                   const sparse::CsrD& b, sparse::CsrD& c,
                   const SpgemmConfig& cfg = {});

/// Per-row intermediate-product prefix of A x B: entry r is the index of
/// row r's first product in the flat product stream, entry a.num_rows the
/// total (num_rows + 1 entries).  The upper bound on each row's work that
/// sizes a row range before anything is allocated — spgemm_chunked's
/// chunks and shard::spgemm's slices — and each range's product_origin.
std::vector<std::uint64_t> row_product_prefix(const sparse::CsrD& a,
                                              const sparse::CsrD& b);

/// Reusable symbolic state: everything that depends only on the sparsity
/// patterns of A and B.  Amortizes the setup/block-sort/global-sort work
/// across repeated multiplications with identical structure (the AMG and
/// graph-update pattern real SpGEMM libraries serve with their
/// symbolic/numeric split).  The plan pins its intermediate arrays in
/// (accounted) device memory for its lifetime.
class SpgemmPlan {
 public:
  SpgemmPlan() = default;
  SpgemmPlan(SpgemmPlan&&) = default;
  SpgemmPlan& operator=(SpgemmPlan&&) = default;
  SpgemmPlan(const SpgemmPlan&) = delete;
  SpgemmPlan& operator=(const SpgemmPlan&) = delete;

  bool valid() const { return num_products_ >= 0; }
  long long num_products() const { return num_products_; }
  index_t output_nnz() const { return pattern_.nnz(); }

 private:
  friend SpgemmStats spgemm_symbolic(vgpu::Device&, const sparse::CsrD&,
                                     const sparse::CsrD&, SpgemmPlan&,
                                     const SpgemmConfig&);
  friend double spgemm_numeric(vgpu::Device&, const sparse::CsrD&,
                               const sparse::CsrD&, const SpgemmPlan&,
                               sparse::CsrD&);

  SpgemmConfig cfg_;
  long long num_products_ = -1;
  int col_bits_ = 0;
  int num_ctas_ = 0;
  std::size_t phase_ = 0;  ///< product_origin % tile: first CTA's shortfall
  std::vector<std::uint64_t> prod_offsets_;   ///< S: per-A-nonzero scan
  std::vector<index_t> a_rows_;               ///< row id per A nonzero
  std::vector<std::uint16_t> perm16_;         ///< per-product local permutation
  std::vector<std::uint8_t> head_;            ///< per-product local head flag
  std::vector<std::uint64_t> unique_offset_;  ///< per-CTA base into uniques
  std::vector<std::uint32_t> rank_;           ///< global rank of each unique
  std::vector<index_t> seg_offsets_;          ///< C-entry -> sorted-stream range
  sparse::CsrD pattern_;                      ///< C's structure (values zeroed)
  std::optional<vgpu::ScopedDeviceAlloc> device_mem_;
};

/// Build the symbolic plan and C's sparsity pattern (c gets structure with
/// zero-initialized values via spgemm_numeric).  The returned stats cover
/// only the symbolic phases.
SpgemmStats spgemm_symbolic(vgpu::Device& device, const sparse::CsrD& a,
                            const sparse::CsrD& b, SpgemmPlan& plan,
                            const SpgemmConfig& cfg = {});

/// Numeric phase: recompute C's values for (possibly new) values of A and
/// B whose sparsity patterns match the plan's.  Returns modeled ms (the
/// product-compute + product-reduce cost only).  Throws PlanMismatchError
/// when the matrices' patterns drifted from the plan's.
double spgemm_numeric(vgpu::Device& device, const sparse::CsrD& a,
                      const sparse::CsrD& b, const SpgemmPlan& plan,
                      sparse::CsrD& c);

}  // namespace mps::core::merge
