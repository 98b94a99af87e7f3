#include "core/spgemm.hpp"

#include <vector>

#include "primitives/cta_radix_sort.hpp"
#include "primitives/device_radix_sort.hpp"
#include "primitives/scan.hpp"
#include "primitives/search.hpp"
#include "resilience/integrity.hpp"
#include "sparse/convert.hpp"
#include "sparse/validate.hpp"
#include "telemetry/span.hpp"
#include "util/timer.hpp"

namespace mps::core::merge {

using sparse::CsrD;

namespace {

/// Tuple key packed as row << col_bits | col (tight packing keeps the
/// global radix sort at the minimum number of digit passes).
std::uint64_t pack_tuple(index_t row, index_t col, int col_bits) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(row)) << col_bits) |
         static_cast<std::uint32_t>(col);
}

/// CTA tiling aligned to the *global* product stream: boundaries sit at
/// multiples of tile in global coordinates, so the first CTA of a chunk
/// whose stream starts mid-tile (phase > 0) is short by `phase` products.
/// For phase == 0 this is the plain [cta * tile, (cta+1) * tile) tiling.
struct ProductTiling {
  std::size_t tile;
  std::size_t phase;   ///< product_origin % tile
  std::size_t n_prod;  ///< local product count
  int num_ctas() const {
    return static_cast<int>(ceil_div(n_prod + phase, tile));
  }
  std::size_t lo(int cta) const {
    const std::size_t bound = static_cast<std::size_t>(cta) * tile;
    return bound < phase ? 0 : std::min(n_prod, bound - phase);
  }
  std::size_t hi(int cta) const {
    return std::min(n_prod, (static_cast<std::size_t>(cta) + 1) * tile - phase);
  }
};

/// Walks the product range [p_lo, p_hi) of the expansion described by the
/// scan S, invoking fn(p, k, bk) with k the source nonzero of A and bk
/// the index into B's arrays.  Returns the number of distinct sources.
template <typename Fn>
std::size_t expand_products(const CsrD& a, const CsrD& b,
                            std::span<const std::uint64_t> S, std::size_t p_lo,
                            std::size_t p_hi, Fn&& fn) {
  const std::size_t a_nnz = static_cast<std::size_t>(a.nnz());
  std::size_t k = primitives::segment_of(S.first(a_nnz),
                                         static_cast<std::uint64_t>(p_lo));
  std::size_t sources = p_lo < p_hi ? 1 : 0;
  for (std::size_t p = p_lo; p < p_hi; ++p) {
    while (k + 1 < a_nnz && S[k + 1] <= p) {
      ++k;
      ++sources;
    }
    const index_t j = static_cast<index_t>(p - S[k]);
    const index_t acol = a.col[k];
    const index_t bk = b.row_offsets[static_cast<std::size_t>(acol)] + j;
    fn(p, k, static_cast<std::size_t>(bk));
  }
  return sources;
}

void charge_expansion(vgpu::Cta& cta, std::size_t a_nnz, std::size_t count,
                      std::size_t sources, bool with_values) {
  cta.charge_binary_search(a_nnz);
  // A segment (cols + offsets window) streams coalesced; each distinct
  // source dereferences one B row start (a sector), after which that
  // row's columns/values stream contiguously.
  cta.charge_global(sources * 2 * sizeof(index_t));
  cta.charge_gather(sources);
  cta.charge_global(count * sizeof(index_t));  // B columns, run-contiguous
  if (with_values) {
    cta.charge_global(sources * sizeof(double));  // A values
    cta.charge_global(count * sizeof(double));    // B values
  }
  cta.charge_alu_uniform(2 * count);
}

}  // namespace

SpgemmStats spgemm_symbolic(vgpu::Device& device, const CsrD& a, const CsrD& b,
                            SpgemmPlan& out_plan, const SpgemmConfig& cfg) {
  MPS_CHECK(a.num_cols == b.num_rows);
  if (sparse::strict_validation()) {
    sparse::validate_csr(a, "spgemm: A");
    sparse::validate_csr(b, "spgemm: B");
  }
  telemetry::ScopedSpan sym_span("spgemm.symbolic");
  util::WallTimer wall;
  SpgemmStats stats;
  // Built locally and moved into `out_plan` only on success: a throw at
  // any allocation site leaves the caller's plan untouched and releases
  // all device accounting via RAII (strong exception-safety guarantee).
  SpgemmPlan plan;
  plan.cfg_ = cfg;
  plan.pattern_ = CsrD(a.num_rows, b.num_cols);

  const std::size_t a_nnz = static_cast<std::size_t>(a.nnz());
  const std::size_t tile = static_cast<std::size_t>(cfg.tile());
  const int col_bits = std::max(1, log2_ceil(static_cast<std::uint64_t>(
                                    std::max<index_t>(b.num_cols, 1))));
  const int row_bits = std::max(1, log2_ceil(static_cast<std::uint64_t>(
                                    std::max<index_t>(a.num_rows, 1))));
  const int rank_bits = log2_ceil(tile);
  plan.col_bits_ = col_bits;
  plan.phase_ = static_cast<std::size_t>(cfg.product_origin % tile);

  // ======================= Setup =======================================
  // Row ids of A's nonzeros and the segmented product-offset scan S.
  telemetry::ScopedSpan setup_span("spgemm.setup");
  plan.a_rows_ = sparse::expand_row_indices(a);
  auto& S = plan.prod_offsets_;
  S.assign(a_nnz + 1, 0);
  for (std::size_t k = 0; k < a_nnz; ++k) {
    S[k] = static_cast<std::uint64_t>(b.row_length(a.col[k]));
  }
  {
    const int setup_ctas =
        static_cast<int>(ceil_div(a_nnz, std::size_t{2048})) + 1;
    auto s = device.launch("merge.spgemm_setup", setup_ctas, cfg.block_threads,
                           [&](vgpu::Cta& cta) {
      const std::size_t lo = static_cast<std::size_t>(cta.cta_id()) * 2048;
      const std::size_t hi = std::min(a_nnz, lo + 2048);
      if (lo >= hi) return;
      cta.charge_global((hi - lo) * 2 * sizeof(index_t));
      cta.charge_gather(hi - lo);  // B row-length dereferences
      cta.charge_global((hi - lo) * sizeof(index_t));
    });
    stats.phases.setup_ms += s.modeled_ms;
  }
  const std::uint64_t num_products = primitives::device_exclusive_scan(
      device, "merge.spgemm_setup_scan", std::span<const std::uint64_t>(S),
      std::span<std::uint64_t>(S));
  stats.phases.setup_ms += device.log().back().modeled_ms;
  plan.num_products_ = static_cast<long long>(num_products);
  stats.num_products = plan.num_products_;
  setup_span.end();
  if (num_products == 0) {
    plan.seg_offsets_.assign(1, 0);
    stats.wall_ms = wall.milliseconds();
    out_plan = std::move(plan);
    return stats;
  }

  const std::size_t n_prod = static_cast<std::size_t>(num_products);
  const ProductTiling tiling{tile, plan.phase_, n_prod};
  const int num_ctas = tiling.num_ctas();
  plan.num_ctas_ = num_ctas;

  // Intermediate state carried between the two expansion passes — this is
  // the scheme's device footprint (what overflows on Dense): a 16-bit
  // local permutation and a head-flag bit per product, plus the plan's
  // smaller symbolic arrays.
  plan.device_mem_.emplace(device.memory(),
                           n_prod * sizeof(std::uint16_t) + n_prod / 8 + 1 +
                               (a_nnz + 1) * sizeof(std::uint64_t));
  plan.perm16_.resize(n_prod);
  plan.head_.resize(n_prod);

  // The key-rank embedding fits when col_bits + rank_bits <= 32; otherwise
  // fall back to a key-value pair sort (paper: "when possible").  Sorting
  // full-width keys (the bit-limiting ablation) would scramble embedded
  // ranks, so it forces the pair sort as well.
  stats.used_pair_sort =
      cfg.force_pair_sort || cfg.force_full_bits || (col_bits + rank_bits > 32);
  const int sort_bits = cfg.force_full_bits ? 32 : col_bits;

  // Per-CTA locally-unique tuples, then their compaction offsets.
  std::vector<std::vector<std::uint64_t>> cta_uniques(
      static_cast<std::size_t>(num_ctas));
  plan.unique_offset_.assign(static_cast<std::size_t>(num_ctas) + 1, 0);

  // ======================= Block Sort ===================================
  telemetry::ScopedSpan block_sort_span("spgemm.block_sort");
  {
    primitives::CtaSortConfig sort_cfg;
    sort_cfg.block_threads = cfg.block_threads;
    sort_cfg.items_per_thread = cfg.items_per_thread;
    const bool pair_sort = stats.used_pair_sort;
    auto s = device.launch("merge.spgemm_blocksort", num_ctas, cfg.block_threads,
                           [&](vgpu::Cta& cta) {
      const std::size_t p_lo = tiling.lo(cta.cta_id());
      const std::size_t p_hi = tiling.hi(cta.cta_id());
      const std::size_t count = p_hi - p_lo;
      std::vector<index_t> rows(count), cols(count);
      const std::size_t sources = expand_products(
          a, b, S, p_lo, p_hi, [&](std::size_t p, std::size_t k, std::size_t bk) {
            rows[p - p_lo] = plan.a_rows_[k];
            cols[p - p_lo] = b.col[bk];
          });
      charge_expansion(cta, a_nnz, count, sources, /*with_values=*/false);

      // One bit-limited radix sort on column indices.  Expansion order is
      // (row-major, column-sorted within each source nonzero), so a single
      // STABLE pass on columns leaves equal (row, col) tuples adjacent.
      std::vector<std::uint32_t> order(count);
      if (!pair_sort) {
        // Keys-only: origin rank embedded above the column bits.
        std::vector<std::uint32_t> keys(count);
        for (std::size_t i = 0; i < count; ++i) {
          keys[i] = static_cast<std::uint32_t>(primitives::embed_rank<std::uint32_t>(
              static_cast<std::uint32_t>(cols[i]), i, col_bits));
        }
        primitives::cta_radix_sort_keys<std::uint32_t>(
            cta, keys, 0, std::min(sort_bits, 32), sort_cfg);
        for (std::size_t i = 0; i < count; ++i) {
          order[i] = static_cast<std::uint32_t>(
              primitives::extract_rank(keys[i], col_bits));
        }
      } else {
        std::vector<std::uint32_t> keys(count), vals(count);
        for (std::size_t i = 0; i < count; ++i) {
          keys[i] = static_cast<std::uint32_t>(cols[i]);
          vals[i] = static_cast<std::uint32_t>(i);
        }
        primitives::cta_radix_sort<std::uint32_t>(cta, keys, vals, 0,
                                                  std::min(sort_bits, 32), sort_cfg);
        order = std::move(vals);
      }

      // Flag locally-unique tuples, store the permutation (16-bit) and the
      // reduced tuple set.
      auto& uniques = cta_uniques[static_cast<std::size_t>(cta.cta_id())];
      for (std::size_t s_i = 0; s_i < count; ++s_i) {
        const std::size_t o = order[s_i];
        plan.perm16_[p_lo + s_i] = static_cast<std::uint16_t>(o);
        const bool is_head = s_i == 0 || rows[o] != rows[order[s_i - 1]] ||
                             cols[o] != cols[order[s_i - 1]];
        plan.head_[p_lo + s_i] = is_head ? 1 : 0;
        if (is_head) uniques.push_back(pack_tuple(rows[o], cols[o], col_bits));
      }
      plan.unique_offset_[static_cast<std::size_t>(cta.cta_id())] =
          static_cast<std::uint64_t>(uniques.size());
      // Permutation + flags + reduced tuples stream out.
      cta.charge_global(count * sizeof(std::uint16_t) + count / 8 + 1);
      cta.charge_global(uniques.size() * sizeof(std::uint64_t));
      cta.charge_shared_elems(count);
      cta.charge_sync();
    });
    stats.phases.block_sort_ms += s.modeled_ms;
  }
  const std::uint64_t num_unique = primitives::device_exclusive_scan(
      device, "merge.spgemm_unique_scan",
      std::span<const std::uint64_t>(plan.unique_offset_),
      std::span<std::uint64_t>(plan.unique_offset_));
  stats.phases.block_sort_ms += device.log().back().modeled_ms;
  stats.block_unique = static_cast<long long>(num_unique);
  block_sort_span.end();

  // ======================= Global Sort ==================================
  telemetry::ScopedSpan global_sort_span("spgemm.global_sort");
  vgpu::ScopedDeviceAlloc unique_mem(
      device.memory(),
      static_cast<std::size_t>(num_unique) *
          (sizeof(std::uint64_t) + 2 * sizeof(std::uint32_t)));
  std::vector<std::uint64_t> keys(static_cast<std::size_t>(num_unique));
  std::vector<std::uint32_t> payload(static_cast<std::size_t>(num_unique));
  for (int i = 0; i < num_ctas; ++i) {
    std::copy(cta_uniques[static_cast<std::size_t>(i)].begin(),
              cta_uniques[static_cast<std::size_t>(i)].end(),
              keys.begin() +
                  static_cast<long>(plan.unique_offset_[static_cast<std::size_t>(i)]));
  }
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint32_t>(i);

  // The permutation-only sort of the reduced tuples (values still unformed).
  auto gsort = primitives::device_radix_sort_pairs(
      device, "merge.spgemm_globalsort", std::span<std::uint64_t>(keys),
      std::span<std::uint32_t>(payload), std::min(64, row_bits + col_bits));
  stats.phases.global_sort_ms += gsort.modeled_ms;

  // Inverse permutation: rank of each pre-sort unique tuple.
  plan.rank_.resize(payload.size());
  {
    const int rank_ctas =
        static_cast<int>(ceil_div(payload.size(), std::size_t{2048})) + 1;
    auto s = device.launch("merge.spgemm_rank", rank_ctas, cfg.block_threads,
                           [&](vgpu::Cta& cta) {
      const std::size_t lo = static_cast<std::size_t>(cta.cta_id()) * 2048;
      const std::size_t hi = std::min(payload.size(), lo + 2048);
      for (std::size_t i = lo; i < hi; ++i) {
        plan.rank_[payload[i]] = static_cast<std::uint32_t>(i);
      }
      if (lo < hi) {
        cta.charge_global((hi - lo) * sizeof(std::uint32_t));
        cta.charge_gather(hi - lo);
      }
    });
    stats.phases.global_sort_ms += s.modeled_ms;
  }
  global_sort_span.end();

  // ================== Other: pattern + segment assembly =================
  // The sorted key stream still holds cross-CTA duplicates; unique runs
  // become C's entries, and seg_offsets_ records each entry's run so the
  // numeric phase reduces with a plain segmented sum.
  {
    telemetry::ScopedSpan pattern_span("spgemm.pattern");
    CsrD& c = plan.pattern_;
    auto& seg = plan.seg_offsets_;
    const std::size_t m = keys.size();
    std::vector<std::uint64_t> out_keys;
    seg.clear();
    for (std::size_t i = 0; i < m; ++i) {
      if (i == 0 || keys[i] != keys[i - 1]) {
        out_keys.push_back(keys[i]);
        seg.push_back(static_cast<index_t>(i));
      }
    }
    seg.push_back(static_cast<index_t>(m));
    const std::size_t out_n = out_keys.size();
    c.col.resize(out_n);
    c.val.assign(out_n, 0.0);
    const std::uint64_t col_mask = (std::uint64_t{1} << col_bits) - 1;
    std::vector<index_t> row_counts(static_cast<std::size_t>(c.num_rows) + 1, 0);
    for (std::size_t i = 0; i < out_n; ++i) {
      const auto row = static_cast<index_t>(out_keys[i] >> col_bits);
      c.col[i] = static_cast<index_t>(out_keys[i] & col_mask);
      ++row_counts[static_cast<std::size_t>(row) + 1];
    }
    for (std::size_t r = 1; r < row_counts.size(); ++r) {
      row_counts[r] += row_counts[r - 1];
    }
    c.row_offsets = std::move(row_counts);

    const int csr_ctas = static_cast<int>(ceil_div(m, std::size_t{2048})) + 1;
    auto s = device.launch("merge.spgemm_pattern", csr_ctas, cfg.block_threads,
                           [&](vgpu::Cta& cta) {
      const std::size_t lo = static_cast<std::size_t>(cta.cta_id()) * 2048;
      const std::size_t hi = std::min(m, lo + 2048);
      if (lo >= hi) return;
      cta.charge_global((hi - lo) * sizeof(std::uint64_t));   // scan keys
      cta.charge_global((hi - lo) * 2 * sizeof(index_t));     // emit cols/segs
      cta.charge_alu_uniform(hi - lo);
    });
    stats.phases.other_ms += s.modeled_ms;
  }

  stats.wall_ms = wall.milliseconds();
  out_plan = std::move(plan);
  return stats;
}

double spgemm_numeric(vgpu::Device& device, const CsrD& a, const CsrD& b,
                      const SpgemmPlan& plan, CsrD& c) {
  if (!plan.valid()) {
    throw PlanMismatchError("spgemm_numeric requires a built plan");
  }
  MPS_CHECK(a.num_cols == b.num_rows);
  if (a.nnz() + 1 != static_cast<index_t>(plan.prod_offsets_.size())) {
    throw PlanMismatchError("matrix pattern does not match the plan: " +
                            std::to_string(a.nnz()) + " nonzeros vs " +
                            std::to_string(plan.prod_offsets_.size() - 1) +
                            " planned");
  }
  // The plan encodes the patterns: every source nonzero must still expand
  // to the same number of products (an O(nnz) check, negligible next to
  // the O(products) numeric work, and it catches same-size pattern drift).
  for (std::size_t k = 0; k < static_cast<std::size_t>(a.nnz()); ++k) {
    if (static_cast<std::uint64_t>(b.row_length(a.col[k])) !=
        plan.prod_offsets_[k + 1] - plan.prod_offsets_[k]) {
      throw PlanMismatchError(
          "matrix pattern does not match the plan: nonzero " +
          std::to_string(k) + " expands to a different product count");
    }
  }
  telemetry::ScopedSpan num_span("spgemm.numeric");
  double modeled_ms = 0.0;
  // Built locally and assigned to `c` only on success so a mid-pipeline
  // throw (an injected allocation failure, say) leaves the caller's
  // output untouched.
  CsrD out = plan.pattern_;
  if (plan.num_products_ == 0) {
    c = std::move(out);
    return modeled_ms;
  }

  const auto& cfg = plan.cfg_;
  const std::size_t tile = static_cast<std::size_t>(cfg.tile());
  const std::size_t n_prod = static_cast<std::size_t>(plan.num_products_);
  const std::size_t a_nnz = static_cast<std::size_t>(a.nnz());
  const std::size_t num_unique = plan.rank_.size();
  const ProductTiling tiling{tile, plan.phase_, n_prod};

  // ======================= Product Compute ==============================
  // Replay the expansion forming values, reduce within the CTA using the
  // stored permutation + flags, scatter partial sums into sorted order.
  telemetry::ScopedSpan products_span("spgemm.products");
  std::vector<double> sorted_vals(num_unique, 0.0);
  vgpu::ScopedDeviceAlloc vals_mem(device.memory(), num_unique * sizeof(double));
  auto s = device.launch("merge.spgemm_products", plan.num_ctas_,
                         cfg.block_threads, [&](vgpu::Cta& cta) {
    const std::size_t p_lo = tiling.lo(cta.cta_id());
    const std::size_t p_hi = tiling.hi(cta.cta_id());
    const std::size_t count = p_hi - p_lo;
    std::vector<double> vals(count);
    const std::size_t sources = expand_products(
        a, b, plan.prod_offsets_, p_lo, p_hi,
        [&](std::size_t p, std::size_t k, std::size_t bk) {
          vals[p - p_lo] = a.val[k] * b.val[bk];
        });
    charge_expansion(cta, a_nnz, count, sources, /*with_values=*/true);

    // Permuted segmented reduction (stored perm + head flags).
    std::size_t u = plan.unique_offset_[static_cast<std::size_t>(cta.cta_id())];
    double acc = 0.0;
    bool open = false;
    for (std::size_t s_i = 0; s_i < count; ++s_i) {
      if (plan.head_[p_lo + s_i]) {
        if (open) sorted_vals[plan.rank_[u++]] = acc;
        acc = 0.0;
        open = true;
      }
      acc += vals[plan.perm16_[p_lo + s_i]];
    }
    if (open) sorted_vals[plan.rank_[u++]] = acc;
    // Load perm/flags, shared-memory permute + segmented scan, scattered
    // stores of the reduced set.
    cta.charge_global(count * sizeof(std::uint16_t) + count / 8 + 1);
    cta.charge_shared_elems(3 * count);
    cta.charge_alu_uniform(2 * count);
    const std::size_t wrote =
        u - plan.unique_offset_[static_cast<std::size_t>(cta.cta_id())];
    cta.charge_gather(wrote);
    cta.charge_sync();
    cta.charge_sync();
  });
  modeled_ms += s.modeled_ms;
  products_span.end();

  // ======================= Product Reduce ===============================
  telemetry::ScopedSpan reduce_span("spgemm.reduce");
  // Cross-CTA duplicates are adjacent in sorted order; the plan's segment
  // offsets turn the reduction into a plain segmented sum into C.
  constexpr std::size_t kRedTile = 2048;
  const std::size_t out_n = out.col.size();
  const int red_ctas = static_cast<int>(ceil_div(out_n, kRedTile)) + 1;
  auto red = device.launch("merge.spgemm_reduce", red_ctas, cfg.block_threads,
                           [&](vgpu::Cta& cta) {
    const std::size_t lo = static_cast<std::size_t>(cta.cta_id()) * kRedTile;
    const std::size_t hi = std::min(out_n, lo + kRedTile);
    if (lo >= hi) return;
    std::vector<std::uint32_t> lens;
    lens.reserve(hi - lo);
    std::size_t read = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      double acc = 0.0;
      for (index_t k = plan.seg_offsets_[i]; k < plan.seg_offsets_[i + 1]; ++k) {
        acc += sorted_vals[static_cast<std::size_t>(k)];
      }
      out.val[i] = acc;
      const auto len = static_cast<std::uint32_t>(plan.seg_offsets_[i + 1] -
                                                  plan.seg_offsets_[i]);
      lens.push_back(len);
      read += len;
    }
    cta.charge_warp_divergent(lens);
    cta.charge_global(read * sizeof(double) +
                      (hi - lo) * (sizeof(double) + 2 * sizeof(index_t)));
  });
  modeled_ms += red.modeled_ms;
  reduce_span.end();
  c = std::move(out);
  // Output postcondition under MPS_INTEGRITY_CHECK: offsets monotone,
  // columns in range, values finite.
  if (resilience::integrity_checks_enabled()) {
    modeled_ms += resilience::check_csr(device, c, "merge.spgemm: C");
  }
  return modeled_ms;
}

std::vector<std::uint64_t> row_product_prefix(const CsrD& a, const CsrD& b) {
  MPS_CHECK(a.num_cols == b.num_rows);
  const auto num_rows = static_cast<std::size_t>(a.num_rows);
  std::vector<std::uint64_t> prefix(num_rows + 1, 0);
  for (std::size_t r = 0; r < num_rows; ++r) {
    std::uint64_t row_products = 0;
    for (index_t k = a.row_offsets[r]; k < a.row_offsets[r + 1]; ++k) {
      row_products += static_cast<std::uint64_t>(
          b.row_length(a.col[static_cast<std::size_t>(k)]));
    }
    prefix[r + 1] = prefix[r] + row_products;
  }
  return prefix;
}

SpgemmStats spgemm(vgpu::Device& device, const CsrD& a, const CsrD& b, CsrD& c,
                   const SpgemmConfig& cfg) {
  util::WallTimer wall;
  SpgemmPlan plan;
  SpgemmStats stats = spgemm_symbolic(device, a, b, plan, cfg);
  if (stats.num_products == 0) {
    c = CsrD(a.num_rows, b.num_cols);
    stats.wall_ms = wall.milliseconds();
    return stats;
  }
  // Split the numeric time across the two Fig 11 phases using the kernel
  // log (the last two launches are products + reduce).
  const std::size_t log_before = device.log().size();
  spgemm_numeric(device, a, b, plan, c);
  for (std::size_t i = log_before; i < device.log().size(); ++i) {
    const auto& k = device.log()[i];
    if (k.name == "merge.spgemm_reduce") {
      stats.phases.product_reduce_ms += k.modeled_ms;
    } else {
      stats.phases.product_compute_ms += k.modeled_ms;
    }
  }
  stats.wall_ms = wall.milliseconds();
  return stats;
}

}  // namespace mps::core::merge
