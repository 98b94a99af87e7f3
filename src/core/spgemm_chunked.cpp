#include "core/spgemm_chunked.hpp"

#include <cstdint>
#include <span>
#include <vector>

#include "resilience/integrity.hpp"
#include "sparse/validate.hpp"
#include "util/timer.hpp"

namespace mps::core::merge {

using sparse::CsrD;

namespace {

/// Conservative device footprint of one flat-pipeline invocation over a
/// chunk with `n_prod` intermediate products and `a_nnz` source nonzeros:
/// perm16 + head bits + the product-offset scan, the unique-tuple arrays
/// (bounded by n_prod) and the global sort's ping-pong buffers, plus a
/// fixed floor for the scan/sort scratch of tiny chunks.
std::size_t chunk_footprint(std::uint64_t n_prod, std::uint64_t a_nnz) {
  return static_cast<std::size_t>(40 * n_prod + 16 * a_nnz + 4096);
}

/// End row of the chunk starting at r0.  Greedy: extend the chunk while
/// its estimated footprint fits the budget; a row is the atomic unit, so
/// a chunk always takes at least one row even when that row alone
/// overshoots (the per-chunk pipeline then reports the genuine OOM).
std::size_t chunk_end(const CsrD& a, std::span<const std::uint64_t> prefix,
                      std::size_t r0, std::size_t budget) {
  const auto num_rows = static_cast<std::size_t>(a.num_rows);
  std::size_t r1 = r0 + 1;
  while (r1 < num_rows &&
         chunk_footprint(prefix[r1 + 1] - prefix[r0],
                         static_cast<std::uint64_t>(a.row_offsets[r1 + 1] -
                                                    a.row_offsets[r0])) <=
             budget) {
    ++r1;
  }
  return r1;
}

}  // namespace

ChunkedSpgemmStats spgemm_chunked(vgpu::Device& device, const CsrD& a,
                                  const CsrD& b, CsrD& c,
                                  const ChunkedConfig& cfg) {
  MPS_CHECK(a.num_cols == b.num_rows);
  // Chunk sizing reads A's structure, so strict mode validates first.
  if (sparse::strict_validation()) {
    sparse::validate_csr(a, "spgemm_chunked: A");
    sparse::validate_csr(b, "spgemm_chunked: B");
  }
  util::WallTimer wall;
  ChunkedSpgemmStats stats;

  // prefix[r] is both the chunking measure and, offset by the caller's
  // origin, each chunk's product_origin.
  const std::vector<std::uint64_t> prefix = row_product_prefix(a, b);
  stats.num_products = static_cast<long long>(prefix.back());

  const std::size_t free_bytes =
      device.memory().capacity() - device.memory().in_use();
  stats.chunk_budget_bytes =
      cfg.chunk_bytes > 0 ? cfg.chunk_bytes : free_bytes / 2;

  const auto num_rows = static_cast<std::size_t>(a.num_rows);
  if (chunk_end(a, prefix, 0, stats.chunk_budget_bytes) >= num_rows) {
    // One chunk covers A: the flat pipeline on A itself.
    const SpgemmStats flat = spgemm(device, a, b, c, cfg.flat);
    stats.num_chunks = 1;
    stats.phases = flat.phases;
    stats.wall_ms = wall.milliseconds();
    return stats;
  }

  // Built locally and assigned to `c` only on success (strong guarantee).
  CsrD out(0, b.num_cols);
  for (std::size_t r0 = 0; r0 < num_rows;) {
    const std::size_t r1 = chunk_end(a, prefix, r0, stats.chunk_budget_bytes);
    SpgemmConfig chunk_cfg = cfg.flat;
    chunk_cfg.product_origin += prefix[r0];
    CsrD c_sub;
    const SpgemmStats sub_stats =
        spgemm(device,
               sparse::row_slice(a, static_cast<index_t>(r0),
                                 static_cast<index_t>(r1)),
               b, c_sub, chunk_cfg);

    stats.phases.setup_ms += sub_stats.phases.setup_ms;
    stats.phases.block_sort_ms += sub_stats.phases.block_sort_ms;
    stats.phases.global_sort_ms += sub_stats.phases.global_sort_ms;
    stats.phases.product_compute_ms += sub_stats.phases.product_compute_ms;
    stats.phases.product_reduce_ms += sub_stats.phases.product_reduce_ms;
    stats.phases.other_ms += sub_stats.phases.other_ms;

    sparse::append_rows(out, c_sub);
    ++stats.num_chunks;
    r0 = r1;
  }

  c = std::move(out);
  // Chunk outputs were checked inside spgemm; this covers the stitched
  // result under MPS_INTEGRITY_CHECK.
  if (resilience::integrity_checks_enabled()) {
    stats.phases.other_ms +=
        resilience::check_csr(device, c, "merge.spgemm_chunked: C");
  }
  stats.wall_ms = wall.milliseconds();
  return stats;
}

}  // namespace mps::core::merge
