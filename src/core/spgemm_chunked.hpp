#pragma once
// Chunked merge-path SpGEMM: the one SpGEMM entry point with a bounded
// device footprint, the answer to the paper's Dense case (Fig 9), where
// the flat pipeline's intermediate product stream does not fit in device
// memory.  The serving engine and every shard::spgemm slice run here.
//
// row_product_prefix() sizes A's rows before anything is allocated; A is
// split into contiguous whole-row chunks whose estimated device footprint
// stays under a budget, the flat merge pipeline runs per chunk, and the
// per-chunk outputs are stitched into C.  When one chunk covers all of A
// this is exactly spgemm() on A itself: no copies, identical modeled cost.
//
// The stitched result is BITWISE identical to the flat path's:
//
//   * chunks are whole-row ranges, so every output tuple's intermediate
//     products live entirely inside one chunk — no partial sum ever
//     crosses a chunk boundary;
//   * each chunk adds its product prefix to SpgemmConfig::product_origin,
//     aligning CTA tile boundaries to the *global* product stream; the
//     per-tuple partial-sum grouping (which products each CTA reduces
//     together) therefore matches flat exactly, and floating-point sums
//     follow the identical association order.
//
// Throws vgpu::DeviceOomError only when a single row's expansion alone
// exceeds the budgetable memory (rows are the atomic unit).

#include <cstddef>

#include "core/spgemm.hpp"
#include "sparse/csr.hpp"
#include "vgpu/device.hpp"

namespace mps::core::merge {

struct ChunkedConfig {
  /// Geometry forwarded to each chunk's pipeline; its product_origin is
  /// the global index of A's first product (non-zero for a row slice).
  SpgemmConfig flat;
  /// Absolute per-chunk device budget in bytes; 0 derives the budget as
  /// half the device's free memory at call time (the headroom covers the
  /// sort's transient allocations being estimates, not exact charges).
  std::size_t chunk_bytes = 0;
};

struct ChunkedSpgemmStats {
  int num_chunks = 0;
  long long num_products = 0;          ///< total across all chunks
  SpgemmPhases phases;                 ///< summed across chunks
  std::size_t chunk_budget_bytes = 0;  ///< the budget chunks were sized to
  double wall_ms = 0.0;
  double modeled_ms() const { return phases.total_ms(); }
};

/// C = A x B with bounded device footprint; bitwise identical to
/// spgemm().  Strong guarantee: on throw, device accounting is restored
/// and `c` is untouched.
ChunkedSpgemmStats spgemm_chunked(vgpu::Device& device, const sparse::CsrD& a,
                                  const sparse::CsrD& b, sparse::CsrD& c,
                                  const ChunkedConfig& cfg = {});

}  // namespace mps::core::merge
