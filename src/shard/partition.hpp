#pragma once
// Weighted nnz-balanced row partitioning for sharded execution
// (docs/sharding.md).
//
// Splitting a CSR matrix into row blocks of equal *row count* recreates
// exactly the pathology the paper's merge-path decomposition exists to
// kill: one dense row makes one shard the straggler.  So shards are cut
// the way merge SpMV cuts CTAs — on the (rows x nnz) merge staircase,
// where a diagonal position d accounts for every row boundary AND every
// nonzero crossed so far.  Equal diagonal spans mean equal rows+nnz work
// regardless of how the nonzeros are distributed; a device with twice
// the modeled bandwidth gets a diagonal span twice as long (weighted
// cuts), which equalizes per-shard *time* across a heterogeneous fleet.
//
// The diagonal search is the same binary search as
// primitives/merge_path.hpp with the B sequence (the natural numbers
// 0..nnz-1) left implicit — cutting at diag d finds the row r such that
// merging row-end offsets with nonzero ordinals consumes exactly r row
// boundaries in the first d steps.

#include <cstdint>
#include <span>
#include <vector>

#include "util/common.hpp"

namespace mps::shard {

struct RowBlock {
  index_t row_begin = 0;
  index_t row_end = 0;  ///< exclusive; row_begin == row_end is an empty shard
  long long nnz = 0;    ///< nonzeros covered by the block
};

/// Cut the staircase of `row_end_offsets` (size num_rows + 1, offsets[0]
/// == 0, offsets[num_rows] == total work units) into weights.size()
/// blocks whose diagonal spans are proportional to `weights`.  Weights
/// must be positive; empty blocks are legal output (more shards than
/// rows, or a tiny weight).  Deterministic: a pure function of the
/// offsets and weights.
std::vector<RowBlock> partition_rows(std::span<const index_t> row_end_offsets,
                                     std::span<const double> weights);

/// The same cut over a 64-bit staircase: shard::spgemm cuts on
/// core::merge::row_product_prefix, whose product counts can exceed
/// index_t.
std::vector<RowBlock> partition_rows(
    std::span<const std::uint64_t> row_end_offsets,
    std::span<const double> weights);

/// Uniform-weight convenience: num_blocks equal diagonal spans.
std::vector<RowBlock> partition_rows(std::span<const index_t> row_end_offsets,
                                     int num_blocks);

}  // namespace mps::shard
