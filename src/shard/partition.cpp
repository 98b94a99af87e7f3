#include "shard/partition.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace mps::shard {

namespace {

/// Rows consumed by the first `diag` steps of merging row-end offsets
/// (A = offsets[1..rows]) with nonzero ordinals (B = 0..nnz-1, implicit).
/// Same search and A-first tie convention as primitives::merge_path.
template <typename Offset>
index_t diagonal_row(std::span<const Offset> offsets, long long diag) {
  const long long rows = static_cast<long long>(offsets.size()) - 1;
  const long long nnz = static_cast<long long>(offsets[offsets.size() - 1]);
  long long lo = std::max(0ll, diag - nnz);
  long long hi = std::min(diag, rows);
  while (lo < hi) {
    const long long ai = lo + (hi - lo) / 2;
    const long long bi = diag - ai - 1;  // b[bi] == bi (counting sequence)
    if (!(bi < static_cast<long long>(offsets[static_cast<std::size_t>(ai) + 1]))) {
      lo = ai + 1;
    } else {
      hi = ai;
    }
  }
  return static_cast<index_t>(lo);
}

template <typename Offset>
std::vector<RowBlock> cut_staircase(std::span<const Offset> row_end_offsets,
                                    std::span<const double> weights) {
  MPS_CHECK(!row_end_offsets.empty());
  MPS_CHECK(!weights.empty());
  double total_weight = 0.0;
  for (const double w : weights) {
    if (!(w > 0.0)) {
      throw InvalidInputError("partition_rows: weights must be positive");
    }
    total_weight += w;
  }
  const long long rows = static_cast<long long>(row_end_offsets.size()) - 1;
  const long long nnz =
      static_cast<long long>(row_end_offsets[row_end_offsets.size() - 1]);
  const long long total_diag = rows + nnz;

  std::vector<RowBlock> blocks;
  blocks.reserve(weights.size());
  index_t prev_row = 0;
  double prefix = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    prefix += weights[i];
    index_t row_end;
    if (i + 1 == weights.size()) {
      row_end = static_cast<index_t>(rows);  // exact, no fp residue
    } else {
      const long long diag = std::min(
          total_diag,
          static_cast<long long>(std::llround(
              prefix / total_weight * static_cast<double>(total_diag))));
      row_end = std::max(prev_row, diagonal_row(row_end_offsets, diag));
    }
    RowBlock b;
    b.row_begin = prev_row;
    b.row_end = row_end;
    b.nnz = static_cast<long long>(
                row_end_offsets[static_cast<std::size_t>(row_end)]) -
            static_cast<long long>(
                row_end_offsets[static_cast<std::size_t>(prev_row)]);
    blocks.push_back(b);
    prev_row = row_end;
  }
  return blocks;
}

}  // namespace

std::vector<RowBlock> partition_rows(std::span<const index_t> row_end_offsets,
                                     std::span<const double> weights) {
  return cut_staircase(row_end_offsets, weights);
}

std::vector<RowBlock> partition_rows(
    std::span<const std::uint64_t> row_end_offsets,
    std::span<const double> weights) {
  return cut_staircase(row_end_offsets, weights);
}

std::vector<RowBlock> partition_rows(std::span<const index_t> row_end_offsets,
                                     int num_blocks) {
  MPS_CHECK(num_blocks > 0);
  const std::vector<double> weights(static_cast<std::size_t>(num_blocks), 1.0);
  return partition_rows(row_end_offsets, weights);
}

}  // namespace mps::shard
