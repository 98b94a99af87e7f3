// Ablations of the merge SpGEMM design choices called out in DESIGN.md:
//   (a) keys-only permutation embedding vs key-value pair block sort,
//   (b) bit-limited vs full 32-bit block sort,
//   (c) CTA tile size sweep,
//   (d) chunked SpGEMM under a forced device budget (the bounded-footprint
//       answer to the paper's Dense OOM).
#include <cstdio>
#include <cstring>

#include "analysis/experiment.hpp"
#include "baselines/seq.hpp"
#include "core/spgemm.hpp"
#include "core/spgemm_chunked.hpp"
#include "sparse/convert.hpp"
#include "util/table.hpp"
#include "workloads/generators.hpp"
#include "workloads/suite.hpp"

int main() {
  using namespace mps;
  const auto cfg = analysis::bench_config(/*default_scale=*/0.01);
  analysis::print_system_config(vgpu::gtx_titan(), cfg);

  // (a) + (b): sort-strategy ablation on a regular and an irregular matrix.
  {
    util::Table t("Ablation: block-sort strategy (modeled ms, merge SpGEMM)");
    t.set_header({"Matrix", "embedded+bit-limited", "pairs+bit-limited",
                  "pairs+full-32bit", "block sort share"});
    for (const auto* name : {"Protein", "Webbase"}) {
      const auto e = workloads::suite_entry(name, cfg.scale);
      vgpu::Device dev;
      sparse::CsrD c;
      core::merge::SpgemmConfig base;
      auto s0 = core::merge::spgemm(dev, e.matrix, e.matrix, c, base);
      core::merge::SpgemmConfig pairs = base;
      pairs.force_pair_sort = true;
      auto s1 = core::merge::spgemm(dev, e.matrix, e.matrix, c, pairs);
      core::merge::SpgemmConfig full = base;
      full.force_full_bits = true;
      auto s2 = core::merge::spgemm(dev, e.matrix, e.matrix, c, full);
      t.add_row({name, util::fmt(s0.modeled_ms(), 3), util::fmt(s1.modeled_ms(), 3),
                 util::fmt(s2.modeled_ms(), 3),
                 util::fmt(100.0 * s0.phases.block_sort_ms / s0.modeled_ms(), 1) + "%"});
    }
    std::fputs(t.render().c_str(), stdout);
    std::puts("");
  }

  // (c): tile-size sweep.
  {
    util::Table t("Ablation: CTA tile size (items per thread, 128 threads)");
    t.set_header({"items/thread", "tile", "modeled ms", "block uniques"});
    const auto e = workloads::suite_entry("Cantilever", cfg.scale);
    for (int items : {3, 7, 11, 15, 19}) {
      vgpu::Device dev;
      sparse::CsrD c;
      core::merge::SpgemmConfig sc;
      sc.items_per_thread = items;
      const auto s = core::merge::spgemm(dev, e.matrix, e.matrix, c, sc);
      t.add_row({util::fmt_int(items), util::fmt_int(sc.tile()),
                 util::fmt(s.modeled_ms(), 3),
                 util::fmt_sep(static_cast<unsigned long long>(s.block_unique))});
    }
    std::fputs(t.render().c_str(), stdout);
    std::puts("");
  }

  // (d): chunked SpGEMM with each chunk's budget forced to 1/8 of the
  // flat footprint estimate, so the pipeline runs over several row chunks;
  // the stitched C must equal flat bit for bit.
  {
    util::Table t("Ablation: chunked SpGEMM under a forced budget");
    t.set_header({"Matrix", "chunks", "modeled ms", "vs flat", "bitwise"});
    for (const auto* name : {"Dense", "Cantilever"}) {
      const auto e = workloads::suite_entry(name, cfg.scale);
      vgpu::Device dev;
      sparse::CsrD flat_c;
      const auto flat = core::merge::spgemm(dev, e.matrix, e.matrix, flat_c);
      core::merge::ChunkedConfig cc;
      cc.chunk_bytes = static_cast<std::size_t>(5 * flat.num_products + 4096);
      sparse::CsrD c;
      const auto s =
          core::merge::spgemm_chunked(dev, e.matrix, e.matrix, c, cc);
      const bool bitwise =
          c.row_offsets == flat_c.row_offsets && c.col == flat_c.col &&
          c.val.size() == flat_c.val.size() &&
          std::memcmp(c.val.data(), flat_c.val.data(),
                      c.val.size() * sizeof(double)) == 0;
      t.add_row({name, util::fmt_int(s.num_chunks),
                 util::fmt(s.modeled_ms(), 3),
                 util::fmt(s.modeled_ms() / flat.modeled_ms(), 2) + "x",
                 bitwise ? "yes" : "no"});
    }
    std::fputs(t.render().c_str(), stdout);
  }
  return 0;
}
