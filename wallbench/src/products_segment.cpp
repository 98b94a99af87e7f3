// matrix_products: one-shot merge-path SpGEMM (A x A; A x A^T for LP, as
// in Fig 9) and SpAdd over the Table II set.  Output-producing,
// allocation- and sort-heavy: the write side of the core / primitives /
// vgpu layers, bypassing SpMV plans and serve.

#include <cstring>

#include "baselines/seq.hpp"
#include "core/spadd.hpp"
#include "core/spgemm.hpp"
#include "segments.hpp"
#include "sparse/convert.hpp"
#include "util/rng.hpp"
#include "workloads/suite.hpp"

namespace wb {
namespace {

namespace merge = mps::core::merge;
using mps::sparse::CooD;
using mps::sparse::CsrD;

const char* const kSpgemmPhases[] = {"setup",    "block_sort", "global_sort",
                                     "products", "reduce",     "pattern"};
const char* const kSpaddPhases[] = {"pack", "union"};

struct Operand {
  std::string name;
  CsrD a;
  CsrD b;        ///< right SpGEMM operand: A, or A^T for LP
  CsrD a2;       ///< A's pattern with other values: the SpAdd partner
  CooD a_coo;
  CooD a2_coo;
  long long products = 0;
  CsrD c_gemm;   ///< last SpGEMM result
  CooD c_add;    ///< last SpAdd result
  bool gemm_done = false;
  bool add_done = false;
  std::uint64_t gemm_bits = 0;  ///< first SpGEMM result; every call must match
};

template <typename V>
bool same_bits(const std::vector<V>& x, const std::vector<V>& y) {
  return x.size() == y.size() &&
         (x.empty() || std::memcmp(x.data(), y.data(), x.size() * sizeof(V)) == 0);
}

bool same_bits(const CsrD& x, const CsrD& y) {
  return x.num_rows == y.num_rows && x.num_cols == y.num_cols &&
         same_bits(x.row_offsets, y.row_offsets) && same_bits(x.col, y.col) &&
         same_bits(x.val, y.val);
}

class ProductsSegment final : public Segment {
 public:
  ProductsSegment(const RunConfig& cfg, SegmentSize size) : cfg_(cfg), size_(size) {}

  double setup() override {
    ops_.clear();
    s_ = Samples{};
    const Clock::time_point t0 = Clock::now();
    mps::util::Rng rng(cfg_.seed ^ 0x9e3u);
    for (const std::string& name : mps::workloads::suite_names()) {
      auto entry = mps::workloads::suite_entry(name, size_.scale);
      Operand op;
      op.name = name;
      op.a = std::move(entry.matrix);
      for (double& v : op.a.val) v = rng.uniform_double(-1, 1);
      op.a2 = op.a;
      for (double& v : op.a2.val) v = rng.uniform_double(-1, 1);
      op.b = entry.spgemm_transpose ? mps::sparse::transpose(op.a) : op.a;
      op.a_coo = mps::sparse::csr_to_coo(op.a);
      op.a2_coo = mps::sparse::csr_to_coo(op.a2);
      op.products = mps::baselines::seq::spgemm_num_products(op.a, op.b);
      ops_.push_back(std::move(op));
    }
    s_.gemm_ms.resize(ops_.size());
    s_.add_ms.resize(ops_.size());
    generate_s_ = ms_between(t0, Clock::now()) / 1e3;
    return generate_s_;
  }

  /// Whole passes over the Table II set until the round's seconds are up.
  void round(Gate& gate) override {
    device_.clear_log();
    const Clock::time_point end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(size_.round_seconds));
    do {
      const bool first_pass = s_.passes == 0;
      for (std::size_t m = 0; m < ops_.size(); ++m) call(m, first_pass, gate);
      ++s_.passes;
    } while (Clock::now() < end);
  }

  double report(Sheet& e2e, Sheet* layer) override {
    const std::size_t n = ops_.size();
    double products = 0.0, gemm_fast_ms = 0.0, add_nnz = 0.0, add_fast_ms = 0.0;
    for (std::size_t m = 0; m < n; ++m) {
      products += static_cast<double>(ops_[m].products);
      gemm_fast_ms += percentile(s_.gemm_ms[m], kFastPercentile);
      add_nnz += static_cast<double>(ops_[m].a.nnz()) * 2.0;
      add_fast_ms += percentile(s_.add_ms[m], kFastPercentile);
    }
    const double mprod_per_s = products / gemm_fast_ms * 1e-3;
    e2e.set("spgemm_mprod_per_s", mprod_per_s, "Mprod/s");
    e2e.set("spadd_mnnz_per_s", add_nnz / add_fast_ms * 1e-3, "Mnnz/s");
    e2e.note("spgemm_mprod_per_s.calls_per_matrix", static_cast<double>(s_.passes));
    e2e.note("spadd_mnnz_per_s.calls_per_matrix", static_cast<double>(s_.passes));
    if (layer == nullptr) return mprod_per_s;

    const double gemm_calls = static_cast<double>(s_.passes) * static_cast<double>(n);
    const double add_calls = gemm_calls;
    Sheet& l = *layer;
    l.set("workloads.generate_s.products", generate_s_, "s");
    double add_median_sum_ms = 0.0;
    for (std::size_t m = 0; m < n; ++m) {
      l.set("core.spgemm_ms." + key(ops_[m].name), median(s_.gemm_ms[m]), "ms");
      add_median_sum_ms += median(s_.add_ms[m]);
    }
    l.set("core.spadd_ms", add_median_sum_ms, "ms");
    l.set("core.spgemm_unique_ratio",
          static_cast<double>(s_.block_unique) / static_cast<double>(s_.pass_products),
          "ratio");
    // Phase self-times from the library's own spans, per suite pass.
    const auto self = self_times(mps::telemetry::tracer().snapshot());
    const double passes = static_cast<double>(s_.passes);
    auto self_ms = [&](const std::string& span) {
      auto it = self.find(span);
      return it == self.end() ? 0.0 : it->second.self_ms / passes;
    };
    for (const char* p : kSpgemmPhases) {
      l.set(std::string("core.spgemm_self_ms.") + p, self_ms(std::string("spgemm.") + p),
            "ms");
    }
    for (const char* p : kSpaddPhases) {
      l.set(std::string("core.spadd_self_ms.") + p, self_ms(std::string("spadd.") + p),
            "ms");
    }
    for (const char* kname : {"merge.spgemm_setup", "merge.spgemm_blocksort",
                              "merge.spgemm_rank", "merge.spgemm_products",
                              "merge.spgemm_reduce", "merge.spgemm_pattern"}) {
      l.set(std::string("vgpu.kernel_wall_ms.") + kname,
            s_.gemm_tally.wall_ms[kname] / gemm_calls, "ms");
    }
    double add_kernels = 0.0;
    for (const auto& [name, ms] : s_.add_tally.wall_ms) add_kernels += ms;
    l.set("vgpu.kernel_wall_ms.spadd_all", add_kernels / add_calls, "ms");
    l.set("vgpu.host_glue_ms.spgemm",
          (s_.gemm_call_ms - s_.gemm_tally.launch_wall_ms) / gemm_calls, "ms");
    l.set("vgpu.host_glue_ms.spadd",
          (s_.add_call_ms - s_.add_tally.launch_wall_ms) / add_calls, "ms");
    l.set("vgpu.launches.spgemm", static_cast<double>(s_.gemm_pass.launches), "count");
    l.set("vgpu.launches.spadd", static_cast<double>(s_.add_pass.launches), "count");
    l.set("vgpu.modeled_ms.spgemm", s_.gemm_pass.modeled_ms, "modeled_ms");
    l.set("vgpu.modeled_ms.spadd", s_.add_pass.modeled_ms, "modeled_ms");
    l.set("vgpu.bytes_moved.spgemm", s_.gemm_pass.bytes, "B_computed");
    l.set("vgpu.bytes_moved.spadd", s_.add_pass.bytes, "B_computed");
    l.set("vgpu.mem_peak_mb.products",
          static_cast<double>(device_.memory().peak()) / (1 << 20), "MiB");
    return mprod_per_s;
  }

  void check(Gate& gate) override {
    if (cfg_.corrupt == "products" && !ops_.empty() && !ops_[0].c_gemm.val.empty()) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &ops_[0].c_gemm.val[0], sizeof bits);
      bits ^= 1;
      std::memcpy(&ops_[0].c_gemm.val[0], &bits, sizeof bits);
    }
    for (const Operand& op : ops_) {
      if (op.gemm_done &&
          (csr_bits(op.c_gemm) != op.gemm_bits ||
           !spgemm_matches_seq(op.c_gemm, mps::baselines::seq::spgemm(op.a, op.b)))) {
        gate.fail(op.name + " spgemm C differs from its references");
      }
      if (op.add_done && !same_bits(mps::sparse::coo_to_csr(op.c_add),
                                    mps::baselines::seq::spadd(op.a, op.a2))) {
        gate.fail(op.name + " spadd C differs from baselines::seq");
      }
    }
  }

  double working_set_bytes() const override {
    double bytes = 0.0;
    for (const Operand& op : ops_) {
      bytes += 3.0 * csr_bytes(op.a);  // A, B and the SpAdd partner
    }
    return bytes;
  }

  bool higher_is_better() const override { return true; }

 private:
  /// One timed SpGEMM and one timed SpAdd of matrix m.
  void call(std::size_t m, bool first_pass, Gate& gate) {
    Operand& op = ops_[m];
    gate.attempt();
    bool ok = false;
    Clock::time_point t0 = Clock::now();
    try {
      mps::telemetry::ScopedSpan span("bench.spgemm", "bench");
      const merge::SpgemmStats st = merge::spgemm(device_, op.a, op.b, op.c_gemm);
      ok = true;
      if (first_pass) {
        s_.block_unique += st.block_unique;
        s_.pass_products += st.num_products;
      }
    } catch (const std::exception& e) {
      gate.fail(op.name + " spgemm threw: " + e.what());
    }
    double ms = ms_between(t0, Clock::now());
    // Untimed: merge SpGEMM is deterministic, so every repeat of one
    // product must reproduce the first result bit for bit.
    if (ok) {
      const std::uint64_t bits = csr_bits(op.c_gemm);
      if (!op.gemm_done) {
        op.gemm_bits = bits;
        op.gemm_done = true;
      } else if (bits != op.gemm_bits) {
        gate.fail(op.name + " spgemm result changed between calls");
      }
    }
    s_.gemm_ms[m].push_back(ms);
    s_.gemm_call_ms += ms;
    KernelTally tally;
    tally.drain(device_);
    s_.gemm_tally += tally;
    if (first_pass) s_.gemm_pass += tally;

    gate.attempt();
    t0 = Clock::now();
    try {
      mps::telemetry::ScopedSpan span("bench.spadd", "bench");
      merge::spadd(device_, op.a_coo, op.a2_coo, op.c_add);
      op.add_done = true;
    } catch (const std::exception& e) {
      gate.fail(op.name + " spadd threw: " + e.what());
    }
    ms = ms_between(t0, Clock::now());
    s_.add_ms[m].push_back(ms);
    s_.add_call_ms += ms;
    tally = KernelTally{};
    tally.drain(device_);
    s_.add_tally += tally;
    if (first_pass) s_.add_pass += tally;
  }

  /// Everything measured since setup().
  struct Samples {
    std::vector<std::vector<double>> gemm_ms, add_ms;  ///< per matrix
    KernelTally gemm_tally, add_tally;
    KernelTally gemm_pass, add_pass;  ///< first full pass, exact counts
    double gemm_call_ms = 0.0, add_call_ms = 0.0;
    long long passes = 0;
    long long block_unique = 0, pass_products = 0;
  };

  RunConfig cfg_;
  SegmentSize size_;
  mps::vgpu::Device device_;
  std::vector<Operand> ops_;
  Samples s_;
  double generate_s_ = 0.0;
};

}  // namespace

std::unique_ptr<Segment> make_products_segment(const RunConfig& cfg,
                                               SegmentSize size) {
  return std::make_unique<ProductsSegment>(cfg, size);
}

}  // namespace wb
