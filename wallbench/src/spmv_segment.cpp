// spmv_iterative: repeated spmv_execute through one prebuilt SpmvPlan per
// matrix, from a single caller, the way CG or PageRank drive it.

#include <cstring>

#include "baselines/seq.hpp"
#include "core/spmv.hpp"
#include "segments.hpp"
#include "util/rng.hpp"
#include "workloads/suite.hpp"

namespace wb {
namespace {

namespace merge = mps::core::merge;

// Irregular (LP, Webbase) and regular (Circuit, Wind Tunnel) rows, with
// working sets from ~13 MB to ~140 MB at scale 1.0.
const char* const kMatrices[] = {"LP", "Webbase", "Circuit", "Wind Tunnel"};
constexpr int kSlots = 2;  ///< distinct x vectors per matrix
constexpr int kSeqReps = 5;

struct Operand {
  std::string name;
  mps::sparse::CsrD a;
  merge::SpmvPlan plan;
  std::vector<double> x[kSlots];
  std::vector<double> y[kSlots];
  bool written[kSlots] = {false, false};
};

class SpmvSegment final : public Segment {
 public:
  SpmvSegment(const RunConfig& cfg, SegmentSize size) : cfg_(cfg), size_(size) {}

  double setup() override {
    ops_.clear();
    call_ms_.clear();
    tally_ = KernelTally{};
    first_sweep_ = KernelTally{};
    call_total_ms_ = 0.0;
    sweeps_ = 0;
    const Clock::time_point t0 = Clock::now();
    mps::util::Rng rng(cfg_.seed ^ 0x5e7u);
    for (const char* name : kMatrices) {
      Operand op;
      op.name = name;
      op.a = mps::workloads::suite_entry(name, size_.scale).matrix;
      for (double& v : op.a.val) v = rng.uniform_double(-1, 1);
      for (auto& x : op.x) {
        x.resize(static_cast<std::size_t>(op.a.num_cols));
        for (double& v : x) v = rng.uniform_double(-1, 1);
      }
      for (auto& y : op.y) y.assign(static_cast<std::size_t>(op.a.num_rows), 0.0);
      ops_.push_back(std::move(op));
    }
    const Clock::time_point t1 = Clock::now();
    for (Operand& op : ops_) op.plan = merge::spmv_plan(device_, op.a);
    const Clock::time_point t2 = Clock::now();
    call_ms_.resize(ops_.size());
    generate_s_ = ms_between(t0, t1) / 1e3;
    plan_ms_ = ms_between(t1, t2);
    return ms_between(t0, t2) / 1e3;
  }

  void round(Gate& gate) override {
    device_.clear_log();
    const Clock::time_point end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(size_.round_seconds));
    do {
      const int slot = static_cast<int>(sweeps_ % kSlots);
      for (std::size_t m = 0; m < ops_.size(); ++m) {
        Operand& op = ops_[m];
        gate.attempt();
        const Clock::time_point t0 = Clock::now();
        try {
          mps::telemetry::ScopedSpan span("bench.spmv_execute", "bench");
          merge::spmv_execute(device_, op.a, op.x[slot], op.y[slot], op.plan);
          op.written[slot] = true;
        } catch (const std::exception& e) {
          gate.fail(op.name + " spmv_execute threw: " + e.what());
        }
        const double ms = ms_between(t0, Clock::now());
        call_ms_[m].push_back(ms);
        call_total_ms_ += ms;
      }
      KernelTally sweep;
      sweep.drain(device_);
      tally_ += sweep;
      if (sweeps_ == 0) first_sweep_ = sweep;
      ++sweeps_;
    } while (Clock::now() < end);
  }

  double report(Sheet& e2e, Sheet* layer) override {
    double nnz = 0.0;
    double fast_sum_ms = 0.0;
    for (std::size_t m = 0; m < ops_.size(); ++m) {
      nnz += static_cast<double>(ops_[m].a.nnz());
      fast_sum_ms += percentile(call_ms_[m], kFastPercentile);
    }
    const double gnnz_per_s = nnz / fast_sum_ms * 1e-6;
    e2e.set("spmv_gnnz_per_s", gnnz_per_s, "Gnnz/s");
    e2e.note("spmv_gnnz_per_s.applies_per_matrix", static_cast<double>(sweeps_));
    if (layer == nullptr) return gnnz_per_s;

    const double applies = static_cast<double>(sweeps_) * static_cast<double>(ops_.size());
    Sheet& l = *layer;
    l.set("workloads.generate_s.spmv", generate_s_, "s");
    l.set("core.spmv_plan_ms", plan_ms_, "ms");
    l.set("core.spmv_applies", applies, "count");
    for (std::size_t m = 0; m < ops_.size(); ++m) {
      const Operand& op = ops_[m];
      std::vector<double> seq_ms;
      std::vector<double> y(op.y[0].size());
      for (int r = 0; r < kSeqReps; ++r) {
        const Clock::time_point t0 = Clock::now();
        mps::baselines::seq::spmv(op.a, op.x[0], y);
        seq_ms.push_back(ms_between(t0, Clock::now()));
      }
      const std::string k = key(op.name);
      const double exec = median(call_ms_[m]);
      const double seq = median(seq_ms);
      l.set("core.spmv_exec_ms." + k, exec, "ms");
      l.set("baselines.seq_spmv_ms." + k, seq, "ms");
      l.set("core.spmv_over_seq." + k, exec / seq, "x_seq");
    }
    for (const char* kname : {"merge.spmv_reduce", "merge.spmv_update"}) {
      l.set(std::string("vgpu.kernel_wall_ms.") + kname,
            tally_.wall_ms[kname] / applies, "ms");
    }
    l.set("vgpu.host_glue_ms.spmv", (call_total_ms_ - tally_.launch_wall_ms) / applies,
          "ms");
    l.set("vgpu.launches.spmv", static_cast<double>(first_sweep_.launches), "count");
    l.set("vgpu.modeled_ms.spmv", first_sweep_.modeled_ms, "modeled_ms");
    l.set("vgpu.bytes_moved.spmv", first_sweep_.bytes, "B_computed");
    l.set("vgpu.mem_peak_mb.spmv",
          static_cast<double>(device_.memory().peak()) / (1 << 20), "MiB");
    return gnnz_per_s;
  }

  void check(Gate& gate) override {
    if (cfg_.corrupt == "spmv" && !ops_.empty() && !ops_[0].y[0].empty()) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &ops_[0].y[0][0], sizeof bits);
      bits ^= 1;
      std::memcpy(&ops_[0].y[0][0], &bits, sizeof bits);
    }
    for (const Operand& op : ops_) {
      std::vector<double> ref(op.y[0].size());
      for (int s = 0; s < kSlots; ++s) {
        if (!op.written[s]) continue;
        mps::baselines::seq::spmv(op.a, op.x[s], ref);
        if (std::memcmp(ref.data(), op.y[s].data(), ref.size() * sizeof(double)) != 0) {
          gate.fail(op.name + " spmv y differs from baselines::seq");
        }
      }
    }
  }

  double working_set_bytes() const override {
    double bytes = 0.0;
    for (const Operand& op : ops_) {
      bytes += csr_bytes(op.a) +
               static_cast<double>(op.x[0].size() + op.y[0].size()) * sizeof(double);
    }
    return bytes;
  }

  bool higher_is_better() const override { return true; }

 private:
  RunConfig cfg_;
  SegmentSize size_;
  mps::vgpu::Device device_;
  std::vector<Operand> ops_;
  double generate_s_ = 0.0;
  double plan_ms_ = 0.0;
  std::vector<std::vector<double>> call_ms_;  ///< per matrix, every round
  KernelTally tally_;
  KernelTally first_sweep_;  ///< exact counts: value-independent
  double call_total_ms_ = 0.0;
  long long sweeps_ = 0;
};

}  // namespace

std::unique_ptr<Segment> make_spmv_segment(const RunConfig& cfg, SegmentSize size) {
  return std::make_unique<SpmvSegment>(cfg, size);
}

}  // namespace wb
