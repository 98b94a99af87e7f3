#pragma once
// The three measurement segments.  A workload runs its own kernel
// segment at full size, the other kernel segment as a short probe and the
// serving segment, interleaved over the run's rounds, so every run
// reports every end-to-end metric (see README.md).
//
// Each segment is timed from outside: the benchmark times calls into the
// public functions of workloads, core::merge, baselines::seq, vgpu::Device
// and serve::Engine, and reads the spans the library already emits.

#include <memory>
#include <string>
#include <vector>

#include "report.hpp"
#include "vgpu/device.hpp"

namespace wb {

/// Size of one segment in this run.
struct SegmentSize {
  double scale = 1.0;          ///< Table II scale of the generated matrices
  double round_seconds = 1.0;  ///< timed seconds per round
};

class Segment {
 public:
  virtual ~Segment() = default;
  /// Generate inputs, build plans / register matrices, and forget every
  /// earlier round.  Called several times; each call replaces the
  /// previous inputs.  Returns the seconds this set-up took.
  virtual double setup() = 0;
  /// One timed round of the segment's round_seconds (at least one full
  /// sweep over its inputs).  Keeps the samples for report().
  virtual void round(Gate& gate) = 0;
  /// Metrics over every round since setup(): end-to-end into `e2e`, and
  /// per-layer into `layer` when given (traced runs).  Returns the
  /// segment's headline metric, so that the traced and untraced values
  /// can be compared for tracing overhead.
  virtual double report(Sheet& e2e, Sheet* layer) = 0;
  /// Compare every retained result against baselines::seq.
  virtual void check(Gate& gate) = 0;
  /// Working-set bytes of the generated inputs (for the run record).
  virtual double working_set_bytes() const = 0;
  /// True when a larger headline value is better.
  virtual bool higher_is_better() const = 0;
};

std::unique_ptr<Segment> make_spmv_segment(const RunConfig& cfg, SegmentSize size);
std::unique_ptr<Segment> make_products_segment(const RunConfig& cfg,
                                               SegmentSize size);
/// Each round serves the last rate x round_seconds requests of the
/// trace's first 1001.
std::unique_ptr<Segment> make_serve_segment(const RunConfig& cfg, SegmentSize size);

/// Totals over vgpu::Device::log() entries.
struct KernelTally {
  std::map<std::string, double> wall_ms;  ///< host wall per kernel name
  double launch_wall_ms = 0.0;            ///< summed over every launch
  long long launches = 0;
  double modeled_ms = 0.0;
  double bytes = 0.0;  ///< computed global + gathered bytes

  /// Add every logged launch, then clear the log (it is unbounded).
  void drain(mps::vgpu::Device& device) {
    for (const auto& k : device.log()) {
      wall_ms[k.name] += k.wall_ms;
      launch_wall_ms += k.wall_ms;
      ++launches;
      modeled_ms += k.modeled_ms;
      bytes += static_cast<double>(k.totals.global_bytes + k.totals.gather_bytes);
    }
    device.clear_log();
  }

  KernelTally& operator+=(const KernelTally& o) {
    for (const auto& [name, ms] : o.wall_ms) wall_ms[name] += ms;
    launch_wall_ms += o.launch_wall_ms;
    launches += o.launches;
    modeled_ms += o.modeled_ms;
    bytes += o.bytes;
    return *this;
  }
};

}  // namespace wb
