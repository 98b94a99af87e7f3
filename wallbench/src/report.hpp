#pragma once
// Shared plumbing for the wall-clock benchmark: the metric sheet every
// segment writes into, the correctness gate, timing statistics, and the
// self-time analysis of the spans a traced run collects.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sparse/csr.hpp"
#include "telemetry/span.hpp"

namespace wb {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Named metrics with units.  End-to-end and per-layer metrics live in
/// separate sheets; the driver prints one or the other.
class Sheet {
 public:
  struct Entry {
    double value = 0.0;
    std::string unit;
  };
  void set(const std::string& name, double value, const std::string& unit) {
    entries_[name] = Entry{value, unit};
  }
  const std::map<std::string, Entry>& entries() const { return entries_; }
  /// Context printed in the run record beside the metrics: sample counts
  /// behind percentiles and medians, generator lateness.
  void note(const std::string& name, double value) { notes_[name] = value; }
  const std::map<std::string, double>& notes() const { return notes_; }

 private:
  std::map<std::string, Entry> entries_;
  std::map<std::string, double> notes_;
};

/// Correctness bookkeeping for one run: every timed operation counts as
/// attempted; an operation that threw, was refused, or whose retained
/// result fails the comparison with baselines::seq counts as failed.
struct Gate {
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> failures;  ///< first few, for the log

  void attempt() { ++attempted; }
  void fail(const std::string& what) {
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
  bool correct() const { return failed == 0 && attempted > 0; }
};

/// Run-wide settings shared by the segments.  The engine's worker count
/// and the SLO limit have no defaults: BENCHMARK.json's command fixes them.
struct RunConfig {
  std::uint64_t seed = 0;
  bool tiny = false;        ///< self-test scale: every segment runs small
  /// Flip one bit of one result of the named segment before the gate
  /// ("spmv", "products", "serve"); the self-test proves the gate trips.
  std::string corrupt;
  unsigned engine_workers = 0;
  double slo_ms = 0.0;  ///< serve_slo_frac latency limit
};

/// The serving segment's open-loop arrival rate, per second (README
/// "Fixed settings").
inline constexpr double kServeRate = 77.0;
/// Generator lateness past which an open-loop run is invalid.
inline constexpr double kMaxLagMs = 100.0;
/// Rounds per run.  Each round runs every segment once, so each family's
/// samples are spread over the whole run (README "Estimators").
inline constexpr int kRounds = 4;
/// Percentile of per-call wall time behind the throughput metrics: the
/// fast decile, which the host's slow spells reach less than the median.
inline constexpr double kFastPercentile = 25.0;

double median(std::vector<double> xs);
double percentile(const std::vector<double>& xs, double p);  // p in [0, 100]

/// Peak resident set of the process so far, from getrusage.
double peak_rss_mb();

/// Resident set of the process now, from /proc/self/statm.
double current_rss_mb();

/// Bitwise fingerprint of a buffer (FNV-1a over its bytes).
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 1469598103934665603ull);

/// Bytes a CSR matrix occupies: values, columns and row offsets.
double csr_bytes(const mps::sparse::CsrD& a);

/// Bitwise fingerprint of a CSR matrix: offsets, columns and value bits.
std::uint64_t csr_bits(const mps::sparse::CsrD& c);

/// The SpGEMM correctness gate against baselines::seq: structure
/// (offsets, columns) bitwise equal, values within the relative bound the
/// repository's own SpGEMM tests use.  Merge-path SpGEMM sums each
/// output's products per CTA tile before combining tiles, so its values
/// round differently from Gustavson's left-to-right sum
/// (sparse/compare.hpp); bitwise equality with seq is not its contract.
bool spgemm_matches_seq(const mps::sparse::CsrD& c, const mps::sparse::CsrD& ref);

/// Self time per span name: each span's duration minus the part of its
/// interval its child spans cover.
struct SelfTime {
  long long count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
std::map<std::string, SelfTime> self_times(
    const std::vector<mps::telemetry::SpanRecord>& spans);

/// File-safe form of a matrix name for metric keys ("Wind Tunnel" ->
/// "Wind_Tunnel").
std::string key(const std::string& name);

}  // namespace wb
