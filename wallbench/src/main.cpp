// wallbench — the repository's wall-clock benchmark (see README.md).
//
//   wallbench --workload spmv_iterative|matrix_products
//             --seed N --seconds S --trace 0|1 --workers W --slo-ms L
//             --out-dir D [--tiny] [--corrupt spmv|products|serve]
//
// Runs the named workload's kernel segment for S seconds, the other kernel
// segment as a short probe and the serving segment, taking turns over a
// few rounds, checks every retained result against baselines::seq, and
// prints one JSON object as the last line of stdout: end-to-end metrics
// with --trace 0, per-layer metrics with --trace 1.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "report.hpp"
#include "segments.hpp"
#include "telemetry/profile.hpp"
#include "telemetry/span.hpp"
#include "vgpu/trace.hpp"

namespace wb {
namespace {

/// Each segment sets up at least kSetupReps times, and a cheap one again
/// until kSetupSeconds are spent (at most kSetupMaxReps), so that the
/// median behind setup_s rests on more than three sub-second samples.
constexpr int kSetupReps = 3;
constexpr double kSetupSeconds = 1.0;
constexpr int kSetupMaxReps = 15;

struct Args {
  std::string workload;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir;  ///< span dumps and profiles of the traced run
  RunConfig cfg;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "wallbench: %s\n", why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.cfg.seed = std::stoull(value());
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value());
    } else if (flag == "--trace") {
      a.trace = value() == "1";
    } else if (flag == "--workers") {
      a.cfg.engine_workers = static_cast<unsigned>(std::stoul(value()));
    } else if (flag == "--slo-ms") {
      a.cfg.slo_ms = std::stod(value());
    } else if (flag == "--out-dir") {
      a.out_dir = value();
    } else if (flag == "--tiny") {
      a.cfg.tiny = true;
    } else if (flag == "--corrupt") {
      a.cfg.corrupt = value();
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_seed) usage("--seed is required");
  if (!(a.seconds > 0.0)) usage("--seconds is required and must be positive");
  if (a.out_dir.empty()) usage("--out-dir is required");
  if (a.cfg.engine_workers == 0) usage("--workers is required and must be positive");
  if (!(a.cfg.slo_ms > 0.0)) usage("--slo-ms is required and must be positive");
  return a;
}

/// One segment of this run and its size.
struct Planned {
  std::string name;
  SegmentSize size;
  bool primary = false;
  const char* role = "";  ///< for the log
};

/// The workload's own kernel segment at full size, with the run's seconds
/// split over the rounds, the other kernel segment as a short probe, and
/// the serve segment at its one size in every workload.
std::vector<Planned> plan(const Args& a) {
  struct Row {
    const char* name;
    const char* workload;       ///< none: the segment runs full size everywhere
    double scale;               ///< full size, for the segment's own workload
    double probe_scale;         ///< as a probe of the other workload
    double probe_round_seconds;
    double tiny_scale;          ///< self-test size
  };
  const Row rows[] = {
      {"spmv", "spmv_iterative", 1.0, 0.05, 0.6, 0.01},
      {"products", "matrix_products", 0.01, 0.005, 0.6, 0.002},
      {"serve", nullptr, 0.05, 0.05, 5.0, 0.01},
  };
  const bool tiny = a.cfg.tiny;
  const double own_round_seconds = a.seconds / kRounds;
  std::vector<Planned> out;
  for (const Row& r : rows) {
    const bool own = r.workload != nullptr && a.workload == r.workload;
    const double scale = tiny ? r.tiny_scale : own ? r.scale : r.probe_scale;
    const double seconds = own ? own_round_seconds : tiny ? 0.1 : r.probe_round_seconds;
    out.push_back({r.name, {scale, seconds}, own,
                   own ? "workload" : r.workload != nullptr ? "probe" : "every workload"});
  }
  if (std::none_of(out.begin(), out.end(), [](const Planned& p) { return p.primary; })) {
    usage("unknown workload " + a.workload);
  }
  return out;
}

std::unique_ptr<Segment> make(const Planned& p, const RunConfig& cfg) {
  if (p.name == "spmv") return make_spmv_segment(cfg, p.size);
  if (p.name == "products") return make_products_segment(cfg, p.size);
  return make_serve_segment(cfg, p.size);
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The traced run's per-layer table: self time per span name, the
/// benchmark's own bench.* spans holding each call's unattributed rest.
void print_self_times(const std::string& segment,
                      const std::vector<mps::telemetry::SpanRecord>& spans) {
  std::printf("per-layer self time, segment %s (%zu spans):\n", segment.c_str(),
              spans.size());
  std::printf("  %-28s %9s %12s %12s\n", "span", "count", "total_ms", "self_ms");
  for (const auto& [name, t] : self_times(spans)) {
    std::printf("  %-28s %9lld %12.3f %12.3f%s\n", name.c_str(), t.count, t.total_ms,
                t.self_ms,
                name.rfind("bench.", 0) == 0 ? "  (self = unattributed)" : "");
  }
}

void write_spans(const std::string& path) {
  std::vector<mps::vgpu::TraceTrack> none;
  mps::vgpu::write_perfetto_trace_file(path, none);
}

/// The traced pass of a segment: fresh inputs, then the same rounds as
/// the untraced pass, back to back, so the traced serve rounds send the
/// same requests (SpGEMM cluster included) and the library's spans belong
/// to this segment alone.  The per-layer numbers come from it; its
/// headline against the untraced `plain` gives the tracing overhead.
void traced_pass(const Args& a, const Planned& p, Segment& seg, double plain, Sheet& layer,
                 Gate& gate) {
  seg.setup();
  auto& tr = mps::telemetry::tracer();
  tr.clear();
  tr.enable();
  mps::telemetry::profiler().clear();
  mps::telemetry::profiler().enable();
  for (int r = 0; r < kRounds; ++r) seg.round(gate);
  tr.disable();
  mps::telemetry::profiler().disable();
  Sheet traced_e2e;
  const double traced = seg.report(traced_e2e, &layer);
  seg.check(gate);
  print_self_times(p.name, tr.snapshot());
  std::filesystem::create_directories(a.out_dir);
  const std::string stem =
      a.out_dir + "/" + a.workload + "-" + std::to_string(a.cfg.seed) + "-" + p.name;
  write_spans(stem + ".spans.json");
  std::ofstream prof(stem + ".profile.json");
  mps::telemetry::profiler().write_json(prof);
  tr.clear();
  if (p.primary) {
    const double frac = seg.higher_is_better() ? plain / traced - 1.0 : traced / plain - 1.0;
    layer.set("telemetry.trace_overhead_frac", frac, "frac");
  }
}

int run(const Args& a) {
  if (std::string(WALLBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "wallbench: refusing a %s build; configure with Release\n",
                 WALLBENCH_BUILD_TYPE);
    return 2;
  }
  Sheet e2e, layer;
  Gate gate;
  double setup_s = 0.0;
  std::string working_sets;
  const std::vector<Planned> planned = plan(a);
  std::vector<std::unique_ptr<Segment>> segs;
  for (const Planned& p : planned) {
    segs.push_back(make(p, a.cfg));
    std::vector<double> setups;
    double spent = 0.0;
    while (static_cast<int>(setups.size()) < kSetupReps ||
           (spent < kSetupSeconds && static_cast<int>(setups.size()) < kSetupMaxReps)) {
      setups.push_back(segs.back()->setup());
      spent += setups.back();
    }
    setup_s += median(setups);
    working_sets += (working_sets.empty() ? "" : ", ") + std::string("\"") + p.name +
                    "\": " + json_number(segs.back()->working_set_bytes());
    std::printf("segment %s (%s): scale %g, %d rounds of %g s, setup %.3f s (median of "
                "%zu), working set %.1f MB\n",
                p.name.c_str(), p.role, p.size.scale, kRounds,
                p.size.round_seconds, median(setups), setups.size(),
                segs.back()->working_set_bytes() / 1e6);
  }
  std::fflush(stdout);
  // Untraced: the segments take turns, round after round, so each one's
  // samples span the whole run.
  for (int r = 0; r < kRounds; ++r) {
    for (auto& seg : segs) seg->round(gate);
  }
  std::vector<double> plain;
  for (auto& seg : segs) {
    plain.push_back(seg->report(e2e, nullptr));
    seg->check(gate);
  }
  if (a.trace) {
    for (std::size_t i = 0; i < segs.size(); ++i) {
      traced_pass(a, planned[i], *segs[i], plain[i], layer, gate);
    }
  }
  e2e.set("setup_s", setup_s, "s");
  e2e.set("peak_rss_mb", peak_rss_mb(), "MiB");
  e2e.set("ok_frac",
          1.0 - static_cast<double>(gate.failed) / static_cast<double>(gate.attempted),
          "frac");

  std::string notes;
  for (const auto& [name, v] : e2e.notes()) {
    notes += (notes.empty() ? "" : ", ") + std::string("\"") + name + "\": " + json_number(v);
  }
  const char* threads = std::getenv("MPS_THREADS");
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  std::printf(
      "run record: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
      "\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", \"MPS_THREADS\": "
      "\"%s\", \"engine_workers\": %u, \"serve_rate\": %s, \"slo_ms\": %s, "
      "\"max_lag_ms\": %s, \"rounds\": %d, \"fast_percentile\": %s, "
      "\"reported_llc_bytes\": %ld, \"working_set_bytes\": {%s}, \"notes\": {%s}}\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.cfg.seed),
      json_number(a.seconds).c_str(), a.trace ? 1 : 0,
      std::thread::hardware_concurrency(), WALLBENCH_COMPILER, WALLBENCH_BUILD_TYPE,
      threads ? threads : "unset", a.cfg.engine_workers,
      json_number(kServeRate).c_str(), json_number(a.cfg.slo_ms).c_str(),
      json_number(kMaxLagMs).c_str(), kRounds, json_number(kFastPercentile).c_str(), llc,
      working_sets.c_str(), notes.c_str());
  for (const std::string& f : gate.failures) std::printf("FAILED: %s\n", f.c_str());

  const Sheet& out = a.trace ? layer : e2e;
  std::string metrics;
  for (const auto& [name, m] : out.entries()) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "wallbench: metric %s is not finite\n", name.c_str());
      return 1;
    }
    // Sample counts behind a percentile or median sit beside it.
    std::string beside;
    for (const auto& [note, v] : e2e.notes()) {
      if (note.rfind(name + ".", 0) == 0) {
        beside += "  " + note.substr(name.size() + 1) + "=" + json_number(v);
      }
    }
    std::printf("  %-44s %18.6f %-10s%s\n", name.c_str(), m.value, m.unit.c_str(),
                beside.c_str());
    metrics += (metrics.empty() ? "" : ", ") + std::string("\"") + name +
               "\": {\"value\": " + json_number(m.value) + ", \"unit\": \"" + m.unit +
               "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              gate.correct() ? "true" : "false", gate.attempted, gate.failed,
              metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace wb

int main(int argc, char** argv) {
  try {
    return wb::run(wb::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wallbench: %s\n", e.what());
    return 1;
  }
}
