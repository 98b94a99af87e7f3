#include "report.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <unordered_map>
#include <utility>

#include "sparse/compare.hpp"
#include "util/stats.hpp"

namespace wb {

double median(std::vector<double> xs) { return percentile(xs, 50.0); }

double percentile(const std::vector<double>& xs, double p) {
  return mps::util::percentile(xs, p);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  double pages = 0.0, resident = 0.0;
  statm >> pages >> resident;
  return resident * static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

double csr_bytes(const mps::sparse::CsrD& a) {
  return static_cast<double>(a.nnz()) * (sizeof(double) + sizeof(mps::index_t)) +
         static_cast<double>(a.row_offsets.size()) * sizeof(mps::index_t);
}

std::uint64_t csr_bits(const mps::sparse::CsrD& c) {
  std::uint64_t h =
      fnv1a(c.row_offsets.data(), c.row_offsets.size() * sizeof(mps::index_t));
  h = fnv1a(c.col.data(), c.col.size() * sizeof(mps::index_t), h);
  return fnv1a(c.val.data(), c.val.size() * sizeof(double), h);
}

bool spgemm_matches_seq(const mps::sparse::CsrD& c, const mps::sparse::CsrD& ref) {
  return mps::sparse::compare_csr(c, ref, 1e-9, 1e-11).equal;
}

std::map<std::string, SelfTime> self_times(
    const std::vector<mps::telemetry::SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent_id != 0) children[spans[i].parent_id].push_back(i);
  }
  std::map<std::string, SelfTime> out;
  std::vector<std::pair<double, double>> cover;
  for (const auto& s : spans) {
    const double lo = s.start_us;
    const double hi = s.start_us + s.dur_us;
    cover.clear();
    if (auto it = children.find(s.span_id); it != children.end()) {
      for (std::size_t c : it->second) {
        const double a = std::max(lo, spans[c].start_us);
        const double b = std::min(hi, spans[c].start_us + spans[c].dur_us);
        if (b > a) cover.emplace_back(a, b);
      }
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double end = lo;
    for (const auto& [a, b] : cover) {
      if (b <= end) continue;
      covered += b - std::max(a, end);
      end = b;
    }
    SelfTime& t = out[s.name];
    ++t.count;
    t.total_ms += s.dur_us / 1e3;
    t.self_ms += (s.dur_us - covered) / 1e3;
  }
  return out;
}

std::string key(const std::string& name) {
  std::string k = name;
  std::replace(k.begin(), k.end(), ' ', '_');
  return k;
}

}  // namespace wb
