// The serving segment: an open loop at a fixed arrival rate through
// serve::Engine, run at the same size in every workload.
// Six tenants, a Zipf 1.1 mix of SpMV / SpAdd / SpGEMM from
// serve::synthetic_trace, batching and the plan cache at their defaults.
// Every request is timed from the moment it was due, so a stall charges
// the wait it imposes on the requests behind it.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "baselines/seq.hpp"
#include "segments.hpp"
#include "serve/engine.hpp"
#include "serve/trace.hpp"
#include "util/rng.hpp"
#include "workloads/suite.hpp"

namespace wb {
namespace {

namespace serve = mps::serve;
using mps::sparse::CsrD;

constexpr std::size_t kTenants = 6;

/// A run serves a window of synthetic_trace's default sequence that ends
/// here: 0.42 s (at kServeRate) after the sequence's first SpGEMM cluster
/// (Cantilever at request 932, Spheres 964, Protein 969) has both workers
/// busy, so every window's tail is set by head-of-line blocking behind it.
constexpr std::size_t kWindowEnd = 1001;

std::vector<double> make_x(const CsrD& a, std::uint64_t seed) {
  mps::util::Rng rng(seed);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols));
  for (double& v : x) v = rng.uniform_double(-1, 1);
  return x;
}

std::uint64_t hash_y(const std::vector<double>& y) {
  return fnv1a(y.data(), y.size() * sizeof(double));
}


/// One request's record, from due time to settle.
struct Sent {
  serve::TraceOp op;
  Clock::time_point due;
  Clock::time_point submit_begin;
  Clock::time_point submit_end;
  Clock::time_point settled;
  bool ok = false;       ///< settled with a value
  bool errored = false;  ///< settled with an error
  std::uint64_t hash = 0;
};

/// A future the collector thread polls until it settles.
struct InFlight {
  std::size_t index = 0;
  std::future<serve::SpmvResult> spmv;
  std::future<serve::MatrixResult> matrix;
};

/// Bytes fingerprinted between two polls of the outstanding futures, so
/// hashing a large answer delays noticing the next settle by one slice.
constexpr std::size_t kDigestSlice = 64 * 1024;

/// A settled answer whose fingerprint the collector computes a slice at a
/// time, over the bytes hash_y / csr_bits read, in their order.
struct Digest {
  std::size_t index = 0;
  std::vector<double> y;  ///< SpMV answer
  CsrD c;                 ///< SpAdd / SpGEMM answer
  bool matrix = false;
  std::size_t part = 0;  ///< current buffer: y, or offsets / columns / values
  std::size_t done = 0;  ///< bytes of it already hashed
  std::uint64_t hash = fnv1a(nullptr, 0);

  std::pair<const void*, std::size_t> buffer(std::size_t i) const {
    if (!matrix) return {y.data(), y.size() * sizeof(double)};
    if (i == 0) return {c.row_offsets.data(), c.row_offsets.size() * sizeof(mps::index_t)};
    if (i == 1) return {c.col.data(), c.col.size() * sizeof(mps::index_t)};
    return {c.val.data(), c.val.size() * sizeof(double)};
  }

  /// Hash up to `budget` more bytes; true once every buffer is hashed.
  bool step(std::size_t budget) {
    const std::size_t parts = matrix ? 3 : 1;
    while (part < parts && budget > 0) {
      const auto [data, bytes] = buffer(part);
      const std::size_t take = std::min(budget, bytes - done);
      hash = fnv1a(static_cast<const unsigned char*>(data) + done, take, hash);
      done += take;
      budget -= take;
      if (done == bytes) {
        ++part;
        done = 0;
      }
    }
    return part == parts;
  }
};

/// Sums of per-request layer time from the library's serve spans.
struct Ledger {
  double queue_wait = 0.0;
  double assemble = 0.0;
  double plan_build = 0.0;
  double scatter = 0.0;
  std::map<std::string, double> execute;  ///< by op class
};

Ledger attribute(const std::vector<mps::telemetry::SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent_id != 0) children[spans[i].parent_id].push_back(i);
  }
  // Total duration of descendants with a given name prefix, and whether
  // any descendant carries the prefix at all.
  auto descendants = [&](std::uint64_t id, const std::string& prefix) {
    double ms = 0.0;
    bool any = false;
    std::vector<std::uint64_t> stack{id};
    while (!stack.empty()) {
      const std::uint64_t cur = stack.back();
      stack.pop_back();
      auto it = children.find(cur);
      if (it == children.end()) continue;
      for (std::size_t c : it->second) {
        if (spans[c].name.rfind(prefix, 0) == 0) {
          ms += spans[c].dur_us / 1e3;
          any = true;
        }
        stack.push_back(spans[c].span_id);
      }
    }
    return std::make_pair(ms, any);
  };
  Ledger l;
  for (const auto& r : spans) {
    if (r.name != "serve.request") continue;
    auto it = children.find(r.span_id);
    if (it == children.end()) continue;  // coalesced behind a batch head
    double first = r.start_us + r.dur_us;
    for (std::size_t c : it->second) {
      const auto& s = spans[c];
      first = std::min(first, s.start_us);
      if (s.name == "serve.batch_assemble") l.assemble += s.dur_us / 1e3;
      if (s.name == "serve.batch_scatter") l.scatter += s.dur_us / 1e3;
      if (s.name != "serve.execute") continue;
      const double plan = descendants(s.span_id, "serve.plan_build").first;
      const char* op = descendants(s.span_id, "spgemm.").second  ? "spgemm"
                       : descendants(s.span_id, "spadd.").second ? "spadd"
                                                                 : "spmv";
      l.plan_build += plan;
      l.execute[op] += s.dur_us / 1e3 - plan;
    }
    l.queue_wait += std::max(0.0, first - r.start_us) / 1e3;
  }
  return l;
}

class ServeSegment final : public Segment {
 public:
  ServeSegment(const RunConfig& cfg, SegmentSize size) : cfg_(cfg), size_(size) {}

  double setup() override {
    engine_.reset();
    tenants_.clear();
    handles_.clear();
    rounds_.clear();
    all_sent_.clear();
    first_gemm_.clear();
    submit_ms_.clear();
    pooled_ms_.clear();
    within_slo_ = 0;
    latency_sum_ = 0.0;
    lag_sum_ = 0.0;
    const Clock::time_point t0 = Clock::now();
    mps::util::Rng rng(cfg_.seed ^ 0x5e21u);
    // Square Table II surrogates: the trace self-pairs SpAdd / SpGEMM
    // operands, which needs square dims.
    for (const std::string& name : mps::workloads::suite_names()) {
      if (tenants_.size() == kTenants) break;
      auto entry = mps::workloads::suite_entry(name, size_.scale);
      if (entry.matrix.num_rows != entry.matrix.num_cols) continue;
      for (double& v : entry.matrix.val) v = rng.uniform_double(-1, 1);
      tenants_.push_back(std::move(entry));
    }
    const Clock::time_point t1 = Clock::now();
    serve::EngineConfig ec;
    ec.threads = cfg_.engine_workers;
    ec.chaos_enabled = 0;
    ec.durable_enabled = 0;
    ec.devices = 0;
    ec.slo_enabled = 0;
    engine_ = std::make_unique<serve::Engine>(ec);
    for (const auto& t : tenants_) handles_.push_back(engine_->register_matrix(t.matrix));
    const Clock::time_point t2 = Clock::now();
    generate_s_ = ms_between(t0, t1) / 1e3;
    register_ms_ = ms_between(t1, t2);
    return ms_between(t0, t2) / 1e3;
  }

  /// Replay the window once through the running engine, open loop, and
  /// wait until every request settled.  The engine, its plan cache and
  /// its stats carry over from round to round, as they would in a
  /// long-running server.
  void round(Gate& gate) override {
    // The request sequence is synthetic_trace's default one, so every run
    // carries the same op and tenant mix; the run seed draws the matrix
    // values and the x vectors.  Drawing the sequence per seed changes
    // which tenants the ~1% SpGEMM heavies hit, and with them the tail.
    // A round serves the last rate x round_seconds requests before
    // kWindowEnd.
    const auto count = static_cast<std::size_t>(std::ceil(kServeRate * size_.round_seconds));
    const std::size_t offset = count < kWindowEnd ? kWindowEnd - count : 0;
    serve::TraceConfig tc;
    tc.requests = offset + count;
    tc.zipf_s = 1.1;
    std::vector<serve::TraceOp> trace = serve::synthetic_trace(tc, tenants_.size());
    trace.erase(trace.begin(), trace.begin() + static_cast<std::ptrdiff_t>(offset));
    for (serve::TraceOp& op : trace) op.x_seed ^= cfg_.seed * 0x9e3779b97f4a7c15ull;
    sent_.assign(trace.size(), Sent{});

    {
      std::mutex mu;
      std::condition_variable cv;
      std::deque<InFlight> inbox;
      bool done = false;
      std::thread collector([&] { collect(mu, cv, inbox, done); });
      // Ends the collector on every path out of the submit loop.
      struct Finish {
        std::mutex& mu;
        std::condition_variable& cv;
        bool& done;
        std::thread& t;
        void stop() {
          {
            std::lock_guard<std::mutex> lock(mu);
            done = true;
          }
          cv.notify_one();
          if (t.joinable()) t.join();
        }
        ~Finish() { stop(); }
      } finish{mu, cv, done, collector};

      const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
      const auto period = std::chrono::duration<double>(1.0 / kServeRate);
      for (std::size_t i = 0; i < trace.size(); ++i) {
        sent_[i].due = start + std::chrono::duration_cast<Clock::duration>(
                                   period * static_cast<double>(i));
        InFlight f = submit(i, trace[i], gate);
        if (f.spmv.valid() || f.matrix.valid()) {
          std::lock_guard<std::mutex> lock(mu);
          inbox.push_back(std::move(f));
        }
        cv.notify_one();
      }
      finish.stop();
    }
    engine_->drain();
    if (rounds_.empty()) rss_first_ = current_rss_mb();
    rss_last_ = current_rss_mb();

    RoundStats r;
    std::vector<double> all, spmv, lag;
    long long within_slo = 0;
    for (const Sent& s : sent_) {
      if (s.errored) gate.fail("request settled with an error");
      lag.push_back(ms_between(s.due, s.submit_begin));
      if (!s.ok) continue;
      const double ms = ms_between(s.due, s.settled);
      all.push_back(ms);
      latency_sum_ += ms;
      if (s.op.kind == serve::OpKind::kSpmv) spmv.push_back(ms);
      if (ms <= cfg_.slo_ms) ++within_slo;
    }
    for (double v : lag) lag_sum_ += v;
    r.lag_p99 = percentile(lag, 99.0);
    r.lag_max = *std::max_element(lag.begin(), lag.end());
    if (r.lag_max > kMaxLagMs) {
      throw std::runtime_error("open loop ran late: generator lag max " +
                               std::to_string(r.lag_max) + " ms exceeds the " +
                               std::to_string(kMaxLagMs) + " ms bound");
    }
    r.p50 = percentile(all, 50.0);
    r.p99 = percentile(all, 99.0);
    pooled_ms_.insert(pooled_ms_.end(), all.begin(), all.end());
    within_slo_ += within_slo;
    r.spmv_p99 = percentile(spmv, 99.0);
    r.slo_frac = static_cast<double>(within_slo) / static_cast<double>(sent_.size());
    r.samples = static_cast<double>(all.size());
    r.spmv_samples = static_cast<double>(spmv.size());
    rounds_.push_back(r);
    std::printf("serve round %zu: p50 %.3f ms, p99 %.1f ms, spmv p99 %.1f ms, slo %.3f, "
                "%zu requests\n",
                rounds_.size(), r.p50, r.p99, r.spmv_p99, r.slo_frac, sent_.size());
    for (Sent& s : sent_) all_sent_.push_back(std::move(s));
    sent_.clear();
  }

  /// Every round served the same requests.  serve_p50_ms and
  /// serve_slo_frac pool the requests of all rounds; each p99, set by the
  /// one SpGEMM cluster a round holds, is the median of the rounds' p99s
  /// (README "Estimators").
  double report(Sheet& e2e, Sheet* layer) override {
    RoundStats least = rounds_.front();  ///< fewest samples, latest generator
    std::vector<double> p99s, spmv_p99s;
    for (const RoundStats& r : rounds_) {
      p99s.push_back(r.p99);
      spmv_p99s.push_back(r.spmv_p99);
      least.samples = std::min(least.samples, r.samples);
      least.spmv_samples = std::min(least.spmv_samples, r.spmv_samples);
      least.lag_p99 = std::max(least.lag_p99, r.lag_p99);
      least.lag_max = std::max(least.lag_max, r.lag_max);
    }
    const double p50 = percentile(pooled_ms_, 50.0);
    e2e.set("serve_p50_ms", p50, "ms");
    e2e.set("serve_p99_ms", median(p99s), "ms");
    e2e.set("serve_spmv_p99_ms", median(spmv_p99s), "ms");
    e2e.set("serve_slo_frac",
            static_cast<double>(within_slo_) / static_cast<double>(all_sent_.size()), "frac");
    const auto rounds = static_cast<double>(rounds_.size());
    e2e.note("serve_p50_ms.samples", static_cast<double>(pooled_ms_.size()));
    e2e.note("serve_p99_ms.samples_per_round", least.samples);
    e2e.note("serve_spmv_p99_ms.samples_per_round", least.spmv_samples);
    e2e.note("serve_p99_ms.rounds", rounds);
    e2e.note("serve.gen_lag_ms_p99", least.lag_p99);
    e2e.note("serve.gen_lag_ms_max", least.lag_max);
    if (layer == nullptr) return p50;

    Sheet& l = *layer;
    const double n = static_cast<double>(all_sent_.size());
    double submit_sum = 0.0;
    for (double v : submit_ms_) submit_sum += v;
    const Ledger led = attribute(mps::telemetry::tracer().snapshot());
    double attributed = lag_sum_ + submit_sum + led.queue_wait + led.assemble +
                        led.plan_build + led.scatter;
    l.set("workloads.generate_s.serve", generate_s_, "s");
    l.set("serve.register_ms", register_ms_, "ms");
    l.set("serve.samples", static_cast<double>(pooled_ms_.size()), "count");
    l.set("serve.spmv_samples", least.spmv_samples * rounds, "count");
    l.set("serve.latency_mean_ms", latency_sum_ / n, "ms");
    l.set("bench.gen_lag_ms_mean", lag_sum_ / n, "ms");
    l.set("bench.gen_lag_ms_p99", least.lag_p99, "ms");
    l.set("bench.gen_lag_ms_max", least.lag_max, "ms");
    l.set("serve.submit_ms_mean", submit_sum / n, "ms");
    l.set("serve.submit_ms_p99", percentile(submit_ms_, 99.0), "ms");
    l.set("serve.queue_wait_ms", led.queue_wait / n, "ms");
    l.set("serve.batch_assemble_ms", led.assemble / n, "ms");
    l.set("serve.plan_build_ms", led.plan_build / n, "ms");
    for (const char* op : {"spmv", "spadd", "spgemm"}) {
      const auto it = led.execute.find(op);
      const double ms = it == led.execute.end() ? 0.0 : it->second;
      attributed += ms;
      l.set(std::string("serve.execute_ms.") + op, ms / n, "ms");
    }
    l.set("serve.batch_scatter_ms", led.scatter / n, "ms");
    l.set("serve.unattributed_ms", (latency_sum_ - attributed) / n, "ms");

    const serve::EngineStats st = engine_->stats();
    double dispatches = 0.0, coalesced = 0.0;
    for (std::size_t k = 1; k < st.batch_histogram.size(); ++k) {
      dispatches += static_cast<double>(st.batch_histogram[k]);
      coalesced += static_cast<double>(k) * static_cast<double>(st.batch_histogram[k]);
    }
    const double lookups = static_cast<double>(st.plan_cache.hits + st.plan_cache.misses);
    l.set("serve.batch_size_mean", dispatches > 0 ? coalesced / dispatches : 1.0, "requests");
    l.set("serve.plan_cache_hits", static_cast<double>(st.plan_cache.hits), "count");
    l.set("serve.plan_cache_misses", static_cast<double>(st.plan_cache.misses), "count");
    l.set("serve.plan_cache_hit_ratio",
          lookups > 0 ? static_cast<double>(st.plan_cache.hits) / lookups : 0.0, "ratio");
    l.set("serve.peak_queue_depth", static_cast<double>(st.peak_queue_depth), "count");
    l.set("serve.retries", static_cast<double>(st.retries), "count");
    l.set("serve.shed", static_cast<double>(st.shed), "count");
    l.set("serve.timed_out", static_cast<double>(st.timed_out), "count");
    l.set("serve.rss_growth_mb", rss_last_ - rss_first_, "MiB");
    return p50;
  }

  void check(Gate& gate) override {
    if (cfg_.corrupt == "serve") {
      for (Sent& s : all_sent_) {
        if (s.ok) {
          s.hash ^= 1;
          break;
        }
      }
    }
    // SpMV and SpAdd answers must equal baselines::seq bit for bit.  Each
    // served SpGEMM product must pass the SpGEMM gate against seq and
    // repeat the first served copy of the same product bit for bit.
    std::map<std::pair<std::size_t, int>, std::uint64_t> matrix_refs;
    for (const Sent& s : all_sent_) {
      if (!s.ok) continue;
      const CsrD& a = tenants_[s.op.matrix].matrix;
      const CsrD& b = tenants_[s.op.matrix_b].matrix;
      if (s.op.kind == serve::OpKind::kSpmv) {
        std::vector<double> y(static_cast<std::size_t>(a.num_rows));
        mps::baselines::seq::spmv(a, make_x(a, s.op.x_seed), y);
        if (hash_y(y) != s.hash) gate.fail("served spmv differs from baselines::seq");
        continue;
      }
      const auto k = std::make_pair(s.op.matrix * kTenants + s.op.matrix_b,
                                    static_cast<int>(s.op.kind));
      auto it = matrix_refs.find(k);
      if (it == matrix_refs.end()) {
        std::uint64_t ref = s.hash;
        if (s.op.kind == serve::OpKind::kSpadd) {
          ref = csr_bits(mps::baselines::seq::spadd(a, b));
        } else if (!spgemm_matches_seq(first_gemm_.at(s.op.matrix),
                                       mps::baselines::seq::spgemm(a, b))) {
          gate.fail("served spgemm differs from baselines::seq");
        }
        it = matrix_refs.emplace(k, ref).first;
      }
      if (it->second != s.hash) gate.fail("served answer differs from its reference");
    }
  }

  double working_set_bytes() const override {
    double bytes = 0.0;
    for (const auto& t : tenants_) bytes += csr_bytes(t.matrix);
    return bytes;
  }

  bool higher_is_better() const override { return false; }

 private:
  /// Sleep until request i is due (its x is drawn first, off the clock),
  /// then submit it.  A refused submission settles at once as a failure.
  InFlight submit(std::size_t i, const serve::TraceOp& op, Gate& gate) {
    Sent& s = sent_[i];
    s.op = op;
    std::vector<double> x;
    if (op.kind == serve::OpKind::kSpmv) x = make_x(tenants_[op.matrix].matrix, op.x_seed);
    // Sleep to just short of the due time, then spin: a plain sleep
    // overshoots by the timer slack, which would count as latency.
    std::this_thread::sleep_until(s.due - std::chrono::microseconds(300));
    while (Clock::now() < s.due) {
    }
    InFlight f;
    f.index = i;
    s.submit_begin = Clock::now();
    gate.attempt();
    try {
      mps::telemetry::ScopedSpan span("bench.submit", "bench");
      const serve::MatrixHandle a = handles_[op.matrix];
      const serve::MatrixHandle b = handles_[op.matrix_b];
      switch (op.kind) {
        case serve::OpKind::kSpmv:
          f.spmv = engine_->submit_spmv(a, std::move(x));
          break;
        case serve::OpKind::kSpadd:
          f.matrix = engine_->submit_spadd(a, b);
          break;
        case serve::OpKind::kSpgemm:
          f.matrix = engine_->submit_spgemm(a, b);
          break;
      }
    } catch (const std::exception& e) {
      gate.fail(std::string("submit refused: ") + e.what());
    }
    s.submit_end = Clock::now();
    s.settled = s.submit_end;
    submit_ms_.push_back(ms_between(s.submit_begin, s.submit_end));
    return f;
  }

  /// Stamp a ready request with the moment it settled and take its
  /// answer; fingerprinting waits for finish().
  void settle(InFlight& f, std::deque<Digest>& pending) {
    Sent& s = sent_[f.index];
    s.settled = Clock::now();
    Digest d;
    d.index = f.index;
    try {
      if (f.spmv.valid()) {
        d.y = std::move(f.spmv.get().y);
      } else {
        d.c = std::move(f.matrix.get().c);
        d.matrix = true;
      }
      pending.push_back(std::move(d));
    } catch (const std::exception&) {
      s.errored = true;
    }
  }

  /// Record a fully hashed answer; keep the first served copy of each
  /// tenant's SpGEMM product for check().
  void finish(Digest& d) {
    Sent& s = sent_[d.index];
    s.hash = d.hash;
    s.ok = true;
    if (s.op.kind == serve::OpKind::kSpgemm && !first_gemm_.count(s.op.matrix)) {
      first_gemm_.emplace(s.op.matrix, std::move(d.c));
    }
  }

  /// Poll outstanding futures and stamp each with the moment it settled.
  /// Every pass stamps all ready futures before it hashes one slice of the
  /// answers taken so far, so the collector's own O(output) work is not
  /// charged to the requests that settle while it runs.
  void collect(std::mutex& mu, std::condition_variable& cv, std::deque<InFlight>& inbox,
               bool& done) {
    std::vector<InFlight> open;
    std::deque<Digest> pending;
    for (;;) {
      bool finished = false;
      {
        std::unique_lock<std::mutex> lock(mu);
        if (open.empty() && pending.empty()) {
          cv.wait(lock, [&] { return done || !inbox.empty(); });
        }
        while (!inbox.empty()) {
          open.push_back(std::move(inbox.front()));
          inbox.pop_front();
        }
        finished = done;
      }
      if (open.empty() && pending.empty() && finished) return;
      bool any = false;
      for (std::size_t i = 0; i < open.size();) {
        InFlight& f = open[i];
        const bool ready =
            f.spmv.valid()
                ? f.spmv.wait_for(std::chrono::seconds(0)) == std::future_status::ready
                : f.matrix.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
        if (!ready) {
          ++i;
          continue;
        }
        settle(f, pending);
        any = true;
        open[i] = std::move(open.back());
        open.pop_back();
      }
      if (!pending.empty()) {
        if (pending.front().step(kDigestSlice)) {
          finish(pending.front());
          pending.pop_front();
        }
        continue;
      }
      // Poll without sleeping while answers are outstanding: a blocked
      // collector needs a wake-up of its own before it can stamp a settle,
      // and on a shared host that wake-up costs as much as the request.
      if (!any) std::this_thread::yield();
    }
  }

  RunConfig cfg_;
  SegmentSize size_;
  std::vector<mps::workloads::SuiteEntry> tenants_;
  std::unique_ptr<serve::Engine> engine_;
  std::vector<serve::MatrixHandle> handles_;
  /// One round's results, and every request of the rounds since setup().
  struct RoundStats {
    double p50 = 0.0, p99 = 0.0, spmv_p99 = 0.0, slo_frac = 0.0;
    double samples = 0.0, spmv_samples = 0.0;
    double lag_p99 = 0.0, lag_max = 0.0;
  };
  std::vector<RoundStats> rounds_;
  std::vector<Sent> sent_;  ///< the current round (the collector writes it)
  std::vector<Sent> all_sent_;
  std::vector<double> submit_ms_;
  std::vector<double> pooled_ms_;  ///< due-to-settle of every settled request
  long long within_slo_ = 0;
  double latency_sum_ = 0.0;
  double lag_sum_ = 0.0;
  double rss_first_ = 0.0;  ///< resident set after the first round
  double rss_last_ = 0.0;   ///< and after the latest one
  /// First served copy of each tenant's SpGEMM product (collector thread
  /// writes during a run; check() reads after it joined).
  std::map<std::size_t, CsrD> first_gemm_;
  double generate_s_ = 0.0;
  double register_ms_ = 0.0;
};

}  // namespace

std::unique_ptr<Segment> make_serve_segment(const RunConfig& cfg, SegmentSize size) {
  return std::make_unique<ServeSegment>(cfg, size);
}

}  // namespace wb
