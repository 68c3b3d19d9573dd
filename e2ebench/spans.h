// Timing, sample statistics and the in-memory span recorder of the
// end-to-end benchmark. Spans are recorded only by the benchmark's own code,
// around its calls into each layer of the tuning stack; nothing inside the
// library is instrumented.
#ifndef CDBTUNE_E2EBENCH_SPANS_H_
#define CDBTUNE_E2EBENCH_SPANS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace cdbtune::e2e {

using Clock = std::chrono::steady_clock;

/// Microseconds since the first call in this process.
double NowUs();

inline double ElapsedUs(Clock::time_point since) {
  return std::chrono::duration<double, std::micro>(Clock::now() - since)
      .count();
}

/// Median and tail of a latency sample. The tail is the 99th percentile, or
/// in a sample too small for it the highest percentile that still has at
/// least ten samples above it (the largest value below eleven samples), so
/// it never rests on a handful of outliers; `tail_pct` says which
/// percentile that was.
struct Summary {
  size_t n = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;
};
Summary Summarize(std::vector<double> samples);

double Median(std::vector<double> samples);

/// Latencies with the time each one ended (NowUs()).
struct Samples {
  std::vector<double> us;
  std::vector<double> at_us;

  void Add(double latency_us) {
    us.push_back(latency_us);
    at_us.push_back(NowUs());
  }
  void Append(const Samples& other);
};

/// Summarize() made to resist outside load on a shared host: the median is
/// the median of per-second medians (when four or more seconds hold ten
/// samples each), and the tail the median of the p99s of windows that hold
/// ~1000 samples each (when there are four or more). A slowdown during part
/// of a run then moves them little. Otherwise both are the whole sample's.
Summary SummarizeWindowed(const Samples& samples);

/// Completions per second, taking each sample's end as a completion: the
/// median over the run's whole one-second windows of each window's rate
/// (completions after its first, over the time from its first to its last),
/// so outside load during part of a run moves it less than the overall
/// rate, which runs too short for four windows use.
double WindowedRate(const Samples& done);

/// One timed call: name, start/end in NowUs() time, the enclosing span on
/// the same thread (0 at the top), and the tenant (session, pair or cycle
/// index; -1 when none) the call served.
struct Span {
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
  uint64_t id = 0;
  uint64_t parent = 0;
  int64_t tenant = -1;
  uint32_t thread = 0;
};

/// Process-wide span sink. Disabled (and free apart from one branch) until
/// Enable(); spans are kept in memory, capped at kMaxSpans, and written as
/// Chrome-trace JSON when the run ends.
class SpanRecorder {
 public:
  static SpanRecorder& Get();

  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void Add(const Span& span);
  std::vector<Span> Snapshot() const;
  bool WriteChromeTrace(const std::string& path) const;

  static constexpr size_t kMaxSpans = 2'000'000;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  size_t dropped_ = 0;
};

/// RAII span: records [construction, destruction) when the recorder is on,
/// parented to the innermost live ScopedSpan of the calling thread.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, int64_t tenant);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Span span_;
  bool live_ = false;
  uint64_t saved_parent_ = 0;
};

/// Durations (µs) of the spans called `name`.
std::vector<double> Durations(const std::vector<Span>& spans,
                              const std::string& name);

/// Mean self time (µs) of the spans called `name`: each one's duration
/// minus the durations of its direct children.
double MeanSelfUs(const std::vector<Span>& spans, const std::string& name);

/// Ordered name -> (value, unit) list printed as the run's metrics.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::map<std::string, std::pair<double, std::string>>& values() const {
    return values_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// FNV-1a over a string, chained: Digest(b, Digest(a)) hashes a then b.
uint64_t Digest(const std::string& text, uint64_t seed = 1469598103934665603ULL);

}  // namespace cdbtune::e2e

#endif  // CDBTUNE_E2EBENCH_SPANS_H_
