#include "spans.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <unordered_map>

namespace cdbtune::e2e {

namespace {

const Clock::time_point kEpoch = Clock::now();

std::atomic<uint64_t> next_span_id{1};
std::atomic<uint32_t> next_thread{0};
thread_local uint64_t current_span = 0;
thread_local uint32_t thread_index = next_thread.fetch_add(1);

void WriteEscaped(std::FILE* out, const char* text) {
  for (const char* c = text; *c != '\0'; ++c) {
    if (*c == '"' || *c == '\\') std::fputc('\\', out);
    std::fputc(*c, out);
  }
}

}  // namespace

double NowUs() { return ElapsedUs(kEpoch); }

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.mean = std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(s.n);
  s.p50 = (samples[(s.n - 1) / 2] + samples[s.n / 2]) / 2.0;
  if (s.n >= 11) {
    // Rank of p99 (nearest rank), or the rank with ten samples above it.
    const size_t p99 = (s.n * 99 + 99) / 100 - 1;
    const size_t rank = std::min(p99, s.n - 11);
    s.tail = samples[rank];
    s.tail_pct = 100.0 * static_cast<double>(rank + 1) / static_cast<double>(s.n);
  } else {
    s.tail = samples.back();
    s.tail_pct = 100.0;
  }
  return s;
}

double Median(std::vector<double> samples) { return Summarize(samples).p50; }

void Samples::Append(const Samples& other) {
  us.insert(us.end(), other.us.begin(), other.us.end());
  at_us.insert(at_us.end(), other.at_us.begin(), other.at_us.end());
}

namespace {

/// Summaries of consecutive windows of `seconds`, skipping the last
/// (partial) window and any holding fewer than `min_n` samples.
std::vector<Summary> WindowSummaries(const Samples& samples, double seconds,
                                     size_t min_n) {
  const double first =
      *std::min_element(samples.at_us.begin(), samples.at_us.end());
  std::vector<std::vector<double>> windows;
  for (size_t i = 0; i < samples.us.size(); ++i) {
    const auto w =
        static_cast<size_t>((samples.at_us[i] - first) / (seconds * 1e6));
    if (windows.size() <= w) windows.resize(w + 1);
    windows[w].push_back(samples.us[i]);
  }
  windows.pop_back();
  std::vector<Summary> out;
  for (std::vector<double>& w : windows) {
    if (w.size() >= min_n) out.push_back(Summarize(std::move(w)));
  }
  return out;
}

}  // namespace

Summary SummarizeWindowed(const Samples& samples) {
  Summary s = Summarize(samples.us);
  if (s.n < 2) return s;
  std::vector<double> p50s;
  for (const Summary& w : WindowSummaries(samples, 1.0, 10)) {
    p50s.push_back(w.p50);
  }
  if (p50s.size() >= 4) s.p50 = Median(std::move(p50s));

  // Tail windows hold ~1000 samples, so each one's p99 has ten above it.
  const auto [lo, hi] =
      std::minmax_element(samples.at_us.begin(), samples.at_us.end());
  if (*hi <= *lo) return s;
  const double per_s = static_cast<double>(s.n) / ((*hi - *lo) / 1e6);
  std::vector<double> p99s;
  for (const Summary& w :
       WindowSummaries(samples, std::ceil(1000.0 / per_s), 1000)) {
    p99s.push_back(w.tail);
  }
  if (p99s.size() >= 4) {
    s.tail = Median(std::move(p99s));
    s.tail_pct = 99.0;
  }
  return s;
}

double WindowedRate(const Samples& done) {
  if (done.at_us.size() < 2) return 0.0;
  std::vector<double> at = done.at_us;
  std::sort(at.begin(), at.end());
  std::vector<std::vector<double>> windows;
  for (double t : at) {
    const auto w = static_cast<size_t>((t - at.front()) / 1e6);
    if (windows.size() <= w) windows.resize(w + 1);
    windows[w].push_back(t);
  }
  windows.pop_back();  // The last window is partial.
  std::vector<double> rates;
  for (const std::vector<double>& in : windows) {
    if (in.size() >= 2 && in.back() > in.front()) {
      rates.push_back(static_cast<double>(in.size() - 1) /
                      ((in.back() - in.front()) / 1e6));
    }
  }
  if (rates.size() >= 4) return Median(std::move(rates));
  return at.back() > at.front() ? static_cast<double>(at.size() - 1) /
                                      ((at.back() - at.front()) / 1e6)
                                : 0.0;
}

SpanRecorder& SpanRecorder::Get() {
  static SpanRecorder* recorder = new SpanRecorder;
  return *recorder;
}

void SpanRecorder::Add(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  spans_.push_back(span);
}

std::vector<Span> SpanRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", out);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fputs("{\"name\":\"", out);
    WriteEscaped(out, s.name);
    std::fprintf(out,
                 "\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,"
                 "\"tenant\":%lld}}%s\n",
                 s.thread, s.start_us, s.end_us - s.start_us,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<long long>(s.tenant),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "],\"otherData\":{\"dropped_spans\":%zu}}\n", dropped_);
  return std::fclose(out) == 0;
}

ScopedSpan::ScopedSpan(const char* name, int64_t tenant) {
  if (!SpanRecorder::Get().enabled()) return;
  live_ = true;
  span_.name = name;
  span_.tenant = tenant;
  span_.thread = thread_index;
  span_.id = next_span_id.fetch_add(1, std::memory_order_relaxed);
  span_.parent = current_span;
  saved_parent_ = current_span;
  current_span = span_.id;
  span_.start_us = NowUs();
}

ScopedSpan::~ScopedSpan() {
  if (!live_) return;
  span_.end_us = NowUs();
  current_span = saved_parent_;
  SpanRecorder::Get().Add(span_);
}

std::vector<double> Durations(const std::vector<Span>& spans,
                              const std::string& name) {
  std::vector<double> out;
  for (const Span& span : spans) {
    if (name == span.name) out.push_back(span.end_us - span.start_us);
  }
  return out;
}

double MeanSelfUs(const std::vector<Span>& spans, const std::string& name) {
  std::unordered_map<uint64_t, double> self;
  for (const Span& span : spans) {
    if (name == span.name) self[span.id] += span.end_us - span.start_us;
  }
  for (const Span& span : spans) {
    auto it = self.find(span.parent);
    if (it != self.end()) it->second -= span.end_us - span.start_us;
  }
  double sum = 0.0;
  for (const auto& [id, us] : self) sum += us;
  return self.empty() ? 0.0 : sum / static_cast<double>(self.size());
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  values_[name] = {value, unit};
}

uint64_t Digest(const std::string& text, uint64_t seed) {
  uint64_t h = seed;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace cdbtune::e2e
