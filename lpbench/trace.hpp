// Span recorder for lpbench's traced pass.
//
// The driver records a span around every public library call it makes:
// name ("<layer>.<call>"), start, end, parent span, rep id and thread.
// Spans stay in memory; chrome_json() renders them as Chrome trace-event
// JSON (opens in Perfetto / chrome://tracing) once the run is over.  An
// untraced pass passes a null Tracer*, so Scope costs one branch.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace lpbench {

/// Microseconds on the steady clock since the first call in the process.
inline double now_us() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct Span {
  const char* name{""};  ///< static string: "<layer>.<call>"
  double start_us{0.0};
  double end_us{0.0};
  int parent{-1};  ///< index into the recorder's spans, -1 for a root
  int rep{0};
  int tid{0};

  [[nodiscard]] double duration_us() const { return end_us - start_us; }
};

class Tracer {
 public:
  /// Rep id stamped on spans opened from now on.
  void set_rep(int rep) { rep_ = rep; }

  /// Opens a span nested in the innermost open one; returns its id.
  int begin(const char* name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, now_us(), 0.0, open_.empty() ? -1 : open_.back(), rep_, 0});
    open_.push_back(id);
    return id;
  }

  /// Closes the innermost open span, which must be `id`.
  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end_us = now_us();
    open_.pop_back();
  }

  /// Adds a span timed elsewhere (e.g. on a worker thread) as a child of
  /// the innermost open span.
  void add(const char* name, double start_us, double end_us, int tid) {
    spans_.push_back(
        Span{name, start_us, end_us, open_.empty() ? -1 : open_.back(), rep_, tid});
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  int rep_{0};
};

/// RAII span; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->begin(name) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children on other threads may overlap
/// each other, so their union is subtracted, not their sum).
inline std::vector<double> self_times_us(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_us, s.end_us);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double lo = spans[i].start_us;  // everything before lo is already counted
    for (const auto& [start, end] : kids) {
      const double a = std::max(start, lo);
      const double b = std::min(end, spans[i].end_us);
      if (b > a) {
        covered += b - a;
        lo = b;
      }
    }
    self[i] = spans[i].duration_us() - covered;
  }
  return self;
}

/// The highest of p50 / p90 / p99 / p99.9 / p99.99 that has at least ten of
/// `n` samples beyond it, or 0 when even p50 has fewer (n < 20).
inline double tail_percentile(std::size_t n) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if ((1.0 - p / 100.0) * static_cast<double>(n) >= 10.0 - 1e-9) best = p;
  }
  return best;
}

/// Chrome trace-event JSON ("X" complete events, microsecond timestamps);
/// the span's layer (the name up to its first '.') is the event category.
inline std::string chrome_json(const std::vector<Span>& spans) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[160];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string name = s.name;
    std::string escaped;
    for (const char c : name) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += c;
    }
    const std::string cat = escaped.substr(0, escaped.find('.'));
    if (i != 0) out += ',';
    out += "{\"name\":\"" + escaped + "\",\"cat\":\"" + cat + "\",\"ph\":\"X\"";
    std::snprintf(buf, sizeof(buf),
                  ",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"rep\":%d}}",
                  s.start_us, s.duration_us(), s.tid, s.rep);
    out += buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace lpbench
