// Shared helpers for the reproduction benches.
//
// Every bench binary prints its paper-reproduction report first (the rows
// of the table / the series of the figure it regenerates), then runs its
// google-benchmark microbenchmarks.  Use LP_BENCH_MAIN(print_fn) to get
// that layout.
// Benches that also emit a machine-readable artifact (for CI trend tracking
// or plotting) accept a --json flag, stripped from argv before
// google-benchmark sees it; use LP_BENCH_MAIN_JSON(print_fn) and write the
// artifact with JsonWriter.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace lp::bench {

inline void header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void line() {
  std::printf("-------------------------------------------------------------------------------\n");
}

/// Human-readable seconds.
inline std::string fmt_time(double seconds) {
  char buf[48];
  if (seconds < 1e-6) {
    std::snprintf(buf, sizeof(buf), "%.1f ns", seconds * 1e9);
  } else if (seconds < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.2f us", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f s", seconds);
  }
  return buf;
}

inline std::string fmt_bytes(double bytes) {
  char buf[48];
  if (bytes < 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.0f KiB", bytes / 1024.0);
  } else if (bytes < 1024.0 * 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.0f MiB", bytes / (1024.0 * 1024.0));
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f GiB", bytes / (1024.0 * 1024.0 * 1024.0));
  }
  return buf;
}

/// The three latency quantiles every serving/SLO table reports, computed
/// with lp::percentiles (linear interpolation) so bench tables and library
/// reports agree bit-for-bit on the same sample set.
struct Tail {
  double p50{0.0};
  double p99{0.0};
  double p999{0.0};
};

inline Tail tail_of(std::span<const double> xs) {
  const std::vector<double> q = percentiles(xs, {50.0, 99.0, 99.9});
  return Tail{q[0], q[1], q[2]};
}

/// Formats a Tail of seconds as "p50 x / p99 y / p999 z".
inline std::string fmt_tail(const Tail& t) {
  return "p50 " + fmt_time(t.p50) + " / p99 " + fmt_time(t.p99) + " / p999 " +
         fmt_time(t.p999);
}

/// Removes every occurrence of `flag` from argv (before google-benchmark
/// parses it, which rejects unknown arguments) and reports whether it was
/// present.
inline bool consume_flag(int* argc, char** argv, const char* flag) {
  bool found = false;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      found = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return found;
}

/// Minimal streaming JSON emitter for bench artifacts.  Keys and string
/// values are emitted verbatim (callers pass plain identifiers — no escaping
/// is performed).  Doubles round-trip (%.17g), so an artifact diff is a real
/// result change, not formatting noise.
class JsonWriter {
 public:
  JsonWriter& key(const char* k) {
    comma();
    out_ += '"';
    out_ += k;
    out_ += "\":";
    pending_value_ = true;
    return *this;
  }
  JsonWriter& value(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return raw(buf);
  }
  JsonWriter& value(std::uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
    return raw(buf);
  }
  JsonWriter& value(const char* s) {
    sep();
    out_ += '"';
    out_ += s;
    out_ += '"';
    return *this;
  }
  JsonWriter& value(bool b) { return raw(b ? "true" : "false"); }
  JsonWriter& begin_object() { return open('{', '}'); }
  JsonWriter& end_object() { return close(); }
  JsonWriter& begin_array() { return open('[', ']'); }
  JsonWriter& end_array() { return close(); }

  [[nodiscard]] const std::string& str() const { return out_; }

  /// Writes the document (plus a trailing newline) to `path`.
  [[nodiscard]] bool write_file(const char* path) const {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) return false;
    const bool ok = std::fwrite(out_.data(), 1, out_.size(), f) == out_.size() &&
                    std::fputc('\n', f) != EOF;
    return std::fclose(f) == 0 && ok;
  }

 private:
  JsonWriter& raw(const char* text) {
    sep();
    out_ += text;
    return *this;
  }
  JsonWriter& open(char c, char closer) {
    sep();
    out_ += c;
    closers_.push_back(closer);
    fresh_.push_back(true);
    return *this;
  }
  JsonWriter& close() {
    out_ += closers_.back();
    closers_.pop_back();
    fresh_.pop_back();
    return *this;
  }
  /// Before a value: a key's value needs no comma, an array element does.
  void sep() {
    if (pending_value_) {
      pending_value_ = false;
      return;
    }
    comma();
  }
  void comma() {
    if (fresh_.empty()) return;
    if (!fresh_.back()) out_ += ',';
    fresh_.back() = false;
  }

  std::string out_;
  std::vector<char> closers_;
  std::vector<bool> fresh_;
  bool pending_value_{false};
};

}  // namespace lp::bench

#define LP_BENCH_MAIN(print_fn)                        \
  int main(int argc, char** argv) {                    \
    print_fn();                                        \
    ::benchmark::Initialize(&argc, argv);              \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    ::benchmark::RunSpecifiedBenchmarks();             \
    ::benchmark::Shutdown();                           \
    return 0;                                          \
  }

/// Like LP_BENCH_MAIN, but `print_fn(bool)` learns whether --json was passed
/// (the flag is stripped before google-benchmark parses the arguments).
#define LP_BENCH_MAIN_JSON(print_fn)                   \
  int main(int argc, char** argv) {                    \
    const bool lp_emit_json = ::lp::bench::consume_flag(&argc, argv, "--json"); \
    print_fn(lp_emit_json);                            \
    ::benchmark::Initialize(&argc, argv);              \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    ::benchmark::RunSpecifiedBenchmarks();             \
    ::benchmark::Shutdown();                           \
    return 0;                                          \
  }
