// Sub-second self-test of the span recorder: self-time arithmetic, nesting,
// Chrome-trace JSON well-formedness and the tail-percentile rule.
//
//   ctest --test-dir .bench_build/lpbench
#include <cctype>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "trace.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

/// Minimal recursive-descent JSON validator (objects, arrays, strings with
/// escapes, numbers, literals).
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : s_(text) {}

  bool valid() {
    skip();
    if (!value()) return false;
    skip();
    return i_ == s_.size();
  }

 private:
  void skip() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_])) != 0) ++i_;
  }
  bool eat(char c) {
    skip();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  bool value() {
    skip();
    if (i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string();
    for (const char* lit : {"true", "false", "null"}) {
      const std::string l = lit;
      if (s_.compare(i_, l.size(), l) == 0) {
        i_ += l.size();
        return true;
      }
    }
    return number();
  }
  bool object() {
    ++i_;
    if (eat('}')) return true;
    do {
      skip();
      if (!string() || !eat(':') || !value()) return false;
    } while (eat(','));
    return eat('}');
  }
  bool array() {
    ++i_;
    if (eat(']')) return true;
    do {
      if (!value()) return false;
    } while (eat(','));
    return eat(']');
  }
  bool string() {
    if (i_ >= s_.size() || s_[i_] != '"') return false;
    for (++i_; i_ < s_.size(); ++i_) {
      if (s_[i_] == '\\') {
        ++i_;
      } else if (s_[i_] == '"') {
        ++i_;
        return true;
      }
    }
    return false;
  }
  bool number() {
    const std::size_t start = i_;
    while (i_ < s_.size() && (std::isdigit(static_cast<unsigned char>(s_[i_])) != 0 ||
                              std::string("+-.eE").find(s_[i_]) != std::string::npos)) {
      ++i_;
    }
    return i_ > start;
  }

  const std::string& s_;
  std::size_t i_{0};
};

void self_time_arithmetic() {
  using lpbench::Span;
  // Parent [0, 100]; children [10, 30] and [20, 50] overlap (two threads),
  // [40, 60] overlaps the second, [90, 120] runs past the parent's end.
  // Covered: [10, 60] + [90, 100] = 60, so self = 40.  The grandchild
  // [12, 14] counts against its own parent only.
  const std::vector<Span> spans = {
      {"bench.rep", 0, 100, -1, 0, 0},   {"a.x", 10, 30, 0, 0, 0},
      {"a.y", 20, 50, 0, 0, 1},          {"a.z", 40, 60, 0, 0, 0},
      {"a.w", 90, 120, 0, 0, 0},         {"b.v", 12, 14, 1, 0, 0},
  };
  const std::vector<double> self = lpbench::self_times_us(spans);
  expect(near(self[0], 40.0), "self time subtracts the union of children");
  expect(near(self[1], 18.0), "self time of a span with one grandchild");
  expect(near(self[2], 30.0), "leaf self time is its duration");
  expect(near(self[5], 2.0), "grandchild self time");

  // Adjacent, non-overlapping children: self = duration - sum.
  const std::vector<Span> flat = {
      {"bench.rep", 0, 10, -1, 0, 0}, {"a.x", 0, 4, 0, 0, 0}, {"a.y", 4, 9, 0, 0, 0}};
  expect(near(lpbench::self_times_us(flat)[0], 1.0), "adjacent children");
}

void nesting() {
  lpbench::Tracer tracer;
  tracer.set_rep(3);
  {
    const lpbench::Scope rep{&tracer, "bench.rep"};
    {
      const lpbench::Scope a{&tracer, "a.outer"};
      const lpbench::Scope b{&tracer, "a.inner"};
    }
    tracer.add("c.worker", 1.0, 2.0, 7);
    const lpbench::Scope d{&tracer, "d.sibling"};
  }
  const lpbench::Scope none{nullptr, "ignored"};  // a null tracer records nothing
  const auto& s = tracer.spans();
  expect(s.size() == 5, "five spans recorded");
  expect(s[0].parent == -1, "root has no parent");
  expect(s[1].parent == 0 && s[2].parent == 1, "nested scopes chain parents");
  expect(s[3].parent == 0 && s[3].tid == 7, "added span nests under the open span");
  expect(s[4].parent == 0, "sibling after a closed scope nests under the root");
  for (const auto& span : s) {
    expect(span.rep == 3, "rep id stamped on every span");
    expect(span.end_us >= span.start_us, "spans end after they start");
  }
  expect(s[0].end_us >= s[4].end_us, "parent closes after its last child");
}

void chrome_json() {
  const std::vector<lpbench::Span> spans = {
      {"bench.rep", 0.5, 10.25, -1, 0, 0},
      {"odd\"name\\x", 1.0, 2.0, 0, 0, 1},
  };
  const std::string json = lpbench::chrome_json(spans);
  expect(JsonValidator{json}.valid(), "chrome trace is well-formed JSON");
  expect(json.find("\"traceEvents\":[") != std::string::npos, "traceEvents array");
  expect(json.find("\"cat\":\"bench\"") != std::string::npos, "category is the layer");
  expect(json.find("\"dur\":9.750") != std::string::npos, "duration in microseconds");
  expect(json.find("odd\\\"name\\\\x") != std::string::npos, "names are escaped");
  expect(JsonValidator{lpbench::chrome_json({})}.valid(), "empty trace is valid JSON");
  expect(!JsonValidator{"{\"a\":[1,2}"}.valid(), "validator rejects malformed JSON");
}

void tail_rule() {
  expect(lpbench::tail_percentile(0) == 0.0, "no samples: no percentile");
  expect(lpbench::tail_percentile(19) == 0.0, "19 samples: p50 has < 10 beyond");
  expect(lpbench::tail_percentile(20) == 50.0, "20 samples: p50");
  expect(lpbench::tail_percentile(99) == 50.0, "99 samples: p50");
  expect(lpbench::tail_percentile(100) == 90.0, "100 samples: p90");
  expect(lpbench::tail_percentile(176) == 90.0, "176 samples: p90");
  expect(lpbench::tail_percentile(999) == 90.0, "999 samples: p90");
  expect(lpbench::tail_percentile(1000) == 99.0, "1000 samples: p99");
  expect(lpbench::tail_percentile(10000) == 99.9, "10000 samples: p99.9");
  expect(lpbench::tail_percentile(100000) == 99.99, "100000 samples: p99.99");
}

}  // namespace

int main() {
  self_time_arithmetic();
  nesting();
  chrome_json();
  tail_rule();
  if (failures == 0) std::printf("trace_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
