// Span and sample arithmetic of the end-to-end benchmark: self time from
// span nesting, the union of span intervals across lanes, and the order
// statistics behind round_ms.p50 / round_ms.tail. Kept free of the trace
// runtime so `e2e_bench --selftest` can check it on hand-built spans.

#ifndef RFED_E2EBENCH_SPAN_MATH_H_
#define RFED_E2EBENCH_SPAN_MATH_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace e2ebench {

/// One completed span on one lane, in milliseconds of a shared timeline.
/// `depth` is the number of spans open on the lane when it began (as in
/// obs::TraceEvent).
struct Span {
  int id = 0;  ///< caller-chosen name id
  int lane = 0;
  int depth = 0;
  double start = 0.0;
  double dur = 0.0;
  double end() const { return start + dur; }
};

/// Self time of every span: its duration minus the durations of its
/// direct children — the spans one level deeper on the same lane that
/// began inside it. Returned in the order of `spans`.
inline std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<size_t> order(spans.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const Span& x = spans[a];
    const Span& y = spans[b];
    if (x.lane != y.lane) return x.lane < y.lane;
    if (x.start != y.start) return x.start < y.start;
    return x.depth < y.depth;
  });
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].dur;
  std::vector<size_t> open;  // ancestors of the current span, outermost first
  int lane = -1;
  for (size_t idx : order) {
    const Span& s = spans[idx];
    if (s.lane != lane) {
      open.clear();
      lane = s.lane;
    }
    while (!open.empty() && spans[open.back()].depth >= s.depth) open.pop_back();
    if (!open.empty() && spans[open.back()].depth == s.depth - 1) {
      self[open.back()] -= s.dur;
    }
    open.push_back(idx);
  }
  return self;
}

/// Length of the union of [start, end) intervals clipped to [lo, hi].
inline double UnionLength(std::vector<std::pair<double, double>> intervals,
                          double lo, double hi) {
  for (auto& iv : intervals) {
    iv.first = std::max(iv.first, lo);
    iv.second = std::min(iv.second, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0, cur_lo = 0.0, cur_hi = 0.0;
  bool have = false;
  for (const auto& [a, b] : intervals) {
    if (b <= a) continue;
    if (have && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
      continue;
    }
    if (have) total += cur_hi - cur_lo;
    cur_lo = a;
    cur_hi = b;
    have = true;
  }
  if (have) total += cur_hi - cur_lo;
  return total;
}

/// Median (mean of the two middle values for an even count); 0 when empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The tail order statistic: the largest sample that still has `beyond`
/// samples above it, plus the percentile that sample sits at (its rank
/// over n - 1, times 100). With n <= beyond the maximum is returned and
/// the percentile is 100.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
};
inline Tail TailBeyond(std::vector<double> v, size_t beyond) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  const size_t rank = n > beyond ? n - 1 - beyond : n - 1;
  t.value = v[rank];
  t.percentile = n > 1 ? 100.0 * static_cast<double>(rank) /
                             static_cast<double>(n - 1)
                       : 100.0;
  return t;
}

}  // namespace e2ebench

#endif  // RFED_E2EBENCH_SPAN_MATH_H_
