// Result bookkeeping for the end-to-end benchmark: named metrics with units,
// the summary statistics the metrics are built from, and the spans the
// traced run writes as a Chrome trace.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "support/timer.h"
#include "trace/trace.h"

namespace e2e {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Ordered metric list; `set` overwrites an existing name.
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// What one workload run reports back to main().
struct Outcome {
  size_t attempted{0};
  size_t failed{0};
  MetricSet metrics;         // end-to-end (untraced) or per-layer (traced)
  std::vector<std::string> notes;  // human-readable lines printed before the result
};

double median(std::vector<double> v);
/// Linear-interpolation quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);
double geomean(const std::vector<double>& v);
double mean(const std::vector<double>& v);

/// The highest of p99.9, p99, p90 and p50 that has at least ten samples
/// beyond it, by nearest rank. With fewer than 20 samples none qualifies and
/// the median is returned.
struct Tail {
  double value{0.0};
  double percentile{50.0};
  size_t samples{0};
};
Tail tail_percentile(std::vector<double> v);

/// Host speed. Every time a run measures on a shared host moves with the
/// host's speed for cache- and allocation-bound code, which drifts by tens
/// of percent over seconds to minutes. So each run also times, throughout,
/// a fixed computation of the benchmark's own, shaped like the optimizer's
/// work (hash-consing into a hash map with parent lists, an ordered map of
/// strings, a sort, dense arithmetic on a matrix that fits in L2), and
/// reports its times scaled to the host speed at which that computation
/// takes kReferenceNominalS. A change to the library cannot change the
/// reference, so the scaled times move with the library's speed only.
constexpr double kReferenceNominalS = 0.005;

/// Runs the reference computation once; returns its wall seconds.
double reference_seconds();

/// The reference timings of one run, each placed at its midpoint on the
/// run's clock, and the scale factors they give.
class HostSpeed {
 public:
  explicit HostSpeed(const tensat::Timer& clock) : clock_(&clock) {}

  /// Times the reference once, now.
  void sample();
  /// Adds `other`'s timings, taken on the same clock.
  void merge(const HostSpeed& other);

  /// Factor for the span [begin, end] of the run's clock: kReferenceNominalS
  /// / the median timing within max(1 s, end - begin) of the span, or of
  /// every timing when none is that close. Multiply a time by it; divide a
  /// rate by it.
  [[nodiscard]] double at(double begin, double end) const;
  /// The same over every timing of the run.
  [[nodiscard]] double overall() const;

  [[nodiscard]] double median_seconds() const;
  /// Time spent timing the reference.
  [[nodiscard]] double total_seconds() const;
  [[nodiscard]] size_t size() const { return samples_.size(); }

 private:
  const tensat::Timer* clock_;
  std::vector<std::pair<double, double>> samples_;  // (midpoint, seconds), by midpoint
};

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Times one call into a layer as a span on `tracer`, whose arg is the id of
/// the row or request the call serves. A null tracer records nothing. The
/// benchmark's tracer is never installed, so it holds only these spans and
/// none of the library's own.
class LayerSpan {
 public:
  LayerSpan(tensat::trace::Tracer* tracer, const char* name, int64_t op)
      : tracer_(tracer), name_(name), op_(op),
        start_us_(tracer != nullptr ? tracer->now_us() : 0.0) {}
  ~LayerSpan() {
    if (tracer_ != nullptr) tracer_->record_span(name_, start_us_, tracer_->now_us(), op_, true);
  }
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

 private:
  tensat::trace::Tracer* tracer_;
  const char* name_;
  int64_t op_;
  double start_us_;
};

/// Writes `tracer`'s spans to `path` as Chrome trace JSON; returns the note
/// the run prints about it.
std::string write_trace(const tensat::trace::Tracer& tracer, const std::string& path);

/// JSON string literal for `s` (quotes included).
std::string json_string(const std::string& s);
/// Shortest round-trip decimal form of `v`; non-finite values become null.
std::string json_number(double v);

}  // namespace e2e
