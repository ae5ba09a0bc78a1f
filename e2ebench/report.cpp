#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <unordered_map>

#include "support/timer.h"

namespace e2e {

void MetricSet::set(const std::string& name, double value, const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

Tail tail_percentile(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  for (double p : {99.9, 99.0, 90.0, 50.0}) {
    // Nearest rank: the sample at rank ceil(p% * n); everything above it is
    // "beyond" the percentile.
    const size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
    if (rank >= 1 && v.size() - rank >= 10) {
      t.value = v[rank - 1];
      t.percentile = p;
      return t;
    }
  }
  t.value = quantile(v, 0.5);
  t.percentile = 50.0;
  return t;
}

double reference_seconds() {
  tensat::Timer timer;
  // Hash-consing: nodes keyed on their two children, each class keeping its
  // parents, plus a string-keyed ordered map and a sort.
  std::unordered_map<uint64_t, uint32_t> memo;
  std::vector<std::vector<uint32_t>> parents(1);
  std::map<std::string, uint32_t> names;
  uint64_t x = 88172645463325252ull;
  for (uint32_t i = 0; i < 6000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const auto a = static_cast<uint32_t>(x % parents.size());
    const auto b = static_cast<uint32_t>((x >> 32) % parents.size());
    const uint64_t key = ((static_cast<uint64_t>(a) << 32) | b) * 0x9E3779B97F4A7C15ull ^ (x & 3);
    const auto [it, fresh] = memo.emplace(key, static_cast<uint32_t>(parents.size()));
    if (fresh) {
      parents.emplace_back();
      parents[a].push_back(it->second);
      parents[b].push_back(it->second);
    }
    if (i % 4 == 0) names.emplace("node" + std::to_string(x % 15000), i);
  }
  std::vector<uint64_t> keys;
  for (const auto& [k, v] : memo) keys.push_back(k ^ v);
  std::sort(keys.begin(), keys.end());
  // Dense arithmetic over a 512 KiB matrix: power iteration.
  constexpr size_t kDim = 256;
  std::vector<double> m(kDim * kDim), y(kDim, 1.0), z(kDim);
  for (size_t i = 0; i < m.size(); ++i) m[i] = 1.0 / static_cast<double>(1 + (i * 7919) % 1000);
  for (int rep = 0; rep < 40; ++rep) {
    double norm = 0.0;
    for (size_t r = 0; r < kDim; ++r) {
      double acc = 0.0;
      for (size_t c = 0; c < kDim; ++c) acc += m[r * kDim + c] * y[c];
      z[r] = acc;
      norm = std::max(norm, std::abs(acc));
    }
    for (size_t r = 0; r < kDim; ++r) y[r] = z[r] / norm;
  }
  volatile double sink = y[0] + static_cast<double>(keys[keys.size() / 2] % 1024) +
                         static_cast<double>(names.size() + parents.back().size());
  (void)sink;
  return timer.seconds();
}

void HostSpeed::sample() {
  const double begin = clock_->seconds();
  const double seconds = reference_seconds();
  // Timings come in clock order from one thread; merge() keeps the order.
  samples_.emplace_back(begin + seconds / 2, seconds);
}

void HostSpeed::merge(const HostSpeed& other) {
  const size_t mid = samples_.size();
  samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
  std::inplace_merge(samples_.begin(), samples_.begin() + static_cast<ptrdiff_t>(mid),
                     samples_.end());
}

double HostSpeed::at(double begin, double end) const {
  const double reach = std::max(1.0, end - begin);
  const auto lo = std::lower_bound(samples_.begin(), samples_.end(),
                                   std::make_pair(begin - reach, -1.0));
  const auto hi = std::upper_bound(samples_.begin(), samples_.end(),
                                   std::make_pair(end + reach, 1e300));
  if (lo == hi) return overall();
  std::vector<double> near;
  for (auto it = lo; it != hi; ++it) near.push_back(it->second);
  return kReferenceNominalS / median(std::move(near));
}

double HostSpeed::overall() const {
  return samples_.empty() ? 1.0 : kReferenceNominalS / median_seconds();
}

double HostSpeed::total_seconds() const {
  double total = 0.0;
  for (const auto& s : samples_) total += s.second;
  return total;
}

double HostSpeed::median_seconds() const {
  std::vector<double> all;
  for (const auto& s : samples_) all.push_back(s.second);
  return median(std::move(all));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string write_trace(const tensat::trace::Tracer& tracer, const std::string& path) {
  std::ofstream out(path);
  if (out) tracer.write_chrome_trace(out);
  return out ? "trace written to " + path : "could not write trace to " + path;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace e2e
