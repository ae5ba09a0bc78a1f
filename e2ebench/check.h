// Output checks: every optimized graph the benchmark receives must compute
// what its input computes, and its reported cost must be its real cost and
// no worse than the input's.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "lang/graph.h"
#include "tensor/tensor.h"

namespace e2e {

enum class Verdict { kMatch, kUnverified, kMismatch };

/// Numeric equivalence under the reference interpreter, on inputs and
/// weights synthesized from `seed`. The tolerance is relative to the
/// reference output's magnitude: large models reach outputs of order 1e5,
/// where float reassociation alone moves the last few digits. Reassociated
/// 512-wide sums feeding sigmoid/tanh (paper-scale NasRNN) moved outputs by
/// up to 1.1e-4 of their magnitude over 400 seeds, so the tolerance sits a
/// decade above that; a wrong rewrite moves them by far more.
///
/// When the input's own outputs are not finite on the synthesized data
/// (paper-scale BERT: attention without softmax cubes its activations per
/// layer and overflows float32), both graphs are run again with every
/// synthesized input and weight multiplied by kScaleStep, as often as it
/// takes for the input's outputs to be finite (at most kMaxScaleSteps times).
/// The first finite scale keeps the large terms large, so a rewrite that
/// drops or reorders one still shows.
class OutputChecker {
 public:
  static constexpr double kRelTolerance = 1e-3;
  static constexpr float kScaleStep = 0.1f;
  static constexpr int kMaxScaleSteps = 8;

  explicit OutputChecker(uint64_t seed) : seed_(seed) {}

  /// kUnverified when `optimized` contains `merge` (the interpreter cannot
  /// evaluate it) or no scale makes the input's outputs finite; otherwise
  /// kMatch or kMismatch with the reason in `why`. Reference outputs are
  /// computed once per input. Thread-safe. Throws what the interpreter
  /// throws.
  Verdict check(const tensat::Graph& input, const tensat::Graph& optimized, std::string* why);

  /// Inputs whose outputs needed scaled data to be finite.
  [[nodiscard]] size_t scaled_inputs() const;

 private:
  struct Reference {
    int scale_steps{-1};  // -1: not finite at any scale
    std::vector<tensat::Tensor> outputs;
  };
  /// The graph's outputs with every synthesized leaf scaled by
  /// kScaleStep^scale_steps.
  std::vector<tensat::Tensor> outputs(const tensat::Graph& g, int scale_steps) const;
  const Reference& reference(const tensat::Graph& input);

  const uint64_t seed_;
  mutable std::mutex mu_;  // guards reference_ and pending_
  std::condition_variable done_;
  std::unordered_map<std::string, Reference> reference_;
  std::unordered_set<std::string> pending_;  // references being computed
};

/// Runs fn(i) for i in [0, n) on `threads` threads, each claiming the next
/// index when it finishes one, so put the slowest items first.
void run_parallel(size_t n, size_t threads, const std::function<void(size_t)>& fn);

/// Checks that `actual`, graph_cost of the optimized graph, equals
/// `reported` and that neither exceeds `original` (up to floating-point
/// rounding). Returns an empty string when both hold, else the reason.
std::string check_cost(double actual, double reported, double original);

}  // namespace e2e
