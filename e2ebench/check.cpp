#include "check.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "lang/op.h"
#include "serialize/serialize.h"
#include "tensor/interp.h"

namespace e2e {

using tensat::Graph;
using tensat::Id;
using tensat::Op;
using tensat::Tensor;

namespace {

/// The graph's outputs in order, with the noop chain that single-rooting
/// adds unfolded, so two graphs compare output by output.
std::vector<Id> real_roots(const Graph& g) {
  std::vector<Id> out;
  std::vector<Id> stack(g.roots().rbegin(), g.roots().rend());
  while (!stack.empty()) {
    const Id id = stack.back();
    stack.pop_back();
    if (g.node(id).op == Op::kNoop) {
      stack.push_back(g.node(id).children[1]);
      stack.push_back(g.node(id).children[0]);
    } else {
      out.push_back(id);
    }
  }
  return out;
}

bool contains_merge(const Graph& g) {
  for (Id id : g.topo_order())
    if (g.node(id).op == Op::kMerge) return true;
  return false;
}

bool all_finite(const std::vector<Tensor>& ts) {
  for (const Tensor& t : ts)
    for (float v : t.data())
      if (!std::isfinite(v)) return false;
  return true;
}

}  // namespace

std::vector<Tensor> OutputChecker::outputs(const Graph& g, int scale_steps) const {
  Graph copy = g;
  copy.set_roots(real_roots(copy));
  tensat::Interpreter interp(seed_);
  if (scale_steps > 0) {
    // The leaves the interpreter would synthesize, scaled and fed back.
    Graph leaves;
    std::vector<std::string> names;
    for (Id id : copy.topo_order()) {
      const tensat::TNode& n = copy.node(id);
      if (n.op != Op::kInput && n.op != Op::kWeight) continue;
      auto [name, dims] = tensat::parse_tensor_id(copy.node(n.children[0]).str.str());
      leaves.add_root(n.op == Op::kInput ? leaves.input(name, dims) : leaves.weight(name, dims));
      names.push_back(name);
    }
    std::vector<Tensor> data = tensat::Interpreter(seed_).run_roots(leaves);
    const float scale = std::pow(kScaleStep, static_cast<float>(scale_steps));
    for (size_t i = 0; i < names.size(); ++i) {
      for (float& v : data[i].data()) v *= scale;
      interp.feed(names[i], std::move(data[i]));
    }
  }
  return interp.run_roots(copy);
}

const OutputChecker::Reference& OutputChecker::reference(const Graph& input) {
  const std::string key = tensat::save_graph_to_string(input);
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_.wait(lock, [&] { return pending_.count(key) == 0; });
    auto it = reference_.find(key);
    if (it != reference_.end()) return it->second;
    pending_.insert(key);
  }
  const auto finish = [&] {
    pending_.erase(key);
    done_.notify_all();
  };
  Reference ref;
  try {
    for (int steps = 0; steps <= kMaxScaleSteps; ++steps) {
      std::vector<Tensor> out = outputs(input, steps);
      if (all_finite(out)) {
        ref = {steps, std::move(out)};
        break;
      }
    }
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    finish();  // so threads waiting for this input do not wait forever
    throw;
  }
  std::lock_guard<std::mutex> lock(mu_);
  finish();
  return reference_.emplace(key, std::move(ref)).first->second;
}

size_t OutputChecker::scaled_inputs() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [key, ref] : reference_) n += ref.scale_steps > 0 ? 1 : 0;
  return n;
}

Verdict OutputChecker::check(const Graph& input, const Graph& optimized,
                             std::string* why) {
  if (contains_merge(optimized)) return Verdict::kUnverified;
  const Reference& r = reference(input);
  if (r.scale_steps < 0) return Verdict::kUnverified;
  const std::vector<Tensor>& ref = r.outputs;
  const std::vector<Tensor> got = outputs(optimized, r.scale_steps);
  if (got.size() != ref.size()) {
    *why = "output count " + std::to_string(got.size()) + " != " +
           std::to_string(ref.size());
    return Verdict::kMismatch;
  }
  for (size_t i = 0; i < ref.size(); ++i) {
    if (got[i].dims() != ref[i].dims()) {
      *why = "output " + std::to_string(i) + " has a different shape";
      return Verdict::kMismatch;
    }
    double scale = 0.0;
    double diff = 0.0;
    bool finite = true;
    const auto a = ref[i].data();
    const auto b = got[i].data();
    for (size_t j = 0; j < a.size(); ++j) {
      finite = finite && std::isfinite(a[j]) && std::isfinite(b[j]);
      scale = std::max(scale, std::abs(static_cast<double>(a[j])));
      diff = std::max(diff, std::abs(static_cast<double>(a[j]) - b[j]));
    }
    if (!finite || diff > kRelTolerance * std::max(scale, 1e-6)) {
      *why = "output " + std::to_string(i) + " differs: max |diff| " +
             std::to_string(diff) + " at magnitude " + std::to_string(scale) +
             (finite ? "" : " (non-finite values)") +
             (r.scale_steps > 0 ? " on data scaled by 1e-" + std::to_string(r.scale_steps) : "");
      return Verdict::kMismatch;
    }
  }
  return Verdict::kMatch;
}

std::string check_cost(double actual, double reported, double original) {
  const double eps = 1e-9 * std::max({1.0, std::abs(reported), std::abs(original)});
  if (std::abs(actual - reported) > eps)
    return "graph_cost " + std::to_string(actual) + " != reported " +
           std::to_string(reported);
  if (reported > original + eps)
    return "optimized cost " + std::to_string(reported) + " > input cost " +
           std::to_string(original);
  return "";
}

void run_parallel(size_t n, size_t threads, const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  const auto worker = [&] {
    for (size_t i = next++; i < n; i = next++) fn(i);
  };
  std::vector<std::thread> pool;
  for (size_t t = 1; t < std::min(threads, n); ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
}

}  // namespace e2e
