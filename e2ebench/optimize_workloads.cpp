// The `table1` and `saturate` workloads: one caller runs one-shot
// optimize() calls over the seven Table-1 models x k_multi in {1, 2} in a
// closed loop, pass after pass, until the measured time is used up.
//
//   table1    quick-scale models (bench_models() under TENSAT_BENCH_QUICK),
//             k_max 4, node limit 500, ILP extraction with a 5 s limit.
//             Extraction is nearly all of the time here. Rows that stop at
//             the ILP time limit (VGG-19) are left out of the time metrics,
//             which would otherwise read the limit.
//   saturate  paper-scale models (paper_models()), the paper's N_max 50000
//             and k_max 15, greedy extraction. Exploration does most of the
//             work and the MILP none.
//
// The traced run alternates an untraced pass of optimize() with a traced
// pass of the same pipeline called phase by phase (graph_cost, seed_egraph,
// run_exploration, extract_*, never-worse fallback), which must reproduce
// optimize()'s cost on every row.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <set>

#include "check.h"
#include "models/models.h"
#include "optimizer/optimizer.h"
#include "rewrite/rules.h"
#include "serialize/serialize.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "taso/search.h"
#include "workloads.h"

namespace e2e {

using namespace tensat;

namespace {

constexpr double kIlpTimeLimitS = 5.0;

struct Settings {
  bool paper_scale;
  int k_max;
  size_t node_limit;
  ExtractorKind extractor;
};

Settings settings_for(const std::string& workload) {
  if (workload == "table1") return {false, 4, 500, ExtractorKind::kIlp};
  return {true, 15, 50000, ExtractorKind::kGreedy};
}

TensatOptions tensat_options(const Settings& s, int k_multi) {
  TensatOptions opt;
  opt.k_max = s.k_max;
  opt.k_multi = k_multi;
  opt.node_limit = s.node_limit;
  opt.explore_time_limit_s = 30.0;
  opt.cycle_filter = CycleFilterMode::kEfficient;
  opt.extractor = s.extractor;
  opt.ilp.time_limit_s = kIlpTimeLimitS;
  opt.ilp.max_instance_nodes = 2600;
  return opt;
}

/// The quick-scale sizes of bench_models() (bench/bench_common.h), spelled
/// out so the workload does not depend on an environment variable.
std::vector<ModelInfo> quick_models() {
  std::vector<ModelInfo> models;
  models.push_back({"NasRNN", make_nasrnn(1, 8, 128)});
  models.push_back({"BERT", make_bert(1, 16, 64)});
  models.push_back({"ResNeXt-50", make_resnext50(1, 16, 8, 2)});
  models.push_back({"NasNet-A", make_nasnet_a(1, 8, 8)});
  models.push_back({"SqueezeNet", make_squeezenet(1, 16, 16)});
  models.push_back({"VGG-19", make_vgg19(4, 32)});
  models.push_back({"Inception-v3", make_inception_v3(1, 16, 8)});
  return models;
}

struct Model {
  std::string name;
  Graph graph;
  double cost;
};

struct Setup {
  std::vector<Rewrite> rules;
  std::vector<Model> models;
};

Setup build_setup(const Settings& s, const CostModel& cost_model) {
  Setup setup;
  setup.rules = default_rules();
  for (ModelInfo& m : s.paper_scale ? paper_models() : quick_models()) {
    const double cost = graph_cost(m.graph, cost_model);
    setup.models.push_back({m.name, std::move(m.graph), cost});
  }
  return setup;
}

bool fell_back(const EngineExtractionResult& r) {
  return r.cyclic_selection || r.too_large || r.milp_status == MilpStatus::kNoSolution;
}

/// What the benchmark keeps of one optimize() call: fixed-size fields and a
/// pointer to the optimized graph's text, interned per model, so what it
/// keeps does not grow with the size of the graphs.
struct Call {
  size_t row;
  double seconds;
  bool ok;
  double original_cost;
  double optimized_cost;
  const std::string* optimized_text;
  // ExploreStats
  double search_s, apply_s, rebuild_s, cycles_s;
  double enodes, iterations, matches, applications;
  bool node_limit_stop;
  int stop;
  bool in_window;  // false for the warm-up pass
  double begin_s;  // start on the run's clock
  // The engine's extraction result (ILP extraction only)
  double solve_s, reduce_s, gap;
  double bb_nodes, lp_iterations, cores, largest_core_vars, milp_vars;
  bool timed_out, fell_back, proven, cyclic_selection;
};

Call keep(size_t row, double seconds, const TensatResult& r, bool ilp,
          std::set<std::string>& texts) {
  const ExploreStats& e = r.explore;
  const EngineExtractionResult& x = r.ilp;
  Call c{};
  c.row = row;
  c.seconds = seconds;
  c.ok = r.ok;
  c.original_cost = r.original_cost;
  c.optimized_cost = r.optimized_cost;
  c.optimized_text = &*texts.insert(save_graph_to_string(r.optimized)).first;
  c.search_s = e.search_seconds;
  c.apply_s = e.apply_seconds;
  c.rebuild_s = e.rebuild_seconds;
  c.cycles_s = e.dmap_seconds + e.cycle_sweep_seconds;
  c.enodes = static_cast<double>(e.enodes_total);
  c.iterations = e.iterations;
  c.matches = static_cast<double>(e.matches_found + e.multi_matches_found);
  c.applications = static_cast<double>(e.applications);
  c.node_limit_stop = e.stop == StopReason::kNodeLimit;
  c.stop = static_cast<int>(e.stop);
  if (ilp) {
    c.solve_s = x.stats.solve_seconds;
    c.reduce_s = x.stats.reduce_seconds;
    c.gap = x.ok ? x.stats.gap : 1.0;
    c.bb_nodes = x.bb_nodes;
    c.lp_iterations = x.lp_iterations;
    c.cores = static_cast<double>(x.stats.num_cores);
    c.largest_core_vars = static_cast<double>(x.stats.largest_core_vars);
    c.milp_vars = static_cast<double>(x.stats.milp_vars_total);
    c.timed_out = x.timed_out;
    c.fell_back = fell_back(x);
    c.proven = x.milp_status == MilpStatus::kOptimal && !c.fell_back;
    c.cyclic_selection = x.cyclic_selection;
  }
  return c;
}

struct PhaseTimes {
  double seed_s{0}, explore_s{0}, extract_s{0};
};

/// A call of the phase-by-phase pipeline, paired with the untraced call it
/// replays.
struct TracedCall {
  Call call;
  PhaseTimes phases;
  size_t replays;  // index into the untraced calls
};

/// optimize(), called one public phase at a time with a span around each
/// call. Mirrors optimizer.cpp's optimize() step for step.
TensatResult traced_optimize(const Graph& input, const std::vector<Rewrite>& rules,
                             const CostModel& model, const TensatOptions& options,
                             trace::Tracer* tracer, int64_t op, PhaseTimes* times) {
  LayerSpan row(tracer, "optimize", op);
  TensatResult result;
  {
    LayerSpan s(tracer, "cost", op);
    result.original_cost = graph_cost(input, model);
  }
  Timer phase;
  EGraph eg = [&] {
    LayerSpan s(tracer, "egraph.seed", op);
    return seed_egraph(input);
  }();
  times->seed_s = phase.seconds();
  phase.reset();
  {
    LayerSpan s(tracer, "explore", op);
    result.explore = run_exploration(eg, rules, options);
  }
  times->explore_s = phase.seconds();
  phase.reset();
  if (options.extractor == ExtractorKind::kGreedy) {
    LayerSpan s(tracer, "extract.greedy", op);
    ExtractionResult ext = extract_greedy(eg, model);
    result.ok = ext.ok;
    if (ext.ok) {
      result.optimized = std::move(ext.graph);
      result.optimized_cost = ext.cost;
    }
  } else {
    LayerSpan s(tracer, "extract.engine", op);
    result.ilp = extract_engine(eg, model, options.ilp);
    result.ok = result.ilp.ok;
    result.extract_stats = result.ilp.stats;
    if (result.ilp.ok) {
      result.optimized = result.ilp.graph;
      result.optimized_cost = result.ilp.cost;
    }
  }
  times->extract_s = phase.seconds();
  if (!result.ok || result.optimized_cost > result.original_cost) {
    LayerSpan s(tracer, "fallback", op);
    Graph g = input;
    g.single_root();
    result.optimized = std::move(g);
    result.optimized_cost = result.original_cost;
    result.ok = true;
  }
  return result;
}

std::string settings_json(const std::string& workload, const Settings& s,
                          const std::vector<Model>& models) {
  std::string names;
  for (const Model& m : models) names += (names.empty() ? "" : ", ") + json_string(m.name);
  const bool ilp = s.extractor == ExtractorKind::kIlp;
  return "{\"workload\": " + json_string(workload) +
         ", \"models\": [" + names + "], \"scale\": " +
         json_string(s.paper_scale ? "paper_models()" : "bench_models() quick") +
         ", \"k_multi\": [1, 2], \"k_max\": " + std::to_string(s.k_max) +
         ", \"node_limit\": " + std::to_string(s.node_limit) + ", \"extractor\": " +
         json_string(ilp ? "engine" : "greedy") +
         (ilp ? ", \"ilp_time_limit_s\": " + json_number(kIlpTimeLimitS) : "") +
         ", \"taso\": {\"iterations\": 10, \"alpha\": 1.05}, \"callers\": 1}";
}

}  // namespace

Outcome run_optimize_workload(RunConfig& config) {
  const Settings settings = settings_for(config.workload);
  const bool ilp = settings.extractor == ExtractorKind::kIlp;
  const T4CostModel cost_model;
  Outcome out;

  // ---- Set-up, repeated so its median is steady ----------------------------
  // Host speed drifts by tens of percent over seconds, so set-up runs three
  // times before the window and once more after each call in it: its median
  // draws on the whole run, as the row medians do. Each set-up is followed by
  // a timing of the host-speed reference (report.h).
  const Timer run_clock;
  HostSpeed host(run_clock);
  std::vector<std::pair<double, double>> setup_spans;  // (begin, end) on run_clock
  const auto set_up = [&] {
    const double begin = run_clock.seconds();
    // The first set-up also starts the work-stealing pool's workers, so
    // the first timed optimize() does not pay for it.
    if (setup_spans.empty()) parallel_for(resolve_threads(0) * 4, 0, [](size_t) {});
    Setup setup = build_setup(settings, cost_model);
    setup_spans.emplace_back(begin, run_clock.seconds());
    host.sample();
    return setup;
  };
  const Setup setup = set_up();
  set_up();
  set_up();
  config.settings_json = settings_json(config.workload, settings, setup.models);
  const std::vector<Model>& models = setup.models;
  std::vector<std::pair<size_t, int>> rows;  // (model, k_multi)
  for (size_t m = 0; m < models.size(); ++m)
    for (int k = 1; k <= 2; ++k) rows.emplace_back(m, k);
  const auto row_name = [&](size_t row) {
    return models[rows[row].first].name + " k" + std::to_string(rows[row].second);
  };

  // ---- Measured closed loop ------------------------------------------------
  // A pass calls every row once, in a seeded order. A warm-up pass runs
  // before the window: it fills the library's caches and decides each row's
  // pace. Host speed drifts by tens of percent over seconds, so each row's
  // median should draw on samples from the whole window:
  //  - a row whose first call took under kFastRowSeconds is fast, and after
  //    each call of a slower row every fast row is called once more;
  //  - a row whose first call stopped at the ILP time limit is called in the
  //    warm-up pass only. Its time is the limit at any host speed, and
  //    skipping it leaves the window to the other rows.
  // Each call's time is scaled by the reference timings around it
  // (HostSpeed::at): the host's speed moves within a run too.
  constexpr double kFastRowSeconds = 0.05;
  enum class Pace { kUnknown, kFast, kSlow, kTimeLimited };
  trace::Tracer tracer;  // never installed: holds the benchmark's spans only
  std::vector<std::set<std::string>> texts(models.size());  // optimized graphs
  std::vector<Call> untraced;
  std::vector<TracedCall> traced;
  std::vector<Pace> pace(rows.size(), Pace::kUnknown);
  Rng order_rng(config.seed);
  const auto shuffle = [&](std::vector<size_t>& v) {
    for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[order_rng.below(i)]);
  };
  size_t passes = 0;  // the warm-up pass is pass 0
  const auto call = [&](size_t row) {
    const auto [m, k] = rows[row];
    const double begin = run_clock.seconds();
    Timer t;
    TensatResult r = optimize(models[m].graph, setup.rules, cost_model,
                              tensat_options(settings, k));
    const double seconds = t.seconds();
    if (pace[row] == Pace::kUnknown)
      pace[row] = r.ilp.timed_out ? Pace::kTimeLimited
                  : seconds < kFastRowSeconds ? Pace::kFast
                                              : Pace::kSlow;
    untraced.push_back(keep(row, seconds, r, ilp, texts[m]));
    untraced.back().in_window = passes > 0;
    untraced.back().begin_s = begin;
    set_up();
  };
  std::vector<size_t> all_rows(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) all_rows[i] = i;
  Timer window;
  while (passes <= 1 || window.seconds() < config.seconds) {
    if (passes == 1) window.reset();
    const size_t pass_begin = untraced.size();
    std::vector<size_t> order = all_rows;
    shuffle(order);
    for (size_t row : order) {
      if (passes > 0 && pace[row] == Pace::kTimeLimited) continue;
      call(row);
      if (pace[row] == Pace::kFast) continue;
      std::vector<size_t> fast_rows;
      for (size_t i = 0; i < rows.size(); ++i)
        if (pace[i] == Pace::kFast) fast_rows.push_back(i);
      shuffle(fast_rows);
      for (size_t f : fast_rows) call(f);
    }
    if (config.trace) {
      // The same calls again, phase by phase.
      for (size_t i = pass_begin, end = untraced.size(); i < end; ++i) {
        const size_t row = untraced[i].row;
        const auto [m, k] = rows[row];
        PhaseTimes phases;
        Timer t;
        TensatResult r =
            traced_optimize(models[m].graph, setup.rules, cost_model, tensat_options(settings, k),
                            &tracer, static_cast<int64_t>(traced.size() + 1), &phases);
        const double seconds = t.seconds();
        traced.push_back({keep(row, seconds, r, ilp, texts[m]), phases, i});
      }
    }
    ++passes;
  }
  const double window_s = window.seconds();
  // The program's peak, before the benchmark's own baseline and checks run.
  const double rss_mb = peak_rss_mb();

  // ---- Reference baseline (outside the measured window) --------------------
  trace::Tracer* const spans = config.trace ? &tracer : nullptr;
  TasoOptions taso_opt;
  taso_opt.iterations = 10;
  taso_opt.alpha = 1.05;
  taso_opt.time_limit_s = 10.0;
  std::vector<double> taso_cost(models.size()), taso_seconds;
  for (size_t m = 0; m < models.size(); ++m) {
    LayerSpan s(spans, "taso", static_cast<int64_t>(m));
    Timer t;
    taso_cost[m] = taso_search(models[m].graph, setup.rules, cost_model, taso_opt).best_cost;
    taso_seconds.push_back(t.seconds());
  }

  // ---- Output checks --------------------------------------------------------
  // Each distinct optimized graph of a model is checked once, the largest
  // models first, on a few threads: paper-scale BERT takes seconds per run of
  // the interpreter.
  struct Distinct {
    size_t model;
    const std::string* text;
    double cost{0.0};  // graph_cost of the optimized graph
    Verdict verdict{Verdict::kMatch};
    std::string why;
  };
  std::vector<Distinct> distinct;
  for (size_t m = 0; m < models.size(); ++m)
    for (const std::string& text : texts[m]) distinct.push_back({m, &text, 0.0, Verdict::kMatch, ""});
  std::stable_sort(distinct.begin(), distinct.end(), [&](const Distinct& a, const Distinct& b) {
    return models[a.model].graph.size() > models[b.model].graph.size();
  });
  OutputChecker checker(config.seed);
  run_parallel(distinct.size(), 3, [&](size_t i) {
    Distinct& d = distinct[i];
    LayerSpan s(spans, "verify", static_cast<int64_t>(d.model));
    try {
      const Graph opt = load_graph_from_string(*d.text);
      d.cost = graph_cost(opt, cost_model);
      d.verdict = checker.check(models[d.model].graph, opt, &d.why);
    } catch (const std::exception& e) {
      d.verdict = Verdict::kMismatch;
      d.why = std::string("check threw: ") + e.what();
    }
  });
  std::map<const std::string*, const Distinct*> by_text;
  size_t checked = 0, unverified = 0;
  for (const Distinct& d : distinct) {
    by_text[d.text] = &d;
    if (d.verdict == Verdict::kMatch) ++checked;
    if (d.verdict == Verdict::kUnverified) ++unverified;
  }
  const auto check_call = [&](const Call& c) -> std::string {
    if (!c.ok) return "optimize() returned ok=false";
    const Distinct& d = *by_text.at(c.optimized_text);
    if (d.verdict == Verdict::kMismatch) return d.why;
    return check_cost(d.cost, c.optimized_cost, c.original_cost);
  };
  const auto fail = [&](const Call& c, const std::string& why) {
    ++out.failed;
    out.notes.push_back("FAIL " + row_name(c.row) + ": " + why);
  };
  for (const Call& c : untraced) {
    ++out.attempted;
    if (std::string why = check_call(c); !why.empty()) fail(c, why);
  }
  for (const TracedCall& t : traced) {
    ++out.attempted;
    std::string why = check_call(t.call);
    const Call& ref = untraced[t.replays];
    if (why.empty() && t.call.optimized_cost != ref.optimized_cost)
      why = "phase-by-phase cost " + std::to_string(t.call.optimized_cost) +
            " != optimize() cost " + std::to_string(ref.optimized_cost);
    if (!why.empty()) fail(t.call, why);
  }

  // ---- Per-row summaries (untraced calls) -----------------------------------
  // The time metrics cover the rows that did not stop at the ILP time limit;
  // the cost metrics cover every row.
  std::vector<std::vector<const Call*>> by_row(rows.size());
  for (const Call& c : untraced) by_row[c.row].push_back(&c);
  std::vector<double> row_seconds, row_scaled, row_ratio;  // time rows: as measured, scaled
  std::vector<double> best_cost(models.size(), kInf);
  std::string limited, slowest;
  double gap_sum = 0.0;
  size_t fallbacks = 0, timeouts = 0;
  for (size_t row = 0; row < rows.size(); ++row) {
    const size_t m = rows[row].first;
    std::vector<double> secs, scaled, costs;
    for (const Call* c : by_row[row]) {
      if (c->in_window || pace[row] == Pace::kTimeLimited) {
        secs.push_back(c->seconds);
        scaled.push_back(c->seconds * host.at(c->begin_s, c->begin_s + c->seconds));
      }
      costs.push_back(c->optimized_cost);
    }
    const double seconds = median(secs), cost = median(costs);
    row_ratio.push_back(cost / models[m].cost);
    best_cost[m] = std::min(best_cost[m], cost);
    if (pace[row] == Pace::kTimeLimited) {
      limited += (limited.empty() ? "" : ", ") + row_name(row);
    } else {
      if (row_scaled.empty() || median(scaled) > *std::max_element(row_scaled.begin(), row_scaled.end()))
        slowest = row_name(row);
      row_seconds.push_back(seconds);
      row_scaled.push_back(median(scaled));
    }
    // Extraction outcome of the row's first call.
    const Call& first = *by_row[row].front();
    gap_sum += first.gap;
    fallbacks += first.fell_back ? 1 : 0;
    timeouts += first.timed_out ? 1 : 0;
    char line[256];
    std::snprintf(line, sizeof line,
                  "row %-13s k%d  %.4f s (median of %zu)  cost %.2f -> %.2f us  "
                  "stop %d  enodes %.0f  extract %s%s%s",
                  models[m].name.c_str(), rows[row].second, seconds, secs.size(),
                  models[m].cost, cost, first.stop, first.enodes,
                  ilp ? ("engine gap " + std::to_string(first.gap)).c_str() : "greedy",
                  first.timed_out ? " time-limit" : "",
                  first.cyclic_selection ? " cyclic_selection-fallback" : "");
    out.notes.push_back(line);
  }
  std::vector<double> vs_taso;
  for (size_t m = 0; m < models.size(); ++m) vs_taso.push_back(best_cost[m] / taso_cost[m]);

  char line[400];
  std::snprintf(line, sizeof line,
                "passes %zu after a warm-up pass  calls %zu  window %.2f s  fail_ratio %.4g  "
                "verified %zu  unverified %zu  (on scaled data: %zu inputs)",
                passes - 1, untraced.size(), window_s,
                static_cast<double>(out.failed) / static_cast<double>(out.attempted),
                checked, unverified, checker.scaled_inputs());
  out.notes.push_back(line);
  if (ilp) {
    std::snprintf(line, sizeof line,
                  "extract_gap_mean %.4g  extract_fallbacks %zu  extract_timeouts %zu "
                  "(first call of each of %zu rows)",
                  gap_sum / static_cast<double>(rows.size()), fallbacks, timeouts,
                  rows.size());
    out.notes.push_back(line);
  }
  out.notes.push_back("time metrics over " + std::to_string(row_seconds.size()) +
                      " rows; left out at the ILP time limit: " +
                      (limited.empty() ? std::string("none") : limited) +
                      "; slowest row: " + slowest);

  // Throughput, median and tail over the rows, each at its median call. A
  // median over all calls would sit among the fast rows, which run most
  // often, and jump between their clusters of times from run to run. A tail
  // percentile with ten rows beyond it does not exist, so the tail is the
  // slowest row. The row times above are as measured; the metrics use the
  // scaled ones.
  struct Times {
    double setup_s, geomean_s, ops, p50_s, tail_s;
  };
  const auto times = [](const std::vector<double>& setup, const std::vector<double>& rows) {
    double suite_s = 0.0;  // one call per row, each at its median
    for (double t : rows) suite_s += t;
    return Times{median(setup), geomean(rows), static_cast<double>(rows.size()) / suite_s,
                 median(rows), *std::max_element(rows.begin(), rows.end())};
  };
  std::vector<double> setup_times, setup_scaled;
  for (const auto& [begin, end] : setup_spans) {
    setup_times.push_back(end - begin);
    setup_scaled.push_back((end - begin) * host.at(begin, end));
  }
  const Times raw = times(setup_times, row_seconds), scaled = times(setup_scaled, row_scaled);
  std::snprintf(line, sizeof line,
                "host speed: reference median %.4g ms over %zu samples, each call scaled by "
                "those around it; as measured: setup_s %.4g  optimize_s_geomean %.4g  "
                "ops_per_s %.4g  latency_p50_s %.4g  latency_tail_s %.4g",
                1e3 * host.median_seconds(), host.size(), raw.setup_s, raw.geomean_s,
                raw.ops, raw.p50_s, raw.tail_s);
  out.notes.push_back(line);

  if (!config.trace) {
    MetricSet& e = out.metrics;
    e.set("setup_s", scaled.setup_s, "s");
    e.set("optimize_s_geomean", scaled.geomean_s, "s");
    e.set("cost_ratio_geomean", geomean(row_ratio), "ratio");
    e.set("vs_taso_geomean", geomean(vs_taso), "ratio");
    e.set("ops_per_s", scaled.ops, "1/s");
    e.set("latency_p50_s", scaled.p50_s, "s");
    e.set("latency_tail_s", scaled.tail_s, "s");
    e.set("peak_rss_mb", rss_mb, "MB");
    return out;
  }

  // ---- Per-layer metrics (traced calls) -------------------------------------
  // Each row counts once, as the mean of its traced calls, so a pass of 14
  // one-shot calls is the unit whatever the number of repeats of fast rows.
  enum Field {
    kWall, kUntraced, kSeed, kExplore, kExtract, kSearch, kApply, kRebuild, kCycles,
    kEnodes, kIterations, kMatches, kApplications, kNodeStop, kSolve, kReduce, kBb,
    kLpIt, kCores, kLargest, kVars, kGap, kFallback, kTimeout, kProven, kFields
  };
  std::vector<std::vector<double>> row_sums(rows.size(), std::vector<double>(kFields, 0.0));
  std::vector<double> row_count(rows.size(), 0.0);
  for (const TracedCall& t : traced) {
    const Call& c = t.call;
    const double v[kFields] = {
        c.seconds, untraced[t.replays].seconds, t.phases.seed_s, t.phases.explore_s,
        t.phases.extract_s, c.search_s, c.apply_s, c.rebuild_s, c.cycles_s, c.enodes,
        c.iterations, c.matches, c.applications, c.node_limit_stop ? 1.0 : 0.0,
        c.solve_s, c.reduce_s, c.bb_nodes, c.lp_iterations, c.cores, c.largest_core_vars,
        c.milp_vars, c.gap, c.fell_back ? 1.0 : 0.0, c.timed_out ? 1.0 : 0.0,
        c.proven ? 1.0 : 0.0};
    for (int f = 0; f < kFields; ++f) row_sums[c.row][f] += v[f];
    row_count[c.row] += 1;
  }
  double pass[kFields] = {};  // one mean call per row, summed over the rows
  for (size_t row = 0; row < rows.size(); ++row)
    for (int f = 0; f < kFields; ++f) pass[f] += row_sums[row][f] / row_count[row];
  const double n = static_cast<double>(rows.size());
  const double wall_s = pass[kWall], seed_s = pass[kSeed], explore_s = pass[kExplore],
               extract_s = pass[kExtract];
  std::snprintf(line, sizeof line,
                "traced split of optimize() wall: seed %.2f%%  explore %.2f%%  "
                "extract %.2f%%  (per call: seed %.4g s, explore %.4g s, extract %.4g s)",
                100 * seed_s / wall_s, 100 * explore_s / wall_s,
                100 * extract_s / wall_s, seed_s / n, explore_s / n, extract_s / n);
  out.notes.push_back(line);
  if (!config.trace_out.empty()) out.notes.push_back(write_trace(tracer, config.trace_out));

  // Times and counts are per call (the mean over rows); stops, fallbacks and
  // timeouts are rows per pass. The engine's fields and the service's read 0
  // where their layer is not on the workload's path.
  MetricSet& l = out.metrics;
  l.set("egraph.seed_share", seed_s / wall_s, "ratio");
  l.set("explore.s", explore_s / n, "s");
  l.set("explore.share", explore_s / wall_s, "ratio");
  l.set("explore.search_s", pass[kSearch] / n, "s");
  l.set("explore.apply_s", pass[kApply] / n, "s");
  l.set("explore.rebuild_s", pass[kRebuild] / n, "s");
  l.set("explore.cycles_s", pass[kCycles] / n, "s");
  l.set("explore.enodes", pass[kEnodes] / n, "count");
  l.set("explore.iterations", pass[kIterations] / n, "count");
  l.set("explore.matches", pass[kMatches] / n, "count");
  l.set("explore.applications", pass[kApplications] / n, "count");
  l.set("explore.apply_yield",
        pass[kMatches] > 0 ? pass[kApplications] / pass[kMatches] : 0.0, "ratio");
  l.set("explore.node_limit_stops", pass[kNodeStop], "count");
  l.set("extract.s", extract_s / n, "s");
  l.set("extract.share", extract_s / wall_s, "ratio");
  l.set("extract.solve_share", pass[kSolve] / extract_s, "ratio");
  l.set("extract.reduce_share", pass[kReduce] / extract_s, "ratio");
  l.set("extract.bb_nodes", pass[kBb] / n, "count");
  l.set("extract.lp_iterations", pass[kLpIt] / n, "count");
  l.set("extract.cores", pass[kCores] / n, "count");
  l.set("extract.largest_core_vars", pass[kLargest] / n, "count");
  l.set("extract.milp_vars", pass[kVars] / n, "count");
  l.set("extract.proven_ratio", pass[kProven] / n, "ratio");
  l.set("extract.gap_mean", pass[kGap] / n, "ratio");
  l.set("extract.fallbacks", pass[kFallback], "count");
  l.set("extract.timeouts", pass[kTimeout], "count");
  l.set("taso.s", mean(taso_seconds), "s");
  for (const char* name : {"service.cache_hit_ratio", "service.hit_cold_ratio",
                           "service.session_cold_ratio"})
    l.set(name, 0.0, "ratio");
  for (const char* name : {"service.dup_cold", "service.warm_entries",
                           "service.sessions_reused", "service.sessions_retired"})
    l.set(name, 0.0, "count");
  l.set("verify.checked", static_cast<double>(checked), "count");
  l.set("verify.unverified", static_cast<double>(unverified), "count");
  l.set("trace.overhead_ratio", wall_s / pass[kUntraced], "ratio");
  return out;
}

}  // namespace e2e
