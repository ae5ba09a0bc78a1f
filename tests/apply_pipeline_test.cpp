// The apply pipeline (optimizer/optimizer.cpp): stage 1 plans every pending
// application read-only against the clean e-graph, stage 2 commits the batch
// (serial resolve, parallel sharded insert, serial merges in plan order),
// and stage 3 is the single rebuild. These tests pin its two contracts:
//
//  * determinism: the explored e-graph is bit-identical (same class ids,
//    same e-node sets and stamps, same filtered flags, same extracted graph)
//    for any apply_threads value, in every cycle-filter mode, because the
//    serial resolve and merge passes fix every ordered artifact;
//  * parity: the plan/commit split of instantiate (plan_instantiate + the
//    batch commit) produces exactly the e-graph the direct reference
//    instantiate() + merge + rebuild does, and planning never mutates the
//    e-graph — a shape failure leaves no partial nodes behind.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cost/cost.h"
#include "extract/extract.h"
#include "lang/parse.h"
#include "models/models.h"
#include "optimizer/optimizer.h"
#include "rewrite/matcher.h"
#include "rewrite/rules.h"
#include "tests/egraph_fingerprint.h"

namespace tensat {
namespace {

// fingerprint() comes from tests/egraph_fingerprint.h.

std::string explore_and_fingerprint(const Graph& g, const TensatOptions& opt) {
  EGraph eg = seed_egraph(g);
  run_exploration(eg, default_rules(), opt);
  std::string fp = fingerprint(eg);
  // Fold the extracted graph in as well: identical e-graphs must extract
  // identical graphs at identical cost.
  const ExtractionResult ext = extract_greedy(eg, T4CostModel{});
  if (ext.ok) {
    fp += "cost=" + std::to_string(ext.cost) + "\n";
    fp += ext.graph.to_sexpr(ext.graph.roots()[0]);
  }
  return fp;
}

Graph shared_matmuls(int n = 3) {
  Graph g;
  const Id x = g.input("x", {64, 256});
  for (int i = 0; i < n; ++i)
    g.add_root(g.matmul(x, g.weight("w" + std::to_string(i), {256, 256})));
  return g;
}

std::vector<ModelInfo> seed_examples() {
  std::vector<ModelInfo> models;
  models.push_back({"shared_matmuls", shared_matmuls()});
  for (ModelInfo& m : tiny_models()) models.push_back(std::move(m));
  return models;
}

TensatOptions explore_options() {
  TensatOptions opt;
  opt.k_max = 3;
  opt.k_multi = 1;
  opt.node_limit = 3000;
  return opt;
}

// ---- Determinism across apply_threads --------------------------------------

TEST(ApplyPipeline, FingerprintIdenticalForAnyThreadCount) {
  // The commit's only scheduling-dependent step is commit_prepared's
  // parallel fill, whose every container receives entries in ascending
  // batch order regardless of which worker fills which shard. Vanilla
  // filtering adds a live cycle check to the serial merge pass.
  for (CycleFilterMode mode :
       {CycleFilterMode::kEfficient, CycleFilterMode::kVanilla}) {
    for (const ModelInfo& m : seed_examples()) {
      TensatOptions opt = explore_options();
      opt.cycle_filter = mode;
      opt.apply_threads = 1;
      const std::string baseline = explore_and_fingerprint(m.graph, opt);
      for (size_t threads : {2u, 8u}) {
        opt.apply_threads = threads;
        EXPECT_EQ(baseline, explore_and_fingerprint(m.graph, opt))
            << m.name << " mode=" << static_cast<int>(mode)
            << " apply_threads=" << threads;
      }
    }
  }
}

TEST(ApplyPipeline, IncrementalCyclesDeterministicAcrossThreadCounts) {
  // The incremental cycle analysis advances its epoch only at the serial
  // rebuild boundary, so its map — and with it the pre-filter's answers and
  // the filtered node set — must be a pure function of the e-graph state,
  // never of worker count or scheduling: bit-identical e-graphs for any
  // apply_threads/search_threads combination, in both cycle modes.
  for (bool incremental : {true, false}) {
    for (const ModelInfo& m : seed_examples()) {
      TensatOptions opt = explore_options();
      opt.incremental_cycles = incremental;
      opt.search_threads = 1;
      opt.apply_threads = 1;
      const std::string baseline = explore_and_fingerprint(m.graph, opt);
      for (size_t threads : {2u, 8u}) {
        opt.search_threads = threads;
        opt.apply_threads = threads;
        EXPECT_EQ(baseline, explore_and_fingerprint(m.graph, opt))
            << m.name << " incremental=" << incremental << " threads=" << threads;
      }
    }
  }
}

TEST(ApplyPipeline, SearchAndApplyThreadsCompose) {
  // Both pools on at once must not perturb anything either.
  for (const ModelInfo& m : seed_examples()) {
    TensatOptions opt = explore_options();
    const std::string baseline = explore_and_fingerprint(m.graph, opt);
    opt.search_threads = 4;
    opt.apply_threads = 4;
    EXPECT_EQ(baseline, explore_and_fingerprint(m.graph, opt)) << m.name;
  }
}

// ---- plan/commit parity with direct instantiate ----------------------------

TEST(ApplyPipeline, PlanCommitParityWithDirectInstantiate) {
  // The production commit (plan_instantiate + the batch commit inside
  // run_exploration) must build exactly the e-graph the direct reference
  // builds: instantiate() the target, merge it into the matched class,
  // rebuild.
  const Rewrite rule =
      make_rewrite("t", "(ewadd ?x ?y)", "(relu (ewadd ?y ?x))");
  Graph g;
  const Id a = g.input("a", {8, 8});
  const Id b = g.input("b", {8, 8});
  g.add_root(g.ewadd(a, b));

  EGraph direct = seed_egraph(g);
  const auto matches = search_pattern(direct, rule.pat, rule.src_roots[0]);
  ASSERT_EQ(matches.size(), 1u);
  const Subst& subst = matches[0].subst;

  NodeBuffer buf(direct);
  const uint64_t version_before = direct.version();
  const auto planned = plan_instantiate(buf, rule.pat, rule.dst_roots[0], subst);
  ASSERT_TRUE(planned.has_value());
  EXPECT_TRUE(NodeBuffer::is_staged(*planned));  // relu+ewadd are new nodes
  EXPECT_EQ(buf.size(), 2u);
  // Planning is read-only: nothing changed yet.
  EXPECT_EQ(direct.version(), version_before);
  EXPECT_EQ(fingerprint(seed_egraph(g)), fingerprint(direct));
  const std::string planned_data = to_string(buf.data(*planned));

  const auto direct_id = instantiate(direct, rule.pat, rule.dst_roots[0], subst);
  ASSERT_TRUE(direct_id.has_value());
  // The planned analysis data matches what the committed class carries.
  EXPECT_EQ(planned_data, to_string(direct.data(*direct_id)));
  ASSERT_TRUE(direct.merge(matches[0].root, *direct_id));
  direct.rebuild();

  EGraph explored = seed_egraph(g);
  TensatOptions opt;
  opt.k_max = 1;
  const ExploreStats stats = run_exploration(explored, {rule}, opt);
  EXPECT_EQ(stats.applications, 1u);
  EXPECT_EQ(fingerprint(direct), fingerprint(explored));

  // Re-planning the same target on the explored e-graph resolves to the
  // existing class without staging anything.
  NodeBuffer buf2(explored);
  const auto replanned = plan_instantiate(buf2, rule.pat, rule.dst_roots[0], subst);
  ASSERT_TRUE(replanned.has_value());
  EXPECT_FALSE(NodeBuffer::is_staged(*replanned));
  EXPECT_EQ(*replanned, explored.find(matches[0].root));
  EXPECT_EQ(buf2.size(), 0u);
}

TEST(ApplyPipeline, PlanRejectsShapeFailuresWithoutMutation) {
  // A matmul of shape-incompatible operands must fail the plan the same way
  // the direct path fails, leaving no trace in buffer or e-graph.
  Graph g;
  const Id a = g.input("a", {8, 8});
  const Id z = g.input("z", {3, 5});  // 8x8 matmul 3x5: shape check fails
  g.add_root(a);
  g.add_root(z);
  EGraph eg;
  const auto mapping = eg.add_graph(g);
  eg.set_root(mapping.at(a));  // fingerprint() reads the root

  Graph pat{GraphKind::kPattern};
  const std::vector<Id> roots = parse_all_into(pat, "(matmul 0 ?x ?z)");
  ASSERT_EQ(roots.size(), 1u);
  Subst subst;
  ASSERT_TRUE(subst.bind(Symbol("x"), mapping.at(a)));
  ASSERT_TRUE(subst.bind(Symbol("z"), mapping.at(z)));

  const std::string before = fingerprint(eg);
  const size_t enodes_before = eg.num_enodes_total();
  NodeBuffer buf(eg);
  EXPECT_FALSE(plan_instantiate(buf, pat, roots[0], subst).has_value());
  EXPECT_EQ(buf.size(), 1u);  // the axis literal was staged before the failure
  EXPECT_EQ(before, fingerprint(eg));  // ...but nothing touched the e-graph

  // Contrast with the direct path: it adds nodes bottom-up, so the failed
  // instantiation leaves the orphan literal behind — the junk the staged
  // pipeline's all-or-nothing commit avoids.
  EXPECT_FALSE(instantiate(eg, pat, roots[0], subst).has_value());
  EXPECT_EQ(eg.num_enodes_total(), enodes_before + 1);
}

// ---- Mid-apply time limit ---------------------------------------------------

TEST(ApplyPipeline, TimeLimitMidApplyStopsPhaseAndRecordsReason) {
  // A rule whose condition stalls makes the apply phase blow the time limit
  // while applications are still pending: the whole phase must stop and the
  // stop reason must be kTimeLimit (it used to leak kIterLimit because the
  // mid-apply check only broke to the next rule).
  Graph g;
  const Id x = g.input("x", {8, 8});
  const Id y = g.input("y", {8, 8});
  g.add_root(g.ewadd(x, y));
  g.add_root(g.ewadd(y, x));

  auto stall = [](const InfoLookup&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    return true;
  };
  std::vector<Rewrite> rules;
  rules.push_back(make_rewrite("comm", "(ewadd ?a ?b)", "(ewadd ?b ?a)", stall));

  TensatOptions opt;
  opt.k_max = 50;
  opt.explore_time_limit_s = 0.05;
  EGraph eg = seed_egraph(g);
  const ExploreStats stats = run_exploration(eg, rules, opt);
  EXPECT_EQ(stats.stop, StopReason::kTimeLimit);
  EXPECT_LE(stats.iterations, 2);

  // Same workload with a generous limit saturates instead.
  opt.explore_time_limit_s = 60.0;
  EGraph eg2 = seed_egraph(g);
  const ExploreStats ok = run_exploration(eg2, rules, opt);
  EXPECT_EQ(ok.stop, StopReason::kSaturated);
}

// ---- Phase timing -----------------------------------------------------------

TEST(ApplyPipeline, PhaseTimingsArePopulatedAndCoherent) {
  TensatOptions opt = explore_options();
  EGraph eg = seed_egraph(shared_matmuls());
  const ExploreStats stats = run_exploration(eg, default_rules(), opt);
  EXPECT_GT(stats.search_seconds, 0.0);
  EXPECT_GT(stats.apply_seconds, 0.0);
  EXPECT_GT(stats.rebuild_seconds, 0.0);
  // The cycle-analysis phases are split out of apply/rebuild so the
  // incremental-vs-fresh gate can measure exactly the work it replaces.
  EXPECT_GT(stats.dmap_seconds, 0.0);
  EXPECT_GE(stats.cycle_sweep_seconds, 0.0);
  // The phases are the bulk of exploration; they can never exceed it.
  EXPECT_LE(stats.search_seconds + stats.apply_seconds + stats.rebuild_seconds +
                stats.dmap_seconds + stats.cycle_sweep_seconds,
            stats.seconds);
}

}  // namespace
}  // namespace tensat
