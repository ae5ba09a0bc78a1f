// E-matching: finds all ways a pattern embeds in the e-graph. This is the
// "existing efficient search routine for single-pattern rewrites" that
// Algorithm 1 builds on; multi-pattern rules reuse it per source pattern and
// combine the results (see multi.h).
//
// The default entry points compile the pattern and execute it on the
// register VM of src/ematch (op-indexed candidate selection, flat
// instruction dispatch). The original recursive backtracker is kept as
// search_pattern_naive / match_class_naive — it is the reference oracle the
// VM is differentially tested against, and the baseline the e-matching
// benchmarks measure speedups over.
#pragma once

#include <vector>

#include "egraph/egraph.h"
#include "ematch/machine.h"
#include "rewrite/rewrite.h"
#include "rewrite/subst.h"

namespace tensat {

struct SearchLimits {
  /// Cap on total substitutions returned by one search (safety valve against
  /// pathological pattern blowup). 0 = unlimited.
  size_t max_matches = 200000;
  /// Cap on matcher work (match steps / e-nodes tried) per search.
  /// Backtracking can explode on dense e-classes even when few matches
  /// result; the search returns what it has when the budget runs out.
  /// 0 = unlimited.
  size_t max_steps = 2000000;
};

/// All matches of the pattern rooted at `pattern_root` anywhere in the
/// e-graph. Variables bind canonical e-class ids; filtered e-nodes are
/// treated as removed. The e-graph must be clean (rebuilt). Compiles the
/// pattern and runs the ematch VM; callers searching the same pattern
/// repeatedly should compile once and call ematch::search directly.
std::vector<PatternMatch> search_pattern(const EGraph& eg, const Graph& pat,
                                         Id pattern_root,
                                         const SearchLimits& limits = {});

/// Matches of the pattern against one specific e-class (via the ematch VM).
std::vector<Subst> match_class(const EGraph& eg, const Graph& pat, Id pattern_root,
                               Id class_id, const SearchLimits& limits = {});

/// The legacy recursive backtracking matcher, kept as a reference oracle for
/// differential testing and benchmarking. Semantically identical to
/// search_pattern (same matches, same multiplicities).
std::vector<PatternMatch> search_pattern_naive(const EGraph& eg, const Graph& pat,
                                               Id pattern_root,
                                               const SearchLimits& limits = {});

/// Reference-oracle counterpart of match_class.
std::vector<Subst> match_class_naive(const EGraph& eg, const Graph& pat,
                                     Id pattern_root, Id class_id,
                                     const SearchLimits& limits = {});

/// Instantiates the pattern rooted at `root` into the e-graph under `subst`.
/// Returns the resulting e-class, or nullopt if any new node fails the shape
/// check (the paper's shape-checking gate on rewrites).
///
/// The direct reference path: it mutates the e-graph node by node, so a
/// shape failure part-way leaves the nodes added before it behind.
/// Exploration uses the all-or-nothing plan/commit split below instead; the
/// tests hold the two to identical e-graphs (tests/apply_pipeline_test.cpp).
std::optional<Id> instantiate(EGraph& eg, const Graph& pat, Id root, const Subst& subst);

/// The plan half of instantiate(): shape-checks and hash-conses the target
/// nodes into `buf` against buf.egraph() (which must be clean) WITHOUT
/// mutating the e-graph. Returns the target id — a real e-class id when the
/// whole target already exists, otherwise a staged id (NodeBuffer::is_staged)
/// — or nullopt on shape-check failure. Committing the staged nodes (the
/// optimizer's batch commit) yields exactly what the direct instantiate()
/// would have produced.
std::optional<Id> plan_instantiate(NodeBuffer& buf, const Graph& pat, Id root,
                                   const Subst& subst);

/// Allocation-light overload for hot loops (the apply pipeline plans every
/// pending application through this): `memo` is the pattern-id -> planned-id
/// scratch, resized and reset internally, reusable across calls.
std::optional<Id> plan_instantiate(NodeBuffer& buf, const Graph& pat, Id root,
                                   const Subst& subst, std::vector<Id>& memo);

}  // namespace tensat
