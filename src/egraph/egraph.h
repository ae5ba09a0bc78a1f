// The e-graph: a set of e-classes, each a set of equivalent e-nodes, with
// hash-consing and deferred congruence-closure maintenance (the rebuild
// algorithm of egg, Willsey et al. 2020). The tensor shape analysis
// (lang/shapes.h) is attached as the e-class analysis, which implements the
// paper's shape checking: try_add() refuses to create nodes whose shapes
// don't check out, which is how rewrites with shape preconditions are gated.
//
// Cycle filtering (paper §5.2) is supported through per-e-node `filtered`
// flags: a filtered node is treated as removed by the matcher, the cycle
// analyses, and extraction, mirroring the paper's filter list l (the ILP
// constraint "x_i = 0 for i in l").
#pragma once

#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "egraph/union_find.h"
#include "lang/graph.h"
#include "lang/shapes.h"

namespace tensat {

/// The change journal incremental cycle analysis consumes
/// (cycles/incremental.h): every e-graph state change between two epoch
/// advances, recorded by try_add/merge/set_filtered while a journal is
/// attached (EGraph::set_cycle_journal). Ids are canonical at record time;
/// consumers re-canonicalize through find() when they drain the journal, so
/// later merges folding a recorded class away are harmless.
struct CycleJournal {
  /// E-class ids created by try_add or commit_prepared (one per genuinely
  /// new e-node).
  std::vector<Id> new_classes;
  /// Real merges as (a, b) canonical-at-merge-time pairs, in merge order —
  /// both the apply phase's merges and rebuild()'s congruence merges.
  std::vector<std::pair<Id, Id>> merges;
  /// Classes (canonical at call time) that gained a newly filtered e-node.
  std::vector<Id> filtered_classes;

  void clear() {
    new_classes.clear();
    merges.clear();
    filtered_classes.clear();
  }
  [[nodiscard]] bool empty() const {
    return new_classes.empty() && merges.empty() && filtered_classes.empty();
  }
};

/// One e-node stored inside an e-class. `stamp` is the global insertion
/// counter used by efficient cycle filtering to pick "the last node added"
/// on a cycle; `filtered` marks membership in the filter list.
struct EClassNode {
  TNode node;
  uint32_t stamp{0};
  bool filtered{false};
};

struct EClass {
  std::vector<EClassNode> nodes;
  /// (parent e-node as inserted, parent class at insertion) — repaired lazily.
  std::vector<std::pair<TNode, Id>> parents;
  ValueInfo data;
};

class EGraph {
 public:
  EGraph()
      : op_index_(static_cast<size_t>(Op::kOpCount)),
        op_cache_(static_cast<size_t>(Op::kOpCount)) {}

  /// Adds an e-node (children are e-class ids; they get canonicalized).
  /// Returns nullopt if the analysis rejects it (shape check failure).
  std::optional<Id> try_add(TNode node);

  /// Adds an e-node that must be valid; throws on shape-check failure.
  Id add(TNode node);

  /// Adds every node reachable from `g`'s roots; returns graph-id -> class-id.
  std::unordered_map<Id, Id> add_graph(const Graph& g);

  /// Unions two e-classes. Returns true if they were distinct (a real merge).
  /// The caller must rebuild() before relying on congruence invariants.
  bool merge(Id a, Id b);

  /// Restores the congruence and hash-consing invariants after merges.
  void rebuild();

  [[nodiscard]] Id find(Id id) const { return uf_.find(id); }
  /// Canonicalizes an e-node's children.
  [[nodiscard]] TNode canonicalize(TNode node) const;

  /// Const hash-cons probe: the canonical e-class already containing `node`
  /// (children are e-class ids; they get canonicalized), or nullopt if the
  /// node is not in the e-graph. Never mutates. On a clean (rebuilt) e-graph
  /// this is a pure read, safe for concurrent callers — the staging half of
  /// the apply pipeline's plan phase (see NodeBuffer).
  [[nodiscard]] std::optional<Id> lookup(TNode node) const;

  [[nodiscard]] const EClass& eclass(Id id) const { return classes_[find(id)]; }
  [[nodiscard]] const ValueInfo& data(Id id) const { return classes_[find(id)].data; }

  /// Ids of all canonical (live) e-classes.
  [[nodiscard]] std::vector<Id> canonical_classes() const;

  /// Canonical ids (sorted, deduplicated) of every e-class containing an
  /// e-node with operator `op`. Maintained incrementally: try_add() appends
  /// to the per-op bucket and rebuild() re-canonicalizes it, so the result
  /// may conservatively include classes whose only `op` nodes are filtered
  /// (harmless to the matcher: those classes simply yield no matches). This
  /// is the root-operator index the e-matching VM dispatches through.
  ///
  /// On a clean (rebuilt) e-graph the per-op bucket is served directly —
  /// allocation-free and safe for concurrent readers (the parallel search
  /// path). With un-rebuilt merges pending, the canonicalized bucket is
  /// computed once into a version-keyed cache and reused until the next
  /// state change; that dirty path is single-threaded only. The reference
  /// stays valid until the next non-const e-graph operation.
  [[nodiscard]] const std::vector<Id>& classes_with_op(Op op) const;

  /// Number of canonical e-classes.
  [[nodiscard]] size_t num_classes() const;
  /// Number of e-nodes, excluding filtered ones.
  [[nodiscard]] size_t num_enodes() const;
  /// Number of e-nodes including filtered ones (the paper's e-graph size).
  /// A maintained counter (the hash-cons is sharded by op symbol).
  [[nodiscard]] size_t num_enodes_total() const { return num_enodes_total_; }

  /// One node of a sharded batch commit (see commit_prepared): the e-node
  /// in final-id form plus a pointer to its plan-time analysis data (owned
  /// by the caller, alive until commit_prepared returns).
  struct PreparedNode {
    TNode node;
    const ValueInfo* data;
  };

  /// Batch-inserts `nodes` as brand-new e-classes with pre-assigned dense
  /// ids base .. base+k-1, where base == num_ids() at call time; node i's
  /// children may reference canonical existing classes or earlier batch
  /// nodes by final id (base + j, j < i). The caller guarantees the e-graph
  /// is clean (rebuilt, no pending merges), every node is absent from the
  /// hash-cons, children are canonical, and the batch has no duplicates —
  /// exactly what the optimizer's commit resolve pass establishes.
  ///
  /// All ordered artifacts (ids, stamps, journal entries, version) are
  /// assigned serially up front; only the hash-cons / op-index / parent /
  /// class-body fills run on the pool, partitioned over a fixed shard count
  /// by op symbol (hash-cons, op-index) and child class (parents). Every
  /// per-container append happens in ascending batch order regardless of
  /// the partition, so the resulting e-graph is bit-identical for any
  /// `threads` value, including 1. Returns base.
  Id commit_prepared(const std::vector<PreparedNode>& nodes, size_t threads);

  /// Marks an e-node of `class_id` as filtered (adds it to the filter list).
  /// `index` addresses eclass(class_id).nodes.
  void set_filtered(Id class_id, size_t index);
  [[nodiscard]] size_t num_filtered() const { return num_filtered_; }

  /// Monotone counter bumped by every state change (add / merge); equal
  /// versions before and after an exploration iteration mean saturation.
  [[nodiscard]] uint64_t version() const { return version_; }

  /// Total e-class ids ever created (canonical or not). Ids are dense in
  /// [0, num_ids()), which is what lets cycle analysis index bitset rows by
  /// id instead of hashing.
  [[nodiscard]] size_t num_ids() const { return uf_.size(); }

  /// Attaches (or, with nullptr, detaches) a change journal: while attached,
  /// try_add/merge/set_filtered append to it. The journal must outlive the
  /// attachment and is drained/cleared by its consumer, never by the
  /// e-graph. Detach before moving the e-graph. Attaching a second journal
  /// over a live one throws: the displaced consumer would silently stop
  /// seeing changes and resume from a stale epoch — exactly the bug a
  /// session that persists its cycle analysis across run_exploration calls
  /// would otherwise hit (service_test.cpp pins this).
  void set_cycle_journal(CycleJournal* journal);
  [[nodiscard]] CycleJournal* cycle_journal() const { return journal_; }

  /// The designated root e-class (set after add_graph via set_root).
  void set_root(Id id) { root_ = id; }
  [[nodiscard]] Id root() const { return find(root_); }

 private:
  void repair(Id id);
  static void join_data(ValueInfo& into, const ValueInfo& from);
  /// The hash-cons shard holding `node` (sharded by op symbol so disjoint
  /// regions of a batch commit can fill concurrently).
  std::unordered_map<TNode, Id, TNodeHash>& shard(const TNode& node) {
    return hashcons_[static_cast<size_t>(node.op)];
  }
  [[nodiscard]] const std::unordered_map<TNode, Id, TNodeHash>& shard(
      const TNode& node) const {
    return hashcons_[static_cast<size_t>(node.op)];
  }

  /// classes_with_op's dirty-path memo: the canonicalized bucket for one op,
  /// valid while the e-graph stays at `version`.
  struct OpCacheEntry {
    uint64_t version{UINT64_MAX};
    std::vector<Id> ids;
  };

  UnionFind uf_;
  // op -> e-class ids with at least one such e-node; ids may be stale
  // (non-canonical) or duplicated between rebuilds, never missing.
  std::vector<std::vector<Id>> op_index_;
  mutable std::vector<OpCacheEntry> op_cache_;
  // Deque: eclass()/data() references must survive later try_add() appends.
  std::deque<EClass> classes_;
  // Hash-cons, sharded by op symbol (one map per op). Serial code treats the
  // shards as one logical map through shard(); commit_prepared fills
  // disjoint shards concurrently. num_enodes_total_ tracks the summed size.
  std::vector<std::unordered_map<TNode, Id, TNodeHash>> hashcons_{
      static_cast<size_t>(Op::kOpCount)};
  size_t num_enodes_total_{0};
  std::vector<Id> pending_;
  CycleJournal* journal_{nullptr};
  uint64_t version_{0};
  uint32_t next_stamp_{0};
  size_t num_filtered_{0};
  Id root_{kInvalidId};
};

/// A staging arena for would-be e-node additions against a *const* e-graph:
/// the plan half of the apply pipeline's plan/commit split. stage() shape-
/// checks and hash-conses candidate nodes without touching the e-graph;
/// nodes not already present get negative placeholder ids (is_staged) that
/// later staged nodes may use as children. The buffer never writes the
/// e-graph itself: the optimizer's commit reads the staged entries back
/// (staged_node / staged_data), resolves them to final ids — deduplicating
/// nodes staged by different planners — and inserts the batch through
/// EGraph::commit_prepared.
///
/// The snapshot e-graph must be clean (rebuilt) while staging: stage() then
/// only performs pure reads, so any number of NodeBuffers can plan against
/// the same e-graph from different threads.
class NodeBuffer {
 public:
  explicit NodeBuffer(const EGraph& eg) : eg_(&eg) {}

  /// Plans adding `node`. Children may be canonical e-class ids or staged
  /// ids from this buffer. Returns the existing e-class id if the e-graph
  /// (or this buffer) already has the node, a fresh staged id otherwise, or
  /// nullopt if the analysis rejects it (shape check failure).
  std::optional<Id> stage(TNode node);

  /// Analysis data of a real e-class or a staged node.
  [[nodiscard]] const ValueInfo& data(Id id) const;

  /// True for placeholder ids handed out by stage(). Staged ids start at -2
  /// so they never collide with kInvalidId, which planning scratch buffers
  /// use as their "unset" sentinel.
  [[nodiscard]] static constexpr bool is_staged(Id id) { return id < kInvalidId; }

  /// Number of staged (not already present) nodes.
  [[nodiscard]] size_t size() const { return entries_.size(); }

  /// The snapshot this buffer stages against.
  [[nodiscard]] const EGraph& egraph() const { return *eg_; }

  /// Batch-resolve support for the optimizer's commit: the staged entry
  /// behind `id`, children still in mixed real/staged form, and its planned
  /// analysis data. `staged_index` maps a staged id to its dense entry index
  /// in [0, size()).
  [[nodiscard]] const TNode& staged_node(Id id) const {
    return entries_[index_of(id)].node;
  }
  [[nodiscard]] const ValueInfo& staged_data(Id id) const {
    return entries_[index_of(id)].data;
  }
  [[nodiscard]] static constexpr size_t staged_index(Id id) {
    return index_of(id);
  }

 private:
  struct Entry {
    TNode node;  // children: canonical class ids or staged ids
    ValueInfo data;
  };
  [[nodiscard]] static constexpr size_t index_of(Id id) {
    return static_cast<size_t>(-(id + 2));
  }
  [[nodiscard]] static constexpr Id id_of(size_t index) {
    return -static_cast<Id>(index) - 2;
  }

  const EGraph* eg_;
  std::vector<Entry> entries_;
  std::unordered_map<TNode, Id, TNodeHash> memo_;  // staged-form node -> id
  std::vector<ValueInfo> inputs_scratch_;          // stage()'s infer inputs
};

}  // namespace tensat
