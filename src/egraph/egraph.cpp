#include "egraph/egraph.h"

#include <algorithm>

#include "support/check.h"
#include "support/parallel.h"

namespace tensat {

void EGraph::set_cycle_journal(CycleJournal* journal) {
  TENSAT_CHECK(journal == nullptr || journal_ == nullptr || journal == journal_,
               "a cycle journal is already attached; detach it first "
               "(a displaced consumer would resume from a stale epoch)");
  journal_ = journal;
}

TNode EGraph::canonicalize(TNode node) const {
  for (Id& c : node.children) c = find(c);
  return node;
}

std::optional<Id> EGraph::lookup(TNode node) const {
  node = canonicalize(node);
  const auto& sh = shard(node);
  auto it = sh.find(node);
  if (it == sh.end()) return std::nullopt;
  return find(it->second);
}

std::optional<Id> EGraph::try_add(TNode node) {
  node = canonicalize(node);
  const auto& sh = shard(node);
  auto it = sh.find(node);
  if (it != sh.end()) return find(it->second);

  // E-class analysis: infer the new node's data from its children's.
  std::vector<ValueInfo> inputs;
  inputs.reserve(node.children.size());
  for (Id c : node.children) inputs.push_back(classes_[find(c)].data);
  auto data = infer(node, inputs);
  if (!data.has_value()) return std::nullopt;  // shape check failed

  const Id id = uf_.make_set();
  TENSAT_CHECK(id == static_cast<Id>(classes_.size()), "class id mismatch");
  classes_.emplace_back();
  EClass& cls = classes_[id];
  cls.data = std::move(*data);
  cls.nodes.push_back(EClassNode{node, next_stamp_++, false});
  op_index_[static_cast<size_t>(node.op)].push_back(id);
  for (Id c : node.children) classes_[find(c)].parents.emplace_back(node, id);
  shard(node).emplace(std::move(node), id);
  ++num_enodes_total_;
  if (journal_ != nullptr) journal_->new_classes.push_back(id);
  ++version_;
  return id;
}

Id EGraph::add(TNode node) {
  auto id = try_add(std::move(node));
  TENSAT_CHECK(id.has_value(), "e-graph add failed shape check");
  return *id;
}

std::unordered_map<Id, Id> EGraph::add_graph(const Graph& g) {
  TENSAT_CHECK(g.kind() == GraphKind::kConcrete, "cannot add a pattern graph");
  std::unordered_map<Id, Id> mapping;
  for (Id gid : g.topo_order()) {
    TNode node = g.node(gid);
    for (Id& c : node.children) c = mapping.at(c);
    mapping.emplace(gid, add(std::move(node)));
  }
  return mapping;
}

void EGraph::join_data(ValueInfo& into, const ValueInfo& from) {
  TENSAT_CHECK(into.kind == from.kind, "analysis merge: kind mismatch ("
                                           << to_string(into) << " vs "
                                           << to_string(from) << ")");
  TENSAT_CHECK(into.shape == from.shape && into.shape2 == from.shape2,
               "analysis merge: shape mismatch (" << to_string(into) << " vs "
                                                  << to_string(from) << ")");
  if (into.kind == VKind::kNum)
    TENSAT_CHECK(into.num == from.num, "analysis merge: integer mismatch");
  if (into.kind == VKind::kStr)
    TENSAT_CHECK(into.str == from.str, "analysis merge: string mismatch");
  // Equivalent terms compute the same value, so weight-constness discovered
  // through any representation holds for the whole class.
  into.weight_only = into.weight_only || from.weight_only;
  // Concat histories join to equality-or-empty: a class only promises a
  // split boundary that every representation agrees on. (A "keep the richer
  // one" join lets extraction pick a member that cannot actually honor the
  // boundary, which breaks reconstruction of the selected graph.)
  if (into.hist != from.hist) into.hist.clear();
}

bool EGraph::merge(Id a, Id b) {
  a = find(a);
  b = find(b);
  if (a == b) return false;
  if (journal_ != nullptr) journal_->merges.emplace_back(a, b);
  const Id root = uf_.unite(a, b);
  const Id other = (root == a) ? b : a;
  EClass& winner = classes_[root];
  EClass& loser = classes_[other];
  join_data(winner.data, loser.data);
  std::move(loser.nodes.begin(), loser.nodes.end(), std::back_inserter(winner.nodes));
  std::move(loser.parents.begin(), loser.parents.end(),
            std::back_inserter(winner.parents));
  loser.nodes.clear();
  loser.nodes.shrink_to_fit();
  loser.parents.clear();
  loser.parents.shrink_to_fit();
  pending_.push_back(root);
  ++version_;
  return true;
}

void EGraph::rebuild() {
  while (!pending_.empty()) {
    std::vector<Id> todo;
    todo.swap(pending_);
    std::sort(todo.begin(), todo.end());
    todo.erase(std::unique(todo.begin(), todo.end()), todo.end());
    for (Id id : todo) repair(find(id));
  }
  // Compact the op-index: merges leave stale (now non-canonical) ids behind;
  // re-canonicalizing here keeps later classes_with_op() calls cheap.
  for (std::vector<Id>& bucket : op_index_) {
    for (Id& id : bucket) id = find(id);
    std::sort(bucket.begin(), bucket.end());
    bucket.erase(std::unique(bucket.begin(), bucket.end()), bucket.end());
  }
  // Fully compress the union-find so find() on the clean e-graph is a pure
  // read; the parallel pattern search depends on this (support/parallel.h).
  uf_.compress_all();
#ifndef NDEBUG
  size_t total = 0;
  for (const auto& sh : hashcons_) total += sh.size();
  TENSAT_CHECK(total == num_enodes_total_, "hash-cons size counter drifted");
#endif
}

Id EGraph::commit_prepared(const std::vector<PreparedNode>& nodes,
                           size_t threads) {
  TENSAT_CHECK(pending_.empty(), "commit_prepared: e-graph must be clean");
  const Id base = static_cast<Id>(uf_.size());
  const size_t k = nodes.size();
  if (k == 0) return base;

  // Serial prologue: everything whose *order* is observable. Ids and class
  // slots (dense, ascending), stamps (ascending batch order), the journal,
  // and the version/size counters — identical for any thread count.
  for (size_t i = 0; i < k; ++i) {
    const Id id = uf_.make_set();
    TENSAT_CHECK(id == static_cast<Id>(classes_.size()), "class id mismatch");
    classes_.emplace_back();
    if (journal_ != nullptr) journal_->new_classes.push_back(id);
  }
  const uint32_t stamp_base = next_stamp_;
  next_stamp_ += static_cast<uint32_t>(k);
  num_enodes_total_ += k;
  version_ += k;

  // The fills: class bodies (partitioned by batch index), hash-cons and
  // op-index appends (partitioned by op symbol — each shard map is touched
  // by exactly one worker), parent-list appends (partitioned by child
  // class). Every container receives its entries in ascending batch order
  // no matter how shards map to workers, so the partition count below is a
  // pure throughput knob, not a semantics knob.
  constexpr size_t kShards = 16;
  auto fill_shard = [&](size_t s) {
    for (size_t i = 0; i < k; ++i) {
      const PreparedNode& p = nodes[i];
      const Id id = base + static_cast<Id>(i);
      if (i % kShards == s) {
        EClass& cls = classes_[id];
        cls.data = *p.data;
        cls.nodes.push_back(
            EClassNode{p.node, stamp_base + static_cast<uint32_t>(i), false});
      }
      if (static_cast<size_t>(p.node.op) % kShards == s) {
        op_index_[static_cast<size_t>(p.node.op)].push_back(id);
        shard(p.node).emplace(p.node, id);
      }
      for (const Id c : p.node.children) {
        if (static_cast<size_t>(c) % kShards == s) {
          classes_[c].parents.emplace_back(p.node, id);
        }
      }
    }
  };
  // Below ~2 items per shard the scan overhead dominates; run serially.
  if (threads <= 1 || k < 2 * kShards) {
    for (size_t s = 0; s < kShards; ++s) fill_shard(s);
  } else {
    parallel_for(kShards, threads, fill_shard);
  }
  return base;
}

void EGraph::repair(Id id) {
  EClass& cls = classes_[id];

  // Re-intern parents under their canonical forms; congruent parents merge.
  auto parents = std::move(cls.parents);
  cls.parents.clear();
  for (auto& [p_node, p_class] : parents) {
    // Drop the stale key (no-op if already gone). Canonicalization never
    // changes the op, so the stale and canonical forms live in one shard.
    num_enodes_total_ -= shard(p_node).erase(p_node);
    p_node = canonicalize(p_node);
    auto& sh = shard(p_node);
    auto it = sh.find(p_node);
    if (it != sh.end()) {
      merge(p_class, it->second);
      it->second = find(p_class);
    } else {
      sh.emplace(p_node, find(p_class));
      ++num_enodes_total_;
    }
  }
  // Deduplicate the repaired parent list.
  std::unordered_map<TNode, Id, TNodeHash> seen;
  EClass& cls2 = classes_[find(id)];  // `merge` above may have moved us
  for (auto& [p_node, p_class] : parents) {
    auto [it, inserted] = seen.emplace(p_node, find(p_class));
    if (!inserted) continue;
    cls2.parents.emplace_back(p_node, it->second);
  }

  // Canonicalize and deduplicate this class's own nodes. Duplicates keep the
  // earliest stamp; a node is filtered if any duplicate was (the filter list
  // identifies nodes structurally).
  EClass& cls3 = classes_[find(id)];
  std::unordered_map<TNode, size_t, TNodeHash> index;
  std::vector<EClassNode> nodes;
  nodes.reserve(cls3.nodes.size());
  for (EClassNode& entry : cls3.nodes) {
    entry.node = canonicalize(std::move(entry.node));
    auto it = index.find(entry.node);
    if (it == index.end()) {
      index.emplace(entry.node, nodes.size());
      nodes.push_back(std::move(entry));
    } else {
      EClassNode& kept = nodes[it->second];
      kept.stamp = std::min(kept.stamp, entry.stamp);
      if (entry.filtered && !kept.filtered) {
        kept.filtered = true;
      } else if (entry.filtered) {
        --num_filtered_;  // collapsed two filtered copies into one
      }
    }
  }
  cls3.nodes = std::move(nodes);
}

std::vector<Id> EGraph::canonical_classes() const {
  std::vector<Id> out;
  for (Id id = 0; id < static_cast<Id>(classes_.size()); ++id)
    if (find(id) == id) out.push_back(id);
  return out;
}

const std::vector<Id>& EGraph::classes_with_op(Op op) const {
  const std::vector<Id>& bucket = op_index_[static_cast<size_t>(op)];
  // On a clean e-graph the bucket is already canonical, sorted, and unique:
  // rebuild() compacted it, and try_add() only appends fresh (strictly
  // increasing, canonical) ids. Only un-rebuilt merges can make it stale.
  if (pending_.empty()) return bucket;
  // Dirty path: canonicalize once per (op, version) into the cache so
  // repeated queries between state changes are allocation-free. version_
  // bumps on every add/merge/filter, so staleness is impossible.
  OpCacheEntry& cache = op_cache_[static_cast<size_t>(op)];
  if (cache.version != version_) {
    cache.ids = bucket;
    for (Id& id : cache.ids) id = find(id);
    std::sort(cache.ids.begin(), cache.ids.end());
    cache.ids.erase(std::unique(cache.ids.begin(), cache.ids.end()),
                    cache.ids.end());
    cache.version = version_;
  }
  return cache.ids;
}

size_t EGraph::num_classes() const {
  size_t n = 0;
  for (Id id = 0; id < static_cast<Id>(classes_.size()); ++id)
    if (find(id) == id) ++n;
  return n;
}

size_t EGraph::num_enodes() const {
  size_t n = 0;
  for (Id id = 0; id < static_cast<Id>(classes_.size()); ++id) {
    if (find(id) != id) continue;
    for (const EClassNode& e : classes_[id].nodes)
      if (!e.filtered) ++n;
  }
  return n;
}

std::optional<Id> NodeBuffer::stage(TNode node) {
  // Canonicalize the real children against the (clean) snapshot; staged
  // children are already canonical by construction.
  bool all_real = true;
  for (Id& c : node.children) {
    if (is_staged(c)) {
      all_real = false;
    } else {
      c = eg_->find(c);
    }
  }
  // A node whose children all exist can itself already exist in the e-graph.
  if (all_real) {
    if (auto existing = eg_->lookup(node)) return existing;
  }
  auto memo = memo_.find(node);
  if (memo != memo_.end()) return memo->second;

  // E-class analysis over mixed real/staged children: same shape-check gate
  // as EGraph::try_add, evaluated against the planned data.
  inputs_scratch_.clear();
  inputs_scratch_.reserve(node.children.size());
  for (Id c : node.children) inputs_scratch_.push_back(data(c));
  auto inferred = infer(node, inputs_scratch_);
  if (!inferred.has_value()) return std::nullopt;  // shape check failed

  const Id id = id_of(entries_.size());
  memo_.emplace(node, id);
  entries_.push_back(Entry{std::move(node), std::move(*inferred)});
  return id;
}

const ValueInfo& NodeBuffer::data(Id id) const {
  if (!is_staged(id)) return eg_->data(id);
  return entries_[index_of(id)].data;
}

void EGraph::set_filtered(Id class_id, size_t index) {
  EClass& cls = classes_[find(class_id)];
  TENSAT_CHECK(index < cls.nodes.size(), "set_filtered: bad node index");
  if (!cls.nodes[index].filtered) {
    cls.nodes[index].filtered = true;
    if (journal_ != nullptr) journal_->filtered_classes.push_back(find(class_id));
    ++num_filtered_;
    ++version_;
  }
}

}  // namespace tensat
