// Variable bindings produced by pattern matching. In the e-graph matcher a
// variable binds an e-class id; in the concrete-graph matcher (TASO baseline)
// it binds a node id. The container is shared.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "lang/node.h"
#include "support/symbol.h"

namespace tensat {

class Subst {
 public:
  /// Binds var -> id. Returns false iff var is already bound to a different id.
  bool bind(Symbol var, Id id) {
    for (auto& [v, existing] : bindings_) {
      if (v == var) return existing == id;
    }
    bindings_.emplace_back(var, id);
    return true;
  }

  [[nodiscard]] std::optional<Id> get(Symbol var) const {
    for (const auto& [v, id] : bindings_) {
      if (v == var) return id;
    }
    return std::nullopt;
  }

  [[nodiscard]] const std::vector<std::pair<Symbol, Id>>& bindings() const {
    return bindings_;
  }

  /// Drops every binding, keeping the storage for reuse.
  void clear() { bindings_.clear(); }

  /// Union of two substitutions; nullopt if they disagree on a shared var.
  static std::optional<Subst> merged(const Subst& a, const Subst& b) {
    Subst out = a;
    for (const auto& [v, id] : b.bindings_) {
      if (!out.bind(v, id)) return std::nullopt;
    }
    return out;
  }

 private:
  std::vector<std::pair<Symbol, Id>> bindings_;
};

/// One pattern match: the e-class (or concrete node) the pattern root matched,
/// plus the variable bindings.
struct PatternMatch {
  Id root;
  Subst subst;
};

}  // namespace tensat
