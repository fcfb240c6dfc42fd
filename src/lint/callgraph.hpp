#pragma once

/// \file callgraph.hpp
/// Program-wide call graph over ProgramIndex. Edges resolve call sites by
/// name: `Class::f` matches the qualified definition, `obj.f(...)` every
/// function named `f` (an over-approximation that suits reachability rules —
/// wallclock-in-sim would rather follow a few extra edges than miss a real
/// path). A bare `f(...)` follows C++ unqualified
/// lookup instead: a member of the enclosing class hides everything else,
/// and otherwise only free functions are viable targets — a by_name hit on
/// another class's member would need an object expression the call does not
/// have. std-library qualifiers never resolve. When a config is supplied, its module-layering
/// DAG prunes impossible edges: a call between two modules unrelated in the
/// include graph (neither may include the other) cannot exist at runtime,
/// and for bare-name calls even the callback direction is ruled out — free
/// functions are not interface methods, so a bare call into a module the
/// caller may not include is a name collision, not an edge. The traversal
/// is a plain BFS over function indices in file/definition order, so
/// results are deterministic for a fixed scan root.

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "lint/index.hpp"
#include "lint/rule.hpp"

namespace alert::analysis_tools {

class CallGraph {
 public:
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

  explicit CallGraph(const ProgramIndex& index,
                     const AnalyzerConfig* config = nullptr);

  struct Edge {
    std::size_t target = npos;
    const CallSite* via = nullptr;  ///< first call site inducing the edge
  };

  /// Multi-source reverse reachability: for every function that can reach
  /// one of `sources` through calls, `next[i]` is the callee one hop toward
  /// the source (npos at the sources themselves) and `via[i]` the call site
  /// in function i taking that hop.
  struct ReverseReach {
    std::vector<char> reached;
    std::vector<std::size_t> next;
    std::vector<const CallSite*> via;
  };
  [[nodiscard]] ReverseReach reach_reverse(
      const std::vector<std::size_t>& sources) const;

  /// "fn -> ... -> source" qualified-name chain from reverse reachability.
  [[nodiscard]] std::string chain(const ReverseReach& r, std::size_t fn) const;

  [[nodiscard]] const std::vector<std::vector<Edge>>& edges() const {
    return edges_;
  }

 private:
  /// Function indices a call site in `caller` can target, after name
  /// resolution and DAG pruning.
  [[nodiscard]] std::vector<std::size_t> resolve(std::size_t caller,
                                                const CallSite& call) const;

  const ProgramIndex* index_;
  const AnalyzerConfig* config_ = nullptr;
  std::vector<std::vector<Edge>> edges_;
};

}  // namespace alert::analysis_tools
