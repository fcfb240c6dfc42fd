/// \file callgraph.cpp

#include "lint/callgraph.hpp"

#include <deque>
#include <set>

namespace alert::analysis_tools {

namespace {

/// Qualifiers whose calls live outside the scanned program by definition.
bool is_std_qualifier(const std::string& q) {
  static const std::set<std::string> kStd{
      "std", "chrono", "filesystem", "this_thread", "string", "numeric"};
  return kStd.count(q) != 0;
}

/// First path segment ("net/mac.hpp" -> "net"); empty for top-level files.
std::string module_of(const std::string& path) {
  const std::size_t slash = path.find('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

/// Whether a call edge between these modules is realizable under the
/// layering DAG. Method-style calls may run in either include direction
/// (callbacks through interfaces invert the dependency); bare free-function
/// calls only in the caller's own include direction.
bool edge_realizable(const AnalyzerConfig* config, const std::string& from,
                     const std::string& to, bool bare_call) {
  if (config == nullptr || from == to || from.empty() || to.empty())
    return true;
  const auto from_it = config->module_deps.find(from);
  const auto to_it = config->module_deps.find(to);
  if (from_it == config->module_deps.end() ||
      to_it == config->module_deps.end()) {
    return true;  // module outside the DAG — nothing to prune with
  }
  if (from_it->second.count(to) != 0) return true;
  return !bare_call && to_it->second.count(from) != 0;
}

}  // namespace

CallGraph::CallGraph(const ProgramIndex& index, const AnalyzerConfig* config)
    : index_(&index), config_(config) {
  const std::vector<FunctionInfo>& fns = index.functions();
  edges_.resize(fns.size());
  for (std::size_t fi = 0; fi < fns.size(); ++fi) {
    std::set<std::size_t> seen;
    for (const CallSite& call : fns[fi].calls) {
      for (const std::size_t t : resolve(fi, call)) {
        if (seen.insert(t).second) edges_[fi].push_back({t, &call});
      }
    }
  }
}

std::vector<std::size_t> CallGraph::resolve(std::size_t caller,
                                            const CallSite& call) const {
  std::vector<std::size_t> out;
  if (is_std_qualifier(call.qualifier)) return out;
  const std::vector<FunctionInfo>& fns = index_->functions();
  const std::string from_module = module_of(fns[caller].file->rel_path);
  std::string enclosing_class;
  if (const std::size_t sep = fns[caller].qualified.rfind("::");
      sep != std::string::npos) {
    enclosing_class = fns[caller].qualified.substr(0, sep);
  }
  std::vector<std::size_t> bare;  // scratch for unqualified-call resolution
  const std::vector<std::size_t>* targets = nullptr;
  if (call.scope_qualified && !call.qualifier.empty()) {
    targets = &index_->by_qualified(call.qualifier + "::" + call.callee);
    if (targets->empty()) targets = &index_->by_name(call.callee);
  } else if (call.qualifier.empty()) {
    // A bare call follows C++ unqualified lookup: a member of the
    // enclosing class hides everything else; failing that, only free
    // functions are viable — members of unrelated classes cannot be
    // called without an object, so by_name hits on them are collisions.
    targets = enclosing_class.empty()
                  ? nullptr
                  : &index_->by_qualified(enclosing_class + "::" +
                                          call.callee);
    if (targets == nullptr || targets->empty()) {
      bare.clear();
      for (const std::size_t t : index_->by_name(call.callee)) {
        if (fns[t].qualified == fns[t].name) bare.push_back(t);
      }
      targets = &bare;
    }
  } else {
    targets = &index_->by_name(call.callee);
  }
  for (const std::size_t t : *targets) {
    if (t == caller) continue;  // self-edges never change reachability
    if (!edge_realizable(config_, from_module,
                         module_of(fns[t].file->rel_path),
                         call.qualifier.empty())) {
      continue;
    }
    out.push_back(t);
  }
  return out;
}

CallGraph::ReverseReach CallGraph::reach_reverse(
    const std::vector<std::size_t>& sources) const {
  ReverseReach r;
  r.reached.assign(edges_.size(), 0);
  r.next.assign(edges_.size(), npos);
  r.via.assign(edges_.size(), nullptr);

  // Reverse adjacency, remembering the inducing forward call site.
  struct Rev {
    std::size_t caller;
    const CallSite* via;
  };
  std::vector<std::vector<Rev>> rev(edges_.size());
  for (std::size_t u = 0; u < edges_.size(); ++u) {
    for (const Edge& e : edges_[u]) rev[e.target].push_back({u, e.via});
  }

  std::deque<std::size_t> queue;
  for (const std::size_t s : sources) {
    if (s < edges_.size() && r.reached[s] == 0) {
      r.reached[s] = 1;
      queue.push_back(s);
    }
  }
  while (!queue.empty()) {
    const std::size_t v = queue.front();
    queue.pop_front();
    for (const Rev& in : rev[v]) {
      if (r.reached[in.caller] != 0) continue;
      r.reached[in.caller] = 1;
      r.next[in.caller] = v;
      r.via[in.caller] = in.via;
      queue.push_back(in.caller);
    }
  }
  return r;
}

std::string CallGraph::chain(const ReverseReach& r, std::size_t fn) const {
  std::string out = index_->functions()[fn].qualified;
  for (std::size_t f = r.next[fn]; f != npos; f = r.next[f]) {
    out += " -> " + index_->functions()[f].qualified;
  }
  return out;
}

}  // namespace alert::analysis_tools
