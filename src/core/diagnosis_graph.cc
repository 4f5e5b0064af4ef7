#include "core/diagnosis_graph.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

namespace netd::core {

using graph::EdgeId;
using graph::NodeId;
using graph::NodeKind;

std::string undirected_key(const std::string& a, const std::string& b) {
  return a < b ? a + "|" + b : b + "|" + a;
}

namespace {

/// Interns paths into one DiagnosisGraph. The per-hop work is one node
/// lookup by label (each label is hashed once; its id is carried to the
/// next hop) and one edge lookup by node ids. Key strings and logical
/// labels are built only when an edge or logical node is first seen, so
/// the cost follows the distinct edges of the mesh rather than its hops.
/// Ids are still assigned in first-sight order.
class PathInterner {
 public:
  PathInterner(DiagnosisGraph& dg, LogicalMode mode) : dg_(dg), mode_(mode) {}

  /// Interns one traceroute path (optionally logical-expanded) and returns
  /// its edge sequence. `path_index` is recorded on first sight of UH
  /// edges.
  std::vector<EdgeId> intern(const std::vector<probe::Hop>& hops,
                             int path_index) {
    std::vector<EdgeId> out;
    assert(hops.size() >= 2);
    out.reserve(mode_ == LogicalMode::kNone ? hops.size() - 1
                                            : 2 * (hops.size() - 1));
    NodeId nu = node(hops[0]);
    for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
      const probe::Hop& u = hops[i];
      const probe::Hop& v = hops[i + 1];
      const NodeId nv = node(v);
      const bool interdomain = u.asn != -1 && v.asn != -1 && u.asn != v.asn;
      if (mode_ != LogicalMode::kNone && interdomain) {
        // Per-neighbor: W of Fig. 3 is the next AS after v's AS on this
        // path (v's own AS when the path terminates inside it). Per-prefix:
        // one logical node per destination prefix crossing the session
        // ("ideally ... on a per-prefix basis", §3.1).
        const int w = mode_ == LogicalMode::kPerNeighbor ? next_as(hops, i + 1)
                                                         : hops.back().asn;
        const NodeId nm = logical_node(nv, v, w);
        // Both logical halves inherit the physical link's identity.
        out.push_back(edge(nu, nm, u, v, /*logical=*/true, path_index));
        out.push_back(edge(nm, nv, u, v, /*logical=*/true, path_index));
      } else {
        out.push_back(edge(nu, nv, u, v, /*logical=*/false, path_index));
      }
      nu = nv;
    }
    return out;
  }

 private:
  NodeId node(const probe::Hop& h) {
    return dg_.g.intern_node(h.label, h.kind, h.asn);
  }

  /// The AS after hops[j]'s AS on the path; hops[j]'s own AS when the path
  /// ends inside it. Unknown (UH) hops are skipped.
  static int next_as(const std::vector<probe::Hop>& hops, std::size_t j) {
    const int own = hops[j].asn;
    for (std::size_t k = j + 1; k < hops.size(); ++k) {
      if (hops[k].asn != -1 && hops[k].asn != own) return hops[k].asn;
    }
    return own;
  }

  /// The logical node "v(ASw)" (per-neighbor) or "v(pfxw)" (per-prefix).
  /// Its label is built and interned on first sight of (v, w) only.
  /// Re-interning would change nothing: the node's asn is known from its
  /// first intern on (v's asn is known on an interdomain hop).
  NodeId logical_node(NodeId nv, const probe::Hop& v, int w) {
    auto [it, fresh] = logical_nodes_.try_emplace(
        (std::uint64_t{nv.value()} << 32) | static_cast<std::uint32_t>(w));
    if (fresh) {
      const char* tag = mode_ == LogicalMode::kPerNeighbor ? "(AS" : "(pfx";
      it->second = dg_.g.intern_node(v.label + tag + std::to_string(w) + ")",
                                     NodeKind::kLogical, v.asn);
    }
    return it->second;
  }

  /// Interns a→b; on first sight the edge gets the EdgeInfo of the hops
  /// u→v it stands for.
  EdgeId edge(NodeId a, NodeId b, const probe::Hop& u, const probe::Hop& v,
              bool logical, int path_index) {
    const EdgeId e = dg_.g.intern_edge(a, b);
    if (e.value() < dg_.edges.size()) return e;
    EdgeInfo info;
    info.phys_key = undirected_key(u.label, v.label);
    info.directed_key = u.label + ">" + v.label;
    const std::size_t known = dg_.phys_keys.size();
    info.phys_id = dg_.phys_keys.intern(info.phys_key);
    if (dg_.phys_keys.size() != known) dg_.probed_keys.insert(info.phys_key);
    info.dir_id = dg_.directed_keys.intern(info.directed_key);
    info.logical = logical;
    if (!logical) {
      info.unidentified = u.kind == NodeKind::kUnidentified ||
                          v.kind == NodeKind::kUnidentified;
      info.before_path = info.unidentified ? path_index : -1;
    }
    info.asn_src = u.asn;
    info.asn_dst = v.asn;
    dg_.edges.push_back(std::move(info));
    return e;
  }

  DiagnosisGraph& dg_;
  const LogicalMode mode_;
  /// (physical node, W) -> logical node.
  std::unordered_map<std::uint64_t, NodeId> logical_nodes_;
};

/// Same hop sequence as the graph sees it (label, kind, asn; the
/// ground-truth router is not part of the observation).
bool same_hops(const std::vector<probe::Hop>& a,
               const std::vector<probe::Hop>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const probe::Hop& x, const probe::Hop& y) {
                      return x.asn == y.asn && x.kind == y.kind &&
                             x.label == y.label;
                    });
}

}  // namespace

DiagnosisGraph build_diagnosis_graph(const probe::Mesh& before,
                                     const probe::Mesh& after,
                                     bool logical_links,
                                     const probe::ParisMesh* paris_before) {
  return build_diagnosis_graph(
      before, after,
      logical_links ? LogicalMode::kPerNeighbor : LogicalMode::kNone,
      paris_before);
}

DiagnosisGraph build_diagnosis_graph(const probe::Mesh& before,
                                     const probe::Mesh& after,
                                     LogicalMode mode,
                                     const probe::ParisMesh* paris_before) {
  assert(before.paths.size() == after.paths.size());
  assert(paris_before == nullptr ||
         paris_before->pairs.size() == before.paths.size());
  DiagnosisGraph dg;
  // Sized from the T− mesh: its hop-to-hop transitions bound the distinct
  // physical links, so interning them never rehashes or reallocates (the
  // logical expansion and T+ reroutes may still grow the tables).
  std::size_t transitions = 0;
  for (const probe::TracePath& pb : before.paths) {
    if (pb.ok) transitions += pb.hops.size() - 1;
  }
  dg.g.reserve(transitions, transitions);
  dg.edges.reserve(transitions);
  dg.phys_keys.reserve(transitions);
  dg.directed_keys.reserve(transitions);
  dg.paths.reserve(before.paths.size());
  PathInterner interner(dg, mode);
  for (std::size_t k = 0; k < before.paths.size(); ++k) {
    const probe::TracePath& pb = before.paths[k];
    const probe::TracePath& pa = after.paths[k];
    assert(pb.src == pa.src && pb.dst == pa.dst);
    if (!pb.ok) continue;  // pair already unreachable before the event

    PathObs obs;
    obs.src = pb.src;
    obs.dst = pb.dst;
    obs.dest_asn = pb.hops.back().asn;
    const int path_index = static_cast<int>(dg.paths.size());
    obs.before = interner.intern(pb.hops, path_index);
    obs.ok_after = pa.ok;
    if (pa.ok) {
      // An unchanged path re-interns to the same edges and can create no
      // node or edge nor upgrade an asn, so it shares the T− sequence.
      obs.after = same_hops(pa.hops, pb.hops)
                      ? obs.before
                      : interner.intern(pa.hops, path_index);
      obs.rerouted = obs.after != obs.before;
      if (obs.rerouted && paris_before != nullptr &&
          probe::is_load_balanced_change(paris_before->pairs[k], pa)) {
        obs.rerouted = false;  // an ECMP sibling, not a routing change
      }
    }
    dg.paths.push_back(std::move(obs));
  }
  return dg;
}

}  // namespace netd::core
