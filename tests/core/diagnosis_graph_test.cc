#include "core/diagnosis_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <set>
#include <sstream>

#include "mesh_builder.h"
#include "probe/sensors.h"
#include "sim/network.h"
#include "topo/generator.h"
#include "util/rng.h"

namespace netd::core {
namespace {

using core::testing::MeshBuilder;

TEST(UndirectedKey, CanonicalOrder) {
  EXPECT_EQ(undirected_key("a", "b"), "a|b");
  EXPECT_EQ(undirected_key("b", "a"), "a|b");
}

TEST(DiagnosisGraph, InternsBothDirectionsAsDistinctEdges) {
  const auto before = MeshBuilder()
                          .ok(0, 1, {"s0@4!s", "r1@1", "r2@1", "s1@5!s"})
                          .ok(1, 0, {"s1@5!s", "r2@1", "r1@1", "s0@4!s"})
                          .build();
  const auto dg = build_diagnosis_graph(before, before, false);
  ASSERT_EQ(dg.paths.size(), 2u);
  // r1->r2 and r2->r1 are distinct directed edges with one physical key.
  EXPECT_EQ(dg.g.num_edges(), 6u);
  EXPECT_TRUE(dg.probed_keys.count("r1|r2"));
  EXPECT_EQ(dg.probed_keys.size(), 3u);  // s0|r1, r1|r2, r2|s1
}

TEST(DiagnosisGraph, DirectedKeys) {
  const auto before =
      MeshBuilder().ok(0, 1, {"s0@4!s", "r1@1", "r2@1", "s1@5!s"}).build();
  const auto dg = build_diagnosis_graph(before, before, false);
  EXPECT_EQ(dg.info(dg.paths[0].before[1]).directed_key, "r1>r2");
  EXPECT_EQ(dg.info(dg.paths[0].before[1]).phys_key, "r1|r2");
}

TEST(DiagnosisGraph, SkipsPairsDeadBeforeTheEvent) {
  const auto before = MeshBuilder()
                          .ok(0, 1, {"s0@4!s", "r1@1", "s1@5!s"})
                          .fail(1, 0, {"s1@5!s"})
                          .build();
  const auto dg = build_diagnosis_graph(before, before, false);
  EXPECT_EQ(dg.paths.size(), 1u);
}

TEST(DiagnosisGraph, MarksFailedAfterPaths) {
  const auto before =
      MeshBuilder().ok(0, 1, {"s0@4!s", "r1@1", "s1@5!s"}).build();
  const auto after = MeshBuilder().fail(0, 1, {"s0@4!s", "r1@1"}).build();
  const auto dg = build_diagnosis_graph(before, after, false);
  ASSERT_EQ(dg.paths.size(), 1u);
  EXPECT_FALSE(dg.paths[0].ok_after);
  EXPECT_TRUE(dg.paths[0].after.empty());
  EXPECT_EQ(dg.paths[0].dest_asn, 5);
}

TEST(DiagnosisGraph, DetectsReroutedPaths) {
  const auto before =
      MeshBuilder().ok(0, 1, {"s0@4!s", "r1@1", "r2@1", "s1@5!s"}).build();
  const auto after =
      MeshBuilder().ok(0, 1, {"s0@4!s", "r1@1", "r3@1", "r2@1", "s1@5!s"}).build();
  const auto dg = build_diagnosis_graph(before, after, false);
  ASSERT_EQ(dg.paths.size(), 1u);
  EXPECT_TRUE(dg.paths[0].ok_after);
  EXPECT_TRUE(dg.paths[0].rerouted);
}

TEST(DiagnosisGraph, UnchangedPathIsNotRerouted) {
  const auto m =
      MeshBuilder().ok(0, 1, {"s0@4!s", "r1@1", "s1@5!s"}).build();
  const auto dg = build_diagnosis_graph(m, m, false);
  EXPECT_FALSE(dg.paths[0].rerouted);
}

TEST(DiagnosisGraph, LogicalExpansionOfInterdomainHop) {
  // Path crosses AS1 -> AS2 -> AS3: hop r2@2 is entered from AS1 and the
  // next AS beyond AS2 is AS3 (Fig. 3: r1 -> r2(AS3) -> r2).
  const auto m = MeshBuilder()
                     .ok(0, 1, {"s0@1!s", "r1@1", "r2@2", "r3@3", "s1@3!s"})
                     .build();
  const auto dg = build_diagnosis_graph(m, m, true);
  const auto mid = dg.g.find_node("r2(AS3)");
  ASSERT_TRUE(mid.has_value());
  EXPECT_EQ(dg.g.node(*mid).kind, graph::NodeKind::kLogical);
  EXPECT_EQ(dg.g.node(*mid).asn, 2);
  // The path has 4 physical hops -> 2 interdomain hops expand to 2 edges
  // each: s0-r1 (intra), r1->r2(AS3)->r2, r2->r3(AS3)->r3, r3-s1.
  EXPECT_EQ(dg.paths[0].before.size(), 6u);
}

TEST(DiagnosisGraph, LogicalEdgesInheritPhysicalKey) {
  const auto m = MeshBuilder()
                     .ok(0, 1, {"s0@1!s", "r1@1", "r2@2", "r3@3", "s1@3!s"})
                     .build();
  const auto dg = build_diagnosis_graph(m, m, true);
  std::size_t logical = 0;
  for (const auto& info : dg.edges) {
    if (info.logical) {
      ++logical;
      EXPECT_TRUE(info.phys_key == "r1|r2" || info.phys_key == "r2|r3");
    }
  }
  EXPECT_EQ(logical, 4u);
  // Physical universe is unchanged by the expansion.
  EXPECT_EQ(dg.probed_keys.size(), 4u);
}

TEST(DiagnosisGraph, LogicalExpansionLastAsUsesOwnAs) {
  // Destination AS3 is the last AS: W = 3 for the final interdomain hop.
  const auto m =
      MeshBuilder().ok(0, 1, {"s0@1!s", "r1@1", "r3@3", "s1@3!s"}).build();
  const auto dg = build_diagnosis_graph(m, m, true);
  EXPECT_TRUE(dg.g.find_node("r3(AS3)").has_value());
}

TEST(DiagnosisGraph, TwoDestinationsSplitLogicalNodes) {
  // Same physical link r1->r2; beyond AS2 the paths diverge to AS3 / AS4
  // => two distinct logical middle nodes (the point of §3.1).
  const auto m =
      MeshBuilder()
          .ok(0, 1, {"s0@1!s", "r1@1", "r2@2", "r3@3", "s1@3!s"})
          .ok(0, 2, {"s0@1!s", "r1@1", "r2@2", "r4@4", "s2@4!s"})
          .build();
  const auto dg = build_diagnosis_graph(m, m, true);
  EXPECT_TRUE(dg.g.find_node("r2(AS3)").has_value());
  EXPECT_TRUE(dg.g.find_node("r2(AS4)").has_value());
}

TEST(DiagnosisGraph, UhEdgesAreFlaggedAndOwnAPath) {
  const auto m = MeshBuilder()
                     .ok(0, 1, {"s0@1!s", "r1@1", "uh:p0-1:h0", "r3@3", "s1@3!s"})
                     .build();
  const auto dg = build_diagnosis_graph(m, m, false);
  std::size_t uh_edges = 0;
  for (const auto& info : dg.edges) {
    if (info.unidentified) {
      ++uh_edges;
      EXPECT_EQ(info.before_path, 0);
    }
  }
  EXPECT_EQ(uh_edges, 2u);  // r1->uh and uh->r3
}

TEST(DiagnosisGraph, NoLogicalExpansionAroundUhHops) {
  const auto m = MeshBuilder()
                     .ok(0, 1, {"s0@1!s", "r1@1", "uh:p0-1:h0", "r3@3", "s1@3!s"})
                     .build();
  const auto dg = build_diagnosis_graph(m, m, true);
  for (std::size_t n = 0; n < dg.g.num_nodes(); ++n) {
    EXPECT_NE(dg.g.node(graph::NodeId{static_cast<std::uint32_t>(n)}).kind,
              graph::NodeKind::kLogical);
  }
}

// ---------------------------------------------------------------------------
// Differential test: the builder against the straightforward per-hop
// construction it replaced (kept here verbatim as the oracle; test-only
// oracles stay out of netd_core). Every observable part of the result —
// node and edge tables, EdgeInfo, PathObs, probed_keys and both key id
// spaces — must be identical, ids and their first-sight order included.

namespace reference {

using graph::EdgeId;
using graph::NodeId;
using graph::NodeKind;

/// Interns one traceroute path (optionally logical-expanded) and returns
/// its edge sequence. `path_index` is recorded on first sight of UH edges.
std::vector<EdgeId> intern_path(DiagnosisGraph& dg,
                                const std::vector<probe::Hop>& hops,
                                LogicalMode mode, int path_index) {
  std::vector<EdgeId> out;
  assert(hops.size() >= 2);

  auto intern_hop = [&](const probe::Hop& h) {
    return dg.g.intern_node(h.label, h.kind, h.asn);
  };

  auto add_edge = [&](NodeId a, NodeId b, const probe::Hop& u,
                      const probe::Hop& v, bool logical) {
    const EdgeId e = dg.g.intern_edge(a, b);
    if (e.value() == dg.edges.size()) {
      EdgeInfo info;
      info.phys_key = undirected_key(u.label, v.label);
      info.directed_key = u.label + ">" + v.label;
      info.phys_id = dg.phys_keys.intern(info.phys_key);
      info.dir_id = dg.directed_keys.intern(info.directed_key);
      info.unidentified = u.kind == NodeKind::kUnidentified ||
                          v.kind == NodeKind::kUnidentified;
      info.logical = logical;
      info.asn_src = u.asn;
      info.asn_dst = v.asn;
      info.before_path = info.unidentified ? path_index : -1;
      dg.edges.push_back(std::move(info));
    }
    dg.probed_keys.insert(dg.edges[e.value()].phys_key);
    out.push_back(e);
  };

  for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
    const probe::Hop& u = hops[i];
    const probe::Hop& v = hops[i + 1];
    const NodeId nu = intern_hop(u);
    const NodeId nv = intern_hop(v);

    const bool interdomain =
        u.asn != -1 && v.asn != -1 && u.asn != v.asn;
    if (mode != LogicalMode::kNone && interdomain) {
      probe::Hop mid;
      if (mode == LogicalMode::kPerNeighbor) {
        // Next AS after v's AS on this path (W of Fig. 3); v's own AS when
        // the path terminates inside it. Unknown (UH) hops are skipped.
        int next_asn = v.asn;
        for (std::size_t k = i + 2; k < hops.size(); ++k) {
          if (hops[k].asn != -1 && hops[k].asn != v.asn) {
            next_asn = hops[k].asn;
            break;
          }
        }
        mid.label = v.label + "(AS" + std::to_string(next_asn) + ")";
      } else {
        // Per-prefix: one logical node per destination prefix crossing
        // the session ("ideally ... on a per-prefix basis", §3.1).
        mid.label = v.label + "(pfx" + std::to_string(hops.back().asn) + ")";
      }
      mid.kind = NodeKind::kLogical;
      mid.asn = v.asn;
      const NodeId nm = dg.g.intern_node(mid.label, mid.kind, mid.asn);
      // Both logical halves inherit the physical link's identity.
      auto add_logical = [&](NodeId a, NodeId b) {
        const EdgeId e = dg.g.intern_edge(a, b);
        if (e.value() == dg.edges.size()) {
          EdgeInfo info;
          info.phys_key = undirected_key(u.label, v.label);
          info.directed_key = u.label + ">" + v.label;
          info.phys_id = dg.phys_keys.intern(info.phys_key);
          info.dir_id = dg.directed_keys.intern(info.directed_key);
          info.logical = true;
          info.asn_src = u.asn;
          info.asn_dst = v.asn;
          dg.edges.push_back(std::move(info));
        }
        dg.probed_keys.insert(dg.edges[e.value()].phys_key);
        out.push_back(e);
      };
      add_logical(nu, nm);
      add_logical(nm, nv);
    } else {
      add_edge(nu, nv, u, v, /*logical=*/false);
    }
  }
  return out;
}

DiagnosisGraph build_diagnosis_graph(const probe::Mesh& before,
                                     const probe::Mesh& after,
                                     LogicalMode mode,
                                     const probe::ParisMesh* paris_before) {
  assert(before.paths.size() == after.paths.size());
  assert(paris_before == nullptr ||
         paris_before->pairs.size() == before.paths.size());
  DiagnosisGraph dg;
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
    obs.before = intern_path(dg, pb.hops, mode, path_index);
    obs.ok_after = pa.ok;
    if (pa.ok) {
      obs.after = intern_path(dg, pa.hops, mode, path_index);
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

}  // namespace reference

/// Every observable part of a DiagnosisGraph, one fact per line.
std::vector<std::string> dump(const DiagnosisGraph& dg) {
  std::vector<std::string> out;
  auto line = [&](auto&&... parts) {
    std::ostringstream os;
    ((os << parts << ' '), ...);
    out.push_back(os.str());
  };
  auto ids = [](const std::vector<graph::EdgeId>& es) {
    std::string s;
    for (graph::EdgeId e : es) s += std::to_string(e.value()) + ",";
    return s;
  };
  for (std::size_t n = 0; n < dg.g.num_nodes(); ++n) {
    const auto& node = dg.g.node(graph::NodeId{static_cast<std::uint32_t>(n)});
    line("node", n, node.label, static_cast<int>(node.kind), node.asn);
  }
  line("edges", dg.g.num_edges(), dg.edges.size());
  for (std::size_t e = 0; e < dg.g.num_edges(); ++e) {
    const auto& edge = dg.g.edge(graph::EdgeId{static_cast<std::uint32_t>(e)});
    const EdgeInfo& i = dg.edges[e];
    line("edge", e, edge.src.value(), edge.dst.value(), i.phys_key,
         i.directed_key, i.phys_id, i.dir_id, i.unidentified, i.logical,
         i.asn_src, i.asn_dst, i.before_path);
  }
  for (std::size_t k = 0; k < dg.paths.size(); ++k) {
    const PathObs& p = dg.paths[k];
    line("path", k, p.src, p.dst, p.dest_asn, p.ok_after, p.rerouted,
         ids(p.before), ids(p.after));
  }
  for (const auto& key : dg.probed_keys) line("probed", key);
  for (std::uint32_t i = 0; i < dg.phys_keys.size(); ++i) {
    line("phys", i, dg.phys_keys.key(i));
  }
  for (std::uint32_t i = 0; i < dg.directed_keys.size(); ++i) {
    line("dir", i, dg.directed_keys.key(i));
  }
  return out;
}

/// Empty when both graphs dump identically, else the first difference.
std::string first_difference(const DiagnosisGraph& got,
                             const DiagnosisGraph& want) {
  const auto a = dump(got), b = dump(want);
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    if (a[i] != b[i]) return "line " + std::to_string(i) + ": got '" + a[i] +
                             "' want '" + b[i] + "'";
  }
  if (a.size() != b.size()) {
    return "got " + std::to_string(a.size()) + " lines, want " +
           std::to_string(b.size());
  }
  return "";
}

constexpr LogicalMode kModes[] = {LogicalMode::kNone,
                                  LogicalMode::kPerNeighbor,
                                  LogicalMode::kPerPrefix};

/// Builds with both constructions in every mode, with and without the
/// Paris snapshot, and asserts identical results.
void expect_same_as_reference(const probe::Mesh& before,
                              const probe::Mesh& after,
                              const probe::ParisMesh* paris = nullptr) {
  for (LogicalMode mode : kModes) {
    for (const probe::ParisMesh* p : {static_cast<const probe::ParisMesh*>(nullptr), paris}) {
      SCOPED_TRACE("mode " + std::to_string(static_cast<int>(mode)) +
                   (p != nullptr ? " with Paris" : ""));
      EXPECT_EQ(first_difference(build_diagnosis_graph(before, after, mode, p),
                                 reference::build_diagnosis_graph(before, after,
                                                                  mode, p)),
                "");
      if (paris == nullptr) break;
    }
  }
}

probe::Hop hop(const std::string& label, graph::NodeKind kind, int asn) {
  probe::Hop h;
  h.label = label;
  h.kind = kind;
  h.asn = asn;
  return h;
}

TEST(DiagnosisGraphDifferential, UhHopWhoseAsnBecomesKnownAfterTheEvent) {
  // Pair 0's T+ path has the T− labels, but its UH hop now carries an AS
  // (e.g. tagged since): the path is re-interned, the node's asn is
  // upgraded, and the hop turns interdomain for the logical expansion.
  // Pair 1 is unchanged and shares its T− edge sequence.
  probe::Mesh before = MeshBuilder()
                           .ok(0, 1, {"s0@1!s", "r1@1", "uh:a", "r2@2", "s1@2!s"})
                           .ok(1, 0, {"s1@2!s", "r2@2", "uh:a", "r1@1", "s0@1!s"})
                           .build();
  probe::Mesh after = before;
  after.paths[0].hops[2] = hop("uh:a", graph::NodeKind::kUnidentified, 3);
  expect_same_as_reference(before, after);

  const auto dg = build_diagnosis_graph(before, after, LogicalMode::kPerNeighbor);
  EXPECT_EQ(dg.g.node(*dg.g.find_node("uh:a")).asn, 3);
  EXPECT_TRUE(dg.paths[0].rerouted);
  EXPECT_FALSE(dg.paths[1].rerouted);
  EXPECT_EQ(dg.paths[1].after, dg.paths[1].before);
}

TEST(DiagnosisGraphDifferential, LogicalLabelCollidingWithAHopLabel) {
  // A UH hop literally labelled like the logical node r2(AS3): the
  // expansion interns onto that node (upgrading its unknown asn), and
  // later sightings of the logical node must resolve to it again.
  const auto m = MeshBuilder()
                     .ok(0, 1, {"s0@1!s", "r2(AS3)", "r9@1", "s1@1!s"})
                     .ok(0, 2, {"s0@1!s", "r1@1", "r2@2", "r3@3", "s2@3!s"})
                     .ok(1, 2, {"s1@1!s", "r1@1", "r2@2", "r3@3", "s2@3!s"})
                     .ok(2, 0, {"s2@3!s", "r3@3", "r2@2", "r1@1", "s0@1!s"})
                     .build();
  auto after = m;
  after.paths[3].ok = false;
  after.paths[3].hops.resize(2);
  expect_same_as_reference(m, after);
}

TEST(DiagnosisGraphDifferential, TruncatedAfterPaths) {
  // Failed paths carry whatever prefix the traceroute saw, down to no hop
  // at all; none of it is interned.
  const auto before = MeshBuilder()
                          .ok(0, 1, {"s0@1!s", "r1@1", "r2@2", "s1@2!s"})
                          .ok(1, 0, {"s1@2!s", "r2@2", "r1@1", "s0@1!s"})
                          .fail(0, 2, {"s0@1!s"})
                          .build();
  const auto after = MeshBuilder()
                         .fail(0, 1, {"s0@1!s", "r1@1"})
                         .fail(1, 0, {})
                         .fail(0, 2, {})
                         .build();
  expect_same_as_reference(before, after);
}

/// Simulated meshes: a generated multi-AS topology, sensors in random
/// stubs, the first two transit ASes the mesh crosses hidden from
/// traceroute (blocked-AS UH hops), ICMP rate limiting (star UH hops), a
/// Paris T− snapshot, and rounds of simultaneous link failures.
class SimulatedDifferential : public ::testing::Test {
 protected:
  SimulatedDifferential() : net_(topology()) {
    net_.converge();
    util::Rng rng(5);
    sensors_ = probe::place_sensors(net_.topology(),
                                    probe::PlacementKind::kRandomStub, 8, rng);
    for (const auto& path : probe::Prober(net_, sensors_).measure().paths) {
      for (std::size_t i = 1; i + 1 < path.hops.size() && blocked_.size() < 2;
           ++i) {
        const int as = path.hops[i].asn;
        if (as != path.hops.front().asn && as != path.hops.back().asn) {
          blocked_.insert(static_cast<std::uint32_t>(as));
        }
      }
    }
  }

  static topo::Topology topology() {
    topo::GeneratorParams p;
    p.pool_stubs = 60;
    p.target_ases = 40;
    p.seed = 3;
    return topo::generate(p);
  }

  sim::Network net_;
  std::vector<probe::Sensor> sensors_;
  std::set<std::uint32_t> blocked_;
};

TEST_F(SimulatedDifferential, MatchesReferenceOverFailureRounds) {
  ASSERT_EQ(blocked_.size(), 2u);
  probe::Prober p(net_, sensors_, blocked_);
  p.set_icmp_drop(0.15, 9);
  const probe::Mesh before = p.measure();
  const probe::ParisMesh paris = p.measure_paris();
  ASSERT_EQ(paris.pairs.size(), before.paths.size());

  // The mesh exercises both kinds of UH hop.
  std::size_t blocked_uh = 0, star_uh = 0;
  for (const auto& path : before.paths) {
    for (const auto& h : path.hops) {
      if (h.kind != graph::NodeKind::kUnidentified) continue;
      const auto as = net_.topology().as_of_router(h.router).value();
      (blocked_.count(as) != 0 ? blocked_uh : star_uh) += 1;
    }
  }
  EXPECT_GT(blocked_uh, 0u);
  EXPECT_GT(star_uh, 0u);

  expect_same_as_reference(before, before, &paris);

  const auto pool = before.probed_links();
  util::Rng rng(11);
  auto snap = net_.snapshot();
  std::size_t broken = 0, rerouted = 0, unchanged = 0;
  for (std::uint64_t round = 0; round < 6; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    for (topo::LinkId l : rng.sample(pool, 2)) net_.fail_link(l);
    net_.reconverge();
    const probe::Mesh after = p.measure();
    expect_same_as_reference(before, after, &paris);

    const auto dg = build_diagnosis_graph(before, after, LogicalMode::kNone);
    for (const PathObs& obs : dg.paths) {
      broken += !obs.ok_after;
      rerouted += obs.rerouted;
      unchanged += obs.ok_after && obs.after == obs.before;
    }
    net_.restore(snap);
  }
  // The rounds cover every kind of pair fate.
  EXPECT_GT(broken, 0u);
  EXPECT_GT(rerouted, 0u);
  EXPECT_GT(unchanged, 0u);
}

TEST_F(SimulatedDifferential, MatchesReferenceOnEcmpSiblings) {
  // Unblocked and unlimited: UH tokens are keyed by (pair, position), so
  // siblings that differ only inside a hidden AS render identically.
  probe::Prober p(net_, sensors_);
  const probe::Mesh before = p.measure();
  const probe::ParisMesh paris = p.measure_paris();
  // T+ where every pair with ECMP alternatives took a sibling path: a
  // reroute to the plain builder, load balancing with the Paris snapshot.
  probe::Mesh after = before;
  for (std::size_t k = 0; k < after.paths.size(); ++k) {
    for (const auto& alt : paris.pairs[k].alternatives) {
      const auto& hops = before.paths[k].hops;
      const bool differs =
          alt.hops.size() != hops.size() ||
          !std::equal(hops.begin(), hops.end(), alt.hops.begin(),
                      [](const probe::Hop& a, const probe::Hop& b) {
                        return a.label == b.label;
                      });
      if (!alt.ok || !differs) continue;
      after.paths[k] = alt;
      after.paths[k].src = before.paths[k].src;
      after.paths[k].dst = before.paths[k].dst;
      break;
    }
  }
  expect_same_as_reference(before, after, &paris);

  const auto plain = build_diagnosis_graph(before, after, LogicalMode::kNone);
  const auto aware =
      build_diagnosis_graph(before, after, LogicalMode::kNone, &paris);
  std::size_t load_balanced = 0;
  for (std::size_t k = 0; k < plain.paths.size(); ++k) {
    load_balanced += plain.paths[k].rerouted && !aware.paths[k].rerouted;
  }
  EXPECT_GT(load_balanced, 0u);
}

}  // namespace
}  // namespace netd::core
