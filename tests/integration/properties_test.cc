// Property-based suites: invariants swept over seeds with TEST_P.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/algorithms.h"
#include "core/diagnosability.h"
#include "exp/runner.h"
#include "probe/prober.h"
#include "sim/network.h"
#include "topo/generator.h"
#include "util/rng.h"

namespace netd {
namespace {

using topo::AsId;
using topo::LinkId;
using topo::PrefixId;
using topo::RouterId;

// ---------------------------------------------------------------------------
// Routing properties over generated topologies.
// ---------------------------------------------------------------------------

class RoutingProperties : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  RoutingProperties() {
    topo::GeneratorParams p;
    p.seed = GetParam();
    p.target_ases = 60;  // smaller for speed; same construction
    p.pool_tier2 = 10;
    p.pool_stubs = 70;
    net_.emplace(topo::generate(p));
    net_->converge();
  }
  std::optional<sim::Network> net_;
};

TEST_P(RoutingProperties, ConvergedPathsAreValleyFree) {
  const auto& topo = net_->topology();
  std::vector<RouterId> stubs;
  for (const auto& as : topo.ases()) {
    if (as.cls == topo::AsClass::kStub) stubs.push_back(as.routers.front());
  }
  util::Rng rng(GetParam() * 31 + 1);
  for (int i = 0; i < 30; ++i) {
    const RouterId a = rng.pick(stubs);
    const RouterId b = rng.pick(stubs);
    if (a == b) continue;
    const auto tr = net_->trace(a, b);
    ASSERT_TRUE(tr.ok);
    int state = 0;  // 0 climbing, 1 peered, 2 descending
    for (std::size_t k = 0; k < tr.links.size(); ++k) {
      if (!topo.link(tr.links[k]).interdomain) continue;
      switch (topo.neighbor_relationship(tr.links[k], tr.hops[k])) {
        case topo::Relationship::kProvider:
          EXPECT_EQ(state, 0);
          break;
        case topo::Relationship::kPeer:
          EXPECT_LE(state, 0);
          state = 1;
          break;
        case topo::Relationship::kCustomer:
          state = 2;
          break;
      }
    }
  }
}

TEST_P(RoutingProperties, TracesMatchBgpAsPaths) {
  const auto& topo = net_->topology();
  std::vector<RouterId> stubs;
  for (const auto& as : topo.ases()) {
    if (as.cls == topo::AsClass::kStub) stubs.push_back(as.routers.front());
  }
  util::Rng rng(GetParam() * 17 + 3);
  for (int i = 0; i < 20; ++i) {
    const RouterId a = rng.pick(stubs);
    const RouterId b = rng.pick(stubs);
    if (a == b) continue;
    const auto tr = net_->trace(a, b);
    ASSERT_TRUE(tr.ok);
    // AS sequence of the data path == [src AS] + BGP AS path.
    std::vector<AsId> as_seq;
    for (const auto r : tr.hops) {
      const AsId as = topo.as_of_router(r);
      if (as_seq.empty() || as_seq.back() != as) as_seq.push_back(as);
    }
    const auto route =
        net_->bgp().best(a, topo.prefix_of(topo.as_of_router(b)));
    ASSERT_TRUE(route.has_value());
    std::vector<AsId> expected = {topo.as_of_router(a)};
    expected.insert(expected.end(), route->as_path.begin(),
                    route->as_path.end());
    EXPECT_EQ(as_seq, expected);
  }
}

/// Everything Network::restore must bring back: both BGP RIBs, every link
/// and router flag, and the IGP distance of every same-AS router pair.
struct RoutingState {
  bgp::BgpEngine::AdjRibIn adj_in;
  bgp::BgpEngine::LocRib loc_rib;
  std::vector<bool> link_up, router_up;
  std::vector<int> igp_dist;

  explicit RoutingState(const sim::Network& net)
      : adj_in(net.bgp().adj_rib_in()), loc_rib(net.bgp().loc_rib()) {
    const auto& topo = net.topology();
    for (const auto& l : topo.links()) link_up.push_back(l.up);
    for (const auto& r : topo.routers()) router_up.push_back(r.up);
    for (const auto& as : topo.ases()) {
      for (RouterId a : as.routers) {
        for (RouterId b : as.routers) igp_dist.push_back(net.igp().distance(a, b));
      }
    }
  }
};

/// Field by field, so a failure names the part that was not rolled back.
void expect_same_state(const RoutingState& got, const RoutingState& want) {
  EXPECT_TRUE(got.adj_in == want.adj_in) << "adj-RIB-in differs";
  EXPECT_TRUE(got.loc_rib == want.loc_rib) << "loc-RIB differs";
  EXPECT_EQ(got.link_up, want.link_up);
  EXPECT_EQ(got.router_up, want.router_up);
  EXPECT_EQ(got.igp_dist, want.igp_dist);
}

/// Injects 1-3 random failures of any kind; reconverges unless the draw
/// says to restore mid-convergence.
void inject_random_failures(sim::Network& net, util::Rng& rng) {
  const auto& topo = net.topology();
  const auto last = [](std::size_t n) {
    return static_cast<std::uint32_t>(n - 1);
  };
  std::vector<LinkId> inter;
  for (const auto& l : topo.links()) {
    if (l.interdomain) inter.push_back(l.id);
  }
  for (std::uint32_t i = rng.uniform(1, 3); i > 0; --i) {
    switch (rng.uniform(0, 2)) {
      case 0:
        net.fail_link(LinkId{rng.uniform(0, last(topo.num_links()))});
        break;
      case 1:
        net.fail_router(RouterId{rng.uniform(0, last(topo.num_routers()))});
        break;
      default: {
        const LinkId l = rng.pick(inter);
        const RouterId r = rng.bernoulli(0.5) ? topo.link(l).a : topo.link(l).b;
        net.misconfigure_export(r, l,
                                PrefixId{rng.uniform(0, last(topo.num_ases()))});
        break;
      }
    }
  }
  if (rng.bernoulli(0.75)) net.reconverge();
}

TEST_P(RoutingProperties, SnapshotRestoreIsExact) {
  const auto& topo = net_->topology();
  const auto snap = net_->snapshot();
  const RoutingState base(*net_);
  util::Rng rng(GetParam() * 13 + 7);
  // Collect reference traces.
  std::vector<RouterId> stubs;
  for (const auto& as : topo.ases()) {
    if (as.cls == topo::AsClass::kStub) stubs.push_back(as.routers.front());
  }
  std::vector<std::pair<RouterId, RouterId>> pairs;
  std::vector<std::vector<RouterId>> refs;
  for (int i = 0; i < 10; ++i) {
    const RouterId a = rng.pick(stubs), b = rng.pick(stubs);
    if (a == b) continue;
    pairs.push_back({a, b});
    refs.push_back(net_->trace(a, b).hops);
  }
  // Break three random links, reconverge, restore.
  std::vector<LinkId> all;
  for (const auto& l : topo.links()) all.push_back(l.id);
  for (LinkId l : rng.sample(all, 3)) net_->fail_link(l);
  net_->reconverge();
  EXPECT_FALSE(net_->restore(snap).full_copy);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(net_->trace(pairs[i].first, pairs[i].second).hops, refs[i]);
  }
  expect_same_state(RoutingState(*net_), base);

  // Random mixes of link, router and export failures, some restored
  // before reconvergence, some restored twice: every restore of the
  // latest snapshot rolls back only the log, and exactly.
  for (int round = 0; round < 12; ++round) {
    SCOPED_TRACE(round);
    inject_random_failures(*net_, rng);
    EXPECT_FALSE(net_->restore(snap).full_copy);
    expect_same_state(RoutingState(*net_), base);
    if (rng.bernoulli(0.25)) {
      EXPECT_EQ(net_->restore(snap).entries, 0u);
      expect_same_state(RoutingState(*net_), base);
    }
  }

  // A newer snapshot of a failed state, then the older one restored: the
  // log describes neither, so both directions copy the snapshot whole.
  inject_random_failures(*net_, rng);
  net_->reconverge();
  const auto newer = net_->snapshot();
  const RoutingState newer_state(*net_);
  inject_random_failures(*net_, rng);
  EXPECT_TRUE(net_->restore(snap).full_copy);
  expect_same_state(RoutingState(*net_), base);
  EXPECT_TRUE(net_->restore(newer).full_copy);
  expect_same_state(RoutingState(*net_), newer_state);
  EXPECT_TRUE(net_->restore(snap).full_copy);
  expect_same_state(RoutingState(*net_), base);
  // The full copy restarts the log from `snap`.
  inject_random_failures(*net_, rng);
  EXPECT_FALSE(net_->restore(snap).full_copy);
  expect_same_state(RoutingState(*net_), base);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(net_->trace(pairs[i].first, pairs[i].second).hops, refs[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingProperties,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// Diagnosis properties: invariants of the algorithms under random failures.
// ---------------------------------------------------------------------------

class DiagnosisProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DiagnosisProperties, HypothesisInvariants) {
  topo::GeneratorParams p;
  p.seed = 2;
  sim::Network net(topo::generate(p));
  net.converge();
  net.set_operator_as(AsId{0});
  util::Rng rng(GetParam());
  const auto sensors = probe::place_sensors(
      net.topology(), probe::PlacementKind::kRandomStub, 8, rng);
  probe::Prober prober(net, sensors);
  const auto before = prober.measure();
  const auto pool = before.probed_links();
  const auto snap = net.snapshot();

  for (int trial = 0; trial < 5; ++trial) {
    const auto victims = rng.sample(pool, 2);
    net.start_recording();
    for (LinkId l : victims) net.fail_link(l);
    net.reconverge();
    const auto after = prober.measure();
    bool invoked = false;
    for (std::size_t k = 0; k < before.paths.size(); ++k) {
      invoked = invoked || (before.paths[k].ok && !after.paths[k].ok);
    }
    if (invoked) {
      const auto cp = exp::collect_control_plane(net);
      std::vector<core::AlgorithmOutput> outs;
      outs.push_back(core::run_tomo(before, after));
      outs.push_back(core::run_nd_edge(before, after));
      outs.push_back(core::run_nd_bgpigp(before, after, cp));
      for (const auto* out : {&outs[0], &outs[1], &outs[2]}) {
        // (1) Every hypothesis link is a probed link.
        for (const auto& k : out->result.links) {
          EXPECT_TRUE(out->graph.probed_keys.count(k));
        }
        // (2) Every hypothesis edge intersects at least one failure or
        //     reroute set => it lies on some T− path of a disturbed pair.
        // (3) No duplicate edges in the hypothesis.
        std::set<std::uint32_t> seen;
        for (graph::EdgeId e : out->result.hypothesis_edges) {
          EXPECT_TRUE(seen.insert(e.value()).second);
        }
      }
    }
    net.restore(snap);
    net.set_operator_as(AsId{0});
  }
}

TEST_P(DiagnosisProperties, NonRecoverableSingleFailureAlwaysFound) {
  // A single-homed stub uplink failure cannot reroute: Tomo and ND-edge
  // must both include the true link (paper: single-failure sensitivity 1).
  topo::GeneratorParams p;
  p.seed = 2;
  sim::Network net(topo::generate(p));
  net.converge();
  util::Rng rng(GetParam() * 7 + 5);
  const auto sensors = probe::place_sensors(
      net.topology(), probe::PlacementKind::kRandomStub, 8, rng);
  probe::Prober prober(net, sensors);
  const auto before = prober.measure();
  // Single-homed sensor uplink.
  LinkId uplink;
  for (const auto& s : sensors) {
    std::size_t n = 0;
    LinkId last;
    for (LinkId l : net.topology().links_of(s.attach)) {
      if (net.topology().link(l).interdomain) {
        ++n;
        last = l;
      }
    }
    if (n == 1) {
      uplink = last;
      break;
    }
  }
  if (!uplink.valid()) GTEST_SKIP() << "all sampled stubs multihomed";
  net.fail_link(uplink);
  net.reconverge();
  const auto after = prober.measure();
  const auto key = exp::link_key(net.topology(), uplink);
  EXPECT_TRUE(core::run_tomo(before, after).result.links.count(key));
  EXPECT_TRUE(core::run_nd_edge(before, after).result.links.count(key));
}

TEST_P(DiagnosisProperties, DiagnosabilityBounds) {
  topo::GeneratorParams p;
  p.seed = 2;
  sim::Network net(topo::generate(p));
  net.converge();
  util::Rng rng(GetParam() * 3 + 11);
  for (const auto kind :
       {probe::PlacementKind::kRandomStub, probe::PlacementKind::kSameAs,
        probe::PlacementKind::kDistantAs,
        probe::PlacementKind::kDistantAsSplit}) {
    const auto sensors = probe::place_sensors(net.topology(), kind, 8, rng);
    probe::Prober prober(net, sensors);
    const auto mesh = prober.measure();
    const auto dg = core::build_diagnosis_graph(mesh, mesh, false);
    const double d = core::diagnosability(dg);
    EXPECT_GT(d, 0.0) << probe::to_string(kind);
    EXPECT_LE(d, 1.0) << probe::to_string(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiagnosisProperties,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

}  // namespace
}  // namespace netd
