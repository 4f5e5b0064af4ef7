#include "bgp/engine.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "topo/generator.h"

namespace netd::bgp {
namespace {

using topo::AsClass;
using topo::AsId;
using topo::LinkId;
using topo::PrefixId;
using topo::Relationship;
using topo::RouterId;
using topo::Topology;

/// Chain of three single-router ASes: stub0 -> transit1 -> stub2,
/// where transit1 provides to both stubs.
struct Chain {
  Topology t;
  RouterId r0, r1, r2;
  LinkId l01, l12;

  Chain() {
    const AsId a0 = t.add_as(AsClass::kStub);
    const AsId a1 = t.add_as(AsClass::kTier2);
    const AsId a2 = t.add_as(AsClass::kStub);
    r0 = t.add_router(a0);
    r1 = t.add_router(a1);
    r2 = t.add_router(a2);
    l01 = t.add_inter_link(r0, r1, Relationship::kProvider);
    l12 = t.add_inter_link(r1, r2, Relationship::kCustomer);
  }
};

TEST(BgpEngine, PropagatesRoutesAcrossChain) {
  Chain c;
  igp::IgpState igp(c.t);
  BgpEngine bgp(c.t, igp);
  bgp.converge_initial();

  // r0 learns AS2's prefix through its provider.
  const auto route = bgp.best(c.r0, PrefixId{2});
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->as_path.size(), 2u);
  EXPECT_EQ(route->as_path[0], AsId{1});
  EXPECT_EQ(route->as_path[1], AsId{2});
  EXPECT_EQ(route->local_pref, kProviderPref);
  EXPECT_EQ(route->egress_link, c.l01);
}

TEST(BgpEngine, OriginRouteAtEveryRouter) {
  Chain c;
  igp::IgpState igp(c.t);
  BgpEngine bgp(c.t, igp);
  bgp.converge_initial();
  const auto own = bgp.best(c.r1, PrefixId{1});
  ASSERT_TRUE(own.has_value());
  EXPECT_TRUE(own->originated());
  EXPECT_TRUE(own->as_path.empty());
}

TEST(BgpEngine, CustomerRouteHasCustomerPref) {
  Chain c;
  igp::IgpState igp(c.t);
  BgpEngine bgp(c.t, igp);
  bgp.converge_initial();
  const auto route = bgp.best(c.r1, PrefixId{0});
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->local_pref, kCustomerPref);
}

TEST(BgpEngine, SessionTeardownWithdrawsRoutes) {
  Chain c;
  igp::IgpState igp(c.t);
  BgpEngine bgp(c.t, igp);
  bgp.converge_initial();
  ASSERT_TRUE(bgp.best(c.r0, PrefixId{2}).has_value());

  c.t.set_link_up(c.l01, false);
  bgp.on_link_state_change(c.l01);
  bgp.run_to_convergence();
  EXPECT_FALSE(bgp.best(c.r0, PrefixId{2}).has_value());
  EXPECT_FALSE(bgp.best(c.r1, PrefixId{0}).has_value());
  // AS1-AS2 unaffected.
  EXPECT_TRUE(bgp.best(c.r2, PrefixId{1}).has_value());
}

TEST(BgpEngine, SessionRestoreReadvertises) {
  Chain c;
  igp::IgpState igp(c.t);
  BgpEngine bgp(c.t, igp);
  bgp.converge_initial();
  c.t.set_link_up(c.l01, false);
  bgp.on_link_state_change(c.l01);
  bgp.run_to_convergence();
  c.t.set_link_up(c.l01, true);
  bgp.on_link_state_change(c.l01);
  bgp.run_to_convergence();
  const auto route = bgp.best(c.r0, PrefixId{2});
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->as_path.size(), 2u);
}

TEST(BgpEngine, ExportFilterWithdrawsOnePrefixOneSession) {
  Chain c;
  igp::IgpState igp(c.t);
  BgpEngine bgp(c.t, igp);
  bgp.converge_initial();
  ASSERT_TRUE(bgp.best(c.r0, PrefixId{2}).has_value());

  // r1 stops announcing AS2's prefix to r0.
  bgp.add_export_filter(c.r1, c.l01, PrefixId{2});
  bgp.run_to_convergence();
  EXPECT_FALSE(bgp.best(c.r0, PrefixId{2}).has_value());
  // Other prefixes still flow.
  EXPECT_TRUE(bgp.best(c.r0, PrefixId{1}).has_value());
  // r1 itself still has the route (the filter is outbound-only).
  EXPECT_TRUE(bgp.best(c.r1, PrefixId{2}).has_value());
}

TEST(BgpEngine, MessageTapRecordsWithdrawals) {
  Chain c;
  igp::IgpState igp(c.t);
  BgpEngine bgp(c.t, igp);
  bgp.set_tapped_as(AsId{0});
  bgp.converge_initial();
  bgp.clear_messages();

  bgp.add_export_filter(c.r1, c.l01, PrefixId{2});
  bgp.run_to_convergence();
  const auto& msgs = bgp.messages();
  ASSERT_FALSE(msgs.empty());
  bool saw_withdraw = false;
  for (const auto& m : msgs) {
    if (m.withdraw && m.prefix == PrefixId{2}) {
      saw_withdraw = true;
      EXPECT_EQ(m.at, c.r0);
      EXPECT_EQ(m.from, c.r1);
      EXPECT_EQ(m.link, c.l01);
    }
  }
  EXPECT_TRUE(saw_withdraw);
}

TEST(BgpEngine, TapOnlyRecordsTappedAs) {
  Chain c;
  igp::IgpState igp(c.t);
  BgpEngine bgp(c.t, igp);
  bgp.set_tapped_as(AsId{2});
  bgp.converge_initial();
  for (const auto& m : bgp.messages()) {
    EXPECT_EQ(c.t.as_of_router(m.at), AsId{2});
  }
}

TEST(BgpEngine, SnapshotRestoreRoundTrips) {
  Chain c;
  igp::IgpState igp(c.t);
  BgpEngine bgp(c.t, igp);
  bgp.converge_initial();
  const auto snap = bgp.snapshot();
  const auto before = bgp.best(c.r0, PrefixId{2});

  c.t.set_link_up(c.l01, false);
  bgp.on_link_state_change(c.l01);
  bgp.run_to_convergence();
  EXPECT_FALSE(bgp.best(c.r0, PrefixId{2}).has_value());

  c.t.set_link_up(c.l01, true);
  igp.recompute_all();
  bgp.restore(snap);
  const auto after = bgp.best(c.r0, PrefixId{2});
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(*after, *before);
}

TEST(BgpEngine, ChangesBeforeTheSnapshotAreNotLogged) {
  Chain c;
  igp::IgpState igp(c.t);
  BgpEngine bgp(c.t, igp);
  bgp.converge_initial();
  c.t.set_link_up(c.l01, false);
  bgp.on_link_state_change(c.l01);
  bgp.run_to_convergence();
  const auto snap = bgp.snapshot();
  const auto stats = bgp.restore(snap);
  EXPECT_FALSE(stats.full_copy);
  EXPECT_EQ(stats.entries, 0u);
}

TEST(BgpEngine, LogOutgrowingTheSnapshotFallsBackToFullCopy) {
  Chain c;
  igp::IgpState igp(c.t);
  BgpEngine bgp(c.t, igp);
  bgp.converge_initial();
  const auto snap = bgp.snapshot();
  // Flap the same session until the logged keys outnumber the snapshot.
  std::size_t snap_size = snap.adj_in.size();
  for (const auto& rib : snap.loc_rib) snap_size += rib.size();
  for (std::size_t i = 0; i <= snap_size; ++i) {
    c.t.set_link_up(c.l12, false);
    bgp.on_link_state_change(c.l12);
    bgp.run_to_convergence();
    c.t.set_link_up(c.l12, true);
    bgp.on_link_state_change(c.l12);
    bgp.run_to_convergence();
  }
  const auto stats = bgp.restore(snap);
  EXPECT_TRUE(stats.full_copy);
  EXPECT_EQ(stats.entries, snap_size);
  EXPECT_TRUE(bgp.adj_rib_in() == snap.adj_in);
  EXPECT_TRUE(bgp.loc_rib() == snap.loc_rib);
}

/// Diamond: stub AS3 multihomed to transits AS1 (short) and AS2 (long
/// path to AS0's customer cone).
TEST(BgpEngine, PrefersCustomerOverPeerRoute) {
  Topology t;
  const AsId a0 = t.add_as(AsClass::kTier2);
  const AsId a1 = t.add_as(AsClass::kTier2);
  const AsId a2 = t.add_as(AsClass::kStub);
  const RouterId r0 = t.add_router(a0);
  const RouterId r1 = t.add_router(a1);
  const RouterId r2 = t.add_router(a2);
  // AS2 is a customer of both AS0 and AS1; AS0 and AS1 peer.
  t.add_inter_link(r0, r1, Relationship::kPeer);
  t.add_inter_link(r2, r0, Relationship::kProvider);
  t.add_inter_link(r2, r1, Relationship::kProvider);
  igp::IgpState igp(t);
  BgpEngine bgp(t, igp);
  bgp.converge_initial();
  // AS0 hears AS2's prefix from AS2 (customer) and from AS1? No: AS1 may
  // not export a customer route to a peer — it may. Customer routes go to
  // everyone. AS0 must prefer the direct customer route.
  const auto route = bgp.best(r0, PrefixId{2});
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->local_pref, kCustomerPref);
  EXPECT_EQ(route->as_path.size(), 1u);
}

TEST(BgpEngine, ValleyFreePaths) {
  // Two stubs under different providers that only peer: the stubs reach
  // each other across the peering link, but the providers never transit
  // peer-learned routes to each other’s providers.
  Topology t;
  const AsId p1 = t.add_as(AsClass::kTier2);
  const AsId p2 = t.add_as(AsClass::kTier2);
  const AsId s1 = t.add_as(AsClass::kStub);
  const AsId s2 = t.add_as(AsClass::kStub);
  const RouterId rp1 = t.add_router(p1);
  const RouterId rp2 = t.add_router(p2);
  const RouterId rs1 = t.add_router(s1);
  const RouterId rs2 = t.add_router(s2);
  t.add_inter_link(rp1, rp2, Relationship::kPeer);
  t.add_inter_link(rs1, rp1, Relationship::kProvider);
  t.add_inter_link(rs2, rp2, Relationship::kProvider);
  igp::IgpState igp(t);
  BgpEngine bgp(t, igp);
  bgp.converge_initial();

  // Stubs see each other via the peering.
  ASSERT_TRUE(bgp.best(rs1, PrefixId{3}).has_value());
  // A stub never learns a peer-to-peer transit route for the *other
  // provider's* prefix through its own provider... it does: provider2 is a
  // peer of provider1, so provider1 may not export p2's prefix? p2's
  // prefix is peer-learned at p1 -> only exported to customers -> s1 gets
  // it. That IS valley-free (peer route down to customer).
  const auto r = bgp.best(rs1, PrefixId{1});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->as_path.back(), p2);
  // But p1 must not have a route for p2's prefix via its *customer* s1.
  const auto at_p1 = bgp.best(rp1, PrefixId{1});
  ASSERT_TRUE(at_p1.has_value());
  EXPECT_EQ(at_p1->as_path.size(), 1u);  // direct peer route only
}

TEST(BgpEngine, RouterDownTearsDownAllSessions) {
  Chain c;
  igp::IgpState igp(c.t);
  BgpEngine bgp(c.t, igp);
  bgp.converge_initial();
  c.t.set_router_up(c.r1, false);
  igp.recompute_all();
  bgp.on_router_state_change(c.r1);
  bgp.run_to_convergence();
  EXPECT_FALSE(bgp.best(c.r0, PrefixId{2}).has_value());
  EXPECT_FALSE(bgp.best(c.r2, PrefixId{0}).has_value());
  EXPECT_FALSE(bgp.best(c.r1, PrefixId{0}).has_value());
}

TEST(BgpEngine, ConvergesOnPaperTopology) {
  const Topology t = topo::generate(topo::GeneratorParams{});
  igp::IgpState igp(t);
  BgpEngine bgp(t, igp);
  bgp.converge_initial();
  // Full reachability: every router has a route to every other AS's
  // prefix (the AS-level graph is connected and policies are GR-stable).
  std::size_t missing = 0;
  for (const auto& r : t.routers()) {
    for (std::uint32_t p = 0; p < t.num_ases(); ++p) {
      if (!bgp.best(r.id, PrefixId{p}).has_value()) ++missing;
    }
  }
  EXPECT_EQ(missing, 0u);
}

TEST(BgpEngine, NoAsPathLoops) {
  const Topology t = topo::generate(topo::GeneratorParams{});
  igp::IgpState igp(t);
  BgpEngine bgp(t, igp);
  bgp.converge_initial();
  for (const auto& r : t.routers()) {
    for (std::uint32_t p = 0; p < t.num_ases(); ++p) {
      const auto route = bgp.best(r.id, PrefixId{p});
      if (!route) continue;
      std::vector<AsId> path = route->as_path;
      std::sort(path.begin(), path.end());
      EXPECT_TRUE(std::adjacent_find(path.begin(), path.end()) == path.end())
          << "AS path loop at " << t.router(r.id).name;
      EXPECT_TRUE(std::find(route->as_path.begin(), route->as_path.end(),
                            r.as) == route->as_path.end());
    }
  }
}

}  // namespace
}  // namespace netd::bgp

namespace netd::bgp {
namespace {

TEST(BgpEngineTap, AnnouncementsRecordedAsUpdates) {
  Chain c;
  igp::IgpState igp(c.t);
  BgpEngine bgp(c.t, igp);
  bgp.set_tapped_as(AsId{0});
  bgp.converge_initial();
  bool saw_update = false;
  for (const auto& m : bgp.messages()) {
    if (!m.withdraw && m.prefix == PrefixId{2}) {
      saw_update = true;
      EXPECT_EQ(m.at, c.r0);
      EXPECT_EQ(m.from, c.r1);
    }
  }
  EXPECT_TRUE(saw_update);
}

TEST(BgpEngineTap, ClearMessagesResetsBuffer) {
  Chain c;
  igp::IgpState igp(c.t);
  BgpEngine bgp(c.t, igp);
  bgp.set_tapped_as(AsId{0});
  bgp.converge_initial();
  EXPECT_FALSE(bgp.messages().empty());
  bgp.clear_messages();
  EXPECT_TRUE(bgp.messages().empty());
}

TEST(BgpEngineTap, SessionDeathIsSilent) {
  // A dead session is observed as session-down, not a received
  // withdrawal: failing the stub's own uplink produces NO tap message at
  // the stub.
  Chain c;
  igp::IgpState igp(c.t);
  BgpEngine bgp(c.t, igp);
  bgp.set_tapped_as(AsId{0});
  bgp.converge_initial();
  bgp.clear_messages();
  c.t.set_link_up(c.l01, false);
  bgp.on_link_state_change(c.l01);
  bgp.run_to_convergence();
  EXPECT_TRUE(bgp.messages().empty());
}

}  // namespace
}  // namespace netd::bgp
