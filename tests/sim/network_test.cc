#include "sim/network.h"

#include <gtest/gtest.h>

#include "topo/generator.h"

namespace netd::sim {
namespace {

using topo::AsId;
using topo::LinkId;
using topo::PrefixId;
using topo::RouterId;

class TinyNetwork : public ::testing::Test {
 protected:
  TinyNetwork() : net_(topo::tiny_topology()) { net_.converge(); }

  RouterId stub_router(std::uint32_t as) {
    return net_.topology().as_of(AsId{as}).routers.front();
  }

  Network net_;
};

TEST_F(TinyNetwork, TraceReachesDestination) {
  const auto tr = net_.trace(stub_router(4), stub_router(6));
  EXPECT_TRUE(tr.ok);
  EXPECT_EQ(tr.hops.front(), stub_router(4));
  EXPECT_EQ(tr.hops.back(), stub_router(6));
  EXPECT_EQ(tr.links.size() + 1, tr.hops.size());
}

TEST_F(TinyNetwork, TraceToSelfAs) {
  const auto& topo = net_.topology();
  // Two routers inside core AS0: pure IGP forwarding.
  const RouterId a = topo.as_of(AsId{0}).routers[0];
  const RouterId b = topo.as_of(AsId{0}).routers[2];
  const auto tr = net_.trace(a, b);
  EXPECT_TRUE(tr.ok);
  for (LinkId l : tr.links) EXPECT_FALSE(topo.link(l).interdomain);
}

TEST_F(TinyNetwork, TraceLinksMatchHops) {
  const auto tr = net_.trace(stub_router(4), stub_router(5));
  ASSERT_TRUE(tr.ok);
  const auto& topo = net_.topology();
  for (std::size_t i = 0; i < tr.links.size(); ++i) {
    const auto& l = topo.link(tr.links[i]);
    const bool forward = l.a == tr.hops[i] && l.b == tr.hops[i + 1];
    const bool backward = l.b == tr.hops[i] && l.a == tr.hops[i + 1];
    EXPECT_TRUE(forward || backward);
  }
}

TEST_F(TinyNetwork, TraceIsValleyFree) {
  // stub4 -> stub6 must go up (providers), across at most one peer link,
  // then down (customers).
  const auto tr = net_.trace(stub_router(4), stub_router(6));
  ASSERT_TRUE(tr.ok);
  const auto& topo = net_.topology();
  int state = 0;  // 0=up, 1=across, 2=down
  for (std::size_t i = 0; i < tr.links.size(); ++i) {
    const auto& l = topo.link(tr.links[i]);
    if (!l.interdomain) continue;
    const auto rel = topo.neighbor_relationship(tr.links[i], tr.hops[i]);
    switch (rel) {
      case topo::Relationship::kProvider:
        EXPECT_EQ(state, 0) << "climbed after descending";
        break;
      case topo::Relationship::kPeer:
        EXPECT_LE(state, 1);
        state = std::max(state, 1);
        break;
      case topo::Relationship::kCustomer:
        state = 2;
        break;
    }
  }
}

TEST_F(TinyNetwork, FailedDestinationRouterBlackholes) {
  net_.fail_router(stub_router(6));
  net_.reconverge();
  const auto tr = net_.trace(stub_router(4), stub_router(6));
  EXPECT_FALSE(tr.ok);
}

TEST_F(TinyNetwork, SnapshotRestoreRevertsEverything) {
  const auto snap = net_.snapshot();
  const auto before = net_.trace(stub_router(4), stub_router(6));

  // Break something drastic.
  net_.fail_router(net_.topology().as_of(AsId{0}).routers[1]);
  net_.reconverge();
  net_.restore(snap);

  const auto after = net_.trace(stub_router(4), stub_router(6));
  EXPECT_EQ(before.ok, after.ok);
  EXPECT_EQ(before.hops, after.hops);
  for (const auto& l : net_.topology().links()) EXPECT_TRUE(l.up);
  for (const auto& r : net_.topology().routers()) EXPECT_TRUE(r.up);
}

TEST_F(TinyNetwork, MisconfigureExportBreaksOnlyThatPrefix) {
  // Find the interdomain link the 4->6 path crosses first.
  const auto tr = net_.trace(stub_router(4), stub_router(6));
  ASSERT_TRUE(tr.ok);
  const auto& topo = net_.topology();
  LinkId l;
  RouterId exporter;
  for (std::size_t i = 0; i < tr.links.size(); ++i) {
    if (topo.link(tr.links[i]).interdomain) {
      l = tr.links[i];
      exporter = tr.hops[i + 1];
      break;
    }
  }
  net_.misconfigure_export(exporter, l, PrefixId{6});
  net_.reconverge();
  EXPECT_FALSE(net_.trace(stub_router(4), stub_router(6)).ok);
  EXPECT_TRUE(net_.trace(stub_router(4), stub_router(5)).ok);
}

TEST(Network, FullMeshReachabilityOnPaperTopology) {
  Network net(topo::generate(topo::GeneratorParams{}));
  net.converge();
  const auto& topo = net.topology();
  // Check a sample of stub pairs.
  std::vector<RouterId> stubs;
  for (const auto& as : topo.ases()) {
    if (as.cls == topo::AsClass::kStub) stubs.push_back(as.routers.front());
  }
  ASSERT_GE(stubs.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = 0; j < 10; ++j) {
      if (i == j) continue;
      EXPECT_TRUE(net.trace(stubs[i * 9], stubs[j * 9]).ok);
    }
  }
}

TEST(Network, TraceNeverLoops) {
  Network net(topo::generate(topo::GeneratorParams{}));
  net.converge();
  const auto& topo = net.topology();
  std::vector<RouterId> stubs;
  for (const auto& as : topo.ases()) {
    if (as.cls == topo::AsClass::kStub) stubs.push_back(as.routers.front());
  }
  for (std::size_t i = 0; i < 20; ++i) {
    const auto tr = net.trace(stubs[i], stubs[stubs.size() - 1 - i]);
    ASSERT_TRUE(tr.ok);
    std::set<std::uint32_t> seen;
    for (const auto r : tr.hops) {
      EXPECT_TRUE(seen.insert(r.value()).second) << "router revisited";
    }
  }
}

}  // namespace
}  // namespace netd::sim

namespace netd::sim {
namespace {

TEST_F(TinyNetwork, TraceToSelfIsTrivial) {
  const auto r = stub_router(4);
  const auto tr = net_.trace(r, r);
  EXPECT_TRUE(tr.ok);
  EXPECT_EQ(tr.hops, std::vector<topo::RouterId>{r});
  EXPECT_TRUE(tr.links.empty());
}

TEST_F(TinyNetwork, TraceFromDownSourceFails) {
  net_.fail_router(stub_router(4));
  net_.reconverge();
  const auto tr = net_.trace(stub_router(4), stub_router(6));
  EXPECT_FALSE(tr.ok);
  EXPECT_EQ(tr.hops.size(), 1u);
}

TEST_F(TinyNetwork, SnapshotOfAnotherNetworkRestoresByFullCopy) {
  // Same topology, independently converged: bit-identical routing state,
  // but `snap` was not taken by `other`, so its log cannot describe it.
  Network other(topo::tiny_topology());
  other.converge();
  const auto snap = net_.snapshot();
  other.fail_router(other.topology().as_of(AsId{0}).routers[1]);
  other.reconverge();

  const auto stats = other.restore(snap);
  EXPECT_TRUE(stats.full_copy);
  EXPECT_TRUE(other.bgp().adj_rib_in() == snap.bgp.adj_in);
  EXPECT_TRUE(other.bgp().loc_rib() == snap.bgp.loc_rib);
  for (const auto& r : other.topology().routers()) EXPECT_TRUE(r.up);
  EXPECT_EQ(other.trace(stub_router(4), stub_router(6)).hops,
            net_.trace(stub_router(4), stub_router(6)).hops);

  // The full copy made `other` equal to `snap`, so from here on its own
  // log describes it: the next restore rolls back only what changed.
  other.fail_link(other.trace(stub_router(4), stub_router(6)).links.front());
  other.reconverge();
  const auto again = other.restore(snap);
  EXPECT_FALSE(again.full_copy);
  EXPECT_GT(again.entries, 0u);
  EXPECT_LT(again.entries, stats.entries);
  EXPECT_TRUE(other.bgp().adj_rib_in() == snap.bgp.adj_in);
  EXPECT_TRUE(other.bgp().loc_rib() == snap.bgp.loc_rib);
}

}  // namespace
}  // namespace netd::sim
