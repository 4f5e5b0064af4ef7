#include "sim/network.h"

#include <cassert>

#include "obs/registry.h"
#include "obs/span.h"

namespace netd::sim {

using topo::AsId;
using topo::LinkId;
using topo::PrefixId;
using topo::RouterId;

namespace {
constexpr std::size_t kMaxHops = 64;

struct SimInstruments {
  obs::Counter& restore_entries = obs::Registry::global().counter(
      "netd_sim_restore_entries_total",
      "BGP RIB entries rolled back by Network::restore");
  obs::Counter& restore_full = obs::Registry::global().counter(
      "netd_sim_restore_full_total",
      "Network::restore calls that copied the whole BGP snapshot back");

  static SimInstruments& get() {
    static SimInstruments i;
    return i;
  }
};
}  // namespace

Network::Network(topo::Topology topology)
    : topo_(std::move(topology)), igp_(topo_), bgp_(topo_, igp_) {}

void Network::converge() { bgp_.converge_initial(); }

namespace {

/// splitmix64-style mixer for per-(flow, router) ECMP hashing.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

void Network::next_links_into(RouterId r, RouterId dst,
                              std::vector<LinkId>& out) const {
  const AsId dst_as = topo_.as_of_router(dst);
  if (topo_.as_of_router(r) == dst_as) {
    igp_.equal_cost_next_hops_into(r, dst, out);
    return;
  }
  out.clear();
  const auto route = bgp_.best(r, topo_.prefix_of(dst_as));
  if (!route) return;  // no route: blackhole
  if (route->egress_router == r) {
    if (topo_.link_usable(route->egress_link)) {
      out.push_back(route->egress_link);
    }
    return;
  }
  igp_.equal_cost_next_hops_into(r, route->egress_router, out);
}

TraceResult Network::trace(RouterId src, RouterId dst) const {
  return trace_flow(src, dst, 0);
}

TraceResult Network::trace_flow(RouterId src, RouterId dst,
                                std::uint64_t flow) const {
  TraceResult out;
  out.hops.push_back(src);
  if (!topo_.router(src).up || !topo_.router(dst).up) return out;

  RouterId r = src;
  std::vector<LinkId> candidates;  // reused across hops
  for (std::size_t step = 0; step < kMaxHops; ++step) {
    if (r == dst) {
      out.ok = true;
      return out;
    }
    next_links_into(r, dst, candidates);
    if (candidates.empty()) return out;
    // Flow 0 models an ECMP-unaware deterministic router (always the
    // first equal-cost hop); other flows hash per router.
    const std::size_t idx =
        flow == 0 ? 0
                  : static_cast<std::size_t>(mix(flow ^ (r.value() * 0x51ull)) %
                                             candidates.size());
    const LinkId next = candidates[idx];
    if (!topo_.link_usable(next)) return out;
    const RouterId nb = topo_.other_end(next, r);
    if (!topo_.router(nb).up) return out;
    out.links.push_back(next);
    out.hops.push_back(nb);
    r = nb;
  }
  return out;  // forwarding loop: dropped after TTL exhaustion
}

std::vector<TraceResult> Network::enumerate_paths(RouterId src, RouterId dst,
                                                  std::size_t max_paths) const {
  std::vector<TraceResult> out;
  if (!topo_.router(src).up || !topo_.router(dst).up) {
    TraceResult t;
    t.hops.push_back(src);
    out.push_back(std::move(t));
    return out;
  }
  // DFS over equal-cost branches; each prefix is extended until the
  // destination, a blackhole, or the hop cap.
  struct Frame {
    TraceResult partial;
  };
  std::vector<Frame> stack;
  {
    Frame f;
    f.partial.hops.push_back(src);
    stack.push_back(std::move(f));
  }
  std::vector<LinkId> candidates;  // reused across frames
  while (!stack.empty() && out.size() < max_paths) {
    Frame f = std::move(stack.back());
    stack.pop_back();
    const RouterId r = f.partial.hops.back();
    if (r == dst) {
      f.partial.ok = true;
      out.push_back(std::move(f.partial));
      continue;
    }
    if (f.partial.hops.size() > kMaxHops) {
      out.push_back(std::move(f.partial));  // loop-dropped branch
      continue;
    }
    next_links_into(r, dst, candidates);
    bool branched = false;
    for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
      if (!topo_.link_usable(*it)) continue;
      const RouterId nb = topo_.other_end(*it, r);
      if (!topo_.router(nb).up) continue;
      Frame child;
      child.partial = f.partial;
      child.partial.links.push_back(*it);
      child.partial.hops.push_back(nb);
      stack.push_back(std::move(child));
      branched = true;
    }
    if (!branched) out.push_back(std::move(f.partial));  // dead end
  }
  return out;
}

void Network::fail_link(LinkId l) {
  topo_.set_link_up(l, false);
  const auto& link = topo_.link(l);
  if (!link.interdomain) {
    igp_.recompute_as(topo_.as_of_router(link.a));
    record_igp_down(l);
  }
  bgp_.on_link_state_change(l);
}

void Network::fail_router(RouterId r) {
  topo_.set_router_up(r, false);
  const AsId as = topo_.as_of_router(r);
  igp_.recompute_as(as);
  // The operator's IGP sees every intradomain link of the dead router go
  // down if the router is inside AS-X.
  for (LinkId l : topo_.links_of(r)) {
    if (!topo_.link(l).interdomain) record_igp_down(l);
  }
  bgp_.on_router_state_change(r);
}

void Network::reconverge() {
  obs::Span span("sim.reconverge");
  bgp_.run_to_convergence();
}

void Network::misconfigure_export(RouterId r, LinkId l, PrefixId p) {
  bgp_.add_export_filter(r, l, p);
}

void Network::set_operator_as(AsId as) {
  operator_as_ = as;
  bgp_.set_tapped_as(as);
}

void Network::start_recording() {
  recording_ = true;
  igp_events_.clear();
  bgp_.clear_messages();
}

void Network::record_igp_down(LinkId l) {
  if (!recording_ || !operator_as_.valid()) return;
  if (topo_.as_of_router(topo_.link(l).a) != operator_as_) return;
  igp_events_.push_back(l);
}

Network::Snapshot Network::snapshot() {
  Snapshot snap;
  snap.bgp = bgp_.snapshot();
  snap.link_up.reserve(topo_.num_links());
  for (const auto& l : topo_.links()) snap.link_up.push_back(l.up);
  snap.router_up.reserve(topo_.num_routers());
  for (const auto& r : topo_.routers()) snap.router_up.push_back(r.up);
  return snap;
}

bgp::BgpEngine::RestoreStats Network::restore(const Snapshot& snap) {
  obs::Span span("sim.restore");
  assert(snap.link_up.size() == topo_.num_links());
  assert(snap.router_up.size() == topo_.num_routers());
  // Only an AS whose routers or intradomain links flip needs a new SPF:
  // the IGP state is always in sync with the current flags.
  std::vector<bool> dirty(topo_.num_ases(), false);
  for (std::size_t i = 0; i < snap.link_up.size(); ++i) {
    const LinkId l{static_cast<std::uint32_t>(i)};
    const auto& link = topo_.link(l);
    if (link.up == snap.link_up[i]) continue;
    if (!link.interdomain) dirty[topo_.as_of_router(link.a).value()] = true;
    topo_.set_link_up(l, snap.link_up[i]);
  }
  for (std::size_t i = 0; i < snap.router_up.size(); ++i) {
    const RouterId r{static_cast<std::uint32_t>(i)};
    if (topo_.router(r).up == snap.router_up[i]) continue;
    dirty[topo_.as_of_router(r).value()] = true;
    topo_.set_router_up(r, snap.router_up[i]);
  }
  for (std::size_t a = 0; a < dirty.size(); ++a) {
    if (dirty[a]) igp_.recompute_as(AsId{static_cast<std::uint32_t>(a)});
  }
  const auto stats = bgp_.restore(snap.bgp);
  auto& ins = SimInstruments::get();
  ins.restore_entries.inc(stats.entries);
  if (stats.full_copy) ins.restore_full.inc();
  recording_ = false;
  igp_events_.clear();
  return stats;
}

}  // namespace netd::sim
