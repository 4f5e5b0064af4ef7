#include "bgp/engine.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <stdexcept>

namespace netd::bgp {

using topo::AsId;
using topo::LinkId;
using topo::PrefixId;
using topo::RouterId;

namespace {
constexpr std::uint64_t kEventBudget = 200'000'000;

std::uint64_t work_key(RouterId r, PrefixId p) {
  return (static_cast<std::uint64_t>(r.value()) << 32) | p.value();
}

// Snapshot generations are unique across every engine in the process, so
// a snapshot of another engine (each exp::Runner worker owns one) can
// never be mistaken for the one this engine's log describes.
std::atomic<std::uint64_t> next_generation{1};

/// Sets `to[k]` to `from[k]`, erasing it where `from` has no entry.
template <typename Map>
void copy_back(Map& to, const Map& from, typename Map::key_type k) {
  auto it = from.find(k);
  if (it != from.end()) {
    to.insert_or_assign(k, it->second);
  } else {
    to.erase(k);
  }
}
}  // namespace

BgpEngine::BgpEngine(const topo::Topology& topo, const igp::IgpState& igp)
    : topo_(topo), igp_(igp) {
  loc_rib_.resize(topo_.num_routers());
}

void BgpEngine::converge_initial() {
  for (const auto& r : topo_.routers()) {
    enqueue(r.id, topo_.prefix_of(r.as));
  }
  run_to_convergence();
}

void BgpEngine::enqueue(RouterId r, PrefixId p) {
  const auto k = work_key(r, p);
  if (in_queue_.insert(k).second) queue_.push_back(k);
}

void BgpEngine::enqueue_all_prefixes(RouterId r) {
  for (std::uint32_t p = 0; p < topo_.num_ases(); ++p) enqueue(r, PrefixId{p});
}

void BgpEngine::run_to_convergence() {
  std::uint64_t processed_this_call = 0;
  while (!queue_.empty()) {
    ++events_;
    if (++processed_this_call > kEventBudget) {
      throw std::runtime_error("BGP event budget exhausted (divergence?)");
    }
    const std::uint64_t k = queue_.front();
    queue_.pop_front();
    in_queue_.erase(k);
    process(RouterId{static_cast<std::uint32_t>(k >> 32)},
            PrefixId{static_cast<std::uint32_t>(k & 0xffffffffu)});
  }
}

std::optional<Route> BgpEngine::decide(RouterId r, PrefixId p) const {
  if (!topo_.router(r).up) return std::nullopt;
  const AsId my_as = topo_.as_of_router(r);

  std::optional<Route> best;
  int best_dist = 0;
  bool best_ebgp = false;
  auto consider = [&](const Route& cand, int dist, bool is_ebgp) {
    if (!best || better_route(cand, dist, is_ebgp, *best, best_dist,
                              best_ebgp)) {
      best = cand;
      best_dist = dist;
      best_ebgp = is_ebgp;
    }
  };

  // Locally originated prefix: every router of the AS originates it.
  if (topo_.prefix_of(my_as) == p) {
    consider(Route{p, {}, r, LinkId{}, kOriginPref}, 0, /*is_ebgp=*/true);
  }

  // eBGP candidates: one session per usable interdomain link.
  for (LinkId l : topo_.links_of(r)) {
    if (!topo_.link(l).interdomain || !topo_.link_usable(l)) continue;
    auto it = adj_in_.find(key(r, p, /*ebgp=*/true, l.value()));
    if (it == adj_in_.end()) continue;
    consider(it->second, 0, /*is_ebgp=*/true);
  }

  // iBGP candidates: full mesh within the AS; a route is usable only if
  // its egress border router is IGP-reachable and its egress link is up.
  for (RouterId q : topo_.as_of(my_as).routers) {
    if (q == r || !topo_.router(q).up) continue;
    auto it = adj_in_.find(key(r, p, /*ebgp=*/false, q.value()));
    if (it == adj_in_.end()) continue;
    const Route& cand = it->second;
    if (!cand.egress_link.valid() || !topo_.link_usable(cand.egress_link)) {
      continue;
    }
    const int dist = igp_.distance(r, cand.egress_router);
    if (dist == igp::IgpState::kUnreachable) continue;
    consider(cand, dist, /*is_ebgp=*/false);
  }
  return best;
}

void BgpEngine::process(RouterId r, PrefixId p) {
  const std::optional<Route> best = decide(r, p);

  // Write the loc-RIB only on change, so the restore log stays small.
  auto& rib = loc_rib_[r.value()];
  bool changed = false;
  if (best) {
    auto [it, inserted] = rib.try_emplace(p.value(), *best);
    changed = inserted || !(it->second == *best);
    if (!inserted && changed) it->second = *best;
  } else {
    changed = rib.erase(p.value()) != 0;
  }
  if (changed) log_change(loc_log_, work_key(r, p));

  if (!topo_.router(r).up) return;
  const AsId my_as = topo_.as_of_router(r);

  // iBGP: advertise only routes for which we are the egress (eBGP-learned).
  // Originated routes are never reflected — every router of the AS
  // originates the AS prefix itself.
  {
    std::optional<Route> adv;
    if (best && best->egress_router == r && !best->originated()) adv = *best;
    for (RouterId q : topo_.as_of(my_as).routers) {
      if (q == r || !topo_.router(q).up) continue;
      set_adj_in(q, p, /*ebgp=*/false, r.value(), adv,
                 /*record_message=*/false);
    }
  }

  // eBGP: policy-checked, AS-prepended advertisement per usable session.
  for (LinkId l : topo_.links_of(r)) {
    if (!topo_.link(l).interdomain || !topo_.link_usable(l)) continue;
    const RouterId peer = topo_.other_end(l, r);
    const AsId peer_as = topo_.as_of_router(peer);

    std::optional<Route> adv;
    if (best && export_allowed(topo_, r, l, *best, filters_)) {
      // Receiver-side loop check: drop instead of delivering a looped path.
      const bool loops =
          std::find(best->as_path.begin(), best->as_path.end(), peer_as) !=
              best->as_path.end() ||
          peer_as == my_as;
      if (!loops) {
        Route out;
        out.prefix = p;
        out.as_path.reserve(best->as_path.size() + 1);
        out.as_path.push_back(my_as);
        out.as_path.insert(out.as_path.end(), best->as_path.begin(),
                           best->as_path.end());
        out.egress_router = peer;
        out.egress_link = l;
        out.local_pref = pref_for(topo_.neighbor_relationship(l, peer));
        adv = std::move(out);
      }
    }
    set_adj_in(peer, p, /*ebgp=*/true, l.value(), adv,
               /*record_message=*/true);
  }
}

void BgpEngine::set_adj_in(RouterId at, PrefixId p, bool ebgp,
                           std::uint32_t sid, const std::optional<Route>& route,
                           bool record_message) {
  const std::uint64_t k = key(at, p, ebgp, sid);
  auto it = adj_in_.find(k);
  bool changed = false;
  if (route) {
    if (it == adj_in_.end()) {
      adj_in_.emplace(k, *route);
      changed = true;
    } else if (!(it->second == *route)) {
      it->second = *route;
      changed = true;
    }
  } else if (it != adj_in_.end()) {
    adj_in_.erase(it);
    changed = true;
  }
  if (!changed) return;

  log_change(adj_log_, k);
  enqueue(at, p);
  if (record_message && ebgp && tapped_as_.valid() &&
      topo_.as_of_router(at) == tapped_as_) {
    const LinkId l{sid};
    messages_.push_back(BgpMessage{at, topo_.other_end(l, at), l, p,
                                   /*withdraw=*/!route.has_value()});
  }
}

void BgpEngine::erase_session(RouterId at, bool ebgp, std::uint32_t sid) {
  for (std::uint32_t p = 0; p < topo_.num_ases(); ++p) {
    const std::uint64_t k = key(at, PrefixId{p}, ebgp, sid);
    if (adj_in_.erase(k) != 0) {
      log_change(adj_log_, k);
      enqueue(at, PrefixId{p});
    }
  }
}

void BgpEngine::on_link_state_change(LinkId l) {
  const auto& link = topo_.link(l);
  if (link.interdomain) {
    if (!topo_.link_usable(l)) {
      // eBGP session teardown: both sides lose every route of the session.
      erase_session(link.a, /*ebgp=*/true, l.value());
      erase_session(link.b, /*ebgp=*/true, l.value());
    } else {
      // Session (re-)establishment: both sides re-advertise everything.
      enqueue_all_prefixes(link.a);
      enqueue_all_prefixes(link.b);
    }
  } else {
    // Intradomain change: IGP distances and reachability shifted for the
    // whole AS — revisit every prefix at every router of the AS.
    const AsId as = topo_.as_of_router(link.a);
    for (RouterId r : topo_.as_of(as).routers) enqueue_all_prefixes(r);
  }
}

void BgpEngine::on_router_state_change(RouterId r) {
  const AsId as = topo_.as_of_router(r);
  if (!topo_.router(r).up) {
    // The router's own state is dead weight; drop it silently.
    for (const auto& [p, route] : loc_rib_[r.value()]) {
      log_change(loc_log_, work_key(r, PrefixId{p}));
    }
    loc_rib_[r.value()].clear();
    for (auto it = adj_in_.begin(); it != adj_in_.end();) {
      if (static_cast<std::uint32_t>(it->first >> 48) == r.value()) {
        log_change(adj_log_, it->first);
        it = adj_in_.erase(it);
      } else {
        ++it;
      }
    }
    // Peers lose their sessions with r.
    for (RouterId q : topo_.as_of(as).routers) {
      if (q == r) continue;
      erase_session(q, /*ebgp=*/false, r.value());
    }
    for (LinkId l : topo_.links_of(r)) {
      if (!topo_.link(l).interdomain) continue;
      erase_session(topo_.other_end(l, r), /*ebgp=*/true, l.value());
    }
  } else {
    enqueue_all_prefixes(r);
    for (RouterId q : topo_.as_of(as).routers) enqueue_all_prefixes(q);
    for (LinkId l : topo_.links_of(r)) {
      if (topo_.link(l).interdomain) {
        enqueue_all_prefixes(topo_.other_end(l, r));
      }
    }
  }
  // IGP shifted for the whole AS either way.
  for (RouterId q : topo_.as_of(as).routers) {
    if (topo_.router(q).up) enqueue_all_prefixes(q);
  }
}

void BgpEngine::add_export_filter(RouterId r, LinkId l, PrefixId p) {
  assert(topo_.link(l).interdomain);
  assert(topo_.link(l).a == r || topo_.link(l).b == r);
  filters_.add(r, l, p);
  enqueue(r, p);
}

std::optional<Route> BgpEngine::best(RouterId r, PrefixId p) const {
  const auto& rib = loc_rib_[r.value()];
  auto it = rib.find(p.value());
  if (it == rib.end()) return std::nullopt;
  return it->second;
}

void BgpEngine::log_change(std::vector<std::uint64_t>& log, std::uint64_t k) {
  if (!logging_) return;
  if (adj_log_.size() + loc_log_.size() < log_limit_) {
    log.push_back(k);
    return;
  }
  // Rolling back more keys than the snapshot holds would cost more than
  // copying it whole: stop logging, restore() takes the full copy.
  logging_ = false;
  adj_log_.clear();
  loc_log_.clear();
}

void BgpEngine::start_log(const Snapshot& snap) {
  logging_ = snap.generation != 0;
  log_generation_ = snap.generation;
  log_limit_ = snap.adj_in.size();
  for (const auto& rib : snap.loc_rib) log_limit_ += rib.size();
  adj_log_.clear();
  loc_log_.clear();
}

BgpEngine::Snapshot BgpEngine::snapshot() {
  assert(queue_.empty() && "snapshot must be taken at convergence");
  Snapshot snap{adj_in_, loc_rib_, next_generation.fetch_add(1)};
  start_log(snap);
  return snap;
}

BgpEngine::RestoreStats BgpEngine::restore(const Snapshot& snap) {
  RestoreStats stats;
  if (logging_ && snap.generation == log_generation_) {
    for (const std::uint64_t k : adj_log_) copy_back(adj_in_, snap.adj_in, k);
    for (const std::uint64_t k : loc_log_) {
      const auto r = static_cast<std::uint32_t>(k >> 32);
      copy_back(loc_rib_[r], snap.loc_rib[r],
                static_cast<std::uint32_t>(k & 0xffffffffu));
    }
    stats.entries = adj_log_.size() + loc_log_.size();
    adj_log_.clear();
    loc_log_.clear();
  } else {
    adj_in_ = snap.adj_in;
    loc_rib_ = snap.loc_rib;
    // The RIBs now equal `snap`, so the log restarts from it.
    start_log(snap);
    stats.entries = log_limit_;
    stats.full_copy = true;
  }
  queue_.clear();
  in_queue_.clear();
  filters_.clear();
  messages_.clear();
  return stats;
}

}  // namespace netd::bgp
