// The network simulator: converged routing state + data plane + failure
// injection + the control-plane observations available to the operator
// AS-X (IGP link-down events and received BGP withdrawals).
#pragma once

#include <optional>
#include <vector>

#include "bgp/engine.h"
#include "igp/igp.h"
#include "topo/topology.h"

namespace netd::sim {

/// Result of one traceroute-like measurement between two routers.
/// `hops` always starts at `src`; on success it ends at the destination.
/// On failure the recorded hops are the routers reached before the packet
/// was dropped (blackhole, dead link, or forwarding loop).
struct TraceResult {
  bool ok = false;
  std::vector<topo::RouterId> hops;
  std::vector<topo::LinkId> links;  ///< links traversed; hops.size()-1 entries
};

class Network {
 public:
  explicit Network(topo::Topology topology);

  /// Initial convergence; must be called once before any measurement.
  void converge();

  [[nodiscard]] const topo::Topology& topology() const { return topo_; }
  [[nodiscard]] const igp::IgpState& igp() const { return igp_; }
  [[nodiscard]] const bgp::BgpEngine& bgp() const { return bgp_; }

  // --- data plane ----------------------------------------------------------

  /// Hop-by-hop forwarding walk from `src` to `dst` over the converged
  /// state (the simulator's traceroute, loop- and blackhole-detecting).
  /// Equivalent to trace_flow(src, dst, 0).
  [[nodiscard]] TraceResult trace(topo::RouterId src, topo::RouterId dst) const;

  /// Forwarding walk for one flow: where the IGP offers several
  /// equal-cost next hops (ECMP), each router hashes (flow, router) to
  /// pick one — the load-balancing behavior a classic traceroute stumbles
  /// over and Paris traceroute pins down (paper §2.2, footnote 2).
  [[nodiscard]] TraceResult trace_flow(topo::RouterId src, topo::RouterId dst,
                                       std::uint64_t flow) const;

  /// All distinct forwarding paths from `src` to `dst` under ECMP — the
  /// Paris-traceroute view. Exhaustive DFS over equal-cost branches,
  /// truncated at `max_paths`.
  [[nodiscard]] std::vector<TraceResult> enumerate_paths(
      topo::RouterId src, topo::RouterId dst,
      std::size_t max_paths = 32) const;

  // --- failure injection ----------------------------------------------------
  // Inject any combination, then call reconverge() once.

  void fail_link(topo::LinkId l);
  void fail_router(topo::RouterId r);
  /// BGP policy misconfiguration: router `r` stops exporting prefix `p`
  /// over interdomain link `l` (paper §3.1 / §4 "Failure scenarios").
  void misconfigure_export(topo::RouterId r, topo::LinkId l, topo::PrefixId p);

  void reconverge();

  // --- operator (AS-X) observations ------------------------------------------

  void set_operator_as(topo::AsId as);
  /// Clears observation buffers; subsequent failures/messages are recorded.
  void start_recording();
  [[nodiscard]] const std::vector<bgp::BgpMessage>& bgp_messages() const {
    return bgp_.messages();
  }
  /// Intradomain links of AS-X observed down via the IGP feed.
  [[nodiscard]] const std::vector<topo::LinkId>& igp_link_down_events() const {
    return igp_events_;
  }

  // --- snapshot / restore -----------------------------------------------------

  struct Snapshot {
    bgp::BgpEngine::Snapshot bgp;
    std::vector<bool> link_up;
    std::vector<bool> router_up;
  };
  /// Must be taken at convergence; restoring the latest snapshot costs
  /// what the failures since touched (see BgpEngine::restore).
  [[nodiscard]] Snapshot snapshot();
  /// Rolls links, routers, IGP (only the ASes whose flags differ) and
  /// BGP back to `snap`, and stops recording.
  bgp::BgpEngine::RestoreStats restore(const Snapshot& snap);

 private:
  void record_igp_down(topo::LinkId l);
  /// Usable next links from `r` toward `dst` (ECMP set intra-AS, the BGP
  /// egress interdomain); empty on blackhole. Replaces `out`'s contents,
  /// reusing its capacity — the forwarding walk calls this once per hop
  /// for every probed pair, so it must not allocate.
  void next_links_into(topo::RouterId r, topo::RouterId dst,
                       std::vector<topo::LinkId>& out) const;

  topo::Topology topo_;
  igp::IgpState igp_;
  bgp::BgpEngine bgp_;
  topo::AsId operator_as_;
  bool recording_ = false;
  std::vector<topo::LinkId> igp_events_;
};

}  // namespace netd::sim
