// Event-driven per-router BGP engine (the C-BGP analogue).
//
// Every router keeps an adj-RIB-in per session (one eBGP session per
// interdomain link, iBGP full mesh inside each AS) and a loc-RIB. A FIFO
// work queue of dirty (router, prefix) pairs drives the decision process
// and (re-)propagation until a fixpoint: processing a pair recomputes the
// best route and recomputes the exact advertisement owed to every session;
// a neighbor is enqueued only when its adj-RIB-in actually changes, so the
// loop terminates (Gao–Rexford policies admit a stable solution).
//
// A "message tap" records every eBGP update/withdrawal *received* by the
// routers of one chosen AS (AS-X in the paper); ND-bgpigp consumes the
// withdrawals.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bgp/policy.h"
#include "bgp/route.h"
#include "igp/igp.h"
#include "topo/topology.h"

namespace netd::bgp {

/// One eBGP message delivered to a router of the tapped AS.
struct BgpMessage {
  topo::RouterId at;       ///< receiving router (in the tapped AS)
  topo::RouterId from;     ///< external neighbor that sent it
  topo::LinkId link;       ///< interdomain link it arrived on
  topo::PrefixId prefix;
  bool withdraw = false;   ///< true: withdrawal; false: (re-)announcement
};

class BgpEngine {
 public:
  /// `topo` and `igp` must outlive the engine. The IGP state must be kept
  /// in sync with the topology by the caller (see sim::Network).
  BgpEngine(const topo::Topology& topo, const igp::IgpState& igp);

  /// Originates every AS's prefix at each of its routers and runs to
  /// convergence.
  void converge_initial();

  /// Drains the work queue. Throws std::runtime_error if the event budget
  /// is exhausted (policy misconfiguration outside the supported model).
  void run_to_convergence();

  /// Notify that `l`'s usability changed (after topology + IGP updates).
  void on_link_state_change(topo::LinkId l);
  /// Notify that router `r` went down/up (after topology + IGP updates).
  void on_router_state_change(topo::RouterId r);

  /// Installs a misconfigured outbound filter and schedules the implied
  /// withdrawals. Call run_to_convergence() afterwards.
  void add_export_filter(topo::RouterId r, topo::LinkId l, topo::PrefixId p);

  /// Best route of `r` toward `p`, if any.
  [[nodiscard]] std::optional<Route> best(topo::RouterId r,
                                          topo::PrefixId p) const;

  // --- message tap ---------------------------------------------------------
  void set_tapped_as(topo::AsId as) { tapped_as_ = as; }
  void clear_messages() { messages_.clear(); }
  [[nodiscard]] const std::vector<BgpMessage>& messages() const {
    return messages_;
  }

  // --- snapshot / restore ---------------------------------------------------
  using AdjRibIn = std::unordered_map<std::uint64_t, Route>;
  using LocRib = std::vector<std::unordered_map<std::uint32_t, Route>>;

  /// Full copy of the RIBs. Treat as immutable: `generation` names this
  /// exact content, process-wide unique (0 = never taken).
  struct Snapshot {
    AdjRibIn adj_in;
    LocRib loc_rib;
    std::uint64_t generation = 0;
  };
  /// Must be taken at convergence. Starts the change log that lets
  /// restore() of this snapshot roll back only the entries changed since.
  [[nodiscard]] Snapshot snapshot();

  /// What one restore() did: RIB entries written back or erased, and
  /// whether it fell back to copying the whole snapshot.
  struct RestoreStats {
    std::size_t entries = 0;
    bool full_copy = false;
  };
  /// Restores RIBs, clears the queue, the filters and the message tap.
  /// The caller must have restored topology + IGP state first. Rolls back
  /// only the logged keys when `snap` is the engine's latest snapshot and
  /// the log stayed within the snapshot's size; copies it whole otherwise.
  RestoreStats restore(const Snapshot& snap);

  /// Read-only views of the RIBs, e.g. to check a restore against `snap`.
  [[nodiscard]] const AdjRibIn& adj_rib_in() const { return adj_in_; }
  [[nodiscard]] const LocRib& loc_rib() const { return loc_rib_; }

  /// Total (router, prefix) events processed; exposed for benchmarks.
  [[nodiscard]] std::uint64_t events_processed() const { return events_; }

 private:
  // Session key layout: router(16) | prefix(16) | kind(1) | session id(31).
  static std::uint64_t key(topo::RouterId r, topo::PrefixId p, bool ebgp,
                           std::uint32_t sid) {
    return (static_cast<std::uint64_t>(r.value()) << 48) |
           (static_cast<std::uint64_t>(p.value()) << 32) |
           (static_cast<std::uint64_t>(ebgp ? 1 : 0) << 31) | sid;
  }

  void enqueue(topo::RouterId r, topo::PrefixId p);
  void enqueue_all_prefixes(topo::RouterId r);
  void process(topo::RouterId r, topo::PrefixId p);
  [[nodiscard]] std::optional<Route> decide(topo::RouterId r,
                                            topo::PrefixId p) const;
  /// Updates a neighbor's adj-RIB-in entry; enqueues it and taps the
  /// message on change. `route == nullopt` means withdraw.
  void set_adj_in(topo::RouterId at, topo::PrefixId p, bool ebgp,
                  std::uint32_t sid, const std::optional<Route>& route,
                  bool record_message);
  /// Silent session teardown (no message tap — session death is not a
  /// received withdrawal).
  void erase_session(topo::RouterId at, bool ebgp, std::uint32_t sid);

  /// Appends `k` to `log` (adj_log_ or loc_log_) while logging; keys
  /// only, duplicates allowed.
  void log_change(std::vector<std::uint64_t>& log, std::uint64_t k);
  /// Restarts the log from `snap`, which the RIBs must equal.
  void start_log(const Snapshot& snap);

  const topo::Topology& topo_;
  const igp::IgpState& igp_;

  AdjRibIn adj_in_;
  LocRib loc_rib_;

  // Off until the first snapshot; off again once the log outgrows the
  // snapshot (restore then copies the snapshot whole).
  bool logging_ = false;
  std::uint64_t log_generation_ = 0;
  std::size_t log_limit_ = 0;
  std::vector<std::uint64_t> adj_log_;  // adj-RIB-in keys
  std::vector<std::uint64_t> loc_log_;  // packed (router << 32 | prefix)

  ExportFilters filters_;

  std::deque<std::uint64_t> queue_;  // packed (router << 32 | prefix)
  std::unordered_set<std::uint64_t> in_queue_;

  topo::AsId tapped_as_;
  std::vector<BgpMessage> messages_;

  std::uint64_t events_ = 0;
};

}  // namespace netd::bgp
