// Workload `campaign`: the paper's §4–§5 evaluation protocol on the
// simulated 165-AS topology with single-link failures.
//
// An op is one failure draw of the protocol: inject, reconverge, check
// whether a pair broke, restore. An episode is the draws of one trial up
// to the first that breaks a pair, plus its T+ probing, its diagnosis by
// Tomo, ND-edge and ND-bgpigp, and its scoring. Episodes come from
// exp::Runner::for_each_episode; the process CPU time between successive
// callback returns, minus what the benchmark's own checks take, is the
// episode's time, spread evenly over its draws (the runner's
// netd_runner_attempts_total counter says how many). Wall-clock figures
// are printed beside the metrics. Per-draw figures are steady across
// seeds; per-episode ones are not, since the number of draws an episode
// needs is geometric (about one draw in four breaks a pair).
//
// Traced: the same protocol — same RNG streams, so the same episodes —
// replayed through the public sim / igp / bgp / probe / core calls, each
// call timed. The replay first runs exp::Runner itself for a few episodes
// and checks that it draws the same failures in the same number of draws.
// After every restore the T− mesh is measured again and must equal the
// original (the SnapshotRestoreIsExact property). Layer coverage is a
// share of the replay's own op time; the Runner's per-draw time over the
// cross-check episodes is printed beside it, so runner-side work the
// replay leaves out shows as a gap between the two.
#include <cmath>
#include <optional>
#include <set>
#include <sstream>

#include "bench.h"
#include "core/algorithms.h"
#include "core/diagnosability.h"
#include "core/metrics.h"
#include "exp/runner.h"
#include "obs/registry.h"
#include "probe/sensors.h"
#include "sim/network.h"
#include "svc/protocol.h"
#include "topo/generator.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace netd;

/// Set-ups measured before and after the timed section, so the median
/// does not hang on the host's state in one moment.
constexpr std::size_t kSetupsBefore = 4, kSetupsAfter = 4;
constexpr std::size_t kWarmupEpisodes = 3;
/// Placements are drawn lazily; the run stops at its deadline long
/// before this many are used.
constexpr std::size_t kPlacements = 100000;
constexpr std::size_t kTrialsPerPlacement = 10;
/// Episodes of exp::Runner the traced replay is checked against.
constexpr std::size_t kCrossCheckEpisodes = 12;

exp::ScenarioConfig scenario(std::uint64_t seed) {
  exp::ScenarioConfig cfg;  // topo_params defaults: the paper's 165 ASes
  cfg.num_sensors = 10;
  cfg.placement = probe::PlacementKind::kRandomStub;
  cfg.num_placements = kPlacements;
  cfg.trials_per_placement = kTrialsPerPlacement;
  cfg.mode = exp::FailureMode::kLinks;
  cfg.num_link_failures = 1;
  cfg.frac_blocked = 0.0;
  cfg.operator_at_core = true;
  cfg.seed = seed;
  cfg.num_threads = 1;
  return cfg;
}

/// Thrown from the episode callback once the run's time is up.
struct Deadline {};

/// Per-draw op times: each episode's time spread evenly over its draws,
/// after the warm-up episodes.
struct DrawTimes {
  std::vector<double> op_ms;
  double draws = 0.0, total_ms = 0.0;
};

DrawTimes per_draw(const std::vector<double>& episode_ms,
                   const std::vector<double>& draws) {
  DrawTimes dt;
  for (std::size_t i = kWarmupEpisodes; i < episode_ms.size(); ++i) {
    dt.op_ms.insert(dt.op_ms.end(), static_cast<std::size_t>(draws[i]),
                    episode_ms[i] / draws[i]);
    dt.draws += draws[i];
    dt.total_ms += episode_ms[i];
  }
  return dt;
}

/// Everything one episode's diagnosis produced, per algorithm.
struct Diagnosed {
  const char* algo;
  core::AlgorithmOutput out;
  core::LinkMetrics lm;
};

/// Undirected keys of the links a T− path traverses, in the label space
/// the hypothesis uses.
std::set<std::string> path_keys(const probe::TracePath& p) {
  std::set<std::string> keys;
  for (std::size_t k = 0; k + 1 < p.hops.size(); ++k) {
    keys.insert(core::undirected_key(p.hops[k].label, p.hops[k + 1].label));
  }
  return keys;
}

/// Accumulates the recomputed accuracy of ND-edge and ND-bgpigp.
struct Accuracy {
  double edge_sens = 0.0, edge_spec = 0.0, bgp_spec = 0.0;
  std::size_t n = 0;
};

/// The per-episode checks. Returns nothing; throws CheckFailure.
void check_episode(const probe::Mesh& before, const probe::Mesh& after,
                   const std::set<std::string>& failed,
                   std::vector<Diagnosed>& dx, Accuracy& acc) {
  for (auto& d : dx) {
    const auto& h = d.out.result.links;
    const auto& probed = d.out.graph.probed_keys;
    // Tomo may legitimately blame nothing: it assumes T− paths are still
    // in place, so a reroute can exonerate the failed link (§2.4).
    check(!h.empty() || std::string(d.algo) == "Tomo", "hypothesis_nonempty",
          std::string(d.algo) + " returned an empty hypothesis");
    for (const auto& k : h) {
      check(probed.count(k) != 0, "hypothesis_within_probed",
            std::string(d.algo) + " blames unprobed link " + k);
    }
    // Sensitivity / specificity recomputed from the injected failure.
    std::size_t hit = 0, spec_num = 0, spec_den = 0;
    for (const auto& f : failed) hit += h.count(f);
    for (const auto& e : probed) {
      if (failed.count(e) != 0) continue;
      ++spec_den;
      if (h.count(e) == 0) ++spec_num;
    }
    const double sens = static_cast<double>(hit) / static_cast<double>(failed.size());
    const double spec =
        spec_den == 0 ? 1.0
                      : static_cast<double>(spec_num) / static_cast<double>(spec_den);
    check(std::abs(sens - d.lm.sensitivity) < 1e-12 &&
              std::abs(spec - d.lm.specificity) < 1e-12,
          "link_metrics_recomputed",
          std::string(d.algo) + ": core::link_metrics says sens/spec " +
              std::to_string(d.lm.sensitivity) + "/" +
              std::to_string(d.lm.specificity) + ", recomputed " +
              std::to_string(sens) + "/" + std::to_string(spec));
    if (std::string(d.algo) == "ND-edge") {
      acc.edge_sens += sens;
      acc.edge_spec += spec;
    } else if (std::string(d.algo) == "ND-bgpigp") {
      acc.bgp_spec += spec;
    }
  }
  ++acc.n;
  // Hitting-set property of the two ND variants: every pair that worked
  // at T− and fails at T+ crosses some hypothesis link on its T− path.
  for (std::size_t i = 0; i < before.paths.size(); ++i) {
    if (!before.paths[i].ok || after.paths[i].ok) continue;
    const auto keys = path_keys(before.paths[i]);
    for (auto& d : dx) {
      if (std::string(d.algo) == "Tomo") continue;
      bool hits = false;
      for (const auto& k : d.out.result.links) hits = hits || keys.count(k) != 0;
      check(hits, "hitting_set",
            std::string(d.algo) + " leaves broken pair " +
                std::to_string(before.paths[i].src) + "->" +
                std::to_string(before.paths[i].dst) + " unexplained");
    }
  }
}

void check_accuracy(const Accuracy& acc) {
  check(acc.n > 0, "episodes_run", "no diagnosable episode in the run");
  const double n = static_cast<double>(acc.n);
  const double es = acc.edge_sens / n, ep = acc.edge_spec / n,
               bp = acc.bgp_spec / n;
  check(es >= 0.9 && ep >= 0.9, "ndedge_accuracy",
        "ND-edge mean sensitivity " + std::to_string(es) + ", specificity " +
            std::to_string(ep) + " (need both >= 0.9)");
  check(bp >= ep, "bgpigp_specificity",
        "ND-bgpigp mean specificity " + std::to_string(bp) +
            " below ND-edge's " + std::to_string(ep));
}

/// Self-test fault: the injected link vanishes from ND-edge's hypothesis.
void maybe_inject(const Options& opt, const std::set<std::string>& failed,
                  std::vector<Diagnosed>& dx) {
  if (opt.inject != "drop-injected-link") return;
  for (auto& d : dx) {
    if (std::string(d.algo) != "ND-edge") continue;
    for (const auto& f : failed) d.out.result.links.erase(f);
  }
}

std::vector<Diagnosed> diagnose(const exp::EpisodeContext& ep) {
  std::vector<Diagnosed> dx;
  dx.push_back({"Tomo", core::run_tomo(ep.before, ep.after), {}});
  dx.push_back({"ND-edge", core::run_nd_edge(ep.before, ep.after), {}});
  dx.push_back({"ND-bgpigp", core::run_nd_bgpigp(ep.before, ep.after, ep.cp), {}});
  for (auto& d : dx) {
    d.lm = core::link_metrics(d.out.result.links, ep.failed_links,
                              d.out.graph.probed_keys);
    (void)core::as_metrics(d.out.result.ases, ep.failed_ases, ep.universe);
  }
  return dx;
}

/// What exp::Runner did, episode by episode.
struct RunnerLog {
  std::vector<double> episode_ms, episode_wall_ms, draws;
  std::vector<std::set<std::string>> failed_links;
  std::uint64_t attempted = 0;
};

/// Consumes the runner's episodes until `deadline` or `max_episodes`:
/// diagnoses and checks each one and logs its process CPU and wall time,
/// the benchmark's checks excluded, its draw count and its failed links.
RunnerLog drive(exp::Runner& runner, const Options& opt, Clock::time_point deadline,
                std::size_t max_episodes, Accuracy& acc) {
  RunnerLog log;
  const obs::Counter& draws_total = obs::Registry::global().counter(
      "netd_runner_attempts_total", "Failure-injection attempts");
  auto last = Clock::now();
  double last_cpu = cpu_ms();
  std::uint64_t draws_seen = draws_total.value();
  try {
    runner.for_each_episode([&](const exp::EpisodeContext& ep) {
      std::vector<Diagnosed> dx = diagnose(ep);
      const auto t_check = Clock::now();
      const double c_check = cpu_ms();
      const std::uint64_t k = draws_total.value() - draws_seen;
      draws_seen += k;
      check(k >= 1, "runner_draw_counter", "netd_runner_attempts_total did not move");
      log.attempted += k;
      maybe_inject(opt, ep.failed_links, dx);
      check_episode(ep.before, ep.after, ep.failed_links, dx, acc);
      log.episode_ms.push_back(c_check - last_cpu);
      log.episode_wall_ms.push_back(ms_between(last, t_check));
      log.draws.push_back(static_cast<double>(k));
      log.failed_links.push_back(ep.failed_links);
      last_cpu = cpu_ms();
      last = Clock::now();
      if (last >= deadline || log.draws.size() >= max_episodes) throw Deadline{};
    });
  } catch (const Deadline&) {
  }
  return log;
}

Report untraced(const Options& opt) {
  const exp::ScenarioConfig cfg = scenario(opt.seed);
  std::vector<double> setup_s, setup_wall_s;
  std::optional<exp::Runner> runner;
  const auto set_up = [&] {
    runner.reset();
    const auto t0 = Clock::now();
    const double c0 = cpu_ms();
    runner.emplace(cfg);
    setup_s.push_back((cpu_ms() - c0) / 1000.0);
    setup_wall_s.push_back(seconds_since(t0));
  };
  for (std::size_t i = 0; i < kSetupsBefore; ++i) set_up();

  Report rep;
  Accuracy acc;
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                            std::chrono::duration<double>(opt.seconds));
  const RunnerLog log = drive(*runner, opt, deadline, SIZE_MAX, acc);
  const auto& episode_ms = log.episode_ms;
  rep.attempted = log.attempted;
  const double rss_mib = peak_rss_mib();
  for (std::size_t i = 0; i < kSetupsAfter; ++i) set_up();
  check_accuracy(acc);
  check(episode_ms.size() > kWarmupEpisodes + 10, "enough_ops",
        "only " + std::to_string(episode_ms.size()) + " episodes in the run");
  const DrawTimes dt = per_draw(episode_ms, log.draws);
  const DrawTimes wall = per_draw(log.episode_wall_ms, log.draws);
  rep.add("setup_s", median(setup_s), "s");
  rep.add("ops_per_s", 1000.0 * dt.draws / dt.total_ms, "1/s");
  rep.add("op_ms_p50", median(dt.op_ms), "ms");
  rep.add("peak_rss_mib", rss_mib, "MiB");
  std::ostringstream note;
  note << "{\"wall\":{\"setup_s\":" << median(setup_wall_s) << ",\"ops_per_s\":"
       << 1000.0 * wall.draws / wall.total_ms << ",\"op_ms_p50\":" << median(wall.op_ms)
       << "}}";
  rep.notes.push_back(note.str());
  note.str("");
  note << "{\"samples\":{\"ops\":" << dt.op_ms.size() << ",\"episodes\":"
       << episode_ms.size() - kWarmupEpisodes << ",\"warmup_episodes\":" << kWarmupEpisodes
       << ",\"setups\":" << setup_s.size() << "},\"accuracy\":{\"nd_edge_sens\":"
       << acc.edge_sens / static_cast<double>(acc.n)
       << ",\"nd_edge_spec\":" << acc.edge_spec / static_cast<double>(acc.n)
       << ",\"nd_bgpigp_spec\":" << acc.bgp_spec / static_cast<double>(acc.n) << "}}";
  rep.notes.push_back(note.str());
  return rep;
}

/// Per-call timings of the traced replay.
struct Layers {
  std::vector<double> restore, fail_link, reconverge, trace_us, measure,
      build_graph, solve, score_us, other;
  std::vector<double> events, graph_edges;
  std::size_t attempts = 0;

  double total_ms() const {
    return sum(restore) + sum(fail_link) + sum(reconverge) + sum(trace_us) / 1000.0 +
           sum(measure) + sum(build_graph) + sum(solve) + sum(score_us) / 1000.0 +
           sum(other);
  }
};

Report traced(const Options& opt) {
  const exp::ScenarioConfig cfg = scenario(opt.seed);
  // The episodes the replay must reproduce, from exp::Runner itself.
  Accuracy runner_acc;
  RunnerLog ref = [&] {
    exp::Runner runner(cfg);
    return drive(runner, opt, Clock::time_point::max(), kCrossCheckEpisodes, runner_acc);
  }();
  check(ref.draws.size() == kCrossCheckEpisodes, "replay_matches_runner",
        "exp::Runner gave only " + std::to_string(ref.draws.size()) + " episodes");
  // Self-test fault: the Runner seems to have needed one draw more.
  if (opt.inject == "miscount-runner-draw") ref.draws.front() += 1.0;

  sim::Network net(topo::generate(cfg.topo_params));
  net.converge();
  const sim::Network::Snapshot base = net.snapshot();
  const auto& topo = net.topology();

  Report rep;
  Layers L;
  Accuracy acc;
  std::vector<double> episode_ms, draws;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(opt.seconds);
  double layer_ms_at_op_start = 0.0;
  std::size_t draws_seen = 0;
  std::vector<double> episode_layer_ms;
  util::Rng root(cfg.seed);
  double last = cpu_ms();
  bool done = false;

  // Restores the base state and proves it exact: the T− mesh measured
  // afterwards equals the one measured before any failure.
  const auto restore_and_verify = [&](const probe::Prober& prober,
                                      const probe::Mesh& before,
                                      topo::AsId op_as, double& excluded) {
    timed_ms(L.restore, [&] { net.restore(base); });
    net.set_operator_as(op_as);
    const double t0 = cpu_ms();
    const probe::Mesh again = prober.measure();
    check(svc::mesh_to_json(again).dump() == svc::mesh_to_json(before).dump(),
          "restore_remeasures_baseline",
          "T- mesh after Network::restore differs from the original");
    excluded += cpu_ms() - t0;
  };

  for (std::size_t pl = 0; pl < cfg.num_placements && !done; ++pl) {
    double excluded = 0.0;
    util::Rng rng(root.fork());
    const auto sensors = timed_ms(L.other, [&] {
      return probe::place_sensors(topo, cfg.placement, cfg.num_sensors, rng);
    });
    const topo::AsId op_as{0};
    net.set_operator_as(op_as);
    const probe::Prober ground(net, sensors);
    const probe::Mesh gmesh = timed_ms(L.measure, [&] { return ground.measure(); });
    const probe::Prober prober(net, sensors, {});
    const probe::Mesh before = timed_ms(L.measure, [&] { return prober.measure(); });
    const std::vector<topo::LinkId> pool = gmesh.probed_links();
    if (pool.empty()) continue;
    timed_ms(L.other, [&] {
      return core::diagnosability(core::build_diagnosis_graph(before, before, false));
    });

    for (std::size_t trial = 0; trial < cfg.trials_per_placement && !done; ++trial) {
      bool invoked = false;
      std::vector<topo::LinkId> failed;
      probe::Mesh after;
      for (std::size_t a = 0; a < cfg.max_attempts_per_trial && !invoked; ++a) {
        ++L.attempts;
        failed = rng.sample(pool, cfg.num_link_failures);
        net.start_recording();
        for (topo::LinkId l : failed) {
          timed_ms(L.fail_link, [&] { net.fail_link(l); });
        }
        const std::uint64_t ev0 = net.bgp().events_processed();
        timed_ms(L.reconverge, [&] { net.reconverge(); });
        L.events.push_back(static_cast<double>(net.bgp().events_processed() - ev0));
        for (const auto& p : before.paths) {
          if (!p.ok) continue;
          const double t0 = cpu_ms();
          const bool ok = net.trace_flow(sensors[p.src].attach,
                                         sensors[p.dst].attach, prober.flow())
                              .ok;
          L.trace_us.push_back((cpu_ms() - t0) * 1000.0);
          if (!ok) {
            invoked = true;
            break;
          }
        }
        if (invoked) {
          after = timed_ms(L.measure, [&] { return prober.measure(); });
        } else {
          restore_and_verify(prober, before, op_as, excluded);
        }
      }
      if (!invoked) continue;

      std::set<std::string> f_links;
      std::set<int> f_ases;
      std::vector<Diagnosed> dx;
      std::set<int> universe;
      timed_ms(L.other, [&] {
        for (topo::LinkId l : failed) {
          f_links.insert(exp::link_key(topo, l));
          f_ases.insert(static_cast<int>(topo.as_of_router(topo.link(l).a).value()));
          f_ases.insert(static_cast<int>(topo.as_of_router(topo.link(l).b).value()));
        }
        universe = gmesh.covered_ases(topo);
        for (int as : after.covered_ases(topo)) universe.insert(as);
        for (int as : f_ases) universe.insert(as);
      });
      const core::ControlPlaneObs cp =
          timed_ms(L.other, [&] { return exp::collect_control_plane(net); });
      const struct {
        const char* algo;
        bool logical;
        core::SolverOptions so;
        const core::ControlPlaneObs* cp;
      } variants[] = {{"Tomo", false, core::tomo_options(), nullptr},
                      {"ND-edge", true, core::nd_edge_options(), nullptr},
                      {"ND-bgpigp", true, core::nd_bgpigp_options(), &cp}};
      for (const auto& v : variants) {
        Diagnosed d{v.algo, {}, {}};
        d.out.graph = timed_ms(L.build_graph, [&] {
          return core::build_diagnosis_graph(before, after, v.logical);
        });
        L.graph_edges.push_back(static_cast<double>(d.out.graph.edges.size()));
        d.out.result = timed_ms(L.solve, [&] { return core::solve(d.out.graph, v.so, v.cp); });
        const double t0 = cpu_ms();
        d.lm = core::link_metrics(d.out.result.links, f_links, d.out.graph.probed_keys);
        (void)core::as_metrics(d.out.result.ases, f_ases, universe);
        L.score_us.push_back((cpu_ms() - t0) * 1000.0);
        dx.push_back(std::move(d));
      }
      const double t_check = cpu_ms();
      const std::size_t ep_index = episode_ms.size();
      if (ep_index < ref.failed_links.size()) {
        check(f_links == ref.failed_links[ep_index] &&
                  static_cast<double>(L.attempts - draws_seen) == ref.draws[ep_index],
              "replay_matches_runner",
              "episode " + std::to_string(ep_index) + ": the replay drew " +
                  std::to_string(L.attempts - draws_seen) +
                  " times, exp::Runner " +
                  std::to_string(static_cast<std::uint64_t>(ref.draws[ep_index])));
      }
      maybe_inject(opt, f_links, dx);
      check_episode(before, after, f_links, dx, acc);
      excluded += cpu_ms() - t_check;
      restore_and_verify(prober, before, op_as, excluded);

      const double now = cpu_ms();
      episode_ms.push_back(now - last - excluded);
      draws.push_back(static_cast<double>(L.attempts - draws_seen));
      rep.attempted += L.attempts - draws_seen;
      draws_seen = L.attempts;
      excluded = 0.0;
      last = now;
      const double layer_ms = L.total_ms();
      episode_layer_ms.push_back(layer_ms - layer_ms_at_op_start);
      layer_ms_at_op_start = layer_ms;
      done = Clock::now() >= deadline;
    }
  }
  check_accuracy(acc);
  check(episode_ms.size() > kWarmupEpisodes + 10, "enough_ops",
        "only " + std::to_string(episode_ms.size()) + " episodes in the run");

  const double ops = static_cast<double>(L.attempts);
  add_layer_metrics(rep, L.measure, L.build_graph, L.solve, L.graph_edges);

  // Layer shares of op time, over the episodes after warm-up.
  const DrawTimes dt = per_draw(episode_ms, draws);
  const DrawTimes runner_dt = per_draw(ref.episode_ms, ref.draws);
  const double steady_layers = sum(std::vector<double>(
      episode_layer_ms.begin() + kWarmupEpisodes, episode_layer_ms.end()));
  const double total = L.total_ms();
  std::ostringstream note;
  note << "{\"layers\":{\"traced_op_ms_p50\":" << median(dt.op_ms)
       << ",\"runner_op_ms_p50\":" << median(runner_dt.op_ms)
       << ",\"coverage\":" << steady_layers / dt.total_ms << ",\"share\":{"
       << "\"sim.restore\":" << sum(L.restore) / total
       << ",\"bgp.reconverge\":" << sum(L.reconverge) / total
       << ",\"igp.fail_link\":" << sum(L.fail_link) / total
       << ",\"sim.trace\":" << sum(L.trace_us) / 1000.0 / total
       << ",\"probe.measure\":" << sum(L.measure) / total
       << ",\"core.build_graph\":" << sum(L.build_graph) / total
       << ",\"core.solve\":" << sum(L.solve) / total
       << ",\"core.score\":" << sum(L.score_us) / 1000.0 / total
       << ",\"other\":" << sum(L.other) / total << "},\"calls\":{"
       << "\"sim.restore_ms\":" << median(L.restore)
       << ",\"igp.fail_link_ms\":" << median(L.fail_link)
       << ",\"bgp.reconverge_ms\":" << median(L.reconverge)
       << ",\"bgp.events_per_reconverge\":" << median(L.events)
       << ",\"sim.trace_us\":" << median(L.trace_us)
       << ",\"exp.draws_per_episode\":" << ops / static_cast<double>(episode_ms.size())
       << ",\"core.score_us\":" << median(L.score_us) << "}}}";
  rep.notes.push_back(note.str());
  check(steady_layers >= 0.9 * dt.total_ms, "layer_coverage",
        "timed layers cover only " + std::to_string(steady_layers / dt.total_ms) +
            " of traced op time");
  return rep;
}

}  // namespace

Report run_campaign(const Options& opt) {
  return opt.trace ? traced(opt) : untraced(opt);
}

}  // namespace perfbench
