// Workload `inet_diagnose`: ND-edge diagnosis at Internet scale, one
// diagnosis per op.
//
// bench_scale's 2000-AS instance — its topo::random_internet parameters
// and seed, its 73 random-stub sensors — and a probe::SyntheticProber T−
// mesh. The run's seed draws the failures. (Sensors drawn per seed made
// graph sizes, and so op times, differ by ~10 % between seeds.) Episodes of
// kFailures simultaneous probed-link failures are generated beforehand
// (a draw is repeated until at least one pair breaks) and diagnosed
// round-robin: core::build_diagnosis_graph (per-neighbor logical links),
// core::solve, core::to_json.
//
// Times are process CPU time (see bench.h). The traced pass splits the op
// into its calls, with the hitting-set instance built by a separate
// core::build_demands call that the solver then reuses; core.solve_ms is
// the two together, the cost of core::solve(dg, so). On each episode's
// first pass it also solves the untraced way, outside the timed calls, and
// the two diagnoses must be byte-identical. It also times every
// SyntheticProber::measure of the set-ups and the episode draws.
#include <algorithm>
#include <memory>
#include <set>
#include <sstream>

#include "bench.h"
#include "core/diagnosis_graph.h"
#include "core/json_export.h"
#include "core/algorithms.h"
#include "core/solver.h"
#include "probe/sensors.h"
#include "probe/synthetic.h"
#include "topo/random_internet.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace netd;

constexpr std::size_t kAses = 2000;
constexpr std::size_t kSensors = 16 + kAses / 35;  // bench_scale: 73
constexpr std::size_t kFailures = 8;
constexpr std::size_t kEpisodes = 24;
/// Set-ups measured before and after the timed section, so the median
/// does not hang on the host's state in one moment.
constexpr std::size_t kSetupsBefore = 8, kSetupsAfter = 7;
constexpr std::size_t kWarmupOps = 2;
constexpr std::size_t kMaxDraws = 1000;

topo::RandomInternetParams params() {
  topo::RandomInternetParams p;  // bench_scale's params_for(2000)
  p.num_tier1 = 5;
  p.num_tier2 = std::min<std::size_t>(400, 25 + kAses / 100);
  p.num_stubs = kAses - p.num_tier1 - p.num_tier2;
  p.tier1_routers = 10;
  p.tier2_routers = 4;
  p.seed = 42;  // one fixed Internet, like the campaign's paper topology
  return p;
}

struct Setup {
  topo::Topology topology;
  std::unique_ptr<probe::SyntheticProber> prober;
  probe::Mesh before;
};

/// `measure_ms`, when given, receives the time of each mesh measurement.
std::unique_ptr<Setup> set_up(std::vector<double>* measure_ms) {
  auto s = std::make_unique<Setup>();
  s->topology = topo::random_internet(params());
  util::Rng rng(7);  // bench_scale's sensor draw
  auto sensors = probe::place_sensors(s->topology, probe::PlacementKind::kRandomStub,
                                      kSensors, rng);
  s->prober = std::make_unique<probe::SyntheticProber>(s->topology, std::move(sensors));
  s->before = measure_ms ? timed_ms(*measure_ms, [&] { return s->prober->measure(); })
                         : s->prober->measure();
  return s;
}

std::vector<probe::Mesh> make_episodes(Setup& s, std::uint64_t seed,
                                       std::vector<double>* measure_ms) {
  util::Rng rng(mix_seed(seed, 12));
  const auto pool = s.before.probed_links();
  if (pool.size() < kFailures) throw std::runtime_error("too few probed links");
  std::vector<probe::Mesh> out;
  std::size_t draws = 0;
  while (out.size() < kEpisodes) {
    if (++draws > kMaxDraws) throw std::runtime_error("no failure draw breaks a pair");
    const auto failed = rng.sample(pool, kFailures);
    for (topo::LinkId l : failed) s.topology.set_link_up(l, false);
    probe::Mesh after = measure_ms ? timed_ms(*measure_ms, [&] { return s.prober->measure(); })
                                   : s.prober->measure();
    for (topo::LinkId l : failed) s.topology.set_link_up(l, true);
    for (std::size_t i = 0; i < after.paths.size(); ++i) {
      if (s.before.paths[i].ok && !after.paths[i].ok) {
        out.push_back(std::move(after));
        break;
      }
    }
  }
  return out;
}

/// Hitting-set property, hypothesis ⊆ probed links, nothing unexplained.
void check_diagnosis(const probe::Mesh& before, const probe::Mesh& after,
                     const core::DiagnosisGraph& dg, const core::Result& res) {
  check(res.unexplained_failure_sets == 0, "unexplained_failure_sets",
        std::to_string(res.unexplained_failure_sets) + " failure sets unexplained");
  check(!res.links.empty(), "hypothesis_nonempty", "empty hypothesis");
  for (const auto& k : res.links) {
    check(dg.probed_keys.count(k) != 0, "hypothesis_within_probed",
          "blames unprobed link " + k);
  }
  for (std::size_t i = 0; i < before.paths.size(); ++i) {
    const auto& p = before.paths[i];
    if (!p.ok || after.paths[i].ok) continue;
    bool hits = false;
    for (std::size_t k = 0; k + 1 < p.hops.size() && !hits; ++k) {
      hits = res.links.count(core::undirected_key(p.hops[k].label,
                                                  p.hops[k + 1].label)) != 0;
    }
    check(hits, "hitting_set",
          "broken pair " + std::to_string(p.src) + "->" + std::to_string(p.dst) +
              " crosses no hypothesis link");
  }
}

/// Self-test fault: every link of the first broken pair's T− path is
/// dropped from the hypothesis.
void maybe_inject(const Options& opt, const probe::Mesh& before,
                  const probe::Mesh& after, core::Result& res) {
  if (opt.inject != "drop-hypothesis-link") return;
  for (std::size_t i = 0; i < before.paths.size(); ++i) {
    const auto& p = before.paths[i];
    if (!p.ok || after.paths[i].ok) continue;
    for (std::size_t k = 0; k + 1 < p.hops.size(); ++k) {
      res.links.erase(core::undirected_key(p.hops[k].label, p.hops[k + 1].label));
    }
    return;
  }
}

}  // namespace

Report run_inet(const Options& opt) {
  std::vector<double> setup_s, measure_ms;
  std::vector<double>* measure_sink = opt.trace ? &measure_ms : nullptr;
  std::unique_ptr<Setup> s;
  const auto measure_setup = [&] {
    s.reset();
    const double t0 = cpu_ms();
    s = set_up(measure_sink);
    setup_s.push_back((cpu_ms() - t0) / 1000.0);
  };
  for (std::size_t i = 0; i < kSetupsBefore; ++i) measure_setup();
  const std::vector<probe::Mesh> episodes = make_episodes(*s, opt.seed, measure_sink);
  const core::SolverOptions so = core::nd_edge_options();

  Report rep;
  std::vector<std::string> first_json(kEpisodes);
  std::vector<double> op_ms, graph_ms, demands_ms, kernel_ms, json_ms, edges, fsets;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opt.seconds));
  // Whole passes over the episode pool, so every run ends on the same op
  // mix.
  for (std::size_t i = 0; i % kEpisodes != 0 || Clock::now() < deadline; ++i) {
    const std::size_t e = i % kEpisodes;
    const probe::Mesh& after = episodes[e];
    ++rep.attempted;
    core::DiagnosisGraph dg;
    core::Result res;
    std::string doc;
    const double t0 = cpu_ms();
    if (!opt.trace) {
      dg = core::build_diagnosis_graph(s->before, after, core::LogicalMode::kPerNeighbor);
      res = core::solve(dg, so);
      doc = core::to_json(dg, res);
    } else {
      dg = timed_ms(graph_ms, [&] {
        return core::build_diagnosis_graph(s->before, after, core::LogicalMode::kPerNeighbor);
      });
      const core::Demands d = timed_ms(demands_ms, [&] { return core::build_demands(dg, so); });
      res = timed_ms(kernel_ms, [&] { return core::solve(dg, so, d); });
      doc = timed_ms(json_ms, [&] { return core::to_json(dg, res); });
      edges.push_back(static_cast<double>(dg.edges.size()));
      fsets.push_back(static_cast<double>(d.failure_sets.size()));
    }
    op_ms.push_back(cpu_ms() - t0);
    if (i == 0) maybe_inject(opt, s->before, after, res);
    if (first_json[e].empty()) {
      check_diagnosis(s->before, after, dg, res);
      if (opt.trace) {
        check(core::to_json(dg, core::solve(dg, so)) == doc, "traced_matches_untraced",
              "episode " + std::to_string(e) +
                  ": solve with prebuilt demands differs from solve(dg, so)");
      }
      first_json[e] = doc;
    } else {
      check(doc == first_json[e], "diagnosis_deterministic",
            "episode " + std::to_string(e) + " diagnosed differently on a later pass");
    }
  }
  for (std::size_t i = 0; i < kSetupsAfter; ++i) measure_setup();
  check(op_ms.size() > kWarmupOps + 10, "enough_ops",
        "only " + std::to_string(op_ms.size()) + " ops in the run");
  const std::vector<double> steady(op_ms.begin() + kWarmupOps, op_ms.end());

  std::ostringstream note;
  note << "{\"samples\":{\"ops\":" << steady.size() << ",\"episodes\":" << kEpisodes
       << ",\"setups\":" << setup_s.size() << ",\"pairs\":" << s->before.paths.size()
       << ",\"links\":" << s->topology.num_links() << "}";
  if (opt.trace) {
    const double layers = sum(graph_ms) + sum(demands_ms) + sum(kernel_ms) + sum(json_ms);
    note << ",\"layers\":{\"traced_op_ms_p50\":" << median(steady)
         << ",\"coverage\":" << layers / sum(op_ms) << ",\"share\":{"
         << "\"core.build_graph\":" << sum(graph_ms) / layers
         << ",\"core.build_demands\":" << sum(demands_ms) / layers
         << ",\"core.solve_kernel\":" << sum(kernel_ms) / layers
         << ",\"core.to_json\":" << sum(json_ms) / layers << "},\"calls\":{"
         << "\"core.build_demands_ms\":" << median(demands_ms)
         << ",\"core.solve_kernel_ms\":" << median(kernel_ms)
         << ",\"core.to_json_ms\":" << median(json_ms)
         << ",\"core.failure_sets\":" << median(fsets) << "}}";
    check(layers >= 0.9 * sum(op_ms), "layer_coverage",
          "timed layers cover only " + std::to_string(layers / sum(op_ms)) +
              " of traced op time");
  }
  note << "}";
  rep.notes.push_back(note.str());

  if (!opt.trace) {
    rep.add("setup_s", median(setup_s), "s");
    rep.add("ops_per_s", 1000.0 * static_cast<double>(steady.size()) / sum(steady), "1/s");
    rep.add("op_ms_p50", median(steady), "ms");
    rep.add("peak_rss_mib", peak_rss_mib(), "MiB");
  } else {
    std::vector<double> solve_ms(demands_ms.size());
    for (std::size_t i = 0; i < solve_ms.size(); ++i) solve_ms[i] = demands_ms[i] + kernel_ms[i];
    add_layer_metrics(rep, measure_ms, graph_ms, solve_ms, edges);
  }
  return rep;
}

}  // namespace perfbench
