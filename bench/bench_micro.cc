// google-benchmark micro-benchmarks: raw algorithm cost on the paper-scale
// topology (BGP convergence, traceroute mesh, graph build, each diagnosis
// algorithm), plus the graph build on bench_scale's 2000-AS Internet.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "core/algorithms.h"
#include "core/diagnosability.h"
#include "exp/runner.h"
#include "lg/looking_glass.h"
#include "probe/prober.h"
#include "probe/synthetic.h"
#include "sim/network.h"
#include "topo/generator.h"
#include "topo/random_internet.h"
#include "util/rng.h"

using namespace netd;

namespace {

/// Shared fixture state: one converged paper-scale network with a failure
/// episode baked in.
struct Episode {
  sim::Network net;
  std::vector<probe::Sensor> sensors;
  probe::Mesh before, after;
  core::ControlPlaneObs cp;

  explicit Episode(std::size_t num_sensors)
      : net(topo::generate(topo::GeneratorParams{})) {
    net.converge();
    net.set_operator_as(topo::AsId{0});
    util::Rng rng(77);
    sensors = probe::place_sensors(
        net.topology(), probe::PlacementKind::kRandomStub, num_sensors, rng);
    probe::Prober prober(net, sensors);
    before = prober.measure();
    net.start_recording();
    for (auto l : rng.sample(before.probed_links(), 2)) net.fail_link(l);
    net.reconverge();
    after = prober.measure();
    cp = exp::collect_control_plane(net);
  }
};

Episode& episode10() {
  static Episode e(10);
  return e;
}

void BM_TopologyGenerate(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo::generate(topo::GeneratorParams{}));
  }
}
BENCHMARK(BM_TopologyGenerate);

void BM_InitialConvergence(benchmark::State& state) {
  const auto topo = topo::generate(topo::GeneratorParams{});
  for (auto _ : state) {
    sim::Network net(topo);
    net.converge();
    benchmark::DoNotOptimize(net.bgp().events_processed());
  }
}
BENCHMARK(BM_InitialConvergence);

/// Fail one link and reconverge; the restore back to the snapshot runs
/// untimed (BM_SnapshotRestore times it).
void BM_FailureReconvergence(benchmark::State& state) {
  auto& e = episode10();
  const auto snap = e.net.snapshot();
  util::Rng rng(5);
  const auto pool = e.before.probed_links();
  for (auto _ : state) {
    e.net.fail_link(rng.pick(pool));
    e.net.reconverge();
    state.PauseTiming();
    e.net.restore(snap);
    state.ResumeTiming();
  }
}
BENCHMARK(BM_FailureReconvergence);

/// Restore alone: one link failed and reconverged outside the timed region.
void BM_SnapshotRestore(benchmark::State& state) {
  auto& e = episode10();
  const auto snap = e.net.snapshot();
  util::Rng rng(5);
  const auto pool = e.before.probed_links();
  for (auto _ : state) {
    state.PauseTiming();
    e.net.fail_link(rng.pick(pool));
    e.net.reconverge();
    state.ResumeTiming();
    e.net.restore(snap);
  }
}
BENCHMARK(BM_SnapshotRestore);

void BM_FullMeshTraceroute(benchmark::State& state) {
  auto& e = episode10();
  probe::Prober prober(e.net, e.sensors);
  for (auto _ : state) benchmark::DoNotOptimize(prober.measure());
}
BENCHMARK(BM_FullMeshTraceroute);

void BM_BuildDiagnosisGraph(benchmark::State& state) {
  auto& e = episode10();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::build_diagnosis_graph(e.before, e.after, state.range(0) != 0));
  }
}
BENCHMARK(BM_BuildDiagnosisGraph)->Arg(0)->Arg(1);

/// bench_scale's 2000-AS instance (its random_internet parameters and
/// sensor draw: 73 random stubs) measured by the synthetic prober, with
/// 8 random probed links down at T+ — the shape of one Internet-scale
/// diagnosis.
struct InternetEpisode {
  topo::Topology topo;
  probe::Mesh before, after;

  InternetEpisode() {
    topo::RandomInternetParams p;  // bench_scale's params_for(2000)
    p.num_tier1 = 5;
    p.num_tier2 = 45;
    p.num_stubs = 2000 - p.num_tier1 - p.num_tier2;
    p.tier1_routers = 10;
    p.tier2_routers = 4;
    p.seed = 42;
    topo = topo::random_internet(p);
    util::Rng rng(7);
    probe::SyntheticProber prober(
        topo, probe::place_sensors(topo, probe::PlacementKind::kRandomStub,
                                   16 + 2000 / 35, rng));
    before = prober.measure();
    for (auto l : rng.sample(before.probed_links(), 8)) {
      topo.set_link_up(l, false);
    }
    after = prober.measure();
  }
};

/// Argument: core::LogicalMode (0 none, 1 per-neighbor, 2 per-prefix).
void BM_BuildDiagnosisGraphInternet(benchmark::State& state) {
  static const InternetEpisode e;
  const auto mode = static_cast<core::LogicalMode>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::build_diagnosis_graph(e.before, e.after, mode));
  }
}
BENCHMARK(BM_BuildDiagnosisGraphInternet)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

void BM_Tomo(benchmark::State& state) {
  auto& e = episode10();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_tomo(e.before, e.after));
  }
}
BENCHMARK(BM_Tomo);

void BM_NdEdge(benchmark::State& state) {
  auto& e = episode10();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_nd_edge(e.before, e.after));
  }
}
BENCHMARK(BM_NdEdge);

void BM_NdBgpIgp(benchmark::State& state) {
  auto& e = episode10();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_nd_bgpigp(e.before, e.after, e.cp));
  }
}
BENCHMARK(BM_NdBgpIgp);

void BM_Diagnosability(benchmark::State& state) {
  auto& e = episode10();
  const auto dg = core::build_diagnosis_graph(e.before, e.before, false);
  for (auto _ : state) benchmark::DoNotOptimize(core::diagnosability(dg));
}
BENCHMARK(BM_Diagnosability);

void BM_LgTableBuild(benchmark::State& state) {
  auto& e = episode10();
  for (auto _ : state) benchmark::DoNotOptimize(lg::LgTable(e.net));
}
BENCHMARK(BM_LgTableBuild);

void BM_SolverScaling(benchmark::State& state) {
  // Solver cost as the sensor mesh grows.
  static std::map<int, std::unique_ptr<Episode>> cache;
  const int n = static_cast<int>(state.range(0));
  if (!cache.count(n)) cache[n] = std::make_unique<Episode>(n);
  auto& e = *cache[n];
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_nd_edge(e.before, e.after));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_SolverScaling)->Arg(5)->Arg(10)->Arg(20)->Arg(40)->Complexity();

}  // namespace
