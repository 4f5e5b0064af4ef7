// Shared plumbing of the benchmark program: options, timing, sample
// statistics, result reporting and the correctness-check failure path.
//
// Every workload fills a Report. An untraced run reports end-to-end
// metrics; a traced run times calls into the libraries from outside and
// reports per-layer metrics. Every workload reports the same metric names:
// the per-layer ones are the layers all three call into (probe, core), and
// the layers only one workload touches (sim, igp, bgp, svc) are printed in
// its `layers` note.
//
// In-process work (campaign and inet_diagnose, every set-up but
// fleet_ingest's, the fleet layer timings) is timed in the process's CPU
// time, not wall time: on a shared VM the wall clock runs on while the
// vCPU is taken away. With four busy threads, a fixed loop read 314–657 ms
// of wall time and 311–339 ms of CPU time. Process CPU time counts every
// thread, so work moved to a helper thread still shows; time spent blocked
// (lock waits, sleeps, I/O) does not, which is why the workloads print
// their wall-clock figures in a note beside the metrics.
//
// A failed check throws CheckFailure, which main() turns into a non-zero
// exit that names the check and prints no result line.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test fault: perturbs one observed output before the checks see
  /// it, so a run must fail and name the check that caught it. Empty in
  /// normal runs.
  std::string inject;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Extra human-readable lines (layer coverage, sample counts); printed
  /// before the result line, never part of it.
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// A correctness check that did not hold; what() starts with the check's
/// stable name, which the self-tests look for.
struct CheckFailure : std::runtime_error {
  CheckFailure(const std::string& check, const std::string& detail)
      : std::runtime_error(check + ": " + detail) {}
};

inline void check(bool ok, const char* name, const std::string& detail) {
  if (!ok) throw CheckFailure(name, detail);
}

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// CPU time of the whole process, all threads, milliseconds.
inline double cpu_ms() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) * 1e3 + static_cast<double>(t.tv_nsec) / 1e6;
}

/// Runs `f` and appends the process CPU time it took, in milliseconds, to
/// `sink`; returns f's result.
template <typename F>
auto timed_ms(std::vector<double>& sink, F&& f) {
  const double t0 = cpu_ms();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    sink.push_back(cpu_ms() - t0);
  } else {
    auto out = f();
    sink.push_back(cpu_ms() - t0);
    return out;
  }
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

inline double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// Peak resident set of this process, MiB (ru_maxrss is KiB on Linux).
inline double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Independent stream seed for (run seed, purpose, index).
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t purpose,
                              std::uint64_t index = 0) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + purpose * 0xbf58476d1ce4e5b9ULL +
                    index * 0x94d049bb133111ebULL + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The per-layer metrics of every traced run: the layers that all three
/// workloads call into, so that every run reports the same names. Each
/// workload's other layers go into its `layers` note.
inline void add_layer_metrics(Report& rep, const std::vector<double>& measure_ms,
                              const std::vector<double>& build_graph_ms,
                              const std::vector<double>& solve_ms,
                              const std::vector<double>& graph_edges) {
  check(!measure_ms.empty() && !build_graph_ms.empty() && !solve_ms.empty() &&
            !graph_edges.empty(),
        "layer_samples", "a shared layer was never called in the traced pass");
  rep.add("probe.measure_ms", median(measure_ms), "ms");
  rep.add("core.build_graph_ms", median(build_graph_ms), "ms");
  rep.add("core.solve_ms", median(solve_ms), "ms");
  rep.add("core.graph_edges", median(graph_edges), "count");
}

Report run_campaign(const Options& opt);
Report run_fleet(const Options& opt);
Report run_inet(const Options& opt);

}  // namespace perfbench
