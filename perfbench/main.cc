// Benchmark program: runs one workload for a fixed time from a seed and
// prints its provenance, then one JSON result line.
//
//   netd_perfbench --workload campaign|fleet_ingest|inet_diagnose
//                  --seed N --seconds S --trace 0|1
//                  [--commit SHA] [--inject FAULT]
//
// The process works in its current directory (the socket, state dir and
// journals of fleet_ingest go there); perfbench/run.py gives every run a
// fresh private one. Exit status: 0 with a result line, 1 when a
// correctness check failed (the check is named on stderr), 2 on bad
// arguments.
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "core/json_export.h"

namespace {

using perfbench::Options;
using perfbench::Report;

int usage(const std::string& why) {
  std::cerr << "netd_perfbench: " << why
            << "\nusage: netd_perfbench --workload W --seed N --seconds S "
               "--trace 0|1 [--commit SHA] [--inject FAULT]\n";
  return 2;
}

/// JSON number with every digit the double carries.
std::string num(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string commit = "unknown";
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + a);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') return usage("bad --seed " + v);
      have_seed = true;
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(opt.seconds > 0.0)) {
        return usage("bad --seconds " + v);
      }
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return usage("bad --trace " + v);
      opt.trace = v == "1";
    } else if (a == "--commit") {
      commit = v;
    } else if (a == "--inject") {
      opt.inject = v;
    } else {
      return usage("unknown flag " + a);
    }
  }
  if (!have_workload || !have_seed) return usage("--workload and --seed are required");

  Report (*run)(const Options&) = nullptr;
  if (opt.workload == "campaign") run = perfbench::run_campaign;
  if (opt.workload == "fleet_ingest") run = perfbench::run_fleet;
  if (opt.workload == "inet_diagnose") run = perfbench::run_inet;
  if (run == nullptr) return usage("unknown workload " + opt.workload);

  std::cout << "{\"provenance\":{\"commit\":\""
            << netd::core::json_escape(commit) << "\",\"compiler\":\""
            << NETD_BENCH_COMPILER << "\",\"build_type\":\""
            << NETD_BENCH_BUILD_TYPE << "\",\"NETD_OBS\":\"" << NETD_BENCH_OBS
            << "\",\"nproc\":" << std::thread::hardware_concurrency()
            << ",\"workload\":\"" << opt.workload << "\",\"seed\":" << opt.seed
            << ",\"seconds\":" << num(opt.seconds)
            << ",\"trace\":" << (opt.trace ? 1 : 0) << "}}" << std::endl;

  Report rep;
  try {
    rep = run(opt);
  } catch (const perfbench::CheckFailure& f) {
    std::cerr << "CHECK FAILED: " << f.what() << std::endl;
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "ERROR: " << e.what() << std::endl;
    return 1;
  }

  for (const auto& n : rep.notes) std::cout << n << "\n";
  std::ostringstream line;
  line << "{\"correct\":true,\"attempted\":" << rep.attempted
       << ",\"failed\":" << rep.failed << ",\"metrics\":{";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const auto& m = rep.metrics[i];
    if (i > 0) line << ",";
    line << "\"" << m.name << "\":{\"value\":" << num(m.value)
         << ",\"unit\":\"" << m.unit << "\"}";
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  return 0;
}
