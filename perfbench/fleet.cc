// Workload `fleet_ingest`: a durable in-process svc::Server on a unix
// socket fed by a simulated sensor fleet, one acknowledged one-item
// observe_batch round trip per op.
//
// Eight sessions, each one agent's seeded world built the way
// netdiag-agent builds it (generator topology with topology seed 1..8,
// 10 random-stub sensors, probe::SyntheticProber meshes, nd-bgpigp /
// per-neighbor / alarm threshold 2). Every session streams cycles of kCycle rounds: healthy
// rounds, then two rounds of a single-link failure episode — the second
// one fires the diagnosis. Queries and metrics scrapes are mixed in.
// The sessions are split over two client connections, each on its own
// thread, closed loop. The server runs two workers because it holds one
// worker per connection for the connection's whole life: a third
// connection would wait until one of the first two closed.
//
// The traced pass repeats the run and then times, in process and on the
// same rounds the socket carried, the calls the round trip is made of:
// request encode, request decode, journal append, troubleshooter observe
// and response decode. On the rounds that fire, it also builds the
// diagnosis graph and solves it by direct core calls, which must give the
// troubleshooter's diagnosis byte for byte, and it times the agents'
// SyntheticProber::measure calls while the worlds are built.
#include <algorithm>
#include <exception>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include "bench.h"
#include "core/diagnosis_graph.h"
#include "core/json_export.h"
#include "core/solver.h"
#include "core/troubleshooter.h"
#include "probe/sensors.h"
#include "probe/synthetic.h"
#include "svc/client.h"
#include "svc/journal.h"
#include "svc/protocol.h"
#include "svc/server.h"
#include "topo/generator.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace netd;
namespace fs = std::filesystem;

constexpr std::size_t kSessions = 8;
constexpr std::size_t kConnections = 2;
constexpr std::uint64_t kCycle = 20;         ///< rounds per failure cycle
constexpr std::size_t kEpisodes = 8;          ///< distinct failures per session
constexpr std::size_t kVictimDraws = 64;      ///< draws to find a breaking link
constexpr std::uint64_t kQueryEvery = 5;      ///< query a session every N rounds
constexpr std::uint64_t kScrapeEvery = 25;    ///< metrics scrape per connection
/// Set-ups measured before and after the timed section, so the median
/// does not hang on the host's state in one moment.
constexpr std::size_t kSetupsBefore = 8, kSetupsAfter = 8;
constexpr std::size_t kTailWindow = 1000;     ///< >= 10 rounds beyond a p99
constexpr std::size_t kMinTailWindows = 5;
constexpr std::size_t kCodecSamples = 600;    ///< traced in-process replays
constexpr std::size_t kLogCapacity = 1 << 16; ///< rounds per connection log
constexpr int kRequestTimeoutMs = 10000;
constexpr const char* kSocket = "unix:svc.sock";

svc::SessionConfig session_config() {
  svc::SessionConfig c;
  c.alarm_threshold = 2;
  c.algo = "nd-bgpigp";
  c.granularity = "per-neighbor";
  return c;
}

struct Episode {
  std::string victim_key;
  probe::Mesh after;
  bool breaks = false;
};

/// One agent's seeded measurement world and its failure episodes.
struct World {
  std::string name;
  topo::Topology topology;
  probe::Mesh baseline;
  std::vector<Episode> episodes;
};

bool breaks_a_pair(const probe::Mesh& before, const probe::Mesh& after) {
  for (std::size_t i = 0; i < before.paths.size(); ++i) {
    if (before.paths[i].ok && !after.paths[i].ok) return true;
  }
  return false;
}

/// `measure_ms`, when given, receives the time of each mesh measurement.
std::unique_ptr<World> build_world(std::uint64_t seed, std::size_t s,
                                   std::vector<double>* measure_ms) {
  topo::GeneratorParams p;  // netdiag-agent's defaults: 165 ASes
  p.seed = s + 1;           // one fixed topology per agent; the run's seed
                            // draws its sensors and failures
  auto w = std::make_unique<World>();
  w->name = "s" + std::to_string(s);
  w->topology = topo::generate(p);
  util::Rng rng(mix_seed(seed, 2, s));
  const std::size_t n = std::min<std::size_t>(
      10, probe::placement_capacity(w->topology, probe::PlacementKind::kRandomStub));
  auto sensors = probe::place_sensors(w->topology, probe::PlacementKind::kRandomStub,
                                      n, rng);
  const probe::SyntheticProber prober(w->topology, std::move(sensors));
  const auto measure = [&] {
    return measure_ms ? timed_ms(*measure_ms, [&] { return prober.measure(); })
                      : prober.measure();
  };
  w->baseline = measure();
  const auto pool = w->baseline.probed_links();
  if (pool.empty()) throw std::runtime_error("world " + w->name + " probes no link");
  // Like the campaign protocol: redraw until the failure breaks a pair.
  for (std::size_t e = 0; e < kEpisodes; ++e) {
    Episode ep;
    for (std::size_t d = 0; d < kVictimDraws && !ep.breaks; ++d) {
      const topo::LinkId victim = rng.pick(pool);
      const auto& link = w->topology.link(victim);
      ep.victim_key = core::undirected_key(w->topology.router(link.a).name,
                                           w->topology.router(link.b).name);
      w->topology.set_link_up(victim, false);
      ep.after = measure();
      w->topology.set_link_up(victim, true);
      ep.breaks = breaks_a_pair(w->baseline, ep.after);
    }
    w->episodes.push_back(std::move(ep));
  }
  return w;
}

/// Which episode round `seq` (1-based) belongs to; -1 = healthy round.
int episode_of(std::uint64_t seq) {
  const std::uint64_t c = (seq - 1) % kCycle;
  if (c + 2 < kCycle) return -1;
  return static_cast<int>(((seq - 1) / kCycle) % kEpisodes);
}

/// The round on which an episode's diagnosis must fire, if it breaks.
bool is_firing_round(std::uint64_t seq) { return (seq - 1) % kCycle == kCycle - 1; }

const probe::Mesh& round_mesh(const World& w, std::uint64_t seq) {
  const int e = episode_of(seq);
  return e < 0 ? w.baseline : w.episodes[static_cast<std::size_t>(e)].after;
}

/// Per-session request templates (healthy + one per episode); only the
/// seq changes from round to round, so no mesh is copied in the loop.
struct Templates {
  std::vector<svc::Request> by_state;  ///< [0] healthy, [1 + e] episode e

  explicit Templates(const World& w) {
    const auto make = [&](const probe::Mesh& m) {
      svc::ObserveBatchRequest r;
      r.session = w.name;
      r.src = "agent-" + w.name;
      r.items.push_back(svc::ObserveItem{1, m, std::nullopt, std::nullopt});
      return svc::Request{std::move(r)};
    };
    by_state.push_back(make(w.baseline));
    for (const auto& e : w.episodes) by_state.push_back(make(e.after));
  }
  svc::Request& at(std::uint64_t seq) {
    auto& req = by_state[static_cast<std::size_t>(episode_of(seq) + 1)];
    std::get<svc::ObserveBatchRequest>(req).items[0].seq = seq;
    return req;
  }
};

struct RoundRec {
  std::size_t session = 0;
  std::uint64_t seq = 0;
  double rt_ms = 0.0;
  Clock::time_point end;
  svc::ObserveBatchResponse rsp;
};

struct QueryRec {
  std::size_t session = 0;
  std::uint64_t after_seq = 0;
  double rt_ms = 0.0;
  Clock::time_point end;
  std::optional<std::string> diagnosis;
};

/// What one client connection did during the timed section.
struct ConnLog {
  std::vector<RoundRec> rounds;
  std::vector<QueryRec> queries;
  std::uint64_t attempted = 0, failed = 0;
  Clock::time_point warm{};  ///< end of this connection's warm-up cycle
  std::string error;         ///< a response of the wrong kind
};

svc::Client::Options client_options() {
  svc::Client::Options o;
  o.connect_timeout_ms = 5000;
  o.request_timeout_ms = kRequestTimeoutMs;
  o.max_retries = 0;
  return o;
}

svc::Client connect_client(const svc::Endpoint& ep) {
  std::string err;
  auto c = svc::Client::connect(ep, client_options(), &err);
  if (!c) throw std::runtime_error("connect: " + err);
  return std::move(*c);
}

template <typename T>
T call_as(svc::Client& c, const svc::Request& req, const char* what) {
  std::string err;
  T out;
  if (!svc::expect_response(c.call(req, &err), &out, &err)) {
    throw std::runtime_error(std::string(what) + ": " + err);
  }
  return out;
}

svc::Server::Options server_options(const svc::Endpoint& ep, const std::string& dir) {
  svc::Server::Options o;
  o.endpoint = ep;
  o.num_threads = kConnections;
  o.state_dir = dir;
  o.fsync = svc::FsyncPolicy::kBatch;
  return o;
}

std::unique_ptr<svc::Server> start_server(const svc::Server::Options& o) {
  auto server = std::make_unique<svc::Server>(o);
  std::string err;
  if (!server->start(&err)) throw std::runtime_error("server start: " + err);
  return server;
}

void open_sessions(svc::Client& c, const std::vector<std::unique_ptr<World>>& worlds) {
  for (const auto& w : worlds) {
    (void)call_as<svc::HelloResponse>(
        c, svc::HelloRequest{w->name, session_config(), std::nullopt}, "hello");
    (void)call_as<svc::SetBaselineResponse>(
        c, svc::SetBaselineRequest{w->name, w->baseline, std::nullopt}, "set_baseline");
  }
}

/// The closed loop of one connection: round r of each of its sessions,
/// then the next r, until the deadline (whole rounds only).
void drive(const svc::Endpoint& ep, std::vector<std::size_t> sessions,
           std::vector<Templates*> templates, Clock::time_point deadline,
           ConnLog& log, std::vector<std::uint64_t>& last_seq) {
  // Reserved up front, so the logs grow without reallocation peaks and
  // peak RSS does not depend on how many rounds the host let through.
  log.rounds.reserve(kLogCapacity);
  log.queries.reserve(kLogCapacity / kQueryEvery);
  std::string err;
  auto client = svc::Client::connect(ep, client_options(), &err);
  if (!client) {
    ++log.attempted;
    ++log.failed;
    return;
  }
  for (std::uint64_t seq = 1;; ++seq) {
    for (std::size_t k = 0; k < sessions.size(); ++k) {
      const std::size_t s = sessions[k];
      ++log.attempted;
      const auto t0 = Clock::now();
      auto rsp = client->call(templates[k]->at(seq), &err);
      const auto t1 = Clock::now();
      if (!rsp) {  // transport failure or deadline: a failed op
        ++log.failed;
        return;
      }
      const auto* ok = std::get_if<svc::ObserveBatchResponse>(&*rsp);
      if (ok == nullptr) {
        log.error = "round " + std::to_string(seq) + " of session " +
                    std::to_string(s) + " answered " + svc::serialize(*rsp);
        return;
      }
      log.rounds.push_back({s, seq, ms_between(t0, t1), t1, *ok});
      last_seq[s] = seq;
      if (seq % kQueryEvery == 0) {
        ++log.attempted;
        const auto q0 = Clock::now();
        auto q = client->call(svc::QueryRequest{"s" + std::to_string(s), std::nullopt},
                              &err);
        const auto q1 = Clock::now();
        if (!q) {
          ++log.failed;
          return;
        }
        const auto* qr = std::get_if<svc::QueryResponse>(&*q);
        if (qr == nullptr) {
          log.error = "query answered " + svc::serialize(*q);
          return;
        }
        log.queries.push_back({s, seq, ms_between(q0, q1), q1, qr->diagnosis});
      }
    }
    if (seq == kCycle) log.warm = Clock::now();
    if (seq % kScrapeEvery == 0) {
      ++log.attempted;
      auto m = client->call(svc::MetricsRequest{}, &err);
      if (!m) {
        ++log.failed;
        return;
      }
      if (!std::holds_alternative<svc::MetricsResponse>(*m)) {
        log.error = "metrics answered " + svc::serialize(*m);
        return;
      }
    }
    if (Clock::now() >= deadline) return;
  }
}

std::size_t decimal_digits(std::uint64_t v) {
  std::size_t d = 1;
  while (v >= 10) {
    v /= 10;
    ++d;
  }
  return d;
}

/// Hypothesis link keys of a core::to_json document.
std::set<std::string> hypothesis_links(const std::string& doc) {
  std::set<std::string> out;
  const auto j = svc::Json::parse(doc);
  if (!j) return out;
  const svc::Json* h = j->find("hypothesis");
  if (h == nullptr || !h->is_array()) return out;
  for (std::size_t i = 0; i < h->size(); ++i) {
    if (const svc::Json* l = (*h)[i].find("link"); l != nullptr && l->is_string()) {
      out.insert(l->as_string());
    }
  }
  return out;
}

/// The tail as the median, over consecutive windows of kTailWindow
/// steady rounds (in completion order), of each window's quantile `q`:
/// one stalled second of the host moves one window, not the figure.
double windowed_quantile(std::vector<RoundRec> rounds, Clock::time_point t_warm,
                         double q) {
  std::sort(rounds.begin(), rounds.end(),
            [](const RoundRec& a, const RoundRec& b) { return a.end < b.end; });
  std::vector<double> window, per_window;
  for (const auto& r : rounds) {
    if (r.end < t_warm) continue;
    window.push_back(r.rt_ms);
    if (window.size() == kTailWindow) {
      per_window.push_back(quantile(window, q));
      window.clear();
    }
  }
  return median(per_window);
}

/// Throughput as the median, over the same windows, of each window's
/// rounds per second of wall time: like the tail, robust to a stalled
/// second of the host.
double windowed_rate(std::vector<RoundRec> rounds, Clock::time_point t_warm) {
  std::sort(rounds.begin(), rounds.end(),
            [](const RoundRec& a, const RoundRec& b) { return a.end < b.end; });
  std::vector<double> rates;
  Clock::time_point start = t_warm;
  std::size_t n = 0;
  for (const auto& r : rounds) {
    if (r.end < t_warm) continue;
    if (++n == kTailWindow) {
      rates.push_back(static_cast<double>(n) /
                      std::chrono::duration<double>(r.end - start).count());
      start = r.end;
      n = 0;
    }
  }
  return median(rates);
}

std::uint64_t dir_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

/// The server's journal record for one applied batch item.
std::string bobs_payload(const svc::ObserveBatchRequest& r) {
  svc::Json j = svc::Json::object();
  j.set("t", svc::Json::string("bobs"));
  j.set("src", svc::Json::string(r.src));
  j.set("seq", svc::Json::uinteger(r.items[0].seq));
  j.set("mesh", svc::mesh_to_json(r.items[0].mesh));
  return j.dump();
}

}  // namespace

Report run_fleet(const Options& opt) {
  std::vector<std::unique_ptr<World>> worlds;
  std::vector<double> measure_ms;
  for (std::size_t s = 0; s < kSessions; ++s) {
    worlds.push_back(build_world(opt.seed, s, opt.trace ? &measure_ms : nullptr));
  }
  std::vector<Templates> templates;
  for (const auto& w : worlds) templates.emplace_back(*w);

  std::string err;
  const auto ep = svc::Endpoint::parse(kSocket, &err);
  if (!ep) throw std::runtime_error(err);

  // Set-up: server start on a fresh state dir, then hello + set_baseline
  // for every session. The last one before the timed section serves it.
  std::vector<double> setup_s;
  std::unique_ptr<svc::Server> server;
  std::string state_dir;
  std::size_t setups = 0;
  const auto set_up = [&] {
    if (server) {
      server->stop();
      server.reset();
      fs::remove_all(state_dir);
    }
    state_dir = "state-" + std::to_string(setups++);
    const auto t0 = Clock::now();
    server = start_server(server_options(*ep, state_dir));
    svc::Client c = connect_client(*ep);
    open_sessions(c, worlds);
    setup_s.push_back(seconds_since(t0));
  };
  for (std::size_t i = 0; i < kSetupsBefore; ++i) set_up();

  // Timed section: two connections, closed loop.
  std::vector<std::uint64_t> last_seq(kSessions, 0);
  std::vector<ConnLog> logs(kConnections);
  const auto t_start = Clock::now();
  const auto deadline = t_start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(opt.seconds));
  {
    std::vector<std::thread> threads;
    std::vector<std::exception_ptr> errors(kConnections);
    for (std::size_t c = 0; c < kConnections; ++c) {
      std::vector<std::size_t> mine;
      std::vector<Templates*> tpl;
      for (std::size_t s = c; s < kSessions; s += kConnections) {
        mine.push_back(s);
        tpl.push_back(&templates[s]);
      }
      threads.emplace_back([&, c, mine, tpl] {
        try {
          drive(*ep, mine, tpl, deadline, logs[c], last_seq);
        } catch (...) {
          errors[c] = std::current_exception();
        }
      });
    }
    for (auto& t : threads) t.join();
    for (auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }
  const auto t_end = Clock::now();
  // Before the post-run checks (the restart replays journals in memory).
  const double rss_mib = peak_rss_mib();

  Report rep;
  std::vector<RoundRec> rounds;
  std::vector<QueryRec> queries;
  Clock::time_point t_warm = t_start;
  bool any_failed = false;
  for (auto& l : logs) {
    check(l.error.empty(), "every_round_acked", l.error);
    rep.attempted += l.attempted;
    rep.failed += l.failed;
    any_failed = any_failed || l.failed > 0;
    t_warm = std::max(t_warm, l.warm);
    rounds.insert(rounds.end(), l.rounds.begin(), l.rounds.end());
    queries.insert(queries.end(), l.queries.begin(), l.queries.end());
  }

  if (opt.inject == "withhold-ack" && !rounds.empty()) rounds.front().rsp.ack -= 1;
  // Per-session view, in seq order (each session lives on one connection).
  std::vector<std::map<std::uint64_t, const RoundRec*>> by_session(kSessions);
  for (const auto& r : rounds) by_session[r.session][r.seq] = &r;
  std::vector<std::map<std::uint64_t, std::string>> socket_dx(kSessions);

  for (std::size_t s = 0; s < kSessions; ++s) {
    const World& w = *worlds[s];
    for (const auto& [seq, r] : by_session[s]) {
      check(r->rsp.ack == seq && r->rsp.applied == 1 && r->rsp.deduped == 0,
            "every_round_acked",
            w.name + " round " + std::to_string(seq) + " acked " +
                std::to_string(r->rsp.ack) + " (applied " +
                std::to_string(r->rsp.applied) + ")");
      const bool should_fire =
          is_firing_round(seq) &&
          w.episodes[static_cast<std::size_t>(episode_of(seq))].breaks;
      check(r->rsp.diagnosis.has_value() == should_fire, "one_diagnosis_per_episode",
            w.name + " round " + std::to_string(seq) +
                (should_fire ? " broke a pair but fired no diagnosis"
                             : " fired a diagnosis outside a breaking episode"));
      if (r->rsp.diagnosis) socket_dx[s][seq] = *r->rsp.diagnosis;
    }
  }
  if (opt.inject == "flip-diagnosis-byte") {
    for (auto& m : socket_dx) {
      if (m.empty()) continue;
      std::string& doc = m.begin()->second;
      doc[doc.size() / 2] ^= 0x01;
      break;
    }
  }

  // In-process reference: the same rounds through core::Troubleshooter.
  const auto resolved = session_config().resolve(&err);
  if (!resolved) throw std::runtime_error(err);
  std::vector<double> observe_ms, diagnose_ms, graph_ms, solve_ms, graph_edges;
  for (std::size_t s = 0; s < kSessions; ++s) {
    const World& w = *worlds[s];
    core::Troubleshooter ts(*resolved);
    ts.set_baseline(w.baseline);
    for (std::uint64_t seq = 1; seq <= last_seq[s]; ++seq) {
      const double t0 = cpu_ms();
      const auto out = ts.observe(round_mesh(w, seq));
      std::optional<std::string> doc;
      if (out) doc = core::to_json(out->graph, out->result);
      const double ms = cpu_ms() - t0;
      (doc ? diagnose_ms : observe_ms).push_back(ms);
      const auto it = socket_dx[s].find(seq);
      check(doc.has_value() == (it != socket_dx[s].end()) &&
                (!doc || *doc == it->second),
            "diagnosis_matches_in_process",
            w.name + " round " + std::to_string(seq) +
                ": socket diagnosis differs from core::Troubleshooter's");
      if (doc && opt.trace) {
        // The firing round's diagnosis by direct core calls, against the
        // baseline the troubleshooter holds then: the last healthy round.
        const probe::Mesh& mesh = round_mesh(w, seq);
        const auto dg = timed_ms(graph_ms, [&] {
          return core::build_diagnosis_graph(w.baseline, mesh, resolved->granularity);
        });
        const auto res = timed_ms(solve_ms, [&] { return core::solve(dg, resolved->solver); });
        graph_edges.push_back(static_cast<double>(dg.edges.size()));
        check(core::to_json(dg, res) == *doc, "layers_match_troubleshooter",
              w.name + " round " + std::to_string(seq) +
                  ": build_diagnosis_graph + solve differ from core::Troubleshooter");
      }
      if (doc) {
        const auto links = hypothesis_links(*doc);
        const auto& victim =
            w.episodes[static_cast<std::size_t>(episode_of(seq))].victim_key;
        check(links.count(victim) != 0, "diagnosis_has_injected_link",
              w.name + " round " + std::to_string(seq) + " misses " + victim);
      }
    }
  }
  // Reads see the latest diagnosis of their session.
  for (const auto& q : queries) {
    const auto& dx = socket_dx[q.session];
    const auto it = dx.upper_bound(q.after_seq);
    const std::optional<std::string> want =
        it == dx.begin() ? std::nullopt : std::optional<std::string>(std::prev(it)->second);
    check(q.diagnosis == want, "query_returns_last_diagnosis",
          "query of s" + std::to_string(q.session) + " after round " +
              std::to_string(q.after_seq));
  }

  // Watermarks, then a restart on the same state dir.
  const auto final_check = [&](const char* name) {
    svc::Client c = connect_client(*ep);
    for (std::size_t s = 0; s < kSessions; ++s) {
      const World& w = *worlds[s];
      if (!any_failed) {
        svc::ObserveBatchRequest probe_req;
        probe_req.session = w.name;
        probe_req.src = "agent-" + w.name;
        const auto ack = call_as<svc::ObserveBatchResponse>(c, probe_req, "watermark");
        check(ack.ack == last_seq[s], "watermark_at_last_seq",
              w.name + " watermark " + std::to_string(ack.ack) + " != " +
                  std::to_string(last_seq[s]));
      }
      const auto q = call_as<svc::QueryResponse>(
          c, svc::QueryRequest{w.name, std::nullopt}, "query");
      const auto& dx = socket_dx[s];
      const std::optional<std::string> want =
          dx.empty() ? std::nullopt : std::optional<std::string>(dx.rbegin()->second);
      check(q.diagnosis == want, name, w.name + " lost its last diagnosis");
    }
  };
  final_check("query_returns_last_diagnosis");
  const std::uint64_t state_bytes = dir_bytes(state_dir);
  server->stop();
  server.reset();
  server = start_server(server_options(*ep, state_dir));
  final_check("restart_recovers_diagnosis");
  for (std::size_t i = 0; i < kSetupsAfter; ++i) set_up();
  server->stop();
  server.reset();

  // Steady-state op figures (after each connection's first cycle).
  std::vector<double> op_ms, read_ms;
  std::size_t steady_rounds = 0;
  std::uint64_t wire_bytes = 0;
  std::map<std::pair<std::size_t, int>, std::size_t> req_base;  // seq = 1
  for (const auto& r : rounds) {
    if (r.end < t_warm) continue;
    op_ms.push_back(r.rt_ms);
    ++steady_rounds;
    const auto key = std::make_pair(r.session, episode_of(r.seq));
    auto it = req_base.find(key);
    if (it == req_base.end()) {
      svc::Request& req = templates[r.session].by_state[static_cast<std::size_t>(key.second + 1)];
      std::get<svc::ObserveBatchRequest>(req).items[0].seq = 1;
      it = req_base.emplace(key, svc::serialize(req).size()).first;
    }
    wire_bytes += it->second - 1 + decimal_digits(r.seq) + 1;
    wire_bytes += svc::serialize(svc::Response{r.rsp}).size() + 1;
  }
  for (const auto& q : queries) {
    if (q.end >= t_warm) read_ms.push_back(q.rt_ms);
  }
  check(op_ms.size() >= kTailWindow * kMinTailWindows, "enough_ops",
        std::to_string(op_ms.size()) + " steady rounds; the tail needs " +
            std::to_string(kTailWindow * kMinTailWindows));
  check(!read_ms.empty(), "enough_ops", "no steady-state query");

  const double window = std::chrono::duration<double>(t_end - t_warm).count();
  std::ostringstream note;
  note << "{\"tail\":{\"op_ms_p90\":" << windowed_quantile(rounds, t_warm, 0.9)
       << ",\"op_ms_p99\":" << windowed_quantile(rounds, t_warm, 0.99)
       << ",\"ops_per_s_whole_run\":" << static_cast<double>(steady_rounds) / window
       << "},\"samples\":{\"rounds\":" << op_ms.size() << ",\"queries\":" << read_ms.size()
       << ",\"setups\":" << setup_s.size() << ",\"diagnoses\":" << diagnose_ms.size()
       << ",\"state_dir_mib\":" << static_cast<double>(state_bytes) / 1048576.0 << "}}";
  rep.notes.push_back(note.str());

  // Reads and wire size are fleet figures only, so they stay out of the
  // metrics every workload reports.
  note.str("");
  note << "{\"fleet\":{\"read_ms_p50\":" << median(read_ms) << ",\"wire_kib_per_op\":"
       << static_cast<double>(wire_bytes) / static_cast<double>(steady_rounds) / 1024.0
       << "}}";
  rep.notes.push_back(note.str());

  if (!opt.trace) {
    rep.add("setup_s", median(setup_s), "s");
    rep.add("ops_per_s", windowed_rate(rounds, t_warm), "1/s");
    rep.add("op_ms_p50", median(op_ms), "ms");
    rep.add("peak_rss_mib", rss_mib, "MiB");
    return rep;
  }

  // Traced: the round trip's layers, timed in process on a sample of the
  // rounds the socket carried.
  std::vector<double> encode_ms, decode_ms, journal_ms, rsp_decode_ms, req_kib, rsp_kib;
  const std::string jdir = "trace-journal";
  svc::SessionJournal::Options jo;
  jo.dir = jdir;
  jo.fsync = svc::FsyncPolicy::kBatch;
  jo.snapshot_every = ~std::size_t{0};
  auto journal = svc::SessionJournal::open(jo, &err);
  if (!journal) throw std::runtime_error("private journal: " + err);
  const std::size_t stride = std::max<std::size_t>(1, rounds.size() / kCodecSamples);
  std::size_t appends = 0;
  for (std::size_t i = 0; i < rounds.size(); i += stride) {
    const RoundRec& r = rounds[i];
    const svc::Request& req = templates[r.session].at(r.seq);
    const std::string frame = timed_ms(encode_ms, [&] { return svc::serialize(req); });
    const auto parsed = timed_ms(decode_ms, [&] { return svc::parse_request(frame, &err); });
    if (!parsed) throw std::runtime_error("decode: " + err);
    const std::string payload = bobs_payload(std::get<svc::ObserveBatchRequest>(req));
    const std::uint64_t lsn =
        timed_ms(journal_ms, [&] { return journal->append(payload, &err); });
    if (lsn == 0) throw std::runtime_error("journal append: " + err);
    ++appends;
    const std::string rsp_frame = svc::serialize(svc::Response{r.rsp});
    const auto rsp = timed_ms(rsp_decode_ms, [&] { return svc::parse_response(rsp_frame, &err); });
    if (!rsp) throw std::runtime_error("response decode: " + err);
    req_kib.push_back(static_cast<double>(frame.size() + 1) / 1024.0);
    rsp_kib.push_back(static_cast<double>(rsp_frame.size() + 1) / 1024.0);
  }
  journal.reset();
  const double journal_kib =
      static_cast<double>(dir_bytes(jdir)) / static_cast<double>(appends) / 1024.0;
  fs::remove_all(jdir);

  const double rt = median(op_ms);
  const double wait = rt - median(encode_ms) - median(decode_ms) - median(journal_ms) -
                      median(observe_ms) - median(rsp_decode_ms);
  // The in-process layers must fit inside the round trip they split.
  check(wait >= 0.0, "wait_nonnegative",
        "layer medians sum past the round-trip p50 " + std::to_string(rt) + " ms by " +
            std::to_string(-wait) + " ms");
  add_layer_metrics(rep, measure_ms, graph_ms, solve_ms, graph_edges);
  std::ostringstream lnote;
  lnote << "{\"layers\":{\"traced_op_ms_p50\":" << rt << ",\"share\":{"
        << "\"svc.encode\":" << median(encode_ms) / rt
        << ",\"svc.decode\":" << median(decode_ms) / rt
        << ",\"svc.journal_append\":" << median(journal_ms) / rt
        << ",\"core.observe\":" << median(observe_ms) / rt
        << ",\"svc.rsp_decode\":" << median(rsp_decode_ms) / rt
        << ",\"svc.wait\":" << wait / rt << "},\"calls\":{"
        << "\"svc.encode_ms\":" << median(encode_ms)
        << ",\"svc.decode_ms\":" << median(decode_ms)
        << ",\"svc.journal_append_ms\":" << median(journal_ms)
        << ",\"svc.journal_kib_per_op\":" << journal_kib
        << ",\"core.observe_ms\":" << median(observe_ms)
        << ",\"core.diagnose_ms\":" << median(diagnose_ms)
        << ",\"svc.rsp_decode_ms\":" << median(rsp_decode_ms)
        << ",\"svc.wait_ms\":" << wait << ",\"svc.req_kib\":" << median(req_kib)
        << ",\"svc.rsp_kib\":" << median(rsp_kib)
        << "},\"codec_samples\":" << encode_ms.size() << "}}";
  rep.notes.push_back(lnote.str());
  return rep;
}

}  // namespace perfbench
