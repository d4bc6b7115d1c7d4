// teambench: wire-level load generator for the team-discovery HTTP service.
//
//   teambench --workload find-ci|explore-ci --seed N --seconds S
//             --trace 0|1 --work-dir DIR [--trace-dir DIR]
//
// One run generates the ci corpus from the seed, writes it to disk, and sets
// up a warm server from that file several times (BuildSnapshot with default
// options, TeamDiscoveryService::Open, RequestPipeline + HttpServer on
// loopback, one warm-up request per pre-built index). The last server then
// takes the workload's timed window of /find requests over keep-alive
// HttpClient connections. Every answer is checked against the benchmark's
// own copy of the network and, outside the window, against the independent
// reference in reference.h. The last line of standard output is one JSON
// object: correct, attempted, failed and the metrics — the end-to-end ones
// with --trace 0, the per-layer ones (from spans recorded around each call
// into a layer) with --trace 1.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/greedy_team_finder.h"
#include "datagen/synthetic_dblp.h"
#include "json.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "network/authority_transform.h"
#include "network/network_io.h"
#include "reference.h"
#include "serving/request_pipeline.h"
#include "service/snapshot.h"
#include "service/team_discovery_service.h"
#include "shortest_path/distance_oracle.h"
#include "trace.h"
#include "workload.h"

namespace teambench {
namespace {

using Clock = std::chrono::steady_clock;
using teamdisc::ExpertNetwork;
using teamdisc::HttpClient;

// The ci corpus (4 000 experts, 12 008 edges, 338 skills): the generator at
// its default seed, stopping at 12 000 distinct edges. It is the same on
// every run, so runs with different --seed differ only in the workload.
constexpr uint32_t kExperts = 4000;
constexpr uint32_t kTargetEdges = 12000;
constexpr uint64_t kCorpusSeed = 42;
// Set-ups per run; setup_s is their median.
constexpr size_t kSetups = 3;
// Sized for a 4-core host: 4 dispatch workers; the closed loop keeps at
// most 4 requests in flight, so a worker is always free for the next one.
constexpr size_t kWorkers = 4;
constexpr size_t kConnections = 4;
// A p99 needs at least 10 samples beyond it.
constexpr size_t kMinSamples = 1000;
constexpr uint64_t kClientTimeoutMs = 60000;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "teambench: error: %s\n", message.c_str());
  std::fflush(stdout);
  std::fflush(stderr);
  std::_Exit(1);
}

template <typename T>
T Unwrap(teamdisc::Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).ValueOrDie();
}

/// Linear interpolation between closest ranks; NaN for no samples.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& values) { return Quantile(values, 0.5); }

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

/// Heap in use, in MiB: every block the program holds, from the arenas or
/// mapped on its own. Unlike the resident set it leaves out freed memory the
/// allocator keeps, which varies from run to run (README, metrics).
double HeapInUseMiB() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

/// Resident set in MiB after handing freed heap pages back to the kernel.
double ResidentMiB() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) Die("cannot read /proc/self/statm");
  unsigned long long size = 0, resident = 0;
  const int read = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (read != 2) Die("cannot parse /proc/self/statm");
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// ---------------------------------------------------------------------------
// Answers.

/// \brief One /find answer as parsed off the wire.
struct WireAnswer {
  std::string error;  ///< transport, HTTP or parse failure; "" when parsed
  uint64_t generation = 0;
  double queue_ms = 0.0;
  double solve_ms = 0.0;
  std::vector<WireTeam> teams;
  /// Teams rendered canonically (objective with the wire's six decimals,
  /// members, assignments), for comparing answers with each other.
  std::string canonical;
};

std::string Canonical(double objective, const std::vector<NodeId>& members,
                      const std::vector<std::pair<std::string, NodeId>>& assignments) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f|", objective);
  std::string out = buf;
  for (NodeId v : members) out += std::to_string(v) + ",";
  out += "|";
  for (const auto& [skill, expert] : assignments) {
    out += skill + ":" + std::to_string(expert) + ",";
  }
  return out + ";";
}

/// A JSON number as a node id; kInvalidNode when it cannot be one.
NodeId AsNode(double x) {
  return x >= 0.0 && x < static_cast<double>(teamdisc::kInvalidNode) &&
                 x == std::floor(x)
             ? static_cast<NodeId>(x)
             : teamdisc::kInvalidNode;
}

WireAnswer ParseAnswer(const teamdisc::Result<teamdisc::HttpClientResponse>& reply) {
  WireAnswer answer;
  if (!reply.ok()) {
    answer.error = "transport: " + reply.status().ToString();
    return answer;
  }
  const teamdisc::HttpClientResponse& response = reply.ValueOrDie();
  Json body;
  std::string error;
  if (!ParseJson(response.body, &body, &error)) {
    answer.error = "HTTP " + std::to_string(response.status) + " unparsable: " + error;
    return answer;
  }
  const Json* status = body.Find("status");
  if (response.status != 200 || status == nullptr || status->string != "ok") {
    answer.error = "HTTP " + std::to_string(response.status) + ": " + response.body;
    return answer;
  }
  const double generation = body.NumberOr("generation", -1.0);
  if (!(generation >= 0.0 && generation < 1e15)) {
    answer.error = "answer without a generation";
    return answer;
  }
  answer.generation = static_cast<uint64_t>(generation);
  answer.queue_ms = body.NumberOr("queue_ms", std::nan(""));
  answer.solve_ms = body.NumberOr("solve_ms", std::nan(""));
  const Json* teams = body.Find("teams");
  if (teams == nullptr || teams->type != Json::Type::kArray) {
    answer.error = "answer without a teams array";
    return answer;
  }
  for (const Json& t : teams->array) {
    WireTeam team;
    team.objective = t.NumberOr("objective", std::nan(""));
    const Json* members = t.Find("members");
    const Json* assignments = t.Find("assignments");
    if (members == nullptr || assignments == nullptr) {
      answer.error = "team without members or assignments";
      return answer;
    }
    for (const Json& m : members->array) {
      team.members.push_back(AsNode(m.NumberOr("id", -1.0)));
    }
    for (const Json& a : assignments->array) {
      const Json* skill = a.Find("skill");
      team.assignments.emplace_back(skill == nullptr ? "" : skill->string,
                                    AsNode(a.NumberOr("expert", -1.0)));
    }
    answer.canonical += Canonical(team.objective, team.members, team.assignments);
    answer.teams.push_back(std::move(team));
  }
  return answer;
}

/// Distinct answers of a run, keyed by (request, generation, teams).
/// Every operation points at one entry; checks run once per entry.
class AnswerTable {
 public:
  size_t Intern(size_t pos, WireAnswer answer) {
    std::lock_guard<std::mutex> lock(mu_);
    auto key = std::make_tuple(pos, answer.generation,
                               answer.error.empty() ? answer.canonical : answer.error);
    auto [it, fresh] = index_.emplace(std::move(key), entries_.size());
    if (fresh) entries_.push_back({pos, std::move(answer)});
    return it->second;
  }

  struct Entry {
    size_t pos;
    WireAnswer answer;
  };
  std::vector<Entry>& entries() { return entries_; }

 private:
  std::mutex mu_;
  std::map<std::tuple<size_t, uint64_t, std::string>, size_t> index_;
  std::vector<Entry> entries_;
};

/// \brief One timed /find operation.
struct Op {
  size_t pos = 0;          ///< index into Workload::requests
  size_t answer = 0;       ///< AnswerTable entry
  double latency_ms = 0;   ///< send to reply
  Clock::time_point done;  ///< when the answer arrived
};

// ---------------------------------------------------------------------------
// Server set-up.

/// A warm server over a snapshot directory: service, pipeline, HTTP
/// front-end and the thread running its event loop.
class Server {
 public:
  Server() = default;
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  ~Server() { Stop(); }

  /// Stops serving. The snapshot directory stays until the run's work
  /// directory goes, so no deletion runs on the disk between a set-up and
  /// the swaps timed after it.
  void Stop() {
    if (http_ != nullptr) {
      http_->RequestDrain();
      if (loop_.joinable()) loop_.join();
      http_.reset();
    }
    if (pipeline_ != nullptr) pipeline_->Shutdown();
    pipeline_.reset();
    service_.reset();
  }

  /// From the corpus file to a warm server; returns the wall seconds.
  double SetUp(const std::string& corpus_path, const std::string& dir,
               const Workload& workload, Tracer* tracer) {
    ScopedSpan setup(tracer, "bench.setup");
    const Clock::time_point start = Clock::now();
    ExpertNetwork net = Unwrap(teamdisc::LoadNetwork(corpus_path), "load corpus");
    {
      ScopedSpan span(tracer, "service.build_snapshot", setup.id());
      Unwrap(teamdisc::BuildSnapshot(net, dir, teamdisc::BuildSnapshotOptions()),
             "BuildSnapshot");
    }
    {
      ScopedSpan span(tracer, "service.open", setup.id());
      teamdisc::ServiceOptions options;
      options.snapshot_dir = dir;
      service_ = Unwrap(teamdisc::TeamDiscoveryService::Open(options), "Open");
    }
    teamdisc::PipelineOptions popt;
    popt.workers = kWorkers;
    pipeline_ = Unwrap(teamdisc::RequestPipeline::Start(*service_, popt),
                       "RequestPipeline::Start");
    http_ = Unwrap(teamdisc::HttpServer::Start(*service_, *pipeline_,
                                               teamdisc::HttpServerOptions()),
                   "HttpServer::Start");
    loop_ = std::thread([this] {
      if (teamdisc::Status s = http_->Serve(); !s.ok()) {
        std::fprintf(stderr, "teambench: server loop: %s\n", s.ToString().c_str());
      }
    });
    WarmUp(workload, tracer, setup.id());
    return Seconds(Clock::now() - start);
  }

  teamdisc::TeamDiscoveryService& service() { return *service_; }

  HttpClient Connect() const {
    return Unwrap(HttpClient::Connect("127.0.0.1", http_->port(), kClientTimeoutMs),
                  "connect");
  }

  /// GET `target` and parse the JSON body; dies on any failure.
  Json GetJson(const std::string& target) const {
    HttpClient client = Connect();
    auto reply = client.Get(target);
    if (!reply.ok()) Die("GET " + target + ": " + reply.status().ToString());
    Json body;
    std::string error;
    if (!ParseJson(reply.ValueOrDie().body, &body, &error)) {
      Die("GET " + target + " returned unparsable JSON: " + error);
    }
    if (reply.ValueOrDie().status != 200) {
      Die("GET " + target + " returned HTTP " +
          std::to_string(reply.ValueOrDie().status));
    }
    return body;
  }

 private:
  /// Loads every pre-built index through the wire (first use of each).
  void WarmUp(const Workload& workload, Tracer* tracer, uint64_t parent) {
    ScopedSpan span(tracer, "bench.warmup", parent);
    GetJson("/healthz");
    HttpClient client = Connect();
    const std::vector<std::string>& skills = workload.warmup_skills;
    std::vector<QuerySpec> queries = {{RankingStrategy::kCC, 0.0, 0.5}};
    for (double gamma : workload.prebuilt_gammas) {
      queries.push_back({RankingStrategy::kCACC, gamma, 0.5});
    }
    for (const QuerySpec& q : queries) {
      WireAnswer answer = ParseAnswer(client.Get(FindTarget(skills, q, 1)));
      if (!answer.error.empty()) Die("warm-up request failed: " + answer.error);
    }
  }

  std::unique_ptr<teamdisc::TeamDiscoveryService> service_;
  std::unique_ptr<teamdisc::RequestPipeline> pipeline_;
  std::unique_ptr<teamdisc::HttpServer> http_;
  std::thread loop_;  // declared last: joined before the members it uses go
};

// ---------------------------------------------------------------------------
// Timed windows.

struct Window {
  std::vector<Op> ops;
  double seconds = 0.0;       ///< start to the last answer
  double cpu_seconds = 0.0;   ///< process CPU from start until every thread ended
};

/// Collects the per-thread ops and closes the window at the last answer.
void CloseWindow(Window& window, std::vector<std::vector<Op>>& per_thread,
                 Clock::time_point start, double cpu_start) {
  window.cpu_seconds = CpuSeconds() - cpu_start;
  Clock::time_point last = start;
  for (auto& ops : per_thread) {
    for (const Op& op : ops) last = std::max(last, op.done);
    window.ops.insert(window.ops.end(), ops.begin(), ops.end());
  }
  window.seconds = Seconds(last - start);
}

/// Sends one request, records the op.
Op SendFind(HttpClient& client, const Workload& w, size_t pos,
            AnswerTable& answers, Tracer* tracer, uint64_t request_id) {
  const Clock::time_point sent = Clock::now();
  teamdisc::Result<teamdisc::HttpClientResponse> reply =
      teamdisc::Status::Internal("not sent");
  {
    ScopedSpan span(tracer, "client.find", 0, request_id);
    reply = client.Get(w.requests[pos].target);
  }
  const Clock::time_point done = Clock::now();
  if (!reply.ok()) {
    // The exchange failed; the next request needs a fresh connection.
    (void)client.Reconnect();
  }
  Op op;
  op.pos = pos;
  op.latency_ms = Seconds(done - sent) * 1e3;
  op.done = done;
  op.answer = answers.Intern(pos, ParseAnswer(reply));
  return op;
}

/// Closed loop over whole rounds: connections take the next request as soon
/// as their previous one is answered. With `one_round` the window is exactly
/// one round; otherwise it ends at the first round boundary once `seconds`
/// have passed and at least kMinSamples were sent.
Window RunClosedLoop(Server& server, const Workload& w, double seconds, bool one_round,
                     AnswerTable& answers, Tracer* tracer) {
  std::mutex mu;
  size_t next = 0;
  bool stopped = false;
  const size_t round = w.round.size();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto claim = [&](size_t* index) {
    std::lock_guard<std::mutex> lock(mu);
    if (!stopped && next % round == 0 && next > 0 &&
        (one_round || (next >= kMinSamples && Clock::now() >= deadline))) {
      stopped = true;
    }
    if (stopped) return false;
    *index = next++;
    return true;
  };
  Window window;
  const double cpu_start = CpuSeconds();
  std::vector<std::vector<Op>> per_conn(kConnections);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      HttpClient client = server.Connect();
      size_t index = 0;
      while (claim(&index)) {
        per_conn[c].push_back(
            SendFind(client, w, w.round[index % round], answers, tracer, index + 1));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  CloseWindow(window, per_conn, start, cpu_start);
  return window;
}

/// \brief One ApplyDelta call.
struct Swap {
  bool reweight = false;
  double ms = 0.0;
  std::string error;
};

Swap ApplySwap(teamdisc::TeamDiscoveryService& service, const Workload& w,
               size_t index, Tracer* tracer) {
  Swap swap;
  swap.reweight = w.deltas[index].reweight;
  const Clock::time_point start = Clock::now();
  teamdisc::Result<teamdisc::UpdateReport> report =
      teamdisc::Status::Internal("not applied");
  {
    ScopedSpan span(tracer, "service.apply_delta");
    report = service.ApplyDelta(w.deltas[index].delta);
  }
  swap.ms = Seconds(Clock::now() - start) * 1e3;
  if (!report.ok()) {
    swap.error = report.status().ToString();
  } else if (report.ValueOrDie().generation != index + 1) {
    swap.error = "ApplyDelta reported generation " +
                 std::to_string(report.ValueOrDie().generation) + ", expected " +
                 std::to_string(index + 1);
  }
  return swap;
}

// ---------------------------------------------------------------------------
// Checks.

std::vector<SkillId> SkillIds(const ExpertNetwork& net,
                              const std::vector<std::string>& names) {
  std::vector<SkillId> ids;
  for (const std::string& name : names) ids.push_back(net.skills().Find(name));
  return ids;
}

std::string CanonicalInProcess(const ExpertNetwork& net,
                               const std::vector<teamdisc::ScoredTeam>& teams) {
  std::string out;
  for (const teamdisc::ScoredTeam& t : teams) {
    std::vector<std::pair<std::string, NodeId>> assignments;
    for (const teamdisc::SkillAssignment& a : t.team.assignments) {
      assignments.emplace_back(net.skills().NameUnchecked(a.skill), a.expert);
    }
    out += Canonical(t.objective, t.team.nodes, assignments);
  }
  return out;
}

/// Wire-level properties of one answer to request `req` on `net`.
std::string CheckAnswer(const ExpertNetwork& net, const FindRequest& req,
                        const WireAnswer& answer) {
  if (!answer.error.empty()) return answer.error;
  if (answer.teams.empty() || answer.teams.size() > req.top_k) {
    return "answer holds " + std::to_string(answer.teams.size()) +
           " teams for top_k=" + std::to_string(req.top_k);
  }
  for (const WireTeam& team : answer.teams) {
    std::string why = CheckWireTeam(net, req.query, req.distinct, team);
    if (!why.empty()) return why;
  }
  return "";
}

/// In-process pass over the workload's distinct requests on the service's
/// current epoch: TopK's top-1 proxy cost against the reference, every
/// team's objective against Definitions 2-6. Runs on one thread when traced
/// (service.topk spans time TopK alone), else on kWorkers. Returns each
/// request's canonical answer (empty for duplicate-skill requests); appends
/// problems to `problems`.
std::vector<std::string> InProcessPass(teamdisc::TeamDiscoveryService& service,
                                       const ExpertNetwork& net, const Workload& w,
                                       Tracer* tracer,
                                       std::vector<std::string>& problems) {
  std::vector<std::string> canonical(w.requests.size());
  std::mutex mu;  // guards problems
  auto check = [&](size_t pos) {
    const FindRequest& req = w.requests[pos];
    if (req.base >= 0) return;
    teamdisc::TeamRequest tr;
    tr.skills = req.skills;
    tr.strategy = req.query.strategy;
    tr.gamma = req.query.gamma;
    tr.lambda = req.query.lambda;
    tr.top_k = req.top_k;
    teamdisc::Result<std::vector<teamdisc::ScoredTeam>> teams =
        teamdisc::Status::Internal("not run");
    {
      ScopedSpan span(tracer, "service.topk", 0, pos + 1);
      teams = service.TopK(tr);
    }
    std::vector<std::string> found;
    const std::string where = "request " + std::to_string(pos) + " (" + req.target + ")";
    if (!teams.ok() || teams.ValueOrDie().empty()) {
      found.push_back(where + ": TopK failed: " +
                      (teams.ok() ? "no team" : teams.status().ToString()));
    } else {
      const ProxyOptimum ref =
          ReferenceProxyOptimum(net, SkillIds(net, req.distinct), req.query);
      const double proxy = teams.ValueOrDie().front().proxy_cost;
      if (!ref.feasible || !NearlyEqual(proxy, ref.cost)) {
        char buf[128];
        std::snprintf(buf, sizeof(buf), ": top-1 proxy cost %.17g, reference %.17g",
                      proxy, ref.cost);
        found.push_back(where + buf);
      }
      for (const teamdisc::ScoredTeam& t : teams.ValueOrDie()) {
        std::string why = CheckTeamObjective(net, req.query, t.team, t.objective);
        if (!why.empty()) found.push_back(where + ": " + why);
      }
      canonical[pos] = CanonicalInProcess(net, teams.ValueOrDie());
    }
    std::lock_guard<std::mutex> lock(mu);
    problems.insert(problems.end(), found.begin(), found.end());
  };
  std::atomic<size_t> next{0};
  auto drain = [&] {
    for (size_t pos = next.fetch_add(1); pos < w.requests.size(); pos = next.fetch_add(1)) {
      check(pos);
    }
  };
  std::vector<std::thread> threads;
  for (size_t t = 1; tracer == nullptr && t < kWorkers; ++t) threads.emplace_back(drain);
  drain();
  for (std::thread& t : threads) t.join();
  return canonical;
}

/// The benchmark's copy of the network after the workload's deltas.
ExpertNetwork ApplyDeltas(const ExpertNetwork& net0, const Workload& w, Tracer* tracer) {
  ExpertNetwork net = net0;
  for (const Update& update : w.deltas) {
    teamdisc::Result<ExpertNetwork> next = teamdisc::Status::Internal("not applied");
    {
      ScopedSpan span(tracer, "network.apply_delta");
      next = teamdisc::ApplyNetworkDelta(net, update.delta);
    }
    net = Unwrap(std::move(next), "ApplyNetworkDelta");
  }
  return net;
}

/// Checks every operation's answer against `net`, the network of
/// `generation`, which every answer must report (no swap runs during the
/// window); returns one failure per op ("" = passed).
std::vector<std::string> CheckOps(const Window& window, AnswerTable& answers,
                                  const ExpertNetwork& net, uint64_t generation,
                                  const Workload& w) {
  std::map<size_t, std::string> memo;  // answer -> failure
  std::vector<std::string> failures;
  for (const Op& op : window.ops) {
    auto [it, fresh] = memo.emplace(op.answer, "");
    if (fresh) {
      const WireAnswer& a = answers.entries()[op.answer].answer;
      if (a.error.empty() && a.generation != generation) {
        it->second = "answer from generation " + std::to_string(a.generation) +
                     ", expected " + std::to_string(generation);
      } else {
        it->second = CheckAnswer(net, w.requests[op.pos], a);
      }
    }
    failures.push_back(it->second);
  }
  return failures;
}

// ---------------------------------------------------------------------------
// Per-layer probe (traced run only): the core, network and shortest_path
// layers called directly on the benchmark's copy of generation 0.

struct LayerProbe {
  double index_bytes = 0.0;
};

LayerProbe ProbeLayers(const ExpertNetwork& net, const Workload& w, Tracer* tracer,
                       std::vector<std::string>& problems) {
  LayerProbe probe;
  // Finders made once per (strategy, gamma); CC ignores gamma.
  std::map<std::pair<int, double>, std::vector<size_t>> groups;
  for (size_t pos = 0; pos < w.requests.size(); ++pos) {
    const FindRequest& req = w.requests[pos];
    if (req.base >= 0) continue;
    const bool cc = req.query.strategy == RankingStrategy::kCC;
    groups[{static_cast<int>(req.query.strategy), cc ? 0.0 : req.query.gamma}]
        .push_back(pos);
  }
  for (const auto& [key, positions] : groups) {
    const FindRequest& first = w.requests[positions.front()];
    teamdisc::FinderOptions options;
    options.strategy = first.query.strategy;
    options.params.gamma = first.query.gamma;
    options.params.lambda = first.query.lambda;
    std::unique_ptr<teamdisc::GreedyTeamFinder> finder;
    {
      ScopedSpan span(tracer, "core.finder_make");
      finder = Unwrap(teamdisc::GreedyTeamFinder::Make(net, options),
                      "GreedyTeamFinder::Make");
    }
    for (size_t pos : positions) {
      const FindRequest& req = w.requests[pos];
      if (!finder->set_lambda(req.query.lambda).ok() ||
          !finder->set_top_k(req.top_k).ok()) {
        Die("cannot re-point a finder");
      }
      const teamdisc::Project project =
          Unwrap(teamdisc::MakeProject(net, req.distinct), "MakeProject");
      teamdisc::Result<std::vector<teamdisc::ScoredTeam>> teams =
          teamdisc::Status::Internal("not run");
      {
        ScopedSpan span(tracer, "core.find_teams", 0, pos + 1);
        teams = finder->FindTeams(project);
      }
      if (!teams.ok()) {
        problems.push_back("FindTeams failed on request " + std::to_string(pos) +
                           ": " + teams.status().ToString());
      }
    }
  }
  // One PLL index over G and one over G'(gamma) per distinct gamma.
  std::vector<double> gammas;
  for (const FindRequest& req : w.requests) {
    if (req.query.strategy != RankingStrategy::kCC) gammas.push_back(req.query.gamma);
  }
  std::sort(gammas.begin(), gammas.end());
  gammas.erase(std::unique(gammas.begin(), gammas.end()), gammas.end());
  {
    ScopedSpan span(tracer, "shortest_path.make_oracle");
    auto oracle = Unwrap(teamdisc::MakeOracle(net.graph(),
                                              teamdisc::OracleKind::kPrunedLandmarkLabeling),
                         "MakeOracle");
    probe.index_bytes += static_cast<double>(oracle->MemoryBytes());
  }
  for (double gamma : gammas) {
    std::unique_ptr<teamdisc::TransformedGraph> transformed;
    {
      ScopedSpan span(tracer, "network.transform");
      transformed = std::make_unique<teamdisc::TransformedGraph>(
          Unwrap(teamdisc::BuildAuthorityTransform(net, gamma), "BuildAuthorityTransform"));
    }
    ScopedSpan span(tracer, "shortest_path.make_oracle");
    auto oracle = Unwrap(teamdisc::MakeOracle(transformed->graph,
                                              teamdisc::OracleKind::kPrunedLandmarkLabeling),
                         "MakeOracle");
    probe.index_bytes += static_cast<double>(oracle->MemoryBytes());
  }
  return probe;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string ResultJson(bool correct, size_t attempted, size_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out += buf;
  }
  return out + "}}";
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string trace_dir;
};

Options ParseArgs(int argc, char** argv) {
  Options opt;
  bool have_seconds = false, have_trace = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
      have_seconds = true;
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") Die("--trace takes 0 or 1");
      opt.trace = v == "1";
      have_trace = true;
    } else if (arg == "--work-dir") {
      opt.work_dir = value();
    } else if (arg == "--trace-dir") {
      opt.trace_dir = value();
    } else {
      Die("unknown argument " + arg);
    }
  }
  if (opt.workload != "find-ci" && opt.workload != "explore-ci") {
    Die("--workload must be find-ci or explore-ci");
  }
  if (!have_seed || !have_seconds || !have_trace || opt.work_dir.empty()) {
    Die("--seed, --seconds, --trace and --work-dir are required");
  }
  if (!(opt.seconds >= 1.0 && opt.seconds <= 600.0)) Die("--seconds outside [1, 600]");
  return opt;
}

int Run(const Options& opt) {
  if (std::string why = RunReferenceSelfTest(); !why.empty()) {
    Die("reference self-test failed: " + why);
  }
  const WorkloadKind kind =
      opt.workload == "find-ci" ? WorkloadKind::kFind : WorkloadKind::kExplore;
  std::unique_ptr<Tracer> tracer_owner =
      opt.trace ? std::make_unique<Tracer>() : nullptr;
  Tracer* tracer = tracer_owner.get();
  const std::filesystem::path work = opt.work_dir;
  std::filesystem::remove_all(work);
  std::filesystem::create_directories(work);

  // The corpus, on disk; net0 is the benchmark's own copy of generation 0.
  teamdisc::DblpConfig config;
  config.num_authors = kExperts;
  config.target_edges = kTargetEdges;
  config.seed = kCorpusSeed;
  const std::string corpus_path = (work / "corpus.net").string();
  {
    teamdisc::SyntheticDblp corpus =
        Unwrap(teamdisc::GenerateSyntheticDblp(config), "GenerateSyntheticDblp");
    if (teamdisc::Status s = teamdisc::SaveNetwork(corpus.network, corpus_path); !s.ok()) {
      Die("save corpus: " + s.ToString());
    }
  }
  const ExpertNetwork net0 = Unwrap(teamdisc::LoadNetwork(corpus_path), "load corpus");
  std::printf("corpus: %s\n", net0.DebugString().c_str());
  const Workload w = MakeWorkload(kind, opt.seed, net0);

  // Set up kSetups times; the last server stays up for the window.
  std::vector<double> setup_s;
  std::unique_ptr<Server> server;
  for (size_t i = 0; i < kSetups; ++i) {
    if (server != nullptr) server->Stop();
    server = std::make_unique<Server>();
    setup_s.push_back(server->SetUp(corpus_path,
                                    (work / ("snapshot-" + std::to_string(i))).string(),
                                    w, tracer));
  }

  const Json setup_metrics = server->GetJson("/metrics");

  // Swaps with no reads running, before the window.
  std::vector<Swap> swaps;
  for (size_t j = 0; j < w.deltas.size(); ++j) {
    swaps.push_back(ApplySwap(server->service(), w, j, tracer));
  }

  AnswerTable answers;
  const Window window = RunClosedLoop(*server, w, opt.seconds,
                                      kind == WorkloadKind::kExplore, answers, tracer);
  const Json metrics_json = server->GetJson("/metrics");
  const double heap_mb = HeapInUseMiB();
  const double rss_mb = ResidentMiB();

  std::vector<std::string> problems;
  for (const Swap& s : swaps) {
    if (!s.error.empty()) problems.push_back("ApplyDelta: " + s.error);
  }
  const ExpertNetwork net = ApplyDeltas(net0, w, tracer);
  std::vector<std::string> failures =
      CheckOps(window, answers, net, w.deltas.size(), w);
  const std::vector<std::string> canonical =
      InProcessPass(server->service(), net, w, tracer, problems);
  // No swap during the window: every answer equals the in-process answer of
  // its request (for a duplicate-skill request, of the same request without
  // the repeat).
  const std::string kDiffersFromBase = "differs from the answer without the repeated skill";
  for (size_t i = 0; i < window.ops.size(); ++i) {
    const Op& op = window.ops[i];
    const FindRequest& req = w.requests[op.pos];
    const size_t ref = req.base >= 0 ? static_cast<size_t>(req.base) : op.pos;
    if (failures[i].empty() &&
        answers.entries()[op.answer].answer.canonical != canonical[ref]) {
      failures[i] = req.base >= 0 ? kDiffersFromBase : "differs from the in-process answer";
    }
  }

  // Server-side counters: nothing shed, expired, cancelled or refused.
  const Json* counters = metrics_json.Find("counters");
  for (const char* name : {"serve.shed", "serve.expired", "serve.cancelled",
                           "serve.failed", "net.shed", "net.bad_requests",
                           "net.rejected", "net.io_errors"}) {
    const double v = counters == nullptr ? 0.0 : counters->NumberOr(name, 0.0);
    if (v != 0.0) problems.push_back(std::string(name) + " = " + std::to_string(v));
  }

  // Operations: failed when their answer failed a check. A duplicate-skill
  // request's failure is the known fault only when it is the fault's kind:
  // the repeated skill assigned twice, or an answer that differs from the
  // one without the repeat.
  size_t failed = 0, unexpected = 0;
  std::map<std::string, size_t> failure_kinds;
  for (size_t i = 0; i < window.ops.size(); ++i) {
    const std::string& why = failures[i];
    if (why.empty()) continue;
    ++failed;
    const FindRequest& req = w.requests[window.ops[i].pos];
    const bool known =
        req.base >= 0 && (why == kDiffersFromBase ||
                          why == "skill '" + req.skills.back() + "' assigned twice");
    if (!known) {
      ++unexpected;
      ++failure_kinds[why.substr(0, 160)];
    }
  }
  for (const auto& [why, count] : failure_kinds) {
    std::fprintf(stderr, "teambench: %zu failed operation(s): %s\n", count, why.c_str());
  }
  const bool correct = unexpected == 0;

  std::vector<double> latency, wire, queue, solve;
  for (const Op& op : window.ops) {
    latency.push_back(op.latency_ms);
    const WireAnswer& a = answers.entries()[op.answer].answer;
    if (!a.error.empty()) continue;
    wire.push_back(op.latency_ms - a.queue_ms - a.solve_ms);
    queue.push_back(a.queue_ms);
    solve.push_back(a.solve_ms);
  }
  std::vector<double> swap_skill, swap_reweight;
  for (const Swap& s : swaps) (s.reweight ? swap_reweight : swap_skill).push_back(s.ms);
  const double completed = static_cast<double>(window.ops.size());

  std::printf("workload %s seed %llu: %zu finds in %.2f s (%zu failed, %zu expected), "
              "%zu swaps, resident set %.1f MiB\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              window.ops.size(), window.seconds, failed, failed - unexpected,
              swaps.size(), rss_mb);

  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"find_p50_ms", Quantile(latency, 0.50), "ms"},
        {"find_p99_ms", Quantile(latency, 0.99), "ms"},
        {"find_qps", completed / window.seconds, "1/s"},
        {"cpu_ms_per_find", window.cpu_seconds * 1e3 / completed, "ms"},
        {"swap_reweight_p50_ms", Median(swap_reweight), "ms"},
        {"heap_mb", heap_mb, "MiB"},
    };
  } else {
    const LayerProbe probe = ProbeLayers(net0, w, tracer, problems);
    // Index-cache counters as /metrics reports them; an absent one reads 0.
    auto read_gauge = [](const Json& metrics, const char* name) {
      const Json* gauges = metrics.Find("gauges");
      return gauges == nullptr ? 0.0 : gauges->NumberOr(name, 0.0);
    };
    auto gauge = [&](const char* name) { return read_gauge(metrics_json, name); };
    auto setup_gauge = [&](const char* name) { return read_gauge(setup_metrics, name); };
    auto span_quantile = [&](const char* name, double q) {
      return Quantile(tracer->DurationsMs(name), q);
    };
    metrics = {
        {"net.wire_p50_ms", Median(wire), "ms"},
        {"serving.queue_p50_ms", Quantile(queue, 0.50), "ms"},
        {"serving.queue_p99_ms", Quantile(queue, 0.99), "ms"},
        {"serving.solve_p50_ms", Quantile(solve, 0.50), "ms"},
        {"serving.solve_p99_ms", Quantile(solve, 0.99), "ms"},
        {"service.topk_p50_ms", span_quantile("service.topk", 0.5), "ms"},
        {"core.find_teams_p50_ms", span_quantile("core.find_teams", 0.5), "ms"},
        {"core.find_teams_p99_ms", span_quantile("core.find_teams", 0.99), "ms"},
        {"core.finder_make_ms", span_quantile("core.finder_make", 0.5), "ms"},
        {"network.transform_ms", span_quantile("network.transform", 0.5), "ms"},
        {"network.apply_delta_ms", span_quantile("network.apply_delta", 0.5), "ms"},
        {"shortest_path.index_build_ms", span_quantile("shortest_path.make_oracle", 0.5), "ms"},
        {"shortest_path.index_mb", probe.index_bytes / (1024.0 * 1024.0), "MiB"},
        {"service.build_snapshot_s", span_quantile("service.build_snapshot", 0.5) / 1e3, "s"},
        {"service.open_ms", span_quantile("service.open", 0.5), "ms"},
        {"eval.cache_builds", gauge("cache.builds"), "count"},
        {"eval.cache_loads", setup_gauge("cache.loads"), "count"},
        {"eval.cache_resident_mb", gauge("cache.resident_bytes") / (1024.0 * 1024.0), "MiB"},
        {"trace.find_p50_ms", Quantile(latency, 0.50), "ms"},
        {"swap_skill_p50_ms", Median(swap_skill), "ms"},
    };
    if (!opt.trace_dir.empty()) {
      std::filesystem::create_directories(opt.trace_dir);
      const std::string path = (std::filesystem::path(opt.trace_dir) /
                                (opt.workload + "-seed" + std::to_string(opt.seed) +
                                 ".jsonl"))
                                   .string();
      if (!tracer->WriteJsonLines(path)) Die("cannot write " + path);
      std::printf("wrote %zu spans to %s\n", tracer->size(), path.c_str());
    }
  }
  server->Stop();
  std::filesystem::remove_all(work);

  for (Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      problems.push_back(m.name + " has no samples");
      m.value = 0.0;
    }
  }
  for (size_t i = 0; i < problems.size() && i < 20; ++i) {
    std::fprintf(stderr, "teambench: check failed: %s\n", problems[i].c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("%-30s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", ResultJson(correct && problems.empty(), window.ops.size(),
                                 failed, metrics)
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace teambench

int main(int argc, char** argv) {
  return teambench::Run(teambench::ParseArgs(argc, argv));
}
