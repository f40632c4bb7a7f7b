// serve-mixed: an open loop against a coverage_server process started with
// its shipped defaults (transport, --threads), serving the sparse class.
// A fixed ladder of request rates; each request is timed from its due time.
// The mix is 91% /v1/query batches of exact and threshold probes, 6%
// level-capped /v1/audit (half JSON, half binary) and 3% /healthz. These
// shares are an assumption of the benchmark, not measured user traffic (see
// perfbench/METRICS.md). The time goes to server, net, wire and service;
// searches are small, and audits interleaved with queries expose
// head-of-line blocking.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "server/coverage_server.h"
#include "server/http_client.h"
#include "server/json.h"
#include "server/wire_binary.h"
#include "service/coverage_service.h"
#include "workloads.h"

namespace perfbench {

using coverage::CoverageService;
using coverage::Dataset;
using coverage::Pattern;

namespace {

constexpr int kConnections = 4;          // one generator thread each
constexpr double kP99LimitMs = 100.0;    // a step passes below this p99
// A step is valid while the generator's own lateness (send time minus due
// time, for requests whose connection was idle) stays under a tenth of the
// latency limit at p99.
constexpr double kMaxLagMs = 10.0;

struct Params {
  std::size_t n;
  int d;
  int probes_per_query;
  std::uint64_t probe_tau;
  std::vector<std::uint64_t> audit_taus;
  int audit_level;
  std::vector<double> rates;   // the ladder, requests/s
  std::size_t reference_step;  // query_p50 is read at this step
};

Params ParamsFor(const Args& args) {
  if (args.tiny()) {
    return {4000, 16, 8, 20, {10, 40}, 2, {50, 100, 200}, 1};
  }
  // Capacity on a 4-vCPU box is ~600-900 req/s. The top of the ladder is
  // about three times that, so a server up to ~3x faster still meets a
  // failing step; past that the figure is reported as capped.
  return {200000, 36, 64, 1000, {500, 1000, 2000, 4000}, 2,
          {200, 400, 600, 800, 1000, 1200, 1600, 2400}, 0};
}

// Requests per second of ladder time (the run's measured time split over
// its server processes). At --seconds 20 every non-reference step sends
// 1000 requests, so its p99 has ten samples beyond it; the reference rate
// gets half that, in kReferenceChunks chunks spread between the other
// steps.
constexpr double kStepRequestsPerLadderSecond = 150.0;
constexpr double kReferenceRequestsPerLadderSecond = 75.0;
// The ladder stops after this many consecutive valid steps that fail: the
// crossing has been found, and the steps above it only overload further.
constexpr int kFailingStepsToStop = 2;

enum class Kind { kQuery, kAuditJson, kAuditBin, kHealth };

struct Completed {
  Kind kind;
  double latency_s;  // from due time to the last response byte
  double lag_s;      // send time minus due time, when the sender was idle
  bool lag_valid;
  std::size_t backlog;
  bool ok;
};

constexpr std::size_t kReferenceChunks = 4;
constexpr int kInstances = 3;  // server processes per untraced run

struct StepStats {
  double rate = 0;
  Samples query_s, audit_s, all_s, lag_s;
  std::size_t backlog_max = 0;
  std::size_t failures = 0;
  std::size_t requests = 0;
  // Typical backlog in the step's last quarter minus that in its first
  // quarter, and the growth above which the backlog counts as growing.
  double backlog_growth = 0;
  double growth_limit = 0;
  bool valid = true;
  bool backlog_growing = false;
  bool pass = false;
};

// The chunks of one rate as a single step.
StepStats Pool(const std::vector<StepStats>& chunks) {
  StepStats out;
  out.rate = chunks.front().rate;
  for (const StepStats& c : chunks) {
    out.query_s.Append(c.query_s);
    out.audit_s.Append(c.audit_s);
    out.all_s.Append(c.all_s);
    out.lag_s.Append(c.lag_s);
    out.backlog_max = std::max(out.backlog_max, c.backlog_max);
    out.failures += c.failures;
    out.requests += c.requests;
    out.valid = out.valid && c.valid;
    out.backlog_growing = out.backlog_growing || c.backlog_growing;
    out.backlog_growth = std::max(out.backlog_growth, c.backlog_growth);
    out.growth_limit = c.growth_limit;
  }
  out.pass = out.failures == 0 && !out.backlog_growing &&
             out.all_s.Percentile(99) * 1e3 <= kP99LimitMs;
  return out;
}

// Owns the coverage_server child process; stops and reaps it on
// destruction.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Stop(); }

  // Starts the server and waits for its first /healthz 200; returns the
  // seconds that took, or a negative value on failure.
  double Start(const std::string& binary, const std::string& csv,
               const std::string& log_path) {
    const double t0 = NowSeconds();
    int out[2];
    if (pipe(out) != 0) return -1;
    pid_ = fork();
    if (pid_ < 0) return -1;
    if (pid_ == 0) {
      // The server must not outlive a runner that is killed mid-run.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      dup2(out[1], STDOUT_FILENO);
      const int log = open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (log >= 0) dup2(log, STDERR_FILENO);
      close(out[0]);
      close(out[1]);
      // Shipped defaults: the transport must not come from the caller's
      // environment.
      unsetenv("COVERAGE_IO_MODEL");
      execl(binary.c_str(), binary.c_str(), "--data", csv.c_str(), "--port", "0",
            static_cast<char*>(nullptr));
      _exit(127);
    }
    close(out[1]);
    // "coverage_server listening on port N (...)" is printed once serving.
    std::string text;
    char buf[256];
    const std::string marker = "listening on port ";
    auto port_line_done = [&] {
      const std::size_t at = text.find(marker);
      return at != std::string::npos && text.find('\n', at) != std::string::npos;
    };
    while (!port_line_done()) {
      const ssize_t got = read(out[0], buf, sizeof(buf));
      if (got <= 0) break;
      text.append(buf, static_cast<std::size_t>(got));
    }
    close(out[0]);
    const std::size_t at = text.find(marker);
    if (at == std::string::npos) return -1;
    port_ = std::atoi(text.c_str() + at + marker.size());
    while (NowSeconds() - t0 < 120.0) {
      auto client = coverage::http::HttpClient::Connect("127.0.0.1", port_, 1000);
      if (client.ok()) {
        auto resp = client->Get("/healthz");
        if (resp.ok() && resp->status == 200) return NowSeconds() - t0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return -1;
  }

  void Stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    for (int i = 0; i < 200; ++i) {
      if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

  pid_t pid() const { return pid_; }
  int port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

class ServeMixed {
 public:
  ServeMixed(const Args& args, RunResult* result)
      : args_(args), result_(result), p_(ParamsFor(args)) {}

  bool Setup() {
    // The inputs: seeded rows written as CSV; the server and the in-process
    // reference both index that file through the same public path.
    const Dataset rows = MakeBinaryRows(p_.n, p_.d, args_.seed * 1000 + 1);
    csv_ = args_.workdir + "/sparse.csv";
    {
      std::ofstream out(csv_);
      if (!rows.WriteCsv(out).ok()) {
        result_->Mismatch("serve-mixed: could not write " + csv_);
        return false;
      }
    }
    coverage::ServiceOptions opts;
    opts.num_threads = args_.threads;
    auto reference = CoverageService::FromCsvFile(csv_, opts);
    if (!reference.ok()) {
      result_->Mismatch("serve-mixed: " + reference.status().ToString());
      return false;
    }
    reference_ = std::make_unique<CoverageService>(std::move(*reference));
    BuildRequests(rows);

    // Set-up time: process start to the first /healthz 200, five times.
    std::vector<double> setup;
    for (int rep = 0; rep < 5; ++rep) {
      if (!StartServer(&setup)) return false;
      StopServer();
    }
    result_->e2e["setup_s"] = Metric{MedianOf(setup), "s"};
    return true;
  }

  // Starts a fresh coverage_server; appends its start-to-healthy time.
  bool StartServer(std::vector<double>* start_s) {
    server_ = std::make_unique<ServerProcess>();
    const double secs = server_->Start(args_.server_binary, csv_, args_.workdir + "/server.log");
    if (secs < 0) {
      result_->Mismatch("serve-mixed: coverage_server did not become healthy");
      return false;
    }
    start_s->push_back(secs);
    // The transport the shipped defaults resolved to, for the fingerprint.
    std::string io_model = "unknown";
    auto client = coverage::http::HttpClient::Connect("127.0.0.1", server_->port(), 1000);
    if (client.ok()) {
      auto stats = client->Get("/v1/stats");
      auto parsed = stats.ok() ? coverage::json::Parse(stats->body) : stats.status();
      const coverage::json::JsonValue* server = parsed.ok() ? parsed->Find("server") : nullptr;
      if (server != nullptr && server->GetString("io_model").ok()) {
        io_model = *server->GetString("io_model");
      }
    }
    result_->notes["server_io_model"] = io_model;
    return true;
  }

  // Runs the ladder and returns one step per rate run, in ladder order.
  // `seconds` of ladder time set the request counts (see
  // kStepRequestsPerLadderSecond). The reference rate runs in
  // kReferenceChunks chunks spread between the other steps, pooled into
  // its one entry; the ladder's other steps stop early after
  // kFailingStepsToStop consecutive valid failures, so the steps returned
  // may end below the ladder's top (never below the reference step).
  std::vector<StepStats> RunLadder(double seconds, Tracer* tracers) {
    std::vector<StepStats> chunks;
    const std::size_t k = p_.rates.size();
    const std::size_t step_n = RequestCount(seconds * kStepRequestsPerLadderSecond);
    const std::size_t chunk_n =
        RequestCount(seconds * kReferenceRequestsPerLadderSecond / kReferenceChunks);
    const std::size_t ref = p_.reference_step;
    auto run_chunk = [&] {
      chunks.push_back(RunStep(p_.rates[ref], chunk_n, ref, tracers));
    };
    std::vector<StepStats> others;
    int failing = 0;
    for (std::size_t s = 0, seen = 0; s < k && failing < kFailingStepsToStop; ++s) {
      if (s == ref) continue;
      if (seen++ % 2 == 0 && chunks.size() + 1 < kReferenceChunks) run_chunk();
      others.push_back(RunStep(p_.rates[s], step_n, s, tracers));
      if (others.back().valid) failing = others.back().pass ? 0 : failing + 1;
    }
    while (chunks.size() < kReferenceChunks) run_chunk();
    std::vector<StepStats> steps;
    for (std::size_t s = 0, o = 0; s < k; ++s) {
      if (s == ref) {
        steps.push_back(Pool(chunks));
      } else if (o < others.size()) {
        steps.push_back(std::move(others[o++]));
      }
    }
    return steps;
  }

  // Warm-up at a mid-ladder rate: connections, caches, pools, and vCPUs
  // that a virtual machine may have parked while idle.
  void WarmUp() {
    const double rate = p_.rates[std::min<std::size_t>(1, p_.rates.size() - 1)];
    (void)RunStep(rate, RequestCount(rate * 1.5), p_.rates.size(), nullptr);
  }

  // The highest rate that meets kP99LimitMs without a growing backlog.
  // Steps whose generator fell behind are skipped. A step passes when it
  // has no failures, no growing backlog and a p99 within the limit; a lone
  // failing step below a passing one does not end the search. The figure
  // is the highest passing step, interpolated toward the next valid step
  // up to where the first of its two gates is crossed (p99 log-linearly,
  // backlog growth linearly), so it moves smoothly with the server.
  // `capped` is set when the ladder's top step passed: the server may be
  // faster than the figure says. When no step passes, the figure lies
  // below the ladder.
  double MaxRate(const std::vector<StepStats>& steps, bool* capped) const {
    *capped = false;
    std::vector<const StepStats*> usable;
    for (const StepStats& s : steps) {
      if (s.valid) usable.push_back(&s);
    }
    auto p99_ms = [](const StepStats* s) {
      return std::max(s->all_s.Percentile(99) * 1e3, 1e-3);
    };
    for (std::size_t i = usable.size(); i-- > 0;) {
      if (!usable[i]->pass) continue;
      if (i + 1 == usable.size()) {
        *capped = usable[i]->rate >= p_.rates.back();
        return usable[i]->rate;
      }
      const StepStats* lo = usable[i];
      const StepStats* next = usable[i + 1];
      if (next->failures > 0) return lo->rate;
      double frac = 1.0;
      if (p99_ms(next) > kP99LimitMs) {
        const double p_lo = std::log(p99_ms(lo));
        frac = (std::log(kP99LimitMs) - p_lo) / (std::log(p99_ms(next)) - p_lo);
      }
      if (next->backlog_growing) {
        frac = std::min(frac, (next->growth_limit - lo->backlog_growth) /
                                  (next->backlog_growth - lo->backlog_growth));
      }
      return lo->rate + std::clamp(frac, 0.0, 1.0) * (next->rate - lo->rate);
    }
    // No step passed: scale the lowest valid step down by how far it
    // missed each gate.
    if (usable.empty() || usable[0]->failures > 0) return 0.0;
    const StepStats* lo = usable[0];
    double scale = std::min(1.0, kP99LimitMs / p99_ms(lo));
    if (lo->backlog_growing) scale = std::min(scale, lo->growth_limit / lo->backlog_growth);
    return lo->rate * scale;
  }

  pid_t server_pid() const { return server_->pid(); }
  void StopServer() { server_.reset(); }
  const Params& params() const { return p_; }
  const std::string& csv() const { return csv_; }
  const CoverageService& reference() const { return *reference_; }
  const std::vector<std::string>& query_bodies() const { return query_bodies_; }
  const std::vector<std::string>& audit_bodies() const { return audit_bodies_; }

 private:
  void BuildRequests(const Dataset& rows) {
    const coverage::Schema& schema = reference_->schema();
    std::mt19937_64 rng(args_.seed);
    // Map the generator's value codes onto the served schema's codes.
    auto to_served = [&](const Pattern& p) {
      std::vector<coverage::Value> cells(p.cells().size(), coverage::kWildcard);
      for (int a = 0; a < p.num_attributes(); ++a) {
        if (!p.is_deterministic(a)) continue;
        const std::string& name = rows.schema().attribute(a).value_names[
            static_cast<std::size_t>(p.cell(a))];
        cells[static_cast<std::size_t>(a)] = *schema.ValueIndex(a, name);
      }
      return Pattern(std::move(cells));
    };
    for (int q = 0; q < 48; ++q) {
      coverage::QueryBatchRequest req;
      std::string body = "{\"queries\": [";
      for (int i = 0; i < p_.probes_per_query; ++i) {
        const Pattern probe = to_served(RandomProbe(rows, 1 + i % 3, rng));
        // Three exact counts to one threshold check: exact probes cost the
        // same for every pattern, which keeps the work per request steady.
        const std::uint64_t tau = i % 4 != 3 ? 0 : p_.probe_tau;
        req.queries.push_back({probe, tau});
        body += (i > 0 ? ", " : "") + std::string("{\"pattern\": \"") +
                probe.ToString() + "\", \"tau\": " + std::to_string(tau) + "}";
      }
      body += "]}";
      auto answer = reference_->QueryBatch(req);
      query_bodies_.push_back(body);
      query_expected_.push_back(answer.ok() ? answer->results
                                            : std::vector<coverage::QueryOutcome>{});
    }
    for (std::uint64_t tau : p_.audit_taus) {
      for (const char* algo : {"breaker", "deepdiver"}) {
        coverage::AuditRequest req;
        req.tau = tau;
        req.max_level = p_.audit_level;
        req.algorithm = std::string(algo) == "breaker"
                            ? coverage::MupAlgorithm::kPatternBreaker
                            : coverage::MupAlgorithm::kDeepDiver;
        auto answer = reference_->Audit(req);
        audit_bodies_.push_back("{\"tau\": " + std::to_string(tau) +
                                ", \"max_level\": " + std::to_string(p_.audit_level) +
                                ", \"algorithm\": \"" + algo + "\"}");
        audit_expected_.push_back(answer.ok() ? PatternStrings(answer->mups)
                                              : std::vector<std::string>{});
      }
    }
  }

  bool CheckQuery(std::size_t body, const coverage::http::Response& resp) {
    auto parsed = coverage::json::Parse(resp.body);
    if (!parsed.ok()) return false;
    const auto* results = parsed->Find("results");
    if (results == nullptr || !results->is_array()) return false;
    const auto& want = query_expected_[body];
    const auto& got = results->AsArray();
    if (got.size() != want.size()) return false;
    for (std::size_t i = 0; i < got.size(); ++i) {
      auto cov = got[i].GetUint("coverage");
      auto covered = got[i].GetBool("covered");
      std::uint64_t value = cov.ok() ? *cov : ~0ull;
      if (args_.corrupt && i == 0) value += 1;
      if (!cov.ok() || !covered.ok() || value != want[i].coverage ||
          *covered != want[i].covered) {
        return false;
      }
    }
    return true;
  }

  bool CheckAudit(std::size_t body, bool binary, const coverage::http::Response& resp) {
    std::vector<std::string> got;
    if (binary) {
      auto decoded = coverage::wire::DecodeAuditResultBinary(resp.body, reference_->schema());
      if (!decoded.ok()) return false;
      got = PatternStrings(decoded->mups.empty() && decoded->packed
                               ? decoded->packed->Materialize()
                               : decoded->mups);
    } else {
      auto parsed = coverage::json::Parse(resp.body);
      if (!parsed.ok()) return false;
      const auto* mups = parsed->Find("mups");
      if (mups == nullptr || !mups->is_array()) return false;
      for (const auto& m : mups->AsArray()) {
        auto text = m.GetString("pattern");
        if (!text.ok()) return false;
        got.push_back(*text);
      }
      std::sort(got.begin(), got.end());
    }
    return got == audit_expected_[body];
  }

  static std::size_t RequestCount(double n) {
    return std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(n)));
  }

  // One ladder step: `n` requests due at `rate` requests/s; the request mix
  // is seeded by (seed, step_index).
  StepStats RunStep(double rate, std::size_t n, std::size_t step_index, Tracer* tracers) {
    std::mt19937_64 rng(args_.seed * 7907 + step_index);
    // Each block of 100 requests holds exactly 91 queries, 6 audits and 3
    // health checks in a seeded order; audits walk through every body, in
    // JSON and binary in turn, so each chunk of a step does the same work.
    std::vector<std::pair<Kind, std::size_t>> plan;
    std::size_t audits = 0;
    while (plan.size() < n) {
      std::vector<Kind> block(100, Kind::kQuery);
      std::fill(block.begin() + 91, block.begin() + 97, Kind::kAuditJson);
      std::fill(block.begin() + 97, block.end(), Kind::kHealth);
      std::shuffle(block.begin(), block.end(), rng);
      for (Kind kind : block) {
        std::size_t body = 0;
        if (kind == Kind::kQuery) body = rng() % query_bodies_.size();
        if (kind == Kind::kAuditJson) {
          body = audits % audit_bodies_.size();
          if ((audits / audit_bodies_.size()) % 2 == 1) kind = Kind::kAuditBin;
          ++audits;
        }
        plan.emplace_back(kind, body);
      }
    }
    plan.resize(n);
    std::vector<Completed> done(n);
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> failures{0};
    const double t0 = NowSeconds() + 0.01;
    const double interval = 1.0 / rate;
    auto worker = [&](int conn) {
      coverage::http::HttpClient::Options copts;
      copts.read_timeout_ms = 60000;
      auto client = coverage::http::HttpClient::Connect("127.0.0.1", server_->port(), copts);
      Tracer* tracer = tracers != nullptr ? &tracers[conn] : nullptr;
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= n) break;
        const double due = t0 + static_cast<double>(i) * interval;
        const double now = NowSeconds();
        const std::size_t due_count =
            now < t0 ? 0 : std::min(n, static_cast<std::size_t>((now - t0) / interval) + 1);
        Completed c{};
        c.kind = plan[i].first;
        c.backlog = due_count > i ? due_count - i : 0;
        c.lag_valid = now < due;
        if (now < due) {
          std::this_thread::sleep_for(std::chrono::duration<double>(due - now));
        }
        const double sent = NowSeconds();
        c.lag_s = c.lag_valid ? sent - due : 0.0;
        coverage::http::Request req;
        req.method = c.kind == Kind::kHealth ? "GET" : "POST";
        req.target = c.kind == Kind::kQuery ? "/v1/query"
                     : c.kind == Kind::kHealth ? "/healthz" : "/v1/audit";
        if (c.kind == Kind::kQuery) req.body = query_bodies_[plan[i].second];
        if (c.kind == Kind::kAuditJson || c.kind == Kind::kAuditBin) {
          req.body = audit_bodies_[plan[i].second];
        }
        if (c.kind == Kind::kAuditBin) {
          req.headers.push_back({"Accept", "application/x-coverage-bin"});
        }
        auto resp = [&]() -> coverage::StatusOr<coverage::http::Response> {
          if (!client.ok()) return client.status();
          Span span(tracer, "loadgen.request");
          return client->Roundtrip(std::move(req));
        }();
        c.latency_s = NowSeconds() - due;
        c.ok = resp.ok() && resp->status == 200;
        // Correctness: every audit and every fourth query is decoded and
        // compared with the in-process answer; every health check is read.
        if (c.ok) {
          switch (c.kind) {
            case Kind::kQuery:
              if (i % 4 == 0) c.ok = CheckQuery(plan[i].second, *resp);
              break;
            case Kind::kAuditJson:
            case Kind::kAuditBin:
              c.ok = CheckAudit(plan[i].second, c.kind == Kind::kAuditBin, *resp);
              break;
            case Kind::kHealth:
              c.ok = resp->body.find("serving") != std::string::npos;
              break;
          }
        }
        if (!c.ok) failures.fetch_add(1);
        done[i] = c;
      }
    };
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) threads.emplace_back(worker, c);
    for (auto& t : threads) t.join();

    StepStats st;
    st.rate = rate;
    st.requests = n;
    st.failures = failures.load();
    Samples first_quarter, last_quarter;  // backlog seen by each request
    for (std::size_t i = 0; i < n; ++i) {
      const Completed& c = done[i];
      st.all_s.Add(c.latency_s);
      if (c.kind == Kind::kQuery) st.query_s.Add(c.latency_s);
      if (c.kind == Kind::kAuditJson || c.kind == Kind::kAuditBin) st.audit_s.Add(c.latency_s);
      if (c.lag_valid) st.lag_s.Add(c.lag_s);
      st.backlog_max = std::max(st.backlog_max, c.backlog);
      if (4 * i < n) first_quarter.Add(static_cast<double>(c.backlog));
      if (4 * i >= 3 * n) last_quarter.Add(static_cast<double>(c.backlog));
    }
    // A generator that woke late measures itself, not the server.
    st.valid = st.lag_s.empty() || st.lag_s.Percentile(99) * 1e3 <= kMaxLagMs;
    // Growing: the typical backlog in the step's last quarter exceeds that
    // of its first quarter by more than the connections and 2% of the
    // step, so a burst behind one audit does not count, a server that
    // falls steadily behind does.
    st.backlog_growth = last_quarter.Median() - first_quarter.Median();
    st.growth_limit = std::max<double>(kConnections, static_cast<double>(n) / 50.0);
    st.backlog_growing = st.backlog_growth > st.growth_limit;
    st.pass = st.failures == 0 && !st.backlog_growing &&
              st.all_s.Percentile(99) * 1e3 <= kP99LimitMs;
    result_->attempted += st.requests;
    for (std::size_t f = 0; f < st.failures; ++f) {
      result_->Mismatch("serve-mixed: a response at " + std::to_string(static_cast<int>(rate)) +
                        " rps failed or differed from the in-process answer");
    }
    return st;
  }

  const Args& args_;
  RunResult* result_;
  Params p_;
  std::string csv_;
  std::unique_ptr<CoverageService> reference_;
  std::unique_ptr<ServerProcess> server_;
  std::vector<std::string> query_bodies_;
  std::vector<std::vector<coverage::QueryOutcome>> query_expected_;
  std::vector<std::string> audit_bodies_;
  std::vector<std::vector<std::string>> audit_expected_;
};

void ReportSteps(const std::string& prefix, const std::vector<StepStats>& steps,
                 RunResult* result) {
  for (const StepStats& s : steps) {
    const std::string tag = prefix + "step" + std::to_string(static_cast<int>(s.rate)) + ".";
    result->Report(tag + "p50_ms", s.all_s.Median() * 1e3, "ms");
    result->Report(tag + "p99_ms", s.all_s.Percentile(99) * 1e3, "ms");
    result->Report(tag + "lag_p99_us", s.lag_s.Percentile(99) * 1e6, "us");
    result->Report(tag + "backlog_max", static_cast<double>(s.backlog_max), "count");
    result->Report(tag + "valid", s.valid ? 1.0 : 0.0, "bool");
    result->Report(tag + "backlog_growth", s.backlog_growth, "count");
    result->Report(tag + "backlog_growing", s.backlog_growing ? 1.0 : 0.0, "bool");
    result->Report(tag + "pass", s.pass ? 1.0 : 0.0, "bool");
  }
}

// What one coverage_server instance measured.
struct Instance {
  double query_p50 = 0, query_p80 = 0, query_p90 = 0, query_p95 = 0;
  double audit_p50 = 0, max_rate = 0, rss_mib = 0;
  bool capped = false;
  std::vector<StepStats> steps;
};

Instance Summarize(const ServeMixed& bench, const std::vector<StepStats>& steps,
                   double rss_mib) {
  Instance out;
  out.steps = steps;
  const StepStats& r = steps[bench.params().reference_step];
  // The tail and audit report figures pool every step at or below twice
  // the reference rate (200-400 req/s): at one rate they depend on which
  // requests happen to overlap.
  Samples light_queries;
  Samples light_audits;
  for (const StepStats& s : steps) {
    if (s.rate > 2 * r.rate) continue;
    light_queries.Append(s.query_s);
    light_audits.Append(s.audit_s);
  }
  out.query_p50 = r.query_s.Median();
  out.query_p80 = light_queries.Percentile(80);
  out.query_p90 = light_queries.Percentile(90);
  out.query_p95 = light_queries.Percentile(95);
  out.audit_p50 = light_audits.Median();
  out.max_rate = bench.MaxRate(steps, &out.capped);
  out.rss_mib = rss_mib;
  return out;
}

}  // namespace

void RunServeMixed(const Args& args, RunResult* result) {
  ServeMixed bench(args, result);
  if (!bench.Setup()) return;
  std::vector<double> unused_start_s;
  if (!args.trace) {
    // Three server processes share the measured time. Each latency is the
    // lowest of the three and the rate the highest; memory is the median.
    // On a 4-vCPU VM now and then a whole process, or two in a row, runs
    // 40-250% slower for its lifetime; host interference only ever adds
    // time, so the best process is the steadiest reading of the code.
    std::vector<Instance> instances;
    for (int i = 0; i < kInstances; ++i) {
      if (!bench.StartServer(&unused_start_s)) return;
      bench.WarmUp();
      const std::vector<StepStats> steps = bench.RunLadder(args.seconds / kInstances, nullptr);
      instances.push_back(Summarize(bench, steps, PeakRssMib(bench.server_pid())));
      bench.StopServer();
    }
    auto values = [&](double Instance::*field) {
      std::vector<double> v;
      for (const Instance& in : instances) v.push_back(in.*field);
      return v;
    };
    auto lowest = [&](double Instance::*field) {
      const std::vector<double> v = values(field);
      return *std::min_element(v.begin(), v.end());
    };
    const std::vector<double> rates = values(&Instance::max_rate);
    const auto best = std::max_element(rates.begin(), rates.end());
    const double max_rate = *best;
    result->e2e["peak_rss_mib"] = Metric{MedianOf(values(&Instance::rss_mib)), "MiB"};
    result->e2e["op_p50_ms"] = Metric{1e3 * lowest(&Instance::query_p50), "ms"};
    result->e2e["ops_per_s"] = Metric{max_rate, "1/s"};
    result->Report("query_p50_ms", 1e3 * lowest(&Instance::query_p50), "ms");
    result->Report("query_p80_ms", 1e3 * lowest(&Instance::query_p80), "ms");
    result->Report("query_p90_ms", 1e3 * lowest(&Instance::query_p90), "ms");
    result->Report("query_p95_ms", 1e3 * lowest(&Instance::query_p95), "ms");
    result->Report("audit_req_p50_ms", 1e3 * lowest(&Instance::audit_p50), "ms");
    result->Report("max_rate_rps", max_rate, "1/s");
    // 1 when the best process passed the ladder's top step: the figure is
    // then a floor, not the server's limit.
    result->Report("max_rate_capped",
                   instances[static_cast<std::size_t>(best - rates.begin())].capped ? 1.0 : 0.0,
                   "bool");
    for (std::size_t i = 0; i < instances.size(); ++i) {
      const Instance& in = instances[i];
      const StepStats& r = in.steps[bench.params().reference_step];
      const std::string tag = "server" + std::to_string(i) + ".";
      result->Report(tag + "query_p50_ms", 1e3 * in.query_p50, "ms");
      result->Report(tag + "query_p80_ms", 1e3 * in.query_p80, "ms");
      result->Report(tag + "query_p90_ms", 1e3 * in.query_p90, "ms");
      result->Report(tag + "query_p99_ms", 1e3 * r.query_s.Percentile(99), "ms");
      result->Report(tag + "audit_req_p50_ms", 1e3 * in.audit_p50, "ms");
      result->Report(tag + "audit_req_p99_ms", 1e3 * r.audit_s.Percentile(99), "ms");
      result->Report(tag + "max_rate_rps", in.max_rate, "1/s");
      result->Report(tag + "max_rate_capped", in.capped ? 1.0 : 0.0, "bool");
      ReportSteps(tag, in.steps, result);
    }
    return;
  }
  // Traced run, one server: the ladder untraced (loadgen health), the
  // ladder again with a span on every request (the overhead), then the
  // layer sweep on the served dataset.
  if (!bench.StartServer(&unused_start_s)) return;
  bench.WarmUp();
  const std::size_t ref = bench.params().reference_step;
  std::vector<Tracer> tracers;
  for (int c = 0; c < kConnections; ++c) tracers.emplace_back(true);
  const std::vector<StepStats> steps = bench.RunLadder(args.seconds / 2, nullptr);
  const std::vector<StepStats> traced = bench.RunLadder(args.seconds / 2, tracers.data());
  bench.StopServer();
  double lag_p99 = 0.0;
  double backlog = 0.0;
  for (const StepStats& s : steps) {
    lag_p99 = std::max(lag_p99, s.lag_s.Percentile(99));
    backlog = std::max(backlog, static_cast<double>(s.backlog_max));
  }
  SetLoopLayerMetrics(1e6 * lag_p99, backlog, traced[ref].query_s.Median(),
                      steps[ref].query_s.Median(), result);
  ReportSteps("", steps, result);
  std::ifstream csv(bench.csv());
  auto rows = Dataset::InferFromCsv(csv);
  if (!rows.ok()) {
    result->Mismatch("serve-mixed: " + rows.status().ToString());
    return;
  }
  Tracer tracer(true);
  const std::size_t batch = args.tiny() ? 250 : 2000;
  const Dataset stream = StreamRows(*rows, batch * 16);
  SweepLayers(args, {{&*rows, bench.params().audit_taus[1], bench.params().audit_level}},
              {&stream, 300, -1, batch, batch * 8},
              &tracer, result);
  WriteSpans(tracer, args.workdir + "/spans.json");
}

}  // namespace perfbench
