// The deployable coverage server: index one dataset (CSV file or datagen
// spec), then serve the JSON wire protocol until SIGINT/SIGTERM.
//
//   coverage_server --data lending.csv --port 8080 --threads 8
//   coverage_server --spec compas --port 8080
//   curl -s localhost:8080/healthz
//   curl -s localhost:8080/v1/audit -d '{"tau": 30}'
//
// The same binary also runs the distributed tier (docs/DISTRIBUTED.md):
//
//   coverage_server --role shard --spec compas --shard-index 0 \
//       --shard-count 3 --port 9001        # rows r with r % 3 == 0
//   coverage_server --role coordinator \
//       --shards localhost:9001,localhost:9002,localhost:9003 --port 8080
//
// See docs/SERVER_API.md for every route.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/coordinator.h"
#include "common/executor.h"
#include "datagen/adversarial.h"
#include "datagen/airbnb.h"
#include "datagen/bluenile.h"
#include "datagen/compas.h"
#include "obs/log.h"
#include "server/coverage_server.h"

namespace {

struct ServerCliOptions {
  std::string data_path;      // --data CSV
  std::string spec_name;      // --spec compas | airbnb | bluenile | diagonal
  std::size_t spec_rows = 0;  // --rows (0 = dataset default)
  int spec_d = 13;            // --d (airbnb/diagonal width)
  int port = 8080;
  int threads = 0;            // 0 = the CPUs this process may run on
  std::size_t max_body_bytes = 8 * 1024 * 1024;
  std::uint64_t tau = 30;     // default tau for sessions
  int max_cardinality = 100;
  std::string data_dir;       // --data-dir (durable sessions root)
  std::string durability = "fsync";  // --durability none|async|fsync
  std::uint64_t idle_ttl = 0;        // --idle-ttl seconds (0 = never reap)
  std::uint64_t max_pending = 256;   // --max-pending (0 = unbounded)
  std::uint64_t max_queue_wait_ms = 0;  // --max-queue-wait-ms (0 = off)
  std::string log_level = "info";    // --log-level debug|info|warn|error|off
  bool log_json = false;             // --log-json (JSON lines on stderr)
  std::uint64_t slow_request_ms = 1000;  // --slow-request-ms (0 = off)

  // Distributed tier (docs/DISTRIBUTED.md).
  std::string role = "standalone";   // --role standalone|shard|coordinator
  std::uint64_t shard_index = 0;     // --shard-index (shard role)
  std::uint64_t shard_count = 1;     // --shard-count (shard role)
  std::string shards;                // --shards host:port,host:port,...
  std::uint64_t rpc_timeout_ms = 30000;      // --rpc-timeout-ms
  std::uint64_t retry_attempts = 3;          // --shard-retry-attempts
  std::uint64_t retry_backoff_ms = 50;       // --shard-retry-backoff-ms
  std::uint64_t ring_vnodes = 128;           // --ring-vnodes
};

void Usage(std::ostream& out) {
  out << "usage: coverage_server (--data PATH | --spec NAME) [flags]\n"
         "\n"
         "  --data PATH            CSV to index and serve (streamed in two\n"
         "                         passes; peak memory is one chunk)\n"
         "  --spec NAME            serve a synthetic dataset instead:\n"
         "                         compas | airbnb | bluenile | diagonal\n"
         "  --rows N               --spec row count (0 = dataset default)\n"
         "  --d N                  --spec width for airbnb/diagonal\n"
         "  --port N               TCP port (default 8080; 0 = ephemeral,\n"
         "                         printed on stdout)\n"
         "  --threads N            HTTP workers and the per-request worker\n"
         "                         cap of searches and query batches, which\n"
         "                         share one process-wide executor (default\n"
         "                         0 = the CPUs this process may run on)\n"
         "  --max-body-bytes N     reject request bodies above N bytes\n"
         "                         (default 8388608)\n"
         "  --tau N                default coverage threshold for sessions\n"
         "                         (default 30)\n"
         "  --max-cardinality N    CSV schema-inference cap (default 100)\n"
         "  --data-dir PATH        persist sessions under PATH (WAL +\n"
         "                         snapshots); on boot every session found\n"
         "                         there is recovered. Without it sessions\n"
         "                         are in-memory only\n"
         "  --durability MODE      default WAL policy for durable sessions:\n"
         "                         none | async | fsync (default fsync)\n"
         "  --idle-ttl N           reap sessions idle for N seconds; durable\n"
         "                         ones are checkpointed and stay on disk\n"
         "                         (default 0 = never)\n"
         "  --max-pending N        shed connections with 503 + Retry-After\n"
         "                         once N are queued for a worker (default\n"
         "                         256; 0 = unbounded)\n"
         "  --max-queue-wait-ms N  also shed connections that waited longer\n"
         "                         than N ms in that queue (default 0 = off)\n"
         "  --log-level LEVEL      structured-log threshold on stderr:\n"
         "                         debug | info | warn | error | off\n"
         "                         (default info)\n"
         "  --log-json             emit logs as JSON lines instead of text\n"
         "  --slow-request-ms N    WARN slow_request for requests above N ms\n"
         "                         (default 1000; 0 = off)\n"
         "\n"
         "distributed tier (docs/DISTRIBUTED.md):\n"
         "  --role ROLE            standalone (default) | shard |\n"
         "                         coordinator\n"
         "  --shard-index K        this shard serves rows r with\n"
         "                         r % shard-count == K (shard role)\n"
         "  --shard-count N        total shards slicing the dataset\n"
         "                         (shard role; default 1)\n"
         "  --shards LIST          comma-separated shard endpoints\n"
         "                         host:port,... (coordinator role)\n"
         "  --rpc-timeout-ms N     per-attempt connect/read timeout for\n"
         "                         coordinator->shard calls (default 30000)\n"
         "  --shard-retry-attempts N  tries per shard call, including the\n"
         "                         first (default 3)\n"
         "  --shard-retry-backoff-ms N  base retry backoff, doubled per\n"
         "                         attempt (default 50)\n"
         "  --ring-vnodes N        virtual nodes per shard on the session\n"
         "                         ring (default 128)\n";
}

bool ParseUint(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = static_cast<std::uint64_t>(v);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using coverage::CoverageServer;
  using coverage::CoverageServerOptions;
  using coverage::CoverageService;
  using coverage::DatagenSpec;
  using coverage::ServiceOptions;

  ServerCliOptions cli;
  std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    auto next = [&](std::uint64_t* out) {
      if (i + 1 >= args.size() || !ParseUint(args[++i].c_str(), out)) {
        std::cerr << "flag " << flag << " expects a non-negative integer\n";
        std::exit(2);
      }
    };
    std::uint64_t v = 0;
    if (flag == "--help" || flag == "-h") {
      Usage(std::cout);
      return 0;
    } else if (flag == "--data" && i + 1 < args.size()) {
      cli.data_path = args[++i];
    } else if (flag == "--spec" && i + 1 < args.size()) {
      cli.spec_name = args[++i];
    } else if (flag == "--rows") {
      next(&v);
      cli.spec_rows = static_cast<std::size_t>(v);
    } else if (flag == "--d") {
      next(&v);
      cli.spec_d = static_cast<int>(v);
    } else if (flag == "--port") {
      next(&v);
      cli.port = static_cast<int>(v);
    } else if (flag == "--threads") {
      next(&v);
      cli.threads = static_cast<int>(v);
    } else if (flag == "--max-body-bytes") {
      next(&v);
      cli.max_body_bytes = static_cast<std::size_t>(v);
    } else if (flag == "--tau") {
      next(&v);
      cli.tau = v;
    } else if (flag == "--max-cardinality") {
      next(&v);
      cli.max_cardinality = static_cast<int>(v);
    } else if (flag == "--data-dir" && i + 1 < args.size()) {
      cli.data_dir = args[++i];
    } else if (flag == "--durability" && i + 1 < args.size()) {
      cli.durability = args[++i];
    } else if (flag == "--idle-ttl") {
      next(&cli.idle_ttl);
    } else if (flag == "--max-pending") {
      next(&cli.max_pending);
    } else if (flag == "--max-queue-wait-ms") {
      next(&cli.max_queue_wait_ms);
    } else if (flag == "--log-level" && i + 1 < args.size()) {
      cli.log_level = args[++i];
    } else if (flag == "--log-json") {
      cli.log_json = true;
    } else if (flag == "--slow-request-ms") {
      next(&cli.slow_request_ms);
    } else if (flag == "--role" && i + 1 < args.size()) {
      cli.role = args[++i];
    } else if (flag == "--shard-index") {
      next(&cli.shard_index);
    } else if (flag == "--shard-count") {
      next(&cli.shard_count);
    } else if (flag == "--shards" && i + 1 < args.size()) {
      cli.shards = args[++i];
    } else if (flag == "--rpc-timeout-ms") {
      next(&cli.rpc_timeout_ms);
    } else if (flag == "--shard-retry-attempts") {
      next(&cli.retry_attempts);
    } else if (flag == "--shard-retry-backoff-ms") {
      next(&cli.retry_backoff_ms);
    } else if (flag == "--ring-vnodes") {
      next(&cli.ring_vnodes);
    } else {
      std::cerr << "unknown flag '" << flag << "'\n";
      Usage(std::cerr);
      return 2;
    }
  }
  if (cli.threads <= 0) cli.threads = coverage::HardwareWorkers();
  if (cli.role != "standalone" && cli.role != "shard" &&
      cli.role != "coordinator") {
    std::cerr << "--role must be standalone, shard or coordinator\n";
    return 2;
  }
  if (cli.role == "coordinator") {
    if (cli.shards.empty()) {
      std::cerr << "--role coordinator requires --shards\n";
      return 2;
    }
    if (!cli.data_path.empty() || !cli.spec_name.empty()) {
      std::cerr << "a coordinator holds no data; drop --data/--spec\n";
      return 2;
    }
  } else if (cli.data_path.empty() == cli.spec_name.empty()) {
    std::cerr << "pass exactly one of --data or --spec\n";
    Usage(std::cerr);
    return 2;
  }
  if (cli.role == "shard" &&
      (cli.shard_count < 1 || cli.shard_index >= cli.shard_count)) {
    std::cerr << "--shard-index must be < --shard-count (>= 1)\n";
    return 2;
  }

  coverage::obs::LogLevel log_level;
  if (!coverage::obs::ParseLogLevel(cli.log_level, &log_level)) {
    std::cerr << "--log-level must be debug, info, warn, error or off\n";
    return 2;
  }
  coverage::obs::SetLogLevel(log_level);
  coverage::obs::SetLogJson(cli.log_json);

  if (cli.role == "coordinator") {
    coverage::cluster::CoordinatorOptions copts;
    copts.http.port = cli.port;
    copts.http.num_threads = cli.threads;
    copts.http.max_body_bytes = cli.max_body_bytes;
    copts.http.max_pending = static_cast<std::size_t>(cli.max_pending);
    copts.http.max_queue_wait_ms = static_cast<int>(cli.max_queue_wait_ms);
    std::size_t pos = 0;
    while (pos <= cli.shards.size()) {
      std::size_t comma = cli.shards.find(',', pos);
      if (comma == std::string::npos) comma = cli.shards.size();
      if (comma > pos) copts.shards.push_back(cli.shards.substr(pos, comma - pos));
      pos = comma + 1;
    }
    copts.rpc.connect_timeout_ms = static_cast<int>(cli.rpc_timeout_ms);
    copts.rpc.read_timeout_ms = static_cast<int>(cli.rpc_timeout_ms);
    copts.retry.max_attempts = static_cast<int>(cli.retry_attempts);
    copts.retry.backoff_ms = static_cast<int>(cli.retry_backoff_ms);
    copts.ring_vnodes = static_cast<int>(cli.ring_vnodes);

    coverage::cluster::ClusterCoordinator coordinator(std::move(copts));
    const coverage::Status started = coordinator.Start();
    if (!started.ok()) {
      std::cerr << started.ToString() << "\n";
      return 1;
    }
    coordinator.StopOnSignal();
    std::cout << "coverage_server coordinator listening on port "
              << coordinator.port() << " ("
              << coordinator.ring().num_members() << " shard(s), "
              << coordinator.schema().num_attributes() << " attributes)\n"
              << std::flush;
    coordinator.Wait();
    std::cout << "coverage_server: graceful shutdown complete\n";
    return 0;
  }

  ServiceOptions sopts;
  sopts.num_threads = cli.threads;
  sopts.max_cardinality = cli.max_cardinality;

  const DatagenSpec spec{cli.spec_name, cli.spec_rows, cli.spec_d, 42};
  auto service = [&]() -> coverage::StatusOr<CoverageService> {
    if (cli.role != "shard") {
      return cli.data_path.empty()
                 ? CoverageService::FromSpec(spec, sopts)
                 : CoverageService::FromCsvFile(cli.data_path, sopts);
    }
    // Shard mode: every shard loads (or generates) the *full* dataset — so
    // all shards agree on the schema byte-for-byte — and indexes only the
    // rows r with r % shard_count == shard_index.
    coverage::Dataset full{coverage::Schema()};
    if (!cli.data_path.empty()) {
      std::ifstream is(cli.data_path);
      if (!is) {
        return coverage::Status::InvalidArgument("cannot open '" +
                                                 cli.data_path + "'");
      }
      auto loaded = coverage::Dataset::InferFromCsv(is, cli.max_cardinality);
      if (!loaded.ok()) return loaded.status();
      full = std::move(*loaded);
    } else {
      const coverage::Status valid = spec.Validate();
      if (!valid.ok()) return valid;
      if (spec.name == "compas") {
        full = coverage::datagen::MakeCompas(spec.n == 0 ? 6889 : spec.n,
                                             spec.seed)
                   .data;
      } else if (spec.name == "airbnb") {
        full = coverage::datagen::MakeAirbnb(spec.n == 0 ? 10000 : spec.n,
                                             spec.d, spec.seed);
      } else if (spec.name == "bluenile") {
        full = coverage::datagen::MakeBlueNile(
            spec.n == 0 ? 116300 : spec.n, spec.seed);
      } else {
        full = coverage::datagen::MakeDiagonal(spec.d);
      }
    }
    coverage::Dataset slice(full.schema());
    for (std::size_t r = cli.shard_index; r < full.num_rows();
         r += cli.shard_count) {
      slice.AppendRow(full.row(r));
    }
    return CoverageService::FromDataset(slice, sopts);
  }();
  if (!service.ok()) {
    std::cerr << service.status().ToString() << "\n";
    return 1;
  }

  CoverageServerOptions options;
  options.http.port = cli.port;
  options.http.num_threads = cli.threads;
  options.http.max_body_bytes = cli.max_body_bytes;
  options.http.max_pending = static_cast<std::size_t>(cli.max_pending);
  options.http.max_queue_wait_ms = static_cast<int>(cli.max_queue_wait_ms);
  options.session_defaults.tau = cli.tau;
  options.session_defaults.num_threads = cli.threads;
  options.session_defaults.idle_ttl_seconds = cli.idle_ttl;
  options.data_dir = cli.data_dir;
  options.enable_internal_routes = cli.role == "shard";
  options.slow_request_seconds =
      static_cast<double>(cli.slow_request_ms) / 1000.0;
  if (cli.durability == "none") {
    options.session_defaults.durability = coverage::DurabilityMode::kNone;
  } else if (cli.durability == "async") {
    options.session_defaults.durability = coverage::DurabilityMode::kAsync;
  } else if (cli.durability == "fsync") {
    options.session_defaults.durability = coverage::DurabilityMode::kFsync;
  } else {
    std::cerr << "--durability must be none, async or fsync\n";
    return 2;
  }

  CoverageServer server(std::move(*service), options);
  const coverage::Status started = server.Start();
  if (!started.ok()) {
    std::cerr << started.ToString() << "\n";
    return 1;
  }
  server.StopOnSignal();
  std::cout << "coverage_server"
            << (cli.role == "shard"
                    ? " shard " + std::to_string(cli.shard_index) + "/" +
                          std::to_string(cli.shard_count)
                    : "")
            << " listening on port " << server.port() << " ("
            << server.service().num_rows() << " rows, "
            << server.service().schema().num_attributes()
            << " attributes; tau default " << cli.tau << ")\n"
            << std::flush;
  if (!cli.data_dir.empty()) {
    std::cout << "durable sessions under " << cli.data_dir << " (default "
              << cli.durability << "); " << server.num_sessions()
              << " session(s) recovered\n"
              << std::flush;
  }
  server.Wait();
  std::cout << "coverage_server: graceful shutdown complete\n";
  return 0;
}
