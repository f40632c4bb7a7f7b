#include "service/coverage_service.h"

#include <fstream>
#include <utility>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "persist/durable_engine.h"
#include "service/pool_arena.h"
#include "datagen/adversarial.h"
#include "datagen/airbnb.h"
#include "datagen/bluenile.h"
#include "datagen/compas.h"
#include "dataset/csv_stream.h"

namespace coverage {

namespace {

Status CheckThreads(int num_threads) {
  if (num_threads < 1 || num_threads > 1024) {
    return Status::InvalidArgument("num_threads must be within [1, 1024], got " +
                                   std::to_string(num_threads));
  }
  return Status::OK();
}

Status CheckTau(std::uint64_t tau) {
  if (tau == 0) {
    return Status::InvalidArgument(
        "tau must be >= 1 (Definition 3: a pattern is covered when at least "
        "tau tuples match it)");
  }
  return Status::OK();
}

/// Answers one probe through `ctx`. Exact requests (tau == 0) pay for the
/// full count; threshold requests use the early-exiting kernel and leave
/// `coverage` unset by design.
QueryOutcome AnswerOne(const CoverageOracle& oracle, const QueryRequest& q,
                       QueryContext& ctx) {
  QueryOutcome out;
  if (q.tau > 0) {
    out.covered = oracle.CoverageAtLeast(q.pattern, q.tau, ctx);
  } else {
    out.coverage = oracle.Coverage(q.pattern, ctx);
    out.covered = out.coverage >= 1;
  }
  return out;
}

/// The shared fan-out of both query surfaces: N probes distributed over the
/// leased pool in dynamically balanced chunks, one QueryContext per worker,
/// results written to their request slot (so the output order is the request
/// order no matter how workers interleave). A null pool — the arena's
/// over-budget inline lease — answers serially on the caller's thread.
QueryBatchResult RunQueryBatch(const CoverageOracle& oracle,
                               const std::vector<QueryRequest>& queries,
                               ThreadPool* pool) {
  Stopwatch timer;
  QueryBatchResult out;
  out.results.resize(queries.size());
  const int workers = pool != nullptr ? pool->num_workers() : 1;
  std::vector<QueryContext> contexts(static_cast<std::size_t>(workers));
  if (workers > 1 && queries.size() > 1) {
    pool->ParallelFor(queries.size(), /*chunk=*/8,
                      [&](int worker, std::size_t i) {
                        out.results[i] = AnswerOne(
                            oracle, queries[i],
                            contexts[static_cast<std::size_t>(worker)]);
                      });
  } else {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      out.results[i] = AnswerOne(oracle, queries[i], contexts[0]);
    }
  }
  for (const QueryContext& ctx : contexts) {
    out.coverage_queries += ctx.num_queries();
  }
  out.seconds = timer.ElapsedSeconds();
  return out;
}

std::unique_ptr<PoolArena> MakeArena(
    int num_threads, int max_total_threads,
    const std::shared_ptr<ThreadBudget>& shared_budget) {
  return std::make_unique<PoolArena>(
      num_threads, shared_budget != nullptr
                       ? shared_budget
                       : std::make_shared<ThreadBudget>(max_total_threads));
}

}  // namespace

// ---------------------------------------------------------------- Validate()

Status ServiceOptions::Validate() const {
  COVERAGE_RETURN_IF_ERROR(CheckThreads(num_threads));
  if (max_total_threads < 0) {
    return Status::InvalidArgument(
        "max_total_threads must be >= 0 (0 = unlimited)");
  }
  if (max_cardinality < 1) {
    return Status::InvalidArgument("max_cardinality must be positive");
  }
  if (csv_chunk_rows == 0) {
    return Status::InvalidArgument("csv_chunk_rows must be positive");
  }
  return Status::OK();
}

Status DatagenSpec::Validate() const {
  if (name != "compas" && name != "airbnb" && name != "bluenile" &&
      name != "diagonal") {
    return Status::InvalidArgument(
        "unknown datagen spec '" + name +
        "' (expected compas | airbnb | bluenile | diagonal)");
  }
  if (name == "airbnb" && (d < 1 || d > 36)) {
    return Status::InvalidArgument("airbnb width d must be within [1, 36]");
  }
  if (name == "diagonal" && (d < 1 || d > 64)) {
    return Status::InvalidArgument("diagonal size d must be within [1, 64]");
  }
  return Status::OK();
}

Status AuditRequest::Validate() const {
  COVERAGE_RETURN_IF_ERROR(CheckTau(tau));
  if (max_level < -1) {
    return Status::InvalidArgument(
        "max_level must be -1 (unlimited) or >= 0");
  }
  if (enumeration_limit == 0) {
    return Status::InvalidArgument("enumeration_limit must be positive");
  }
  return Status::OK();
}

Status EnhanceRequest::Validate() const {
  COVERAGE_RETURN_IF_ERROR(CheckTau(tau));
  if (lambda < 0) {
    return Status::InvalidArgument("lambda must be >= 0");
  }
  if (!rules.empty() && validator != nullptr) {
    return Status::InvalidArgument(
        "pass either rule strings or a pre-built validator, not both");
  }
  if (enumeration_limit == 0) {
    return Status::InvalidArgument("enumeration_limit must be positive");
  }
  return Status::OK();
}

Status QueryBatchRequest::Validate(const Schema& schema) const {
  const int d = schema.num_attributes();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Pattern& p = queries[i].pattern;
    if (p.num_attributes() != d) {
      return Status::InvalidArgument(
          "query " + std::to_string(i) + ": pattern " + p.ToString() +
          " has " + std::to_string(p.num_attributes()) + " cells, schema has " +
          std::to_string(d) + " attributes");
    }
    for (int a = 0; a < d; ++a) {
      const Value v = p.cell(a);
      if (v != kWildcard &&
          (v < 0 || v >= static_cast<Value>(schema.cardinality(a)))) {
        return Status::InvalidArgument(
            "query " + std::to_string(i) + ": pattern " + p.ToString() +
            " fixes attribute " + schema.attribute(a).name +
            " to out-of-range value " + std::to_string(v));
      }
    }
  }
  return Status::OK();
}

Status CoverageService::SessionOptions::Validate() const {
  COVERAGE_RETURN_IF_ERROR(CheckTau(tau));
  COVERAGE_RETURN_IF_ERROR(CheckThreads(num_threads));
  if (max_level < -1) {
    return Status::InvalidArgument(
        "max_level must be -1 (unlimited) or >= 0");
  }
  if (max_total_threads < 0) {
    return Status::InvalidArgument(
        "max_total_threads must be >= 0 (0 = unlimited)");
  }
  return Status::OK();
}

// --------------------------------------------------------------- ingestion

CoverageService::CoverageService(CoverageService&&) noexcept = default;
CoverageService& CoverageService::operator=(CoverageService&&) noexcept =
    default;
CoverageService::~CoverageService() = default;

CoverageService::Session::Session(Session&&) noexcept = default;
CoverageService::Session& CoverageService::Session::operator=(
    Session&&) noexcept = default;
CoverageService::Session::~Session() = default;

CoverageService::CoverageService(std::unique_ptr<AggregatedData> agg,
                                 ServiceOptions options)
    : options_(options),
      agg_(std::move(agg)),
      oracle_(std::make_unique<BitmapCoverage>(*agg_)),
      arena_(MakeArena(options.num_threads, options.max_total_threads,
                       options.thread_budget)) {}

StatusOr<CoverageService> CoverageService::FromDataset(
    const Dataset& data, ServiceOptions options) {
  COVERAGE_RETURN_IF_ERROR(options.Validate());
  COVERAGE_RETURN_IF_ERROR(PatternCodec::Build(data.schema()).status());
  return CoverageService(std::make_unique<AggregatedData>(data), options);
}

StatusOr<CoverageService> CoverageService::FromCsv(std::istream& is,
                                                   ServiceOptions options) {
  COVERAGE_RETURN_IF_ERROR(options.Validate());
  std::vector<Value> encoded;
  auto schema = InferSchemaFromCsv(is, options.max_cardinality, &encoded);
  if (!schema.ok()) return schema.status();
  COVERAGE_RETURN_IF_ERROR(PatternCodec::Build(*schema).status());
  auto agg = std::make_unique<AggregatedData>(*schema);
  const auto d = static_cast<std::size_t>(schema->num_attributes());
  if (d > 0) {
    for (std::size_t offset = 0; offset < encoded.size(); offset += d) {
      agg->AppendRow(std::span<const Value>(encoded.data() + offset, d));
    }
  }
  return CoverageService(std::move(agg), options);
}

StatusOr<CoverageService> CoverageService::FromCsvFile(
    const std::string& path, ServiceOptions options) {
  COVERAGE_RETURN_IF_ERROR(options.Validate());
  std::ifstream schema_pass(path);
  if (!schema_pass.good()) {
    return Status::NotFound("cannot open '" + path + "'");
  }
  auto schema = InferSchemaFromCsv(schema_pass, options.max_cardinality);
  if (!schema.ok()) return schema.status();
  COVERAGE_RETURN_IF_ERROR(PatternCodec::Build(*schema).status());

  std::ifstream ingest_pass(path);
  if (!ingest_pass.good()) {
    return Status::NotFound("cannot reopen '" + path +
                            "' for the ingest pass");
  }
  auto reader = CsvChunkReader::Open(ingest_pass, *schema);
  if (!reader.ok()) return reader.status();
  auto agg = std::make_unique<AggregatedData>(*schema);
  for (;;) {
    Dataset chunk(*schema);
    auto read = reader->ReadChunk(chunk, options.csv_chunk_rows);
    if (!read.ok()) return read.status();
    if (*read == 0) break;
    agg->AppendRows(chunk);
  }
  return CoverageService(std::move(agg), options);
}

StatusOr<CoverageService> CoverageService::FromSpec(const DatagenSpec& spec,
                                                    ServiceOptions options) {
  COVERAGE_RETURN_IF_ERROR(options.Validate());
  COVERAGE_RETURN_IF_ERROR(spec.Validate());
  Dataset data{Schema()};
  if (spec.name == "compas") {
    data = datagen::MakeCompas(spec.n == 0 ? 6889 : spec.n, spec.seed).data;
  } else if (spec.name == "airbnb") {
    data = datagen::MakeAirbnb(spec.n == 0 ? 10000 : spec.n, spec.d,
                               spec.seed);
  } else if (spec.name == "bluenile") {
    data = datagen::MakeBlueNile(spec.n == 0 ? 116300 : spec.n, spec.seed);
  } else {
    data = datagen::MakeDiagonal(spec.d);
  }
  return FromDataset(data, options);
}

// ------------------------------------------------------------ entry points

StatusOr<AuditResult> CoverageService::Audit(const AuditRequest& request,
                                             obs::Trace* trace) const {
  COVERAGE_RETURN_IF_ERROR(request.Validate());

  MupSearchOptions search;
  search.tau = request.tau;
  search.max_level = request.max_level;
  search.num_threads = options_.num_threads;
  search.enumeration_limit = request.enumeration_limit;
  search.dominance_mode = request.dominance_mode;
  search.trace = trace;

  AuditResult result;
  MupAlgorithm algorithm = request.algorithm;
  // Workers the planner reserved from the shared budget for this audit;
  // released when the search returns (the search itself does not charge
  // the budget — the plan stage is its accounting point).
  struct WorkerReservation {
    ThreadBudget* budget = nullptr;
    int spawned = 0;
    ~WorkerReservation() {
      if (budget != nullptr) budget->Release(spawned);
    }
  } reservation;
  if (algorithm == MupAlgorithm::kAuto) {
    obs::ScopedStage stage(trace, "plan");
    const PlannerDecision decision = PlanMupSearch(*agg_, search);
    algorithm = decision.algorithm;
    search.max_level = decision.max_level;
    result.planner_rationale = decision.rationale;
    search.num_threads = decision.num_threads;
    if (decision.num_threads > 1) {
      // The planner's pick still has to fit the process-wide spawn budget
      // shared with every query pool and session (a search of n workers
      // spawns n - 1; the caller is worker 0). Degrades toward serial
      // under a full house instead of oversubscribing.
      reservation.budget = arena_->budget().get();
      reservation.spawned =
          reservation.budget->TryReserve(decision.num_threads - 1);
      search.num_threads = 1 + reservation.spawned;
      if (search.num_threads != decision.num_threads) {
        result.planner_rationale +=
            "; thread budget granted " + std::to_string(search.num_threads) +
            " of " + std::to_string(decision.num_threads) + " workers";
      }
    }
  }
  auto packed = [&] {
    obs::ScopedStage stage(trace, "search");
    return FindMupsPacked(algorithm, *oracle_, search, &result.stats);
  }();
  if (!packed.ok()) return packed.status();
  result.packed = std::move(*packed);
  if (request.materialize_patterns) result.mups = result.packed->Materialize();
  result.algorithm = ToString(algorithm);
  result.max_level = search.max_level;
  result.tau = request.tau;
  result.num_rows = agg_->total_count();
  return result;
}

StatusOr<CoveragePlan> CoverageService::Enhance(
    const EnhanceRequest& request) const {
  COVERAGE_RETURN_IF_ERROR(request.Validate());
  if (request.lambda > schema().num_attributes()) {
    return Status::InvalidArgument(
        "lambda must be within [0, " +
        std::to_string(schema().num_attributes()) + "] for this schema");
  }

  ValidationOracle parsed;
  const ValidationOracle* validator = request.validator;
  for (const std::string& text : request.rules) {
    auto rule = ValidationRule::Parse(text, schema());
    if (!rule.ok()) {
      return Status::InvalidArgument("bad rule '" + text +
                                     "': " + rule.status().message());
    }
    parsed.AddRule(*rule);
  }
  if (!request.rules.empty()) validator = &parsed;

  std::vector<Pattern> mups;
  if (request.mups.has_value()) {
    mups = *request.mups;
  } else {
    // Discover the material MUPs (level <= lambda) with the planner's pick.
    MupSearchOptions search;
    search.tau = request.tau;
    search.max_level = request.lambda;
    search.num_threads = options_.num_threads;
    search.enumeration_limit = request.enumeration_limit;
    auto found = FindMups(MupAlgorithm::kAuto, *oracle_, search);
    if (!found.ok()) return found.status();
    mups = std::move(*found);
  }

  EnhancementOptions eopts;
  eopts.tau = request.tau;
  eopts.lambda = request.lambda;
  eopts.oracle = validator;
  eopts.use_naive_greedy = request.use_naive_greedy;
  eopts.enumeration_limit = request.enumeration_limit;
  if (request.min_value_count > 0) {
    return PlanCoverageEnhancementByValueCount(*oracle_, mups,
                                               request.min_value_count, eopts);
  }
  return PlanCoverageEnhancement(*oracle_, mups, eopts);
}

StatusOr<QueryOutcome> CoverageService::Query(
    const QueryRequest& request) const {
  QueryBatchRequest one;
  one.queries.push_back(request);
  COVERAGE_RETURN_IF_ERROR(one.Validate(schema()));
  QueryContext ctx;
  return AnswerOne(*oracle_, request, ctx);
}

StatusOr<QueryBatchResult> CoverageService::QueryBatch(
    const QueryBatchRequest& request, obs::Trace* trace) const {
  COVERAGE_RETURN_IF_ERROR(request.Validate(schema()));
  const PoolArena::Lease lease = arena_->Acquire();
  obs::ScopedStage stage(trace, "query");
  return RunQueryBatch(*oracle_, request.queries, lease.pool());
}

// ----------------------------------------------------------------- Session

namespace {

EngineOptions EngineOptionsFrom(const CoverageService::SessionOptions& o) {
  EngineOptions eopts;
  eopts.tau = o.tau;
  eopts.max_level = o.max_level;
  eopts.num_threads = o.num_threads;
  eopts.dominance_mode = o.dominance_mode;
  eopts.window_max_rows = o.window_max_rows;
  eopts.window_max_epochs = o.window_max_epochs;
  eopts.durability = o.durability;
  return eopts;
}

persist::DurableEngineOptions DurableOptionsFrom(
    const CoverageService::SessionOptions& o) {
  persist::DurableEngineOptions dopts;
  dopts.fsync_histogram = o.fsync_histogram;
  dopts.checkpoint_histogram = o.checkpoint_histogram;
  return dopts;
}

}  // namespace

StatusOr<CoverageService::Session> CoverageService::OpenSession(
    const Schema& schema, const SessionOptions& options) {
  COVERAGE_RETURN_IF_ERROR(options.Validate());
  if (schema.num_attributes() == 0) {
    return Status::InvalidArgument(
        "a session needs a schema with at least one attribute");
  }
  auto engine = CoverageEngine::Create(schema, EngineOptionsFrom(options));
  if (!engine.ok()) return engine.status();
  return Session(std::move(*engine), options);
}

StatusOr<CoverageService::Session> CoverageService::OpenDurableSession(
    const std::string& dir, const Schema& schema,
    const SessionOptions& options) {
  COVERAGE_RETURN_IF_ERROR(options.Validate());
  if (schema.num_attributes() == 0) {
    return Status::InvalidArgument(
        "a session needs a schema with at least one attribute");
  }
  auto durable = persist::DurableEngine::Create(
      dir, schema, EngineOptionsFrom(options), DurableOptionsFrom(options));
  if (!durable.ok()) return durable.status();
  return Session(std::move(*durable), options);
}

StatusOr<CoverageService::Session> CoverageService::ReopenDurableSession(
    const std::string& dir, const SessionOptions& options) {
  COVERAGE_RETURN_IF_ERROR(options.Validate());
  auto durable = persist::DurableEngine::Recover(
      dir, EngineOptionsFrom(options), DurableOptionsFrom(options));
  if (!durable.ok()) return durable.status();

  // The stored problem knobs define the session; reflect them back so
  // Audit() reports the tau the engine actually maintains.
  SessionOptions effective = options;
  const EngineOptions& stored = (*durable)->engine().options();
  effective.tau = stored.tau;
  effective.max_level = stored.max_level;
  effective.dominance_mode = stored.dominance_mode;
  effective.window_max_rows = stored.window_max_rows;
  effective.window_max_epochs = stored.window_max_epochs;
  return Session(std::move(*durable), effective);
}

CoverageService::Session::Session(std::unique_ptr<CoverageEngine> engine,
                                  const SessionOptions& options)
    : options_(options),
      engine_(std::move(engine)),
      arena_(MakeArena(options.num_threads, options.max_total_threads,
                       options.thread_budget)) {}

CoverageService::Session::Session(
    std::unique_ptr<persist::DurableEngine> durable,
    const SessionOptions& options)
    : options_(options),
      durable_(std::move(durable)),
      arena_(MakeArena(options.num_threads, options.max_total_threads,
                       options.thread_budget)) {}

CoverageEngine& CoverageService::Session::engine() {
  return durable_ != nullptr ? durable_->engine() : *engine_;
}

const CoverageEngine& CoverageService::Session::engine() const {
  return durable_ != nullptr ? durable_->engine() : *engine_;
}

const Schema& CoverageService::Session::schema() const {
  return engine().schema();
}

const CoverageService::SessionOptions& CoverageService::Session::options()
    const {
  return options_;
}

StatusOr<IngestStats> CoverageService::Session::IngestCsv(
    std::istream& is, std::size_t chunk_rows) {
  if (chunk_rows == 0) {
    return Status::InvalidArgument("chunk_rows must be positive");
  }
  if (durable_ == nullptr) {
    return engine_->IngestCsvChunked(is, chunk_rows);
  }
  // Durable path: each chunk goes through the WAL, so a crash mid-ingest
  // loses at most the in-flight chunk (none under durability=fsync).
  auto reader = CsvChunkReader::Open(is, schema());
  if (!reader.ok()) return reader.status();
  IngestStats stats;
  for (;;) {
    Dataset chunk(schema());
    Stopwatch read_timer;
    auto got = reader->ReadChunk(chunk, chunk_rows);
    if (!got.ok()) return got.status();
    stats.read_seconds += read_timer.ElapsedSeconds();
    if (*got == 0) break;
    EngineUpdateStats us;
    COVERAGE_RETURN_IF_ERROR(durable_->Append(chunk, &us));
    ++stats.chunks;
    stats.rows += *got;
    stats.peak_chunk_rows = std::max(stats.peak_chunk_rows, *got);
    stats.update_seconds += us.seconds;
    stats.coverage_queries += us.coverage_queries;
  }
  return stats;
}

StatusOr<EngineUpdateStats> CoverageService::Session::Append(
    const Dataset& rows, obs::Trace* trace) {
  EngineUpdateStats stats;
  if (durable_ != nullptr) {
    COVERAGE_RETURN_IF_ERROR(durable_->Append(rows, &stats, trace));
  } else {
    obs::ScopedStage stage(trace, "engine_update");
    COVERAGE_RETURN_IF_ERROR(engine_->AppendRows(rows, &stats));
  }
  return stats;
}

StatusOr<EngineUpdateStats> CoverageService::Session::Retract(
    const Dataset& rows, obs::Trace* trace) {
  EngineUpdateStats stats;
  if (durable_ != nullptr) {
    COVERAGE_RETURN_IF_ERROR(durable_->Retract(rows, &stats, trace));
  } else {
    obs::ScopedStage stage(trace, "engine_update");
    COVERAGE_RETURN_IF_ERROR(engine_->RetractRows(rows, &stats));
  }
  return stats;
}

Status CoverageService::Session::Checkpoint() {
  if (durable_ == nullptr) {
    return Status::InvalidArgument(
        "Checkpoint() requires a durable session (OpenDurableSession)");
  }
  return durable_->Checkpoint();
}

AuditResult CoverageService::Session::Audit(obs::Trace* trace) const {
  obs::ScopedStage stage(trace, "audit");
  const auto snap = engine().snapshot();
  AuditResult result;
  result.mups = snap->mups();
  result.stats.num_mups = result.mups.size();
  result.algorithm = "ENGINE-INCREMENTAL";
  result.planner_rationale =
      "epoch " + std::to_string(snap->epoch()) +
      " snapshot: MUPs maintained incrementally per append/retract, no "
      "search ran for this audit";
  result.max_level = options_.max_level;
  result.tau = options_.tau;
  result.num_rows = snap->num_rows();
  return result;
}

StatusOr<QueryBatchResult> CoverageService::Session::QueryBatch(
    const QueryBatchRequest& request, obs::Trace* trace) const {
  COVERAGE_RETURN_IF_ERROR(request.Validate(schema()));
  // One snapshot for the whole batch: every probe answers for the same
  // epoch even if a writer advances the engine mid-batch.
  const auto snap = engine().snapshot();
  const PoolArena::Lease lease = arena_->Acquire();
  obs::ScopedStage stage(trace, "query");
  return RunQueryBatch(snap->oracle(), request.queries, lease.pool());
}

std::uint64_t CoverageService::Session::epoch() const {
  return engine().epoch();
}

std::uint64_t CoverageService::Session::num_rows() const {
  return engine().num_rows();
}

}  // namespace coverage
