#ifndef COVERAGE_SERVICE_COVERAGE_SERVICE_H_
#define COVERAGE_SERVICE_COVERAGE_SERVICE_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "coverage/bitmap_coverage.h"
#include "coverage/coverage_oracle.h"
#include "dataset/aggregate.h"
#include "dataset/dataset.h"
#include "dataset/schema.h"
#include "engine/coverage_engine.h"
#include "enhancement/enhancement.h"
#include "enhancement/report.h"
#include "enhancement/validation.h"
#include "mups/mups.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pattern/pattern.h"

namespace coverage {

class PoolArena;
class ThreadBudget;

namespace persist {
class DurableEngine;
}  // namespace persist

/// The serving façade over the paper's pipeline. A CoverageService owns one
/// immutable indexed dataset — ingestion (in-memory Dataset, streamed CSV,
/// or a datagen spec), aggregation, the Appendix-A oracle, and the worker
/// pool — and answers typed requests:
///
///     request struct  ──Validate()──▶  StatusOr<response struct>
///
///   AuditRequest       → AuditResult       (Problem 1: MUPs + stats +
///                                           the planner's decision)
///   EnhanceRequest     → CoveragePlan      (Problem 2: acquisition plan)
///   QueryRequest       → QueryOutcome      (one cov(P) probe)
///   QueryBatchRequest  → QueryBatchResult  (N probes fanned out over the
///                                           pool, deterministic order)
///
/// Every entry point validates its request and returns StatusOr<> — no raw
/// bools, no silent defaults. The low-level headers (BitmapCoverage,
/// FindMups*, PlanCoverageEnhancement, CoverageEngine) stay public for power
/// users; the façade is the stable serving surface on top of them.
///
/// For mutable data (append / retract / sliding-window audits) open a
/// CoverageService::Session, which wraps the incremental CoverageEngine
/// behind the same request/response types.

/// Service-wide configuration, fixed at construction.
struct ServiceOptions {
  /// Worker count of the MUP searches and of each leased query pool.
  int num_threads = 1;

  /// Cap on *spawned* worker threads across every query pool drawing from
  /// this service's budget (a pool of num_threads spawns num_threads - 1;
  /// the caller is worker 0). 0 = unlimited. Concurrent QueryBatch calls
  /// each lease their own pool from a PoolArena until the cap is reached,
  /// then degrade to inline execution — they never serialise on a shared
  /// pool and never block each other. Ignored when `thread_budget` is set.
  int max_total_threads = 0;

  /// Share one budget across services and sessions (the coverage_server
  /// threads a single budget through its whole session registry, making
  /// `max_total_threads` genuinely process-wide). Null = private budget.
  std::shared_ptr<ThreadBudget> thread_budget;

  /// Schema-inference cap per CSV column (§II preprocessing: bucketize
  /// continuous attributes first).
  int max_cardinality = 100;

  /// Rows per chunk for the file-streaming ingestion path (FromCsvFile);
  /// peak decoded-row memory is one chunk.
  std::size_t csv_chunk_rows = 65536;

  Status Validate() const;
};

/// A synthetic-dataset spec: the generators behind the paper's §V
/// experiments, addressable by name so services can be spun up without any
/// CSV on disk (tests, benchmarks, canary traffic).
struct DatagenSpec {
  std::string name;    ///< "compas" | "airbnb" | "bluenile" | "diagonal"
  std::size_t n = 0;   ///< row count; 0 = the per-dataset default
  int d = 13;          ///< airbnb attribute width / diagonal size
  std::uint64_t seed = 42;

  Status Validate() const;
};

/// Problem 1 as a request: identify the maximal uncovered patterns.
struct AuditRequest {
  /// Coverage threshold τ (Definition 3). Must be >= 1.
  std::uint64_t tau = 30;

  /// When >= 0, limit discovery to MUPs of level <= max_level (§V-C3).
  int max_level = -1;

  /// kAuto (the default) lets the §V planner pick PATTERN-BREAKER vs
  /// DEEPDIVER from the schema and the aggregated-combination count; any
  /// concrete algorithm forces that choice.
  MupAlgorithm algorithm = MupAlgorithm::kAuto;

  /// Dominance strategy for DEEPDIVER (ablation modes; identical output).
  MupSearchOptions::DominanceMode dominance_mode =
      MupSearchOptions::DominanceMode::kBitmapIndex;

  /// Guard for the exponential enumerations (naive / combiner / apriori).
  std::uint64_t enumeration_limit = std::uint64_t{1} << 26;

  /// When false, AuditResult::mups is left empty and the MUP set is returned
  /// only in packed form (AuditResult::packed) — callers that re-encode the
  /// result (the HTTP server, the CLI's --json path) skip materializing a
  /// vector<int> per MUP. Not part of the wire protocol: the server sets it
  /// itself. Session audits, which read the engine's maintained set, always
  /// materialize.
  bool materialize_patterns = true;

  Status Validate() const;
};

/// Problem-1 response: the MUP set plus everything an operator needs to see
/// *how* the answer was produced.
struct AuditResult {
  /// Sorted lexicographically. Empty when the request set
  /// materialize_patterns = false and `packed` carries the set instead.
  std::vector<Pattern> mups;

  /// The same MUP set in packed form (plus its codec), present for every
  /// CoverageService::Audit (absent for session audits). The wire encoders
  /// render pattern strings straight from this, byte-identical to encoding
  /// `mups`.
  std::optional<PackedMupSet> packed;

  MupSearchStats stats;

  /// Display name of the algorithm that actually ran (e.g. "DEEPDIVER") —
  /// for kAuto requests this is the planner's pick, recorded here for
  /// observability.
  std::string algorithm;

  /// The effective level cap the search ran with (the planner may clamp an
  /// unlimited request on wide schemas; -1 = unlimited).
  int max_level = -1;

  /// The planner's one-line justification; empty unless the request asked
  /// for kAuto.
  std::string planner_rationale;

  std::uint64_t tau = 0;       ///< echoed from the request
  std::uint64_t num_rows = 0;  ///< dataset size the audit ran against

  /// The §I "nutritional label" built from this result.
  CoverageReport Report(const Schema& schema,
                        std::size_t max_examples = 10) const {
    return BuildCoverageReport(schema, mups, num_rows, tau, max_examples);
  }
};

/// Problem 2 as a request: plan the cheapest acquisition reaching maximum
/// covered level λ (or, with min_value_count > 0, the Definition-7
/// value-count variant).
struct EnhanceRequest {
  std::uint64_t tau = 30;
  int lambda = 1;

  /// Validation rules as strings ("age in {<20} and marital in {married}"),
  /// parsed against the service's schema. Mutually exclusive with
  /// `validator`.
  std::vector<std::string> rules;

  /// A pre-built feasibility oracle (power users); must outlive the call.
  const ValidationOracle* validator = nullptr;

  /// When set, plan from these MUPs (e.g. the result of an earlier Audit,
  /// minus patterns a domain expert discarded). When absent the service
  /// discovers the material MUPs itself (planner-chosen algorithm, level
  /// capped at lambda).
  std::optional<std::vector<Pattern>> mups;

  /// > 0 switches to the value-count variant: every uncovered pattern whose
  /// value count is >= this must reach τ (Definition 7).
  std::uint64_t min_value_count = 0;

  /// Use the per-iteration full enumeration instead of the indexed GREEDY
  /// (the Fig. 17 baseline).
  bool use_naive_greedy = false;

  std::uint64_t enumeration_limit = std::uint64_t{1} << 26;

  Status Validate() const;
};

/// One coverage probe. tau == 0 asks for the exact count; tau > 0 asks the
/// (much cheaper, early-exiting) threshold question cov(P) >= tau.
struct QueryRequest {
  Pattern pattern;
  std::uint64_t tau = 0;
};

/// A batch of probes answered concurrently. Results come back in request
/// order regardless of worker interleaving.
struct QueryBatchRequest {
  std::vector<QueryRequest> queries;

  /// Width- and range-checks every pattern against `schema`.
  Status Validate(const Schema& schema) const;
};

/// Answer to one QueryRequest.
struct QueryOutcome {
  /// Exact count for tau == 0 requests; 0 (not computed — the threshold
  /// kernel early-exits on purpose) for tau > 0 requests.
  std::uint64_t coverage = 0;

  /// cov(P) >= tau for tau > 0 requests; cov(P) >= 1 for exact requests.
  bool covered = false;
};

struct QueryBatchResult {
  /// results[i] answers queries[i].
  std::vector<QueryOutcome> results;

  std::uint64_t coverage_queries = 0;  ///< oracle calls issued
  double seconds = 0.0;                ///< wall-clock for the whole batch
};

class CoverageService {
 public:
  CoverageService(CoverageService&&) noexcept;
  CoverageService& operator=(CoverageService&&) noexcept;
  ~CoverageService();  // out-of-line: ThreadPool is incomplete here

  /// Options for a Session (the mutable-data surface); mirrors
  /// EngineOptions plus the search knobs fixed for the session's lifetime.
  struct SessionOptions {
    std::uint64_t tau = 30;
    int max_level = -1;
    int num_threads = 1;
    MupSearchOptions::DominanceMode dominance_mode =
        MupSearchOptions::DominanceMode::kBitmapIndex;

    /// Sliding-window limits (see EngineOptions); 0 = unbounded.
    std::size_t window_max_rows = 0;
    std::size_t window_max_epochs = 0;

    /// Query-pool budgeting, exactly as in ServiceOptions: each session
    /// owns a PoolArena so concurrent QueryBatch calls fan out instead of
    /// serialising; `thread_budget` (when set) shares one process-wide cap
    /// across sessions.
    int max_total_threads = 0;
    std::shared_ptr<ThreadBudget> thread_budget;

    /// WAL policy for durable sessions (OpenDurableSession /
    /// ReopenDurableSession); in-memory sessions ignore it. fsync is the
    /// default because a session that bothered to be durable should
    /// survive kill -9, not just clean exits.
    DurabilityMode durability = DurabilityMode::kFsync;

    /// Evict the session after this many seconds without a request (the
    /// coverage_server reaper; 0 = never). Durable sessions checkpoint
    /// before closing and reopen lazily on next touch; in-memory sessions
    /// are simply dropped.
    std::uint64_t idle_ttl_seconds = 0;

    /// Optional persistence latency histograms, forwarded to
    /// DurableEngineOptions (must outlive the session; null disables). The
    /// coverage_server points these at its metrics registry so every
    /// session's fsyncs and checkpoints land in one exposition.
    obs::Histogram* fsync_histogram = nullptr;
    obs::Histogram* checkpoint_histogram = nullptr;

    Status Validate() const;
  };

  /// The mutable-data surface: wraps an incremental CoverageEngine so
  /// append / retract / sliding-window workloads go through the same
  /// request/response API as the immutable service. MUPs are maintained
  /// incrementally per epoch, so Audit() is a snapshot read, not a search.
  class Session {
   public:
    Session(Session&&) noexcept;
    Session& operator=(Session&&) noexcept;
    ~Session();  // out-of-line: ThreadPool is incomplete here

    const Schema& schema() const;
    const SessionOptions& options() const;

    /// Streams CSV (header validated against the schema) in chunks,
    /// advancing one engine epoch per chunk.
    StatusOr<IngestStats> IngestCsv(std::istream& is,
                                    std::size_t chunk_rows = 65536);

    /// Appends / retracts one batch as one epoch. A non-null `trace`
    /// (owned by the calling thread) receives the engine/WAL/fsync stage
    /// breakdown of the mutation.
    StatusOr<EngineUpdateStats> Append(const Dataset& rows,
                                       obs::Trace* trace = nullptr);
    StatusOr<EngineUpdateStats> Retract(const Dataset& rows,
                                        obs::Trace* trace = nullptr);

    /// The current epoch's Problem-1 answer. No search runs here — the
    /// engine maintains the MUP set incrementally — so `stats` reports only
    /// the result size and `algorithm` records the maintenance strategy.
    AuditResult Audit(obs::Trace* trace = nullptr) const;

    /// Batched probes against one consistent epoch snapshot.
    StatusOr<QueryBatchResult> QueryBatch(const QueryBatchRequest& request,
                                          obs::Trace* trace = nullptr) const;

    std::uint64_t epoch() const;
    std::uint64_t num_rows() const;

    /// Forces a snapshot + WAL rotation now (durable sessions only;
    /// InvalidArgument otherwise). The server calls this before closing a
    /// session so reopening replays nothing.
    Status Checkpoint();

    /// Escape hatch for power users (retaining full engine access does not
    /// invalidate the session). For durable sessions, mutate through the
    /// session — writing via the raw engine bypasses the WAL.
    CoverageEngine& engine();
    const CoverageEngine& engine() const;

    /// The persistence wrapper, or nullptr for in-memory sessions.
    persist::DurableEngine* durable() { return durable_.get(); }
    const persist::DurableEngine* durable() const { return durable_.get(); }

   private:
    friend class CoverageService;
    Session(std::unique_ptr<CoverageEngine> engine,
            const SessionOptions& options);
    Session(std::unique_ptr<persist::DurableEngine> durable,
            const SessionOptions& options);

    SessionOptions options_;
    std::unique_ptr<CoverageEngine> engine_;  ///< null when durable_ owns it
    std::unique_ptr<persist::DurableEngine> durable_;
    /// Per-session query-pool arena: concurrent QueryBatch calls each
    /// lease their own pool (bounded by the session's ThreadBudget).
    mutable std::unique_ptr<PoolArena> arena_;
  };

  // --- ingestion ----------------------------------------------------------

  /// Indexes an in-memory dataset (copied into the aggregated form; the
  /// input need not outlive the service).
  static StatusOr<CoverageService> FromDataset(const Dataset& data,
                                               ServiceOptions options = {});

  /// Ingests a whole CSV stream (header + labelled values, schema inferred)
  /// in one pass.
  static StatusOr<CoverageService> FromCsv(std::istream& is,
                                           ServiceOptions options = {});

  /// Streams a CSV file in two passes — schema discovery, then chunked
  /// aggregation via CsvChunkReader — so peak decoded-row memory is one
  /// chunk (options.csv_chunk_rows) no matter the file size.
  static StatusOr<CoverageService> FromCsvFile(const std::string& path,
                                               ServiceOptions options = {});

  /// Generates one of the §V synthetic datasets.
  static StatusOr<CoverageService> FromSpec(const DatagenSpec& spec,
                                            ServiceOptions options = {});

  /// Opens a mutable-data session over a fixed (bucketized) schema,
  /// starting from the empty dataset at epoch 0.
  static StatusOr<Session> OpenSession(const Schema& schema,
                                       const SessionOptions& options);
  static StatusOr<Session> OpenSession(const Schema& schema) {
    return OpenSession(schema, SessionOptions());
  }

  /// Opens a *durable* session rooted at `dir`: every mutation is WAL-
  /// logged per options.durability and snapshots are written on rotation /
  /// Checkpoint(), so the session survives kill -9 (see
  /// docs/PERSISTENCE.md). `dir` must not already hold a session.
  static StatusOr<Session> OpenDurableSession(const std::string& dir,
                                              const Schema& schema,
                                              const SessionOptions& options);

  /// Reopens the durable session persisted at `dir` (NotFound when none),
  /// recovering snapshot + WAL tail. The stored problem knobs (tau,
  /// max_level, window, dominance) win over `options`; only runtime knobs
  /// (num_threads, durability, thread budgeting, idle TTL) are taken from
  /// the caller. The returned session's options() reflects the stored
  /// values.
  static StatusOr<Session> ReopenDurableSession(const std::string& dir,
                                                const SessionOptions& options);

  // --- request/response entry points --------------------------------------

  /// A non-null `trace` (owned by the calling thread) receives `plan` and
  /// per-level `search_level_<k>` stages.
  StatusOr<AuditResult> Audit(const AuditRequest& request,
                              obs::Trace* trace = nullptr) const;
  StatusOr<CoveragePlan> Enhance(const EnhanceRequest& request) const;
  StatusOr<QueryOutcome> Query(const QueryRequest& request) const;
  StatusOr<QueryBatchResult> QueryBatch(const QueryBatchRequest& request,
                                        obs::Trace* trace = nullptr) const;

  // --- introspection ------------------------------------------------------

  const Schema& schema() const { return agg_->schema(); }
  const AggregatedData& data() const { return *agg_; }
  const BitmapCoverage& oracle() const { return *oracle_; }
  const ServiceOptions& options() const { return options_; }
  std::uint64_t num_rows() const { return agg_->total_count(); }

 private:
  CoverageService(std::unique_ptr<AggregatedData> agg, ServiceOptions options);

  ServiceOptions options_;
  std::unique_ptr<AggregatedData> agg_;
  std::unique_ptr<BitmapCoverage> oracle_;  // references *agg_
  /// Query-pool arena: concurrent QueryBatch calls lease separate pools
  /// over the freely-shared read-only oracle, so N clients fan out N ways
  /// (bounded by options_.max_total_threads / options_.thread_budget).
  mutable std::unique_ptr<PoolArena> arena_;
};

}  // namespace coverage

#endif  // COVERAGE_SERVICE_COVERAGE_SERVICE_H_
