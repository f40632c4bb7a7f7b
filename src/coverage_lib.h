#ifndef COVERAGE_COVERAGE_LIB_H_
#define COVERAGE_COVERAGE_LIB_H_

/// \file
/// Umbrella header for libcoverage, a reproduction of
/// "Assessing and Remedying Coverage for a Given Dataset" (ICDE 2019).
///
/// Typical use goes through the CoverageService façade — typed requests in,
/// StatusOr<> responses out, with the paper's §V algorithm guidance built in
/// as the kAuto planner:
///
///   #include "coverage_lib.h"
///   using namespace coverage;
///
///   Dataset data = ...;                            // categorical relation
///   auto service = CoverageService::FromDataset(data);
///   auto audit = service->Audit(AuditRequest{.tau = 30});    // Problem 1
///   //   audit->mups + the planner's recorded decision
///
///   EnhanceRequest enhance{.tau = 30, .lambda = 2};
///   enhance.mups = audit->mups;
///   auto plan = service->Enhance(enhance);                   // Problem 2
///
/// Mutable data (appends, retractions, sliding windows) goes through
/// CoverageService::OpenSession, which wraps the incremental CoverageEngine
/// behind the same request/response types.
///
/// To serve over the network, wrap the service in a CoverageServer
/// (server/coverage_server.h): an embedded HTTP/1.1 front-end speaking the
/// JSON wire protocol of server/wire.h — the same serializer behind
/// `coverage_cli --json`.
///
/// The lower layers stay public for hand-wiring (every header below is
/// self-contained — include exactly what you need):
///
///   AggregatedData agg(data);                 // distinct combos + counts
///   BitmapCoverage oracle(agg);               // Appendix-A inverted index
///   MupSearchOptions opts{.tau = 30};
///   auto mups = FindMupsDeepDiver(oracle, opts);   // Problem 1

#include "common/bitvector.h"           // IWYU pragma: export
#include "common/executor.h"            // IWYU pragma: export
#include "common/rng.h"                 // IWYU pragma: export
#include "common/status.h"              // IWYU pragma: export
#include "common/stopwatch.h"           // IWYU pragma: export
#include "common/string_util.h"         // IWYU pragma: export
#include "common/table_printer.h"       // IWYU pragma: export
#include "coverage/bitmap_coverage.h"   // IWYU pragma: export
#include "coverage/coverage_oracle.h"   // IWYU pragma: export
#include "coverage/scan_coverage.h"     // IWYU pragma: export
#include "datagen/adversarial.h"        // IWYU pragma: export
#include "datagen/airbnb.h"             // IWYU pragma: export
#include "datagen/bluenile.h"           // IWYU pragma: export
#include "datagen/compas.h"             // IWYU pragma: export
#include "dataset/aggregate.h"          // IWYU pragma: export
#include "dataset/bucketize.h"          // IWYU pragma: export
#include "dataset/csv_stream.h"         // IWYU pragma: export
#include "dataset/dataset.h"            // IWYU pragma: export
#include "dataset/schema.h"             // IWYU pragma: export
#include "engine/coverage_engine.h"     // IWYU pragma: export
#include "enhancement/enhancement.h"    // IWYU pragma: export
#include "enhancement/expansion.h"      // IWYU pragma: export
#include "enhancement/hitting_set.h"    // IWYU pragma: export
#include "enhancement/report.h"         // IWYU pragma: export
#include "enhancement/validation.h"     // IWYU pragma: export
#include "ml/decision_tree.h"           // IWYU pragma: export
#include "ml/model_metrics.h"           // IWYU pragma: export
#include "ml/split.h"                   // IWYU pragma: export
#include "mups/mup_index.h"             // IWYU pragma: export
#include "mups/mups.h"                  // IWYU pragma: export
#include "pattern/packed_pattern.h"     // IWYU pragma: export
#include "pattern/packed_set.h"         // IWYU pragma: export
#include "pattern/pattern.h"            // IWYU pragma: export
#include "persist/durable_engine.h"     // IWYU pragma: export
#include "persist/fault_fs.h"           // IWYU pragma: export
#include "persist/snapshot.h"           // IWYU pragma: export
#include "persist/wal.h"                // IWYU pragma: export
#include "pattern/pattern_graph.h"      // IWYU pragma: export
#include "pattern/pattern_ops.h"        // IWYU pragma: export
#include "server/coverage_server.h"     // IWYU pragma: export
#include "server/http.h"                // IWYU pragma: export
#include "server/http_client.h"         // IWYU pragma: export
#include "server/http_server.h"         // IWYU pragma: export
#include "server/json.h"                // IWYU pragma: export
#include "server/wire.h"                // IWYU pragma: export
#include "service/coverage_service.h"   // IWYU pragma: export

#endif  // COVERAGE_COVERAGE_LIB_H_
